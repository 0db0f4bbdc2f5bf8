"""Per-shard replica unit: the resource-agnostic replication core.

A :class:`ShardReplica` is one ordering group's worth of symmetric
active/active state on one host daemon (paper §3's universal wrapper). It
owns one :class:`~repro.gcs.member.GroupMember` (bound to the per-shard
port ``gcs_base_port + index`` with ``group_id=index``, so frames from
different shards can never cross-deliver), one
:class:`~repro.joshua.executor.SerialExecutor` (UUID dedup, SAFE
multicast, serial execution, exactly-once output) and one
:class:`~repro.joshua.xfer.StateTransfer` (marker-cut join, partition-merge
demote/resync, the lost-push pull path).

Everything specific to the replicated service sits behind a
:class:`BackendDriver`, the resource-specific half of the replica:
:class:`~repro.joshua.pbs_driver.PBSDriver` for JOSHUA's PBS interface,
:class:`~repro.pvfs.service.MetadataBackend` for the PVFS metadata server.
The core never imports either — one dedup/ordering/join pipeline serves
every deterministic service.

The hosting daemon (:class:`~repro.joshua.host.ReplicaHost`) keeps the
single client-facing endpoint and routes each request to the owning
replica.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import TYPE_CHECKING, Generator

from repro.gcs.member import GroupMember
from repro.gcs.messages import DeliveredMessage
from repro.gcs.view import View
from repro.joshua.executor import SerialExecutor
from repro.joshua.wire import Command, StateXferResp, XferMarker
from repro.joshua.xfer import StateTransfer
from repro.net.address import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.gcs.config import GroupConfig
    from repro.joshua.host import ReplicaHost

__all__ = ["BackendDriver", "ShardReplica", "queue_for_shard"]


def queue_for_shard(shard: int, nshards: int) -> str:
    """The lowest-numbered queue name ``q<j>`` the router maps to *shard*.

    The router hashes queue names with CRC-32, so consecutive ``q0, q1, …``
    do **not** land on consecutive shards; workloads and benches that want
    to target (or evenly cover) specific shards use this search instead of
    guessing names.
    """
    j = 0
    while True:
        name = f"q{j}"
        if zlib.crc32(name.encode()) % nshards == shard:
            return name
        j += 1


class BackendDriver:
    """The deterministic service one :class:`ShardReplica` replicates.

    A driver supplies three coroutines — :meth:`execute`, :meth:`snapshot`
    and :meth:`restore` — and may override the hooks, which default to
    no-ops. Determinism is the driver's contract: the same command sequence
    must yield the same state and the same results at every replica.
    """

    #: The replica this driver serves (set by :meth:`attach`).
    replica: "ShardReplica"

    def attach(self, replica: "ShardReplica") -> None:
        """Bind the driver to its replica (called from the replica's
        constructor, before the group starts)."""
        self.replica = replica

    def command(self, request) -> Command:
        """The totally ordered :class:`Command` for a client *request*
        (default: the request already is one)."""
        return request

    def execute(self, command: Command) -> Generator:  # pragma: no cover
        """Apply one delivered command; returns its (cached) result. An
        exception it raises is cached and relayed as the result instead
        (:func:`~repro.joshua.wire.service_error`)."""
        raise NotImplementedError

    def reply_pause(self) -> Generator:
        """Runs between caching a result and relaying it (default: none)."""
        yield from ()

    def snapshot(self) -> Generator:  # pragma: no cover
        """Capture the state at a marker cut: returns the service's
        :class:`~repro.joshua.wire.StateXferResp` fields (``mode``,
        ``items``, ``next_seq``, ``mutex`` and optionally ``skipped``)."""
        raise NotImplementedError

    def restore(self, response: StateXferResp) -> Generator:  # pragma: no cover
        """Replace the local state with a transferred capture."""
        raise NotImplementedError

    def on_deliver(self, payload) -> None:
        """A delivered group payload other than a command or marker."""

    def on_view(self, view: View) -> None:
        """A view installed (after the state-transfer hook has seen it)."""


class ShardReplica:
    """One shard's protocol engines on one host daemon.

    The attributes that are genuinely host-wide (the client endpoint, the
    RPC reply path, logging identity) delegate back to the host so one
    head still looks like one daemon to the outside.
    """

    def __init__(
        self,
        server: "ReplicaHost",
        index: int,
        nshards: int,
        group_config: "GroupConfig",
        gcs_base_port: int,
        driver: BackendDriver,
    ):
        self.server = server
        self.index = index
        self.shard_id = index
        self.nshards = nshards
        self.gcs_port = gcs_base_port + index
        self.node = server.node
        self.kernel = server.kernel
        self.contacts = server.contacts

        #: Fully in service (joined + state transferred) — per shard: one
        #: shard can be mid-resync while its siblings keep executing.
        self.active = False
        self.stats = {"commands": 0, "executed": 0,
                      "state_transfers_served": 0,
                      "state_transfers_pulled": 0}
        #: Commands this replica has actually executed (dedup-skipped
        #: re-deliveries do not count, so every replica of a shard computes
        #: the identical sequence) — the staleness position the read path
        #: reports and the RYW catch-up gate waits on.
        self.applied_seq = 0
        #: Whether ``applied_seq`` is exact (founders) or a floor (a joiner
        #: whose sponsor did not transfer its counter). A floor counter can
        #: serve eventual reads but must not stamp writes or satisfy RYW
        #: floors — understating a client's floor would admit stale reads.
        self.seq_exact = True
        #: Commands delivered by the group to this replica (applied or not)
        #: and commands its executor has drained — their difference is the
        #: read path's staleness-lag gauge (the local apply backlog).
        self.delivered_commands = 0
        self.drained_commands = 0
        #: RYW catch-up waiters: ``(floor, event)`` pairs; the executor
        #: succeeds the event once ``applied_seq`` reaches the floor.
        self._seq_waiters: list = []

        self.group = GroupMember(
            server.node.network.bind(server.node.name, self.gcs_port),
            dataclasses.replace(group_config, group_id=index, shard_count=nshards),
            on_deliver=self._on_deliver,
            on_view=self._on_view,
        )
        self.executor = SerialExecutor(self)
        self.xfer = StateTransfer(self)
        self.driver = driver
        driver.attach(self)

    # -- host delegation ------------------------------------------------------

    @property
    def head_name(self) -> str:
        return self.node.name

    @property
    def address(self) -> Address:
        """The *client-facing* address of the host — markers carry it, and
        it is shard-unambiguous because markers are multicast within one
        shard's own group."""
        return self.server.address

    @property
    def endpoint(self):
        return self.server.endpoint

    @property
    def log(self):
        return self.server.log

    @property
    def tag(self) -> str:
        if self.nshards == 1:
            return self.server.tag
        return f"{self.server.tag}[s{self.index}]"

    def _reply(self, dst: Address, request_id: int, response) -> None:
        # Looked up at call time, never captured: tests monkeypatch the
        # host's _reply and must intercept replica traffic too.
        self.server._reply(dst, request_id, response)

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Boot or join this shard's group (from the daemon's on_start)."""
        server = self.server
        if server.initial_heads:
            self.group.boot(
                [Address(h, self.gcs_port) for h in server.initial_heads]
            )
            self.active = True
        else:
            self.group.join([Address(h, self.gcs_port) for h in server.contacts])

    # -- read-path sequence surface -------------------------------------------

    def note_applied(self) -> None:
        """One command actually executed: advance the applied position and
        release any RYW waiters it satisfies."""
        self.applied_seq += 1
        if not self._seq_waiters:
            return
        still_waiting = []
        for floor, event in self._seq_waiters:
            if self.applied_seq >= floor:
                if not event.triggered:
                    event.succeed(self.applied_seq)
            else:
                still_waiting.append((floor, event))
        self._seq_waiters = still_waiting

    def restore_applied(self, seq: int, exact: bool) -> None:
        """Re-anchor the applied position after a state transfer (the
        sponsor's counter at the marker cut) and release waiters the jump
        satisfies."""
        self.seq_exact = exact
        if seq > self.applied_seq:
            self.applied_seq = seq - 1
            self.note_applied()
        else:
            self.applied_seq = seq

    def waiter_for_seq(self, floor: int):
        """A kernel event that succeeds (with the applied position) once
        ``applied_seq`` reaches *floor* — immediately if it already has."""
        event = self.kernel.event()
        if self.applied_seq >= floor:
            event.succeed(self.applied_seq)
        else:
            self._seq_waiters.append((floor, event))
        return event

    def forget_waiter(self, event) -> None:
        """Drop a catch-up waiter that timed out (fell back to ordered)."""
        self._seq_waiters = [
            (floor, e) for floor, e in self._seq_waiters if e is not event
        ]

    # -- group callbacks ------------------------------------------------------

    def _on_deliver(self, msg: DeliveredMessage) -> None:
        payload = msg.payload
        if self.xfer.should_drop(payload):
            return
        if isinstance(payload, (Command, XferMarker)):
            if isinstance(payload, Command):
                self.delivered_commands += 1
            self.executor.queue.put_nowait(msg)
            self.xfer.note_enqueued(payload)
        else:
            self.driver.on_deliver(payload)

    def _on_view(self, view: View) -> None:
        self.xfer.on_view(view)
        self.driver.on_view(view)
