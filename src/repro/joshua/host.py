"""The host daemon: one client-facing endpoint over the replica units.

:class:`ReplicaHost` is the daemon half of the replication core: it owns
the endpoint and the typed RPC dispatcher, runs one
:class:`~repro.joshua.shard.ShardReplica` per driver it was given, routes
state-transfer pushes and pulls to the owning replica, and by default
hands every client :class:`~repro.joshua.wire.Command` to replica 0. The
PVFS metadata service (the ``"pvfs-mds"`` daemon) is a plain host with
one :class:`~repro.pvfs.service.MetadataBackend`;
:class:`~repro.joshua.server.JoshuaServer` is a host with one PBS driver
per shard and its own request routing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.daemon import Daemon
from repro.gcs.config import GroupConfig
from repro.joshua.shard import BackendDriver, ShardReplica
from repro.joshua.wire import Command, StateXferReq, XferPush
from repro.net.address import Address
from repro.pbs.wire import ErrorResp
from repro.rpc import RpcDispatcher
from repro.util.errors import JoshuaError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["ReplicaHost"]


class ReplicaHost(Daemon):
    """A daemon hosting one replica unit per backend driver.

    Parameters
    ----------
    node / name / port:
        Hosting node, daemon name and client-facing port.
    drivers:
        One backend driver per ordering shard.
    gcs_port:
        Group-communication port of shard 0 (shard *k* uses
        ``gcs_port + k``).
    initial_heads / contacts:
        Node names for static bootstrap vs. live join (exactly one).
    group_config:
        Group communication tuning (``group_id`` is set per shard).
    """

    def __init__(
        self,
        node: "Node",
        name: str,
        port: int,
        drivers: list[BackendDriver],
        *,
        gcs_port: int,
        group_config: GroupConfig,
        initial_heads: list[str] | None = None,
        contacts: list[str] | None = None,
    ):
        if (initial_heads is None) == (contacts is None):
            raise JoshuaError("exactly one of initial_heads/contacts required")
        super().__init__(node, name, port)
        self.initial_heads = list(initial_heads or [])
        self.contacts = list(contacts or [])
        self.nshards = len(drivers)

        #: Latched the first time any read-path or ``track_seq`` request
        #: arrives at this host. Gates the applied-counter transfer in
        #: :meth:`~repro.joshua.xfer.StateTransfer.capture_state`, so
        #: deployments that never use the read path never put the counter
        #: on the wire (the pinned baseline scenarios stay bit-identical).
        self.seq_tracking = False

        self.shards = [
            ShardReplica(self, k, self.nshards, group_config, gcs_port, driver)
            for k, driver in enumerate(drivers)
        ]
        self.rpc = self._build_dispatcher()

    # -- aggregates over the replica units ------------------------------------

    @property
    def groups(self) -> list:
        """Every shard's GCS membership, in shard order."""
        return [replica.group for replica in self.shards]

    @property
    def active(self) -> bool:
        """Fully in service: every shard joined + state transferred."""
        return all(replica.active for replica in self.shards)

    @active.setter
    def active(self, value: bool) -> None:
        for replica in self.shards:
            replica.active = value

    @property
    def stats(self) -> dict[str, int]:
        """Engine counters summed across shards (per-shard counters are on
        ``self.shards[k].stats``)."""
        totals: dict[str, int] = {}
        for replica in self.shards:
            for key, value in sorted(replica.stats.items()):
                totals[key] = totals.get(key, 0) + value
        return totals

    # -- lifecycle ------------------------------------------------------------

    def on_start(self) -> None:
        for replica in self.shards:
            name = (
                f"{self.tag}-executor"
                if self.nshards == 1
                else f"{self.tag}-executor-s{replica.index}"
            )
            self.spawn(replica.executor.loop(), name=name)
            replica.start()

    def on_stop(self, *, crashed: bool) -> None:
        for replica in self.shards:
            replica.group.stop()

    def leave(self) -> None:
        """Voluntary departure — handled as a forced failure (paper §4:
        the JOSHUA server shuts down via a signal)."""
        for replica in self.shards:
            replica.group.leave()
        self.stop()

    # -- frames and requests --------------------------------------------------

    def run(self):
        # Non-RPC frames (fire-and-forget pushes) route through a typed
        # dispatch table, same shape as the RPC handler registry.
        pushes = {XferPush: self._handle_xfer_push}
        while True:
            delivery = yield self.endpoint.recv()
            frame = delivery.payload
            if self.rpc.handle_frame(delivery.src, frame):
                continue
            handler = pushes.get(type(frame))
            if handler is not None:
                handler(frame)

    def _build_dispatcher(self) -> RpcDispatcher:
        rpc = RpcDispatcher(self)
        rpc.register(Command, self._handle_command)
        rpc.register(StateXferReq, self._handle_xfer_req)
        return rpc

    def _reply(self, dst: Address, request_id: int, response) -> None:
        self.rpc.reply(dst, request_id, response)

    def _handle_command(self, src: Address, request_id: int, payload):
        return self.shards[0].executor.submit(src, request_id, payload)

    def _handle_xfer_push(self, frame: XferPush) -> None:
        if 0 <= frame.shard < self.nshards:
            self.shards[frame.shard].xfer.handle_response(frame.response)

    def _handle_xfer_req(self, src: Address, request_id: int, payload: StateXferReq):
        # State is normally *pushed* when the executor reaches the marker;
        # a direct request means the joiner never heard that push (lost
        # frame). Re-serve the capture if we have it, else tell the joiner
        # to retry/recut.
        if not 0 <= payload.shard < self.nshards:
            return ErrorResp("bad-request", f"no shard {payload.shard}")
        response = self.shards[payload.shard].xfer.served(payload.marker_uuid)
        if response is not None:
            return response
        return ErrorResp("retry", "marker not reached")
