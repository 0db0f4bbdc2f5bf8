"""The ``joshua`` server daemon: one per active head node.

Replication model (paper §4): the daemon accepts ``jsub``/``jdel``/``jstat``
from clients, multicasts each command through the group communication
system with SAFE service (totally ordered *and* stable — the delivered-once
output guarantee rides on stability), and a strictly serial executor applies
delivered commands to the **local** TORQUE server through the ordinary PBS
wire protocol. Identical command order + deterministic server/scheduler =
identical replica state.

The daemon is a :class:`~repro.joshua.host.ReplicaHost` — a thin
**front-end router** over one or more
:class:`~repro.joshua.shard.ShardReplica` units (PROTOCOLS.md §10), each
driving the local PBS server through its own
:class:`~repro.joshua.pbs_driver.PBSDriver`. Each replica owns a complete
protocol stack — GCS membership on its own per-shard port,
:class:`~repro.joshua.executor.SerialExecutor`,
:class:`~repro.joshua.xfer.StateTransfer`, and the driver's
:class:`~repro.joshua.mutex.MutexArbiter` — while the host owns the one
client-facing endpoint and the typed RPC dispatcher, and routes each
request to the owning shard:

* ``jsub`` — by PBS queue name (falling back to the job owner), hashed
  with CRC-32 so the mapping is stable across runs and processes;
* anything keyed by job id (``jdel``, ``jstat <id>``, the jmutex/jdone
  traffic, state-transfer pulls) — by the id stripe ``(seq-1) % nshards``
  (see :mod:`repro.joshua.shard`);
* ``jstat`` with no id — shard 0. The local PBS holds every shard's jobs,
  so the listing is complete; it is only *ordered* against shard 0's
  command stream (cross-shard queries have no global order — the
  documented cost of sharding).

With ``shards=1`` (default) the router degenerates to a pass-through and
the daemon is wire-identical to the pre-sharding build
(``tests/integration/test_wire_baseline.py`` pins that).
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

from repro.gcs.config import GroupConfig
from repro.joshua.config import ERA_2006_JOSHUA, JOSHUA_GROUP_CONFIG, JoshuaTimes
from repro.joshua.host import ReplicaHost
from repro.joshua.pbs_driver import PBSDriver
from repro.joshua.shard import ShardReplica
from repro.joshua.wire import (
    Done,
    JDelReq,
    JDoneReq,
    JMutexReq,
    JMutexResp,
    JStartedReq,
    JStatReq,
    JStatResp,
    JSubReq,
    Started,
    StateXferReq,
    refuse_joining,
)
from repro.net.address import Address
from repro.obs.collector import collector_of
from repro.pbs.job import JobSpec
from repro.pbs.server import PBS_SERVER_PORT
from repro.pbs.wire import ErrorResp, StatReq
from repro.rpc import RpcDispatcher
from repro.util.errors import JoshuaError, PBSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["JoshuaServer", "JOSHUA_PORT", "JOSHUA_GCS_PORT"]

JOSHUA_PORT = 4412
JOSHUA_GCS_PORT = 4413


class JoshuaServer(ReplicaHost):
    """The joshua daemon on one head node.

    Parameters
    ----------
    node:
        Hosting head node (must also run a PBS server + scheduler).
    initial_heads:
        Names of the founding head nodes (including this one) — the static
        bootstrap group. Mutually exclusive with *contacts*.
    contacts:
        For a later-joining head: names of head nodes to join through.
    group_config / times:
        Protocol calibration. The config's ``group_id`` is overridden per
        shard (shard *k* runs with ``group_id=k`` on GCS port
        ``JOSHUA_GCS_PORT + k``).
    state_transfer:
        ``"replay"`` (paper-faithful) or ``"snapshot"`` (extension).
    moms:
        Mom addresses, for post-view-change server-list announcements.
    shards:
        Number of independent ordering groups hosted on this head set.
    """

    def __init__(
        self,
        node: "Node",
        *,
        initial_heads: list[str] | None = None,
        contacts: list[str] | None = None,
        group_config: GroupConfig = JOSHUA_GROUP_CONFIG,
        times: JoshuaTimes = ERA_2006_JOSHUA,
        state_transfer: str = "replay",
        moms: list[Address] | None = None,
        shards: int = 1,
    ):
        if state_transfer not in ("replay", "snapshot"):
            raise JoshuaError(f"unknown state_transfer mode {state_transfer!r}")
        if shards < 1:
            raise JoshuaError("shards must be >= 1")
        self.times = times
        self.state_transfer = state_transfer
        self.moms = list(moms or [])
        self.local_pbs = Address(node.name, PBS_SERVER_PORT)

        #: When the head is busy answering local reads until (simulation
        #: time): the daemon and its local PBS are single-threaded, so one
        #: status answer occupies the head at a time — per-head read
        #: capacity is ``1 / times.read_service`` (the scaling the
        #: read-path bench measures). Only the read path reserves it; the
        #: ordered paths keep their historical timing untouched.
        self._read_busy_until = 0.0

        drivers = [
            PBSDriver(self.local_pbs, times, state_transfer, self.moms)
            for _ in range(shards)
        ]
        super().__init__(
            node, "joshua", JOSHUA_PORT, drivers,
            gcs_port=JOSHUA_GCS_PORT, group_config=group_config,
            initial_heads=initial_heads, contacts=contacts,
        )

    @property
    def group(self):
        """Shard 0's GCS membership. Code in this repository uses
        ``shards[k].group``; ``perfbench/workloads.py`` still reads this
        handle."""
        return self.shards[0].group

    @property
    def head_name(self) -> str:
        return self.node.name

    # ------------------------------------------------------------------
    # request routing
    # ------------------------------------------------------------------

    def shard_for_queue(self, spec: JobSpec) -> ShardReplica:
        """The shard owning *spec*'s namespace slice: CRC-32 of the PBS
        queue name (falling back to the owner for unqueued specs) — stable
        across runs, processes and hash seeds."""
        if self.nshards == 1:
            return self.shards[0]
        key = spec.queue or spec.owner
        return self.shards[zlib.crc32(key.encode()) % self.nshards]

    def shard_for_job(self, job_id: str) -> ShardReplica:
        """The shard owning *job_id*, from the id stripe ``(seq-1) % N``."""
        if self.nshards == 1:
            return self.shards[0]
        head = str(job_id).split(".", 1)[0]
        if not head.isdigit():
            return self.shards[0]
        return self.shards[(int(head) - 1) % self.nshards]

    def _route_command(self, payload) -> ShardReplica:
        if isinstance(payload, JSubReq):
            return self.shard_for_queue(payload.spec)
        if payload.job_id is None:  # jstat with no id: complete but only
            return self.shards[0]  # shard-0-ordered (see module docstring)
        return self.shard_for_job(payload.job_id)

    # ------------------------------------------------------------------
    # client / mom RPC handling
    # ------------------------------------------------------------------

    def _build_dispatcher(self) -> RpcDispatcher:
        """Typed request routing with the calibrated receive delays."""
        t = self.times

        def fallback(src, request_id, payload):
            return ErrorResp("bad-request", str(type(payload)))

        rpc = RpcDispatcher(self, fallback=fallback)
        rpc.register((JSubReq, JDelReq, JStatReq), self._handle_command,
                     delay=t.cmd_receive)
        rpc.register(JMutexReq, self._handle_jmutex, delay=t.mutex_process)
        rpc.register(JStartedReq, self._handle_started, delay=t.mutex_process)
        rpc.register(JDoneReq, self._handle_done, delay=t.mutex_process)
        rpc.register(StateXferReq, self._handle_xfer_req, delay=t.cmd_receive)
        return rpc

    def _handle_command(self, src: Address, request_id: int, payload):
        if isinstance(payload, JStatReq) and payload.consistency != "ordered":
            self.seq_tracking = True
            return self._read_locally(src, request_id, payload)
        if getattr(payload, "track_seq", False):
            self.seq_tracking = True
        replica = self._route_command(payload)
        return replica.executor.submit(src, request_id, payload)

    # ------------------------------------------------------------------
    # read path (PROTOCOLS.md §12)
    # ------------------------------------------------------------------

    def _read_locally(self, src: Address, request_id: int, req: JStatReq):
        """Answer a read-path ``jstat`` from the local PBS replica.

        ``eventual`` answers immediately; ``ryw`` first waits (bounded by
        ``times.read_catchup_timeout``) for every gated shard's applied
        position to reach the client's floor, then falls back to the
        ordered path. An id-less query gates on — and reports — **every**
        shard's position: all replicas on a head apply to the same local
        PBS, so one local stat *is* the per-shard fan-out, merged.
        """
        t0 = self.kernel.now
        if req.consistency not in ("eventual", "ryw"):
            return ErrorResp(
                "bad-request", f"unknown consistency {req.consistency!r}"
            )
        gating = (
            self.shards if req.job_id is None
            else [self.shard_for_job(req.job_id)]
        )
        if not all(replica.active for replica in gating):
            return refuse_joining()
        floors = dict(req.min_seq) if req.consistency == "ryw" else {}
        unmet = []
        for replica in gating:
            floor = floors.get(replica.shard_id, 0)
            if floor <= 0:
                continue
            if not replica.seq_exact:
                # A floor counter cannot prove the client's write was
                # applied here; only the ordered path can serialise it.
                return self._read_fallback(src, request_id, req, floors, 0.0)
            if replica.applied_seq < floor:
                unmet.append((floor, replica))
        if unmet:
            deadline_at = self.kernel.now + self.times.read_catchup_timeout
            waiters = [(r, r.waiter_for_seq(floor)) for floor, r in unmet]
            for replica, waiter in waiters:
                if waiter.triggered:
                    continue
                remaining = deadline_at - self.kernel.now
                if remaining > 0:
                    yield self.kernel.any_of(
                        [waiter, self.kernel.timeout(remaining)]
                    )
                if not waiter.triggered:
                    for other, pending in waiters:
                        other.forget_waiter(pending)
                    return self._read_fallback(
                        src, request_id, req, floors, self.kernel.now - t0
                    )
            if not all(replica.active for replica in gating):
                # Demoted (view change / resync) while we waited.
                return refuse_joining()
        # Reserve this head's serial read occupancy (floor-waiting above
        # costs none — a blocked read burns no CPU).
        start = max(self.kernel.now, self._read_busy_until)
        self._read_busy_until = start + self.times.read_service
        if start > self.kernel.now:
            yield self.kernel.timeout(start - self.kernel.now)
        try:
            stat = yield from gating[0].driver.local_rpc(StatReq(req.job_id))
        except PBSError as exc:
            result = ErrorResp("pbs-error", str(exc))
        else:
            as_of = tuple(sorted(
                (replica.shard_id, replica.applied_seq)
                for replica in gating if replica.seq_exact
            ))
            result = JStatResp(tuple(stat.rows), as_of, self.head_name)
        self._observe_read(req, "local", self.kernel.now - t0, gating)
        yield self.kernel.timeout(self.times.cmd_reply)
        return result

    def _read_fallback(
        self, src: Address, request_id: int, req: JStatReq,
        floors: dict, waited: float,
    ):
        """Route a read the local replica cannot serve in time into the
        ordered stream. An ordered command on shard *k* executes after all
        committed shard-*k* writes, so id-less queries go to the shard with
        the largest unmet floor — the one the client is actually waiting
        on. (Simultaneously lagging *several* shards of an id-less query
        is the documented cross-shard limitation, PROTOCOLS.md §12.)"""
        replica = self._route_command(req)
        if req.job_id is None and floors:
            best_lag = 0
            for candidate in self.shards:
                floor = floors.get(candidate.shard_id, 0)
                lag = floor - (
                    candidate.applied_seq if candidate.seq_exact else 0
                )
                if lag > best_lag:
                    best_lag, replica = lag, candidate
        self._observe_read(req, "fallback", waited, [replica])
        return replica.executor.submit(src, request_id, req)

    def _observe_read(
        self, req: JStatReq, outcome: str, waited: float, shards: list,
    ) -> None:
        collector = collector_of(self.node.network)
        if collector is None:
            return
        lag = sum(r.delivered_commands - r.drained_commands for r in shards)
        collector.joshua_read(
            self.node.name, trace_id=req.uuid, mode=req.consistency,
            outcome=outcome, wait_s=waited, lag=lag,
            shard=(
                shards[0].shard_id
                if self.nshards > 1 and len(shards) == 1 else None
            ),
        )

    def _handle_jmutex(self, src: Address, request_id: int, req: JMutexReq) -> None:
        self.shard_for_job(req.job_id).driver.arbiter.handle_jmutex(src, request_id, req)

    def _handle_started(self, src: Address, request_id: int, payload: JStartedReq):
        replica = self.shard_for_job(payload.job_id)
        if replica.active and replica.group.can_multicast:
            replica.group.multicast(Started(payload.job_id))
            return JMutexResp("ok")
        # Refuse rather than ack-and-drop: the mom's notifier must
        # move on to a head that can actually record the event.
        return refuse_joining("not in view")

    def _handle_done(self, src: Address, request_id: int, payload: JDoneReq):
        replica = self.shard_for_job(payload.job_id)
        if replica.active and replica.group.can_multicast:
            replica.group.multicast(Done(payload.job_id))
            return JMutexResp("ok")
        return refuse_joining("not in view")
