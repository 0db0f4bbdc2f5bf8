"""The PBS driver: JOSHUA's resource-specific half of the replica.

JOSHUA is the shard core (:mod:`repro.joshua.shard`) driving the local
TORQUE server through its ordinary service interface — external
replication, the PBS stack is never modified. Everything that knows about
PBS lives here:

* command intake and execution: ``jsub``/``jdel``/``jstat`` become
  ``SubmitReq``/``DeleteReq``/``StatReq`` against the local server, then
  the calibrated ``cmd_reply`` pause before the output is relayed;
* job-id striping: shard *k* of *N* forces ids ``k+1, k+1+N, k+1+2N, …``
  on its submissions, making ids globally unique, deterministic across
  that shard's replicas, and instantly attributable (``(seq-1) % N``
  names the owning shard — the router's delete/stat/mutex key). With one
  shard the stripe is disabled and the local PBS assigns ids itself;
* state capture and install: job rows captured from the local queue and
  re-created by command replay (``"replay"`` — the prototype's approach;
  held jobs cannot be transferred, a reproduced limitation) or by bulk
  load (``"snapshot"`` — the future-work mode);
* the launch-mutex plugin (:class:`~repro.joshua.mutex.MutexArbiter`) and
  the post-view-change server-list announcement to the moms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gcs.view import View
from repro.joshua.mutex import MutexArbiter, _MutexEntry
from repro.joshua.shard import BackendDriver
from repro.joshua.wire import Claim, Command, Done, JDelReq, JSubReq, Started
from repro.net.address import Address
from repro.obs.collector import collector_of
from repro.pbs.job import Job, JobSpec, JobState
from repro.pbs.server import PBS_SERVER_PORT
from repro.pbs.wire import (
    AdminServers,
    DeleteReq,
    ErrorResp,
    LoadStateReq,
    PurgeReq,
    StatReq,
    SubmitReq,
)
from repro.rpc import call as rpc_call
from repro.util.errors import PBSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.joshua.config import JoshuaTimes
    from repro.joshua.shard import ShardReplica

__all__ = ["PBSDriver", "REPLICA_SERVER_NAME"]

#: All replicated servers share one logical server name so replayed
#: submissions yield identical job ids on every head (see DESIGN.md).
REPLICA_SERVER_NAME = "joshua"


class PBSDriver(BackendDriver):
    """One shard's view of the local PBS server."""

    def __init__(
        self,
        local_pbs: Address,
        times: "JoshuaTimes",
        state_transfer: str,
        moms: list[Address],
    ):
        self.local_pbs = local_pbs
        self.times = times
        self.state_transfer = state_transfer
        self.moms = moms
        #: jsub executions this shard has totally ordered — drives the
        #: striped force_job_id sequence (see :meth:`next_forced_job_id`).
        self.stripe_count = 0

    def attach(self, replica: "ShardReplica") -> None:
        super().attach(replica)
        replica.stats.update(claims=0, revocations=0)
        self.arbiter = MutexArbiter(replica)

    def local_rpc(self, payload, *, timeout: float = 3.0, retries: int = 2):
        s = self.replica
        response = yield from rpc_call(
            s.node.network, s.node.name, self.local_pbs, payload,
            timeout=timeout, retries=retries,
        )
        return response

    # -- commands -------------------------------------------------------------

    def command(self, request) -> Command:
        if isinstance(request, JSubReq):
            return Command(request.uuid, "jsub", request.spec)
        if isinstance(request, JDelReq):
            return Command(request.uuid, "jdel", request.job_id)
        return Command(request.uuid, "jstat", request.job_id)

    def next_forced_job_id(self) -> str | None:
        """The next striped job id, or ``None`` when striping is off.

        Advances only on totally-ordered jsub executions, so every replica
        of this shard computes the identical sequence. With one shard the
        local PBS assigns ids itself — the pre-sharding wire behaviour.
        """
        s = self.replica
        if s.nshards <= 1:
            return None
        seq = s.index + 1 + self.stripe_count * s.nshards
        self.stripe_count += 1
        return f"{seq}.{REPLICA_SERVER_NAME}"

    def execute(self, command: Command):
        try:
            if command.kind == "jsub":
                forced = self.next_forced_job_id()
                if forced is None:
                    request = SubmitReq(command.payload)
                else:
                    request = SubmitReq(command.payload, force_job_id=forced)
                result = yield from self.local_rpc(request)
            elif command.kind == "jdel":
                result = yield from self.local_rpc(DeleteReq(command.payload))
            elif command.kind == "jstat":
                result = yield from self.local_rpc(StatReq(command.payload))
            else:  # pragma: no cover - protocol guard
                result = ErrorResp("bad-command", command.kind)
        except PBSError as exc:
            result = ErrorResp("pbs-error", str(exc))
        job_id = getattr(result, "job_id", None)
        if command.kind == "jsub" and job_id is not None:
            collector = collector_of(self.replica.node.network)
            if collector is not None:
                # Later lifecycle events (claims, launches, obits) are
                # keyed by PBS job id; tie them back to this command.
                collector.job_alias(command.uuid, job_id)
        return result

    def reply_pause(self):
        yield self.replica.kernel.timeout(self.times.cmd_reply)

    # -- group hooks ----------------------------------------------------------

    def on_deliver(self, payload) -> None:
        if isinstance(payload, Claim):
            self.arbiter.on_claim(payload)
        elif isinstance(payload, Started):
            self.arbiter.on_started(payload)
        elif isinstance(payload, Done):
            self.arbiter.on_done(payload)

    def on_view(self, view: View) -> None:
        s = self.replica
        self.arbiter.revoke_for_view(view)
        # Tell every mom the current server set, so obituaries (and future
        # start attempts) reach exactly the live heads. Only shard 0
        # announces: every shard spans the same head set, and N copies of
        # the same list would just multiply mom traffic.
        if (
            s.index == 0
            and view.members
            and view.coordinator == s.group.address
        ):
            servers = tuple(
                sorted(Address(m.node, PBS_SERVER_PORT) for m in view.members)
            )
            for mom in self.moms:
                if not s.endpoint.closed:
                    s.endpoint.send(mom, AdminServers(servers))

    # -- state capture / install ----------------------------------------------

    def snapshot(self):
        s = self.replica
        stat = yield from self.local_rpc(StatReq(None))
        rows = list(stat.rows)
        if s.nshards > 1:
            # The local PBS holds every shard's jobs; capture only our
            # stripe. next_seq then carries the *stripe count* — taken from
            # the driver's own counter, not inferred from surviving rows,
            # because it advances in total order and therefore agrees
            # across replicas even after the highest-id job was deleted.
            rows = [r for r in rows if self._owned(r["job_id"])]
            next_seq = self.stripe_count
        else:
            next_seq = 1 + max(
                (int(r["job_id"].split(".")[0]) for r in rows), default=0
            )
        live = [r for r in rows if r["state"] in ("Q", "R", "E", "H", "W")]
        skipped: list[str] = []
        items: list = []
        if self.state_transfer == "replay":
            for row in live:
                if row["state"] == "H":
                    # The paper's documented limitation: command replay
                    # cannot reconstruct held jobs consistently.
                    skipped.append(row["job_id"])
                    continue
                items.append(("submit", self.spec_from_row(row), row["job_id"]))
        else:
            for row in live:
                items.append(self.job_from_row(row))
        mutex = tuple(
            (job_id, entry.winner, entry.started)
            for job_id, entry in sorted(self.arbiter.entries.items())
        )
        return {
            "mode": self.state_transfer,
            "items": tuple(items),
            "next_seq": next_seq,
            "mutex": mutex,
            "skipped": tuple(skipped),
        }

    def _owned(self, job_id: str) -> bool:
        """*job_id* falls in this replica's stripe of the id space."""
        s = self.replica
        return (int(job_id.split(".", 1)[0]) - 1) % s.nshards == s.shard_id

    @staticmethod
    def spec_from_row(row: dict) -> JobSpec:
        return JobSpec(
            name=row["name"],
            owner=row["owner"],
            nodes=row["nodes"],
            walltime=row["walltime"],
            queue=row["queue"],
        )

    def job_from_row(self, row: dict) -> Job:
        now = self.replica.kernel.now
        state = JobState(row["state"])
        job = Job(
            row["job_id"],
            self.spec_from_row(row),
            submit_time=now,
            comment="state transfer",
        )
        if state in (JobState.RUNNING, JobState.EXITING):
            job = job.transition(
                JobState.RUNNING,
                start_time=now,
                exec_nodes=tuple(row["exec_nodes"]),
                run_count=1,
            )
        elif state is JobState.HELD:
            job = job.transition(JobState.HELD)
        elif state is JobState.WAITING:
            job = job.transition(JobState.WAITING)
        return job

    def restore(self, response):
        s = self.replica
        sharded = s.nshards > 1
        # Discard any stale local state (a rejoining head recovered its old
        # queue from disk; the transferred state supersedes it). Sharded:
        # wipe only our stripe — sibling replicas share this PBS server.
        if sharded:
            yield from self.local_rpc(PurgeReq(s.nshards, s.shard_id))
        else:
            yield from self.local_rpc(PurgeReq())
        if response.mode == "replay":
            if not sharded:
                # "Configuration file modification": align the id counter
                # first, then replay the live jobs through the ordinary PBS
                # interface. (Sharded submissions carry forced striped ids,
                # so there is no counter to align — next_seq is the stripe
                # count, restored below.)
                yield from self.local_rpc(LoadStateReq((), response.next_seq))
            for _kind, spec, job_id in response.items:
                try:
                    yield from self.local_rpc(SubmitReq(spec, force_job_id=job_id))
                except PBSError as exc:  # pragma: no cover - replay guard
                    s.log.error(s.tag, f"replay of {job_id} failed: {exc}")
            if response.skipped:
                s.log.warning(
                    s.tag,
                    f"replay could not transfer held jobs: {list(response.skipped)}",
                )
        else:
            # Sharded snapshots merge into the shared queue (other shards'
            # jobs survived the stripe purge) and leave the id counter to
            # the forced-id ratchet.
            yield from self.local_rpc(
                LoadStateReq(
                    tuple(response.items),
                    0 if sharded else response.next_seq,
                    merge=sharded,
                )
            )
        if sharded:
            self.stripe_count = response.next_seq
        for job_id, winner, started in response.mutex:
            self.arbiter.entries.setdefault(job_id, _MutexEntry(winner, started))
