"""Launch mutual exclusion (``jmutex``/``jdone``) claim arbitration.

A plugin of the PBS driver (:mod:`repro.joshua.pbs_driver`). Every head's
scheduler independently dispatches each job, so the mom receives one start
attempt per head; each attempt's prologue asks its head's joshua server,
which multicasts a SAFE :class:`~repro.joshua.wire.Claim`. The first claim
in the total order wins — only that head's attempt replies ``"run"``, the
rest emulate. ``jdone`` (from the mom's epilogue) releases the mutex.

Orphan-winner rerun: if a winner head dies *before* its launch actually
happened, every surviving server notices at the next view change (claim
present, no :class:`~repro.joshua.wire.Started`, winner not in view) and
enqueues a local ``qrerun`` through the serial executor, so the job is
re-dispatched and re-arbitrated rather than stranded in an emulated
RUNNING state.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING

from repro.gcs.messages import SAFE
from repro.gcs.view import View
from repro.joshua.wire import Claim, Done, JMutexReq, JMutexResp, Started
from repro.net.address import Address
from repro.obs.collector import collector_of
from repro.pbs.wire import RerunReq
from repro.util.errors import PBSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.joshua.shard import ShardReplica

__all__ = ["MutexArbiter", "_MutexEntry"]


class _MutexEntry:
    __slots__ = ("winner", "started")

    def __init__(self, winner: str, started: bool = False):
        self.winner = winner
        self.started = started


class MutexArbiter:
    """Launch-mutex state and arbitration for one replica."""

    def __init__(self, replica: "ShardReplica"):
        self.s = replica
        #: Launch mutual exclusion state: job_id -> entry.
        self.entries: dict[str, _MutexEntry] = {}
        self.claimed: set[str] = set()  # job_ids we have claimed ourselves
        self._waiters: dict[str, list[tuple[Address, int]]] = {}

    # -- request side ---------------------------------------------------------

    def handle_jmutex(self, src: Address, request_id: int, req: JMutexReq) -> None:
        s = self.s
        collector = collector_of(s.node.network)
        if collector is not None:
            collector.job_event(s.node.name, "job.jmutex",
                                job_id=req.job_id, head=req.head)
        entry = self.entries.get(req.job_id)
        if entry is not None:
            decision = "run" if entry.winner == req.head else "emulate"
            s._reply(src, request_id, JMutexResp(decision, entry.winner))
            return
        self._waiters.setdefault(req.job_id, []).append((src, request_id))
        if req.job_id not in self.claimed and s.group.can_multicast:
            self.claimed.add(req.job_id)
            s.stats["claims"] += 1
            s.group.multicast(Claim(req.job_id, s.head_name), service=SAFE)

    def flush_waiters(self, job_id: str) -> None:
        s = self.s
        entry = self.entries.get(job_id)
        if entry is None:
            return
        waiters = self._waiters.pop(job_id, [])
        decision = "run" if entry.winner == s.head_name else "emulate"
        if waiters:
            collector = collector_of(s.node.network)
            if collector is not None:
                collector.job_event(s.node.name, "job.decided", job_id=job_id,
                                    decision=decision, winner=entry.winner)
        for src, request_id in waiters:
            s._reply(src, request_id, JMutexResp(decision, entry.winner))

    # -- delivered (totally ordered) side -------------------------------------

    def on_claim(self, claim: Claim) -> None:
        if claim.job_id not in self.entries:
            self.entries[claim.job_id] = _MutexEntry(claim.head)
            collector = collector_of(self.s.node.network)
            if collector is not None:
                collector.job_event(self.s.node.name, "job.claim",
                                    job_id=claim.job_id, head=claim.head)
        self.flush_waiters(claim.job_id)

    def on_started(self, started: Started) -> None:
        entry = self.entries.get(started.job_id)
        if entry is not None:
            entry.started = True

    def on_done(self, done: Done) -> None:
        self.entries.pop(done.job_id, None)
        self.claimed.discard(done.job_id)

    # -- orphan-winner revocation ---------------------------------------------

    def revoke_for_view(self, view: View) -> None:
        """Claims whose winner left the view without the job having started
        will never launch; requeue deterministically."""
        s = self.s
        member_nodes = {m.node for m in view.members}
        doomed = sorted(
            job_id
            for job_id, entry in self.entries.items()
            if entry.winner not in member_nodes and not entry.started
        )
        for job_id in doomed:
            self.entries.pop(job_id, None)
            self.claimed.discard(job_id)
            s.stats["revocations"] += 1
            s.executor.enqueue(partial(self.execute_revoke, job_id))

    def execute_revoke(self, job_id: str):
        s = self.s
        try:
            yield from s.driver.local_rpc(RerunReq(job_id), retries=1)
            s.log.warning(s.tag, f"requeued {job_id}: launch winner died pre-start")
        except PBSError:
            pass  # job not running locally (already finished or unknown)
