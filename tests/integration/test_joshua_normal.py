"""JOSHUA normal operation: replication, determinism, exactly-once."""

import pytest

from repro.pbs.job import JobState
from repro.util.errors import NoActiveHeadError

from tests.integration.conftest import drive, make_stack, settle, total_runs


class TestReplicatedSubmission:
    def test_jsub_returns_job_id(self, stack):
        job_id = drive(stack, stack.client().jsub(name="hello", walltime=2.0))
        assert job_id == "1.joshua"

    def test_all_heads_know_the_job(self, stack):
        job_id = drive(stack, stack.client().jsub(name="hello", walltime=300.0))
        settle(stack, 1.0)
        for head in stack.head_names:
            assert job_id in stack.pbs(head).jobs

    def test_identical_job_ids_across_heads(self, stack):
        client = stack.client()
        ids = [drive(stack, client.jsub(name=f"j{i}", walltime=300)) for i in range(3)]
        settle(stack, 1.0)
        for head in stack.head_names:
            assert sorted(j.job_id for j in stack.pbs(head).jobs) == sorted(ids)

    def test_replica_queues_identical_order(self, stack):
        client = stack.client()
        for i in range(4):
            drive(stack, client.jsub(name=f"j{i}", walltime=900))
        settle(stack, 1.0)
        snapshots = [
            [(j.job_id, j.spec.name) for j in stack.pbs(h).jobs]
            for h in stack.head_names
        ]
        assert snapshots[0] == snapshots[1]

    def test_concurrent_clients_identical_order(self):
        """Two users submit simultaneously from different nodes; the total
        order makes every replica agree on who came first."""
        stack = make_stack(heads=3)
        kernel = stack.cluster.kernel
        c1 = stack.client(node="compute0", prefer="head0")
        c2 = stack.client(node="compute1", prefer="head1")
        p1 = kernel.spawn(c1.jsub(name="alice", walltime=900))
        p2 = kernel.spawn(c2.jsub(name="bob", walltime=900))
        stack.cluster.run(until=kernel.all_of([p1, p2]))
        settle(stack, 1.0)
        orders = [
            [j.spec.name for j in stack.pbs(h).jobs] for h in stack.head_names
        ]
        assert orders[0] == orders[1] == orders[2]
        assert sorted(orders[0]) == ["alice", "bob"]

    def test_jstat_reflects_replicated_queue(self, stack):
        client = stack.client(node="login")
        job_id = drive(stack, client.jsub(name="watched", walltime=300))
        rows = drive(stack, client.jstat())
        assert [r["job_id"] for r in rows] == [job_id]

    def test_jdel_running_job_killed_once_everywhere(self, stack):
        """jdel of a RUNNING job: every replica's delete handler asks the
        mom to kill it — the kill is idempotent, the single obituary (exit
        271) completes the job on every head."""
        client = stack.client()
        job_id = drive(stack, client.jsub(name="kill-me", walltime=600))
        settle(stack, 3.0)  # running on a mom
        drive(stack, client.jdel(job_id))
        settle(stack, 6.0)
        kills = sum(stack.mom(c.name).stats["kills"] for c in stack.cluster.computes)
        assert kills == 1  # idempotent despite replicated delete handling
        for head in stack.head_names:
            job = stack.pbs(head).jobs.get(job_id)
            assert job.state is JobState.COMPLETE
            assert job.exit_status == 271

    def test_jdel_removes_everywhere(self, stack):
        client = stack.client()
        drive(stack, client.jsub(name="blocker", walltime=900))
        job_id = drive(stack, client.jsub(name="target", walltime=900))
        drive(stack, client.jdel(job_id))
        settle(stack, 1.0)
        for head in stack.head_names:
            assert stack.pbs(head).jobs.get(job_id).state is JobState.COMPLETE

    def test_commands_from_login_node(self, stack):
        job_id = drive(stack, stack.client(node="login").jsub(name="remote"))
        assert job_id.endswith(".joshua")

    def test_client_requires_heads(self, stack):
        from repro.joshua import JoshuaClient
        with pytest.raises(NoActiveHeadError):
            JoshuaClient(stack.cluster.network, "login", [])


class TestExactlyOnceExecution:
    def test_job_runs_exactly_once_with_two_heads(self, stack):
        drive(stack, stack.client().jsub(name="once", walltime=2.0))
        stack.cluster.run(until=30.0)
        assert total_runs(stack) == 1

    def test_job_runs_exactly_once_with_four_heads(self):
        stack = make_stack(heads=4)
        drive(stack, stack.client().jsub(name="once", walltime=2.0))
        stack.cluster.run(until=40.0)
        assert total_runs(stack) == 1
        # The other heads' start attempts were emulated, not rejected.
        emulations = sum(
            stack.mom(c.name).stats["emulations"] for c in stack.cluster.computes
        )
        assert emulations == 3

    def test_every_head_sees_completion(self, stack):
        job_id = drive(stack, stack.client().jsub(name="done", walltime=2.0))
        stack.cluster.run(until=30.0)
        for head in stack.head_names:
            job = stack.pbs(head).jobs.get(job_id)
            assert job.state is JobState.COMPLETE
            assert job.exit_status == 0

    def test_stream_of_jobs_all_run_once(self, stack):
        client = stack.client()
        ids = [drive(stack, client.jsub(name=f"s{i}", walltime=1.0)) for i in range(5)]
        stack.cluster.run(until=60.0)
        assert total_runs(stack) == 5
        for head in stack.head_names:
            for job_id in ids:
                assert stack.pbs(head).jobs.get(job_id).state is JobState.COMPLETE

    def test_fifo_order_preserved_under_replication(self, stack):
        client = stack.client()
        ids = [drive(stack, client.jsub(name=f"f{i}", walltime=1.0)) for i in range(3)]
        stack.cluster.run(until=40.0)
        for head in stack.head_names:
            acct = stack.pbs(head).accounting
            starts = {r.job_id: r.time for r in acct.events("S")}
            assert starts[ids[0]] < starts[ids[1]] < starts[ids[2]]

    def test_mutex_released_after_completion(self, stack):
        job_id = drive(stack, stack.client().jsub(name="rel", walltime=1.0))
        stack.cluster.run(until=30.0)
        for head in stack.head_names:
            assert job_id not in stack.joshua(head).shards[0].driver.arbiter.entries


class TestOutputDedup:
    def test_retry_same_uuid_returns_cached_result(self, stack):
        """A client retry (same uuid) must not double-submit."""
        from repro.joshua.wire import JSubReq
        from repro.pbs.job import JobSpec
        from repro.pbs.wire import rpc_call
        from repro.net.address import Address

        net = stack.cluster.network
        req = JSubReq("fixed-uuid-1", JobSpec(name="dedup", walltime=900))

        def twice():
            first = yield from rpc_call(net, "login", Address("head0", 4412), req)
            second = yield from rpc_call(net, "login", Address("head1", 4412), req)
            return first, second

        process = stack.cluster.kernel.spawn(twice())
        first, second = stack.cluster.run(until=process)
        assert first.job_id == second.job_id
        settle(stack, 1.0)
        assert len(stack.pbs("head0").jobs) == 1

    def test_uuid_cached_result_survives_execution(self, stack):
        client = stack.client()
        job_id = drive(stack, client.jsub(name="a", walltime=900))
        joshua = stack.joshua("head0")
        cached = [v for v in joshua.shards[0].executor.results.values()]
        assert any(getattr(v, "job_id", None) == job_id for v in cached)
