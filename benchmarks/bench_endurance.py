"""Endurance: the paper's multi-day stress scenario, survived.

§5: "after 3-5 days of excessive operation with up-to hundreds of job
submissions a minute Transis crashed and needed to be restarted. ... we
suspect incorrect memory allocation/deallocation of Transis to be the
primary cause."

This bench replays a compressed version of that scenario — a sustained
diurnal submission stream with head failures and a rejoin sprinkled in —
and asserts the reproduction's group stack does **not** degrade: every job
runs exactly once, replicas agree at the end, and the stability-based
payload garbage collection keeps the protocol state bounded (the hygiene
whose absence the authors blamed for the Transis crashes).
"""

from repro.bench.workloads import DiurnalWorkload
from repro.cluster.cluster import Cluster
from repro.gcs.config import GroupConfig
from repro.joshua.deploy import build_joshua_stack
from repro.pbs.job import JobState

GROUP = GroupConfig(
    heartbeat_interval=0.25,
    suspect_timeout=0.8,
    flush_timeout=1.5,
    retransmit_interval=0.1,
    gc_interval=10.0,
)


def run_endurance(*, jobs: int = 150, seed: int = 71) -> dict:
    from repro.pbs.service_times import ServiceTimes

    # A slower scheduler poll keeps the simulated event volume sane over a
    # multi-hour run without changing any outcome the bench asserts on.
    times = ServiceTimes(sched_poll_interval=0.4)
    cluster = Cluster(head_count=3, compute_count=2, seed=seed, login_node=True)
    stack = build_joshua_stack(cluster, group_config=GROUP, service_times=times)
    kernel = cluster.kernel
    client = stack.client(node="login", timeout=4.0)
    submitted: list[str] = []
    # A compressed "day": the diurnal pattern squeezed into one simulated
    # hour at a few submissions per minute sustained.
    workload = DiurnalWorkload(
        jobs, base_rate=jobs / 3600.0, day_seconds=3600.0,
        walltime_range=(2.0, 8.0), seed=seed,
    )

    def submitter():
        for delay, spec in workload:
            if delay:
                yield kernel.timeout(delay)
            job_id = yield from client.jsub(spec)
            submitted.append(job_id)

    def churn():
        # Mid-run head failure and later restoration as a fresh joiner.
        yield kernel.timeout(800.0)
        cluster.node("head0").crash()
        yield kernel.timeout(600.0)
        node = cluster.node("head0")
        node.restart(daemons=False)
        node._daemon_factories.clear()
        stack._install_head_daemons(
            node, initial=False,
            contacts=[h for h in stack.live_heads() if h != "head0"],
        )

    process = kernel.spawn(submitter())
    kernel.spawn(churn())
    cluster.run(until=process)
    cluster.run(until=kernel.now + 400.0)

    # head1/head2 lived the whole run; the rejoined head0 deliberately
    # carries only post-join history (replay transfers live jobs only).
    veterans = ["head1", "head2"]
    queues = {
        h: tuple((j.job_id, j.state.value) for j in stack.pbs(h).jobs)
        for h in veterans
    }
    runs = sum(stack.mom(c.name).stats["runs"] for c in cluster.computes)
    live = [h for h in stack.head_names if cluster.node(h).is_up
            and "joshua" in cluster.node(h).daemons]
    payloads = {h: stack.joshua(h).shards[0].group.queue.payload_count() for h in live}
    completed = sum(
        1 for j in stack.pbs("head1").jobs if j.state is JobState.COMPLETE
    )
    return {
        "submitted": len(submitted),
        "completed": completed,
        "runs": runs,
        "replicas_agree": len(set(queues.values())) == 1,
        "rejoined_active": stack.joshua("head0").active,
        "max_resident_payloads": max(payloads.values()),
        "gc_released": max(
            stack.joshua(h).shards[0].group.stats.get("gc_released", 0) for h in live
        ),
        "sim_hours": round(kernel.now / 3600.0, 2),
    }


def test_endurance_day_of_operation(benchmark, report):
    rows = [benchmark.pedantic(run_endurance, rounds=1, iterations=1)]
    from repro.bench.reporting import format_table
    report(benchmark, "Endurance: compressed day under churn", format_table(rows), rows)
    result = rows[0]
    assert result["submitted"] == 150
    assert result["completed"] == result["submitted"]
    assert result["runs"] == result["submitted"]  # exactly once, all day
    assert result["replicas_agree"]
    # The GC keeps protocol memory bounded by the unstable window, not by
    # the day's traffic.
    assert result["max_resident_payloads"] < 100
    assert result["gc_released"] > result["submitted"]
