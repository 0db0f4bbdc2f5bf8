#!/usr/bin/env python3
"""The paper's §5 functional test campaign, as one executable checklist.

"Extensive functional testing revealed correct behavior during normal
system operation and in case of single and multiple simultaneous failures
... Head nodes were able to join the service group, leave it voluntary,
and fail, while job and resource management state was maintained
consistently at all head nodes and continuous service was provided to
applications and to users."

Each checklist item below drives the full simulated system through one of
those clauses and verifies the observable outcome.

Run:  python examples/functional_testing.py
"""

from repro.cluster import Cluster
from repro.gcs.config import GroupConfig
from repro.joshua import build_joshua_stack
from repro.pbs.job import JobState

GROUP = GroupConfig(
    heartbeat_interval=0.1, suspect_timeout=0.35,
    flush_timeout=0.8, retransmit_interval=0.05,
)

CHECKS: list[tuple[str, bool]] = []


def check(description: str, passed: bool) -> None:
    CHECKS.append((description, passed))
    print(f"  [{'PASS' if passed else 'FAIL'}] {description}")


def fresh(heads=3):
    cluster = Cluster(head_count=heads, compute_count=2, seed=1906, login_node=True)
    stack = build_joshua_stack(cluster, group_config=GROUP)
    cluster.run(until=0.5)
    return cluster, stack


def drive(cluster, coroutine):
    process = cluster.kernel.spawn(coroutine)
    return cluster.run(until=process)


def queues_equal(stack, heads):
    snapshots = {
        tuple((j.job_id, j.state.value) for j in stack.pbs(h).jobs) for h in heads
    }
    return len(snapshots) == 1


def main() -> None:
    print("§5 functional checklist — normal operation")
    cluster, stack = fresh()
    client = stack.client(node="login")
    ids = [drive(cluster, client.jsub(name=f"n{i}", walltime=2.0)) for i in range(3)]
    cluster.run(until=30.0)
    check("jobs submitted through jsub complete on every head",
          all(stack.pbs(h).jobs.get(i).state is JobState.COMPLETE
              for h in stack.head_names for i in ids))
    runs = sum(stack.mom(c.name).stats["runs"] for c in cluster.computes)
    check("each job executed exactly once (jmutex)", runs == len(ids))
    check("replica queues identical", queues_equal(stack, stack.head_names))

    print("\n§5 functional checklist — single failure")
    cluster, stack = fresh()
    client = stack.client(node="login", prefer="head2")
    before = drive(cluster, client.jsub(name="before", walltime=20.0))
    cluster.run(until=3.0)
    cluster.node("head0").crash()
    cluster.run(until=cluster.kernel.now + 3.0)
    after = drive(cluster, client.jsub(name="after", walltime=2.0))
    cluster.run(until=60.0)
    survivors = ["head1", "head2"]
    check("service continued through the failure (new submission accepted)",
          all(after in stack.pbs(h).jobs for h in survivors))
    job = stack.pbs("head1").jobs.get(before)
    check("running application survived without restart",
          job.state is JobState.COMPLETE and job.run_count == 1)
    check("state consistent across survivors", queues_equal(stack, survivors))

    print("\n§5 functional checklist — multiple simultaneous failures")
    cluster, stack = fresh(heads=4)
    client = stack.client(node="login", prefer="head3")
    precious = drive(cluster, client.jsub(name="precious", walltime=600.0))
    cluster.node("head0").crash()
    cluster.node("head1").crash()
    cluster.run(until=cluster.kernel.now + 5.0)
    rows = drive(cluster, client.jstat())
    check("two simultaneous failures tolerated; queue intact",
          any(r["job_id"] == precious for r in rows))
    check("survivors formed a two-member view",
          stack.joshua("head3").shards[0].group.view.size == 2)

    print("\n§5 functional checklist — join / voluntary leave")
    cluster, stack = fresh(heads=2)
    client = stack.client(node="login")
    seed_job = drive(cluster, client.jsub(name="seed", walltime=600.0))
    stack.add_head("head2")
    while not stack.joshua("head2").active:
        cluster.run(until=cluster.kernel.now + 0.5)
    check("joined head received state transfer",
          seed_job in stack.pbs("head2").jobs)
    stack.joshua("head0").leave()
    cluster.run(until=cluster.kernel.now + 4.0)
    check("voluntary leave shrank the view without disruption",
          stack.joshua("head1").shards[0].group.view.size == 2)
    post_leave = drive(cluster, stack.client(node="login", prefer="head1")
                       .jsub(name="post-leave", walltime=600.0))
    cluster.run(until=cluster.kernel.now + 1.0)
    check("service continuous across the leave",
          post_leave in stack.pbs("head1").jobs
          and post_leave in stack.pbs("head2").jobs)

    failed = [d for d, ok in CHECKS if not ok]
    print(f"\n{len(CHECKS) - len(failed)}/{len(CHECKS)} checks passed")
    if failed:
        raise SystemExit("FAILED: " + "; ".join(failed))


if __name__ == "__main__":
    main()
