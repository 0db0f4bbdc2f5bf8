#!/usr/bin/env python3
"""Rolling head-node maintenance with zero service interruption.

The operation the paper's join/leave machinery enables: replace every head
node of a live system, one at a time, without users noticing. Each step:

1. a fresh head node joins the group (state transfer brings over the
   current queue — the paper's command-replay mode),
2. an old head leaves voluntarily (handled as a forced failure, §4),
3. user submissions continue throughout.

At the end, the *entire* head-node fleet has been swapped while jobs kept
flowing and none was lost or re-run.

Run:  python examples/rolling_maintenance.py
"""

from repro.cluster import Cluster
from repro.joshua import build_joshua_stack


def main() -> None:
    cluster = Cluster(head_count=2, compute_count=2, login_node=True, seed=303)
    stack = build_joshua_stack(cluster)
    kernel = cluster.kernel
    original_heads = list(stack.head_names)
    print(f"initial heads: {original_heads}")

    client = stack.client(node="login")
    submitted: list[str] = []
    stop = {"flag": False}

    def steady_user():
        index = 0
        while not stop["flag"]:
            job_id = yield from client.jsub(name=f"steady-{index}", walltime=2.0)
            submitted.append(job_id)
            index += 1
            yield kernel.timeout(3.0)

    kernel.spawn(steady_user())
    cluster.run(until=5.0)

    # Roll the fleet: for each original head, add a replacement, wait for
    # it to finish state transfer, then retire the old one.
    for generation, old in enumerate(original_heads):
        new_name = f"head{2 + generation}"
        print(f"[t={kernel.now:6.1f}s] joining replacement {new_name} ...")
        stack.add_head(new_name)
        # Wait until the joiner is active (state transfer complete).
        while not stack.joshua(new_name).active:
            cluster.run(until=kernel.now + 1.0)
        client.heads = list(stack.head_names)  # user learns the new fleet
        print(f"[t={kernel.now:6.1f}s] {new_name} active "
              f"(transfer mode: {stack.state_transfer}); retiring {old}")
        stack.joshua(old).leave()
        cluster.node(old).stop_daemon("pbs_server")
        cluster.node(old).stop_daemon("maui")
        stack.head_names.remove(old)
        client.heads = list(stack.head_names)
        cluster.run(until=kernel.now + 5.0)

    stop["flag"] = True
    cluster.run(until=kernel.now + 30.0)

    final_heads = stack.live_heads()
    print(f"\nfinal heads: {final_heads} (fully swapped: "
          f"{set(final_heads).isdisjoint(original_heads)})")
    # Ground truth of execution lives on the compute nodes: every submitted
    # job must have exactly one obituary. (Replacement heads deliberately
    # receive only *live* jobs in state transfer — queue history retires
    # with the old heads, exactly like the paper's command replay.)
    executed = {}
    for compute in cluster.computes:
        executed.update(stack.mom(compute.name).finished)
    missing = [job_id for job_id in submitted if job_id not in executed]
    total_runs = sum(stack.mom(c.name).stats["runs"] for c in cluster.computes)
    print(f"submitted {len(submitted)} jobs during the roll: "
          f"{len(executed)} executed, {len(missing)} never ran, "
          f"{total_runs} total executions")
    assert not missing, "a job fell through the roll"
    assert total_runs == len(submitted), "a job ran more than once"
    view = stack.joshua(final_heads[0]).shards[0].group.view
    print(f"group view after the roll: {view}")


if __name__ == "__main__":
    main()
