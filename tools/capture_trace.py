"""Behavior-preservation trace harness for the rpc/dispatch refactor.

Runs three representative scenarios (normal operation, membership churn,
partition + heal) and dumps a full observable trace: every GCS delivery at
every head (view, seq, message id, payload), every view installation, final
PBS queues, and the kernel/network counters. Each scenario runs in its own
process (``--scenario``) so module-level counters cannot leak between them;
the driver mode forks one subprocess per scenario and writes one JSON file.

Usage::

    PYTHONPATH=src python tools/capture_trace.py out.json
    diff <(jq -S . before.json) <(jq -S . after.json)
"""

from __future__ import annotations

import json
import subprocess
import sys


def _payload_repr(payload) -> str:
    return repr(payload)


def _instrument(stack):
    trace = {"deliveries": [], "views": []}
    for head in stack.head_names:
        joshua = stack.joshua(head)
        member = joshua.shards[0].group
        inner = member.on_deliver
        inner_view = member.on_view

        def recorder(msg, head=head, inner=inner):
            trace["deliveries"].append(
                [head, msg.view_id, msg.seq, repr(msg.msg_id), _payload_repr(msg.payload)]
            )
            if inner is not None:
                inner(msg)

        def view_recorder(view, head=head, inner_view=inner_view):
            trace["views"].append([head, view.view_id, [repr(m) for m in view.members]])
            if inner_view is not None:
                inner_view(view)

        member.on_deliver = recorder
        member.on_view = view_recorder
    return trace


def _finish(stack, trace):
    cluster = stack.cluster
    queues = {}
    for head in stack.head_names:
        node = cluster.node(head)
        if node.is_up and "pbs_server" in node.daemons:
            queues[head] = [
                [j.job_id, j.state.value, j.exit_status, j.run_count]
                for j in stack.pbs(head).jobs
            ]
    trace["queues"] = queues
    trace["events"] = cluster.kernel.processed_events
    trace["now"] = cluster.kernel.now
    trace["net"] = dict(cluster.network.stats)
    return trace


def scenario_normal():
    from tests.integration.conftest import drive, make_stack, settle

    stack = make_stack(heads=3, computes=2, seed=11)
    trace = _instrument(stack)
    client = stack.client(node="login")
    for i in range(4):
        drive(stack, client.jsub(name=f"j{i}", walltime=2.0))
    drive(stack, client.jstat())
    drive(stack, client.jdel(drive(stack, client.jsub(name="victim", walltime=900.0))))
    stack.cluster.run(until=25.0)
    return _finish(stack, trace)


def scenario_membership():
    from tests.integration.conftest import drive, make_stack, settle

    stack = make_stack(heads=3, computes=2, seed=11)
    trace = _instrument(stack)
    client = stack.client(node="login")
    for i in range(3):
        drive(stack, client.jsub(name=f"m{i}", walltime=2.0))
    stack.cluster.node("head0").crash()
    stack.cluster.run(until=stack.cluster.kernel.now + 3.0)
    drive(stack, client.jsub(name="after-crash", walltime=2.0))
    stack.cluster.node("head0").restart()
    stack.cluster.run(until=stack.cluster.kernel.now + 5.0)
    drive(stack, client.jsub(name="after-rejoin", walltime=2.0))
    stack.cluster.run(until=40.0)
    return _finish(stack, trace)


def scenario_partitions():
    from tests.integration.conftest import drive, make_stack, settle

    stack = make_stack(heads=3, computes=2, seed=11)
    trace = _instrument(stack)
    client = stack.client(node="login")
    for i in range(2):
        drive(stack, client.jsub(name=f"p{i}", walltime=2.0))
    net = stack.cluster.network
    net.partitions.set_partitions([["head0", "head1", "compute0", "compute1", "login"],
                                   ["head2"]])
    stack.cluster.run(until=stack.cluster.kernel.now + 4.0)
    drive(stack, client.jsub(name="during-partition", walltime=2.0))
    net.partitions.heal_partitions()
    stack.cluster.run(until=stack.cluster.kernel.now + 10.0)
    drive(stack, client.jsub(name="after-heal", walltime=2.0))
    stack.cluster.run(until=45.0)
    return _finish(stack, trace)


SCENARIOS = {
    "normal": scenario_normal,
    "membership": scenario_membership,
    "partitions": scenario_partitions,
}


def main() -> int:
    if len(sys.argv) == 3 and sys.argv[1] == "--scenario":
        json.dump(SCENARIOS[sys.argv[2]](), sys.stdout)
        return 0
    out_path = sys.argv[1]
    combined = {}
    for name in SCENARIOS:
        proc = subprocess.run(
            [sys.executable, __file__, "--scenario", name],
            capture_output=True, text=True, check=True,
        )
        combined[name] = json.loads(proc.stdout)
    with open(out_path, "w") as f:
        json.dump(combined, f, indent=1, sort_keys=True)
    sizes = {n: len(t["deliveries"]) for n, t in combined.items()}
    print(f"wrote {out_path}: deliveries per scenario {sizes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
