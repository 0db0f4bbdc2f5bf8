"""Passivity proof: observation leaves the simulation bit-identical.

The obs layer's hard contract (ISSUE 3, extended by ISSUE 8): attaching
the full observation stack — TraceCollector + MetricsRegistry, and now
the FlightRecorder and TimeSeriesSampler on top — must not schedule a
simulation event, draw randomness, or change a wire payload. These tests
run four representative scenarios (normal operation, membership churn,
partition + heal, and a *sharded* membership-churn run on two ordering
groups) twice — bare and fully observed — and demand *exact* equality of
the wire-level send trace and the kernel/network counters. Back-to-back
runs of the same seed are already bit-identical (see test_determinism),
so any difference here is caused by observation itself.

Each observed run also has to produce non-trivial traces, metrics, ring
contents and time-series samples, so an observer that silently observes
nothing cannot pass vacuously.
"""

import pytest

from repro.obs import attach_collector, attach_recorder, attach_timeseries
from tests.integration.conftest import drive, make_stack


def _spy_network_sends(stack, sink: list):
    kernel = stack.cluster.kernel
    original_send = stack.cluster.network.send

    def spy(src, dst, payload, **kw):
        sink.append((kernel.now, str(src), str(dst), repr(payload)[:160]))
        return original_send(src, dst, payload, **kw)

    stack.cluster.network.send = spy


def _summary(stack):
    cluster = stack.cluster
    deliveries = tuple(
        (h, stack.joshua(h).shards[0].group.stats["delivered"])
        for h in stack.head_names
        if cluster.node(h).is_up and "joshua" in cluster.node(h).daemons
    )
    return {
        "events": cluster.kernel.processed_events,
        "now": cluster.kernel.now,
        "net": dict(cluster.network.stats),
        "deliveries": deliveries,
    }


def _scenario_normal(stack):
    client = stack.client(node="login")
    for i in range(3):
        drive(stack, client.jsub(name=f"n{i}", walltime=2.0))
    drive(stack, client.jstat())
    stack.cluster.run(until=20.0)


def _scenario_membership(stack):
    client = stack.client(node="login")
    for i in range(2):
        drive(stack, client.jsub(name=f"m{i}", walltime=2.0))
    stack.cluster.node("head0").crash()
    stack.cluster.run(until=stack.cluster.kernel.now + 3.0)
    drive(stack, client.jsub(name="after-crash", walltime=2.0))
    stack.cluster.node("head0").restart()
    stack.cluster.run(until=35.0)


def _scenario_partition(stack):
    client = stack.client(node="login")
    drive(stack, client.jsub(name="p0", walltime=2.0))
    net = stack.cluster.network
    net.partitions.set_partitions(
        [["head0", "head1", "compute0", "compute1", "login"], ["head2"]]
    )
    stack.cluster.run(until=stack.cluster.kernel.now + 4.0)
    drive(stack, client.jsub(name="during-partition", walltime=2.0))
    net.partitions.heal_partitions()
    stack.cluster.run(until=40.0)


def _scenario_read_heavy(stack):
    """The split command plane under load: gateway sessions submit then
    hammer the local read path (ryw and eventual), including a fallback
    (an unreachable floor) — so ``joshua.read.*`` spans, metrics and the
    catch-up/fallback branches are all on the observed path."""
    gateway = stack.gateway()
    sessions = [gateway.session("login", f"client{i}") for i in range(3)]
    for i, session in enumerate(sessions):
        drive(stack, session.jsub(name=f"r{i}", walltime=2.0))
    for session in sessions:
        for _ in range(3):
            drive(stack, session.jstat())
        drive(stack, session.jstat(consistency="eventual"))
    # One read that cannot be served locally in time: ordered fallback.
    sessions[0].client.last_write_seq[0] = 10_000
    drive(stack, sessions[0].jstat())
    stack.cluster.run(until=25.0)


#: (scenario function, ordering-layer shard count). The sharded entry
#: proves passivity of the whole observation stack — shard-labelled
#: spans/metrics included — on the multi-group deployment under faults;
#: the read-heavy entry proves it for the local read path (ISSUE 10).
SCENARIOS = {
    "normal": (_scenario_normal, 1),
    "membership": (_scenario_membership, 1),
    "partition": (_scenario_partition, 1),
    "sharded-membership": (_scenario_membership, 2),
    "read-heavy": (_scenario_read_heavy, 1),
}


def _run(scenario: str, *, observed: bool):
    run_scenario, shards = SCENARIOS[scenario]
    stack = make_stack(heads=3, computes=2, seed=11, shards=shards)
    sends: list = []
    _spy_network_sends(stack, sends)
    observers = None
    if observed:
        network = stack.cluster.network
        observers = (
            attach_collector(network),
            attach_recorder(network),
            attach_timeseries(network),
        )
    run_scenario(stack)
    return sends, _summary(stack), observers


class TestObservationIsPassive:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_trace_bit_identical_with_and_without_observers(self, scenario):
        bare_sends, bare_summary, _ = _run(scenario, observed=False)
        obs_sends, obs_summary, observers = _run(scenario, observed=True)

        # The observed run really observed something...
        collector, recorder, sampler = observers
        assert collector.jobs, "no job traces collected"
        assert any(t.phases() for t in collector.job_traces())
        assert collector.registry.find("rpc.client.latency_s")
        assert collector.registry.find("gcs.multicasts")
        # ...the recorder's rings hold spans AND wire frames per node...
        assert recorder.observed > 0
        head_rings = [recorder.rings.get(f"head{i}", ()) for i in range(3)]
        assert all(head_rings)
        assert any(r["type"] == "frame"
                   for ring in head_rings for r in ring)
        # ...the sampler produced per-window series...
        assert sampler.records()
        if scenario == "read-heavy":
            # Local reads, the ordered fallback and the ryw wait histogram
            # all surfaced as metrics — observed without perturbation.
            assert collector.registry.find("joshua.read.local")
            assert collector.registry.find("joshua.read.ordered_fallback")
            assert collector.registry.find("joshua.read.catchup_wait_s")
            assert collector.registry.find("joshua.read.staleness_lag")
            # ...and the time-series sampler windows them automatically.
            assert any(
                s["name"].startswith("joshua.read") for s in sampler.samples
            )
        if scenario.startswith("sharded"):
            assert {0, 1} <= {
                s["labels"].get("shard") for s in sampler.samples
            }
            assert collector.registry.find("gcs.fd.transitions")

        # ...and perturbed nothing: every datagram, timestamp and counter
        # matches the unobserved run exactly.
        assert obs_summary == bare_summary
        assert obs_sends == bare_sends


class TestCollectorLifecycle:
    def test_attach_is_idempotent_and_detach_reverses(self):
        from repro.obs import collector_of, detach_collector
        from repro.rpc import rpc_state

        stack = make_stack(heads=2, computes=1, seed=5)
        network = stack.cluster.network
        collector = attach_collector(network)
        assert attach_collector(network) is collector
        state = rpc_state(network)
        assert state.on_request.count(collector.rpc_request) == 1
        detach_collector(network)
        assert collector_of(network) is None
        assert collector.rpc_request not in state.on_request
        assert collector.rpc_dispatch not in state.on_dispatch
