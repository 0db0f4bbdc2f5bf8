"""Unit tests for the replication core with a minimal driver, and the
diurnal workload."""

import numpy as np
import pytest

from repro.bench.workloads import DiurnalWorkload
from repro.cluster import Cluster
from repro.gcs.config import GroupConfig
from repro.joshua.host import ReplicaHost
from repro.joshua.shard import BackendDriver
from repro.joshua.wire import Command, is_joining
from repro.net.address import Address
from repro.pbs.wire import rpc_call
from repro.pvfs import PVFSClient
from repro.rpc import failover_call
from repro.util.errors import JoshuaError, NoActiveHeadError, PBSError, ReproError

FAST = GroupConfig(
    heartbeat_interval=0.1, suspect_timeout=0.35,
    flush_timeout=0.8, retransmit_interval=0.05,
)


class CounterDriver(BackendDriver):
    """Minimal deterministic backend: an integer register."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.value = 0

    def execute(self, command):
        yield self.kernel.timeout(0.001)
        kind, amount = command.payload
        if kind == "add":
            self.value += amount
            return self.value
        if kind == "get":
            return self.value
        raise ValueError(f"bad op {kind}")

    def snapshot(self):
        yield self.kernel.timeout(0.001)
        return {"mode": "snapshot", "items": (self.value,), "next_seq": 0, "mutex": ()}

    def restore(self, response):
        yield self.kernel.timeout(0.001)
        self.value = response.items[0]


def counter_host(node, **membership):
    return ReplicaHost(
        node, "counter", 7000, [CounterDriver(node.kernel)],
        gcs_port=7001, group_config=FAST, **membership,
    )


def deploy(n=2, seed=19):
    cluster = Cluster(head_count=n, compute_count=0, login_node=True, seed=seed)
    names = [h.name for h in cluster.heads]
    services = {}
    for head in cluster.heads:
        host = head.add_daemon(
            "counter", lambda node: counter_host(node, initial_heads=names)
        )
        services[head.name] = host.shards[0]
    replicas = [Address(nm, 7000) for nm in names]
    uuids = iter(range(1_000_000))

    def call(op):
        return failover_call(
            cluster.network, "login", replicas,
            Command(f"counter-{next(uuids)}", op[0], op),
            retry_error=is_joining,
        )

    return cluster, services, call


def drive(cluster, coroutine):
    process = cluster.kernel.spawn(coroutine)
    return cluster.run(until=process)


class TestReplicatedService:
    def test_replicated_execution(self):
        cluster, services, call = deploy()
        assert drive(cluster, call(("add", 5))) == 5
        assert drive(cluster, call(("add", 3))) == 8
        cluster.run(until=cluster.kernel.now + 0.5)
        assert services["head0"].driver.value == 8
        assert services["head1"].driver.value == 8

    def test_backend_error_propagates_as_service_error(self):
        cluster, services, call = deploy()
        with pytest.raises(PBSError, match="service-error: ValueError: bad op explode"):
            drive(cluster, call(("explode", 0)))
        # The exception was contained: every executor still serves.
        assert drive(cluster, call(("add", 2))) == 2
        cluster.run(until=cluster.kernel.now + 0.5)
        assert [services[h].driver.value for h in ("head0", "head1")] == [2, 2]

    def test_survives_replica_failure(self):
        cluster, services, call = deploy(n=3)
        drive(cluster, call(("add", 1)))
        cluster.node("head0").crash()
        cluster.run(until=cluster.kernel.now + 2.0)
        assert drive(cluster, call(("add", 1))) == 2
        assert services["head1"].driver.value == 2

    def test_retry_same_uuid_cached(self):
        cluster, services, _call = deploy()
        request = Command("fixed", "add", ("add", 10))

        def twice():
            a = yield from rpc_call(cluster.network, "login", Address("head0", 7000), request)
            b = yield from rpc_call(cluster.network, "login", Address("head1", 7000), request)
            return a, b

        a, b = drive(cluster, twice())
        assert a == b == 10
        cluster.run(until=cluster.kernel.now + 0.5)
        assert services["head0"].driver.value == 10  # applied once

    def test_requires_membership_choice(self):
        cluster = Cluster(head_count=1, compute_count=0, seed=1)
        with pytest.raises(JoshuaError):
            counter_host(cluster.heads[0])

    def test_all_replicas_down(self):
        cluster, _services, call = deploy()
        cluster.node("head0").crash()
        cluster.node("head1").crash()
        with pytest.raises(NoActiveHeadError):
            drive(cluster, call(("get", 0)))

    def test_client_requires_replicas(self):
        cluster = Cluster(head_count=1, compute_count=0, seed=1)
        with pytest.raises(NoActiveHeadError):
            PVFSClient(cluster.network, "head0", [])


class TestDiurnalWorkload:
    def test_deterministic(self):
        a = [(d, s.name) for d, s in DiurnalWorkload(30, base_rate=0.1, seed=4)]
        b = [(d, s.name) for d, s in DiurnalWorkload(30, base_rate=0.1, seed=4)]
        assert a == b

    def test_count_and_len(self):
        wl = DiurnalWorkload(25, base_rate=0.1)
        assert len(wl) == 25
        assert len(list(wl)) == 25

    def test_daytime_denser_than_night(self):
        """With strong amplitude, more arrivals land in the middle half of
        the day than in the outer half."""
        wl = DiurnalWorkload(400, base_rate=400 / 86400.0, amplitude=0.9, seed=7)
        times, acc = [], 0.0
        for delay, _spec in wl:
            acc += delay
            times.append(acc % 86400.0)
        mid = sum(1 for t in times if 86400 * 0.25 <= t < 86400 * 0.75)
        assert mid > len(times) * 0.6

    def test_walltime_range(self):
        for _d, spec in DiurnalWorkload(50, base_rate=0.1, walltime_range=(3, 4), seed=1):
            assert 3 <= spec.walltime <= 4

    def test_validation(self):
        with pytest.raises(ReproError):
            DiurnalWorkload(0, base_rate=1)
        with pytest.raises(ReproError):
            DiurnalWorkload(1, base_rate=0)
        with pytest.raises(ReproError):
            DiurnalWorkload(1, base_rate=1, amplitude=1.0)
        with pytest.raises(ReproError):
            DiurnalWorkload(1, base_rate=1, walltime_range=(0, 1))
