"""Integration tests: the replicated PVFS metadata server.

Demonstrates the paper's generality claim — the same replication core
that replicates PBS replicates the PVFS MDS with no service-specific
replication code: identical replica state, continuous availability through
failures, snapshot-based join, and the fixes the core carries (partition
merge resync, the lost-push pull path, the mid-rejoin refusal, result-cache
transfer on join).
"""

import pytest

from repro.cluster import Cluster
from repro.gcs.messages import JoinReq
from repro.joshua.wire import Command, XferPush
from repro.net.address import Address
from repro.net.frames import DataFrame
from repro.pvfs import PVFSClient, ServiceError, build_replicated_mds
from repro.pvfs.service import MDS_PORT
from repro.pvfs.wire import Create
from repro.rpc import call as rpc_call
from repro.util.errors import NoActiveHeadError


def make_mds(heads=3, seed=13):
    cluster = Cluster(head_count=heads, compute_count=0, login_node=True, seed=seed)
    mds = build_replicated_mds(cluster)
    client = PVFSClient(cluster.network, "login", mds.addresses())
    return cluster, mds, client


def drive(cluster, coroutine):
    process = cluster.kernel.spawn(coroutine)
    return cluster.run(until=process)


def states(mds):
    return {
        head: mds.backend(head).store.snapshot()["inodes"].keys()
        for head in mds.live_heads()
    }


class TestReplication:
    def test_operations_replicated_everywhere(self):
        cluster, mds, client = make_mds()
        drive(cluster, client.mkdir("/data"))
        drive(cluster, client.create("/data/a.dat"))
        cluster.run(until=cluster.kernel.now + 1.0)
        for head in mds.head_names:
            store = mds.backend(head).store
            assert store.readdir("/data") == ["a.dat"]

    def test_replicas_bit_identical(self):
        cluster, mds, client = make_mds()
        def workload():
            yield from client.mkdir("/d")
            for i in range(5):
                yield from client.create(f"/d/f{i}")
            yield from client.unlink("/d/f2")
            yield from client.rename("/d/f0", "/d/renamed")
            yield from client.setattr("/d/renamed", size=99)
        drive(cluster, workload())
        cluster.run(until=cluster.kernel.now + 1.0)
        snapshots = [
            mds.backend(head).store.snapshot() for head in mds.head_names
        ]
        base = snapshots[0]
        for other in snapshots[1:]:
            assert other["inodes"].keys() == base["inodes"].keys()
            assert other["next_handle"] == base["next_handle"]

    def test_deterministic_handles_across_replicas(self):
        cluster, mds, client = make_mds()
        attr = drive(cluster, client.create("/f"))
        cluster.run(until=cluster.kernel.now + 1.0)
        for head in mds.head_names:
            assert mds.backend(head).store.getattr("/f").handle == attr.handle

    def test_application_error_is_deterministic(self):
        cluster, mds, client = make_mds()
        drive(cluster, client.mkdir("/d"))
        with pytest.raises(ServiceError, match="AlreadyExists"):
            drive(cluster, client.mkdir("/d"))
        # The failed operation mutated nothing anywhere.
        cluster.run(until=cluster.kernel.now + 1.0)
        for head in mds.head_names:
            assert mds.backend(head).store.statfs()["directories"] == 2

    def test_bad_argument_contained_as_service_error(self):
        """An operation the store raises on for a non-PVFS reason (a bad
        argument) fails at every replica and leaves them all serving."""
        cluster, mds, client = make_mds()
        drive(cluster, client.create("/f"))
        with pytest.raises(ServiceError, match="TypeError"):
            drive(cluster, client.setattr("/f", size=None))
        attr = drive(cluster, client.setattr("/f", size=10))
        assert attr.size == 10
        cluster.run(until=cluster.kernel.now + 1.0)
        for head in mds.head_names:
            assert mds.backend(head).store.getattr("/f").size == 10

    def test_exactly_once_under_retry(self):
        """The uuid dedup: retrying a create to a second replica must not
        allocate twice."""
        cluster, mds, client = make_mds()
        request = Command("fixed-1", "create", Create("/once.dat"))

        def twice():
            first = yield from rpc_call(
                cluster.network, "login", mds.addresses()[0], request)
            second = yield from rpc_call(
                cluster.network, "login", mds.addresses()[1], request)
            return first, second

        first, second = drive(cluster, twice())
        assert first.handle == second.handle
        cluster.run(until=cluster.kernel.now + 1.0)
        assert mds.backend("head0").store.statfs()["files"] == 1


class TestFailures:
    def test_service_continues_after_replica_crash(self):
        cluster, mds, client = make_mds()
        drive(cluster, client.mkdir("/survive"))
        cluster.node("head0").crash()
        cluster.run(until=cluster.kernel.now + 2.0)
        attr = drive(cluster, client.create("/survive/after.dat"))
        assert attr.kind == "file"
        for head in ("head1", "head2"):
            assert mds.backend(head).store.readdir("/survive") == ["after.dat"]

    def test_two_failures_one_survivor(self):
        cluster, mds, client = make_mds()
        drive(cluster, client.mkdir("/deep"))
        cluster.node("head0").crash()
        cluster.node("head1").crash()
        cluster.run(until=cluster.kernel.now + 3.0)
        drive(cluster, client.create("/deep/last.dat"))
        assert mds.backend("head2").store.readdir("/deep") == ["last.dat"]

    def test_client_fails_over(self):
        cluster, mds, client = make_mds()
        cluster.node("head0").crash()
        drive(cluster, client.mkdir("/fo"))
        assert client.stats["failovers"] >= 1

    def test_all_replicas_down(self):
        cluster, mds, client = make_mds(heads=2)
        cluster.node("head0").crash()
        cluster.node("head1").crash()
        with pytest.raises(NoActiveHeadError):
            drive(cluster, client.mkdir("/nope"))


class TestJoin:
    def test_new_replica_receives_snapshot(self):
        cluster, mds, client = make_mds(heads=2)
        drive(cluster, client.mkdir("/base"))
        drive(cluster, client.create("/base/seed.dat"))
        mds.add_replica("head2")
        cluster.run(until=cluster.kernel.now + 5.0)
        replica = mds.replica("head2")
        assert replica.active
        assert mds.backend("head2").store.readdir("/base") == ["seed.dat"]

    def test_joined_replica_stays_consistent(self):
        cluster, mds, client = make_mds(heads=2)
        drive(cluster, client.mkdir("/base"))
        mds.add_replica("head2")
        cluster.run(until=cluster.kernel.now + 5.0)
        drive(cluster, client.create("/base/post-join.dat"))
        cluster.run(until=cluster.kernel.now + 1.0)
        for head in mds.head_names:
            assert mds.backend(head).store.readdir("/base") == ["post-join.dat"]

    def test_ops_racing_the_join_not_lost(self):
        cluster, mds, client = make_mds(heads=2)
        drive(cluster, client.mkdir("/race"))
        mds.add_replica("head2")
        racing = [
            cluster.kernel.spawn(client.create(f"/race/f{i}"))
            for i in range(3)
        ]
        cluster.run(until=cluster.kernel.all_of(racing))
        cluster.run(until=cluster.kernel.now + 5.0)
        listings = {
            head: tuple(mds.backend(head).store.readdir("/race"))
            for head in mds.head_names
        }
        assert len(set(listings.values())) == 1
        assert listings["head2"] == ("f0", "f1", "f2")


def settle(cluster, seconds):
    cluster.run(until=cluster.kernel.now + seconds)


def via(cluster, head):
    """A client that talks to *head* first."""
    return PVFSClient(
        cluster.network, "login", [Address(h, MDS_PORT) for h in ("head0", "head1", "head2")],
        prefer=Address(head, MDS_PORT),
    )


def isolate(cluster, head, others):
    for other in others:
        cluster.network.partitions.cut_link(head, other)


def heal(cluster, head, others):
    for other in others:
        cluster.network.partitions.restore_link(head, other)


class TestSharedCoreFixes:
    """Fixes PVFS inherits from the shared replication core, exercised
    through the metadata service."""

    def test_healed_partition_converges(self):
        """Both sides of a partition keep serving; after the heal the
        smaller side demotes and resyncs from the survivors, so every live
        replica ends with the identical namespace."""
        cluster, mds, client = make_mds(seed=13)
        drive(cluster, client.mkdir("/d"))
        isolate(cluster, "head2", ["head0", "head1"])
        settle(cluster, 3.0)
        drive(cluster, via(cluster, "head0").create("/d/majority.dat"))
        drive(cluster, PVFSClient(
            cluster.network, "login", [Address("head2", MDS_PORT)]
        ).create("/d/minority.dat"))
        heal(cluster, "head2", ["head0", "head1"])
        settle(cluster, 15.0)
        heads = mds.live_heads()
        assert all(mds.replica(h).active for h in heads)
        assert {mds.replica(h).shards[0].group.view.size for h in heads} == {3}
        snapshots = [mds.backend(h).store.snapshot() for h in heads]
        assert all(s == snapshots[0] for s in snapshots[1:])
        # The minority side's acknowledged create is re-offered to the
        # merged group, so no acknowledged operation is lost either.
        assert mds.backend("head2").store.readdir("/d") == ["majority.dat", "minority.dat"]

    def test_lost_push_recovered_by_pull(self):
        """A sponsor's ``XferPush`` to the joiner is lost: the joiner pulls
        the served capture over RPC instead of cutting a second marker."""
        cluster, mds, client = make_mds(heads=2)
        drive(cluster, client.mkdir("/base"))
        drive(cluster, client.create("/base/seed.dat"))
        cluster.network.add_drop_filter(
            lambda src, dst, payload: isinstance(payload, XferPush)
        )
        mds.add_replica("head2")
        settle(cluster, 10.0)
        joiner = mds.replica("head2")
        assert joiner.active
        assert joiner.stats["state_transfers_pulled"] == 1
        # The joiner multicast exactly one marker: no recut was needed.
        assert joiner.shards[0].group.stats["multicasts"] == 1
        assert mds.backend("head2").store.snapshot() == mds.backend("head0").store.snapshot()

    def test_request_mid_rejoin_answered_joining(self):
        """An active replica whose group is mid-rejoin cannot order a
        command: it answers "joining" and the client fails over."""
        cluster, mds, client = make_mds(seed=13)
        drive(cluster, client.mkdir("/d"))
        isolate(cluster, "head2", ["head0", "head1"])
        settle(cluster, 3.0)
        # Heal, but lose head2's join requests: its GCS member dissolves
        # into the larger group's merge and stays stuck re-joining.
        cluster.network.add_drop_filter(
            lambda src, dst, payload: src.node == "head2"
            and isinstance(payload, DataFrame)
            and isinstance(payload.payload, JoinReq)
        )
        heal(cluster, "head2", ["head0", "head1"])
        settle(cluster, 3.0)
        stuck = mds.replica("head2").shards[0]
        assert stuck.active and not stuck.group.can_multicast
        rerouted = via(cluster, "head2")
        attr = drive(cluster, rerouted.create("/d/rerouted.dat"))
        assert rerouted.stats["failovers"] == 1
        assert mds.backend("head0").store.getattr("/d/rerouted.dat") == attr

    def test_retry_after_join_answered_from_transferred_cache(self):
        """A client retry of a command executed before a join reaches the
        joiner, which answers from the transferred result cache instead of
        executing it again."""
        cluster, mds, _client = make_mds(heads=2)
        request = Command("retry-1", "create", Create("/once.dat"))
        first = drive(cluster, rpc_call(
            cluster.network, "login", Address("head0", MDS_PORT), request))
        mds.add_replica("head2")
        settle(cluster, 5.0)
        assert mds.replica("head2").active
        second = drive(cluster, rpc_call(
            cluster.network, "login", Address("head2", MDS_PORT), request))
        assert second == first
        assert mds.replica("head2").stats["executed"] == 0
        settle(cluster, 1.0)
        for head in mds.head_names:
            assert mds.backend(head).store.statfs()["files"] == 1
