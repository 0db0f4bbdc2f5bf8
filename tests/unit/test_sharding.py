"""Unit coverage for the sharded ordering layer (PROTOCOLS.md §10).

Router mapping, job-id striping, per-shard group identity and sequencer
rotation — the deterministic plumbing underneath the shards=N deployment.
The behaviour-preservation side (shards=1 is wire-identical) is pinned by
``tests/integration/test_wire_baseline.py``.
"""

import zlib

import pytest

from repro.cluster import Cluster
from repro.gcs.config import GroupConfig
from repro.gcs.ordering import SequencerEngine, make_engine
from repro.gcs.view import View
from repro.joshua import build_joshua_stack
from repro.joshua.server import JOSHUA_GCS_PORT, JoshuaServer
from repro.joshua.shard import queue_for_shard
from repro.net.address import Address
from repro.pbs.job import JobSpec
from repro.sim.kernel import Kernel
from repro.util.errors import GroupCommError, JoshuaError

FAST = GroupConfig(heartbeat_interval=0.1, suspect_timeout=0.35,
                   flush_timeout=0.8, retransmit_interval=0.05)


def sharded_stack(shards, heads=3):
    cluster = Cluster(head_count=heads, compute_count=1, seed=5)
    return build_joshua_stack(cluster, group_config=FAST, shards=shards)


class TestGroupIdentity:
    def test_negative_group_id_rejected(self):
        with pytest.raises(GroupCommError):
            GroupConfig(group_id=-1)

    def test_each_shard_gets_own_port_and_group_id(self):
        stack = sharded_stack(3)
        stack.cluster.run(until=0.0)  # instantiate daemons
        joshua = stack.joshua("head0")
        assert [r.group.config.group_id for r in joshua.shards] == [0, 1, 2]
        assert [r.group.address.port for r in joshua.shards] == [
            JOSHUA_GCS_PORT, JOSHUA_GCS_PORT + 1, JOSHUA_GCS_PORT + 2
        ]

    def test_shard_count_validated(self):
        cluster = Cluster(head_count=1, compute_count=1, seed=5)
        with pytest.raises(JoshuaError):
            build_joshua_stack(cluster, group_config=FAST, shards=0)
        with pytest.raises(JoshuaError):
            JoshuaServer(cluster.heads[0], initial_heads=["head0"], shards=0)


class TestSequencerRotation:
    def _view(self):
        members = tuple(sorted(Address(f"head{i}", 4413) for i in range(3)))
        return View(view_id=1, members=members)

    def test_rotation_zero_is_coordinator(self):
        view = self._view()
        engine = SequencerEngine(Kernel(seed=0), view.members[0],
                                 lambda m: None, lambda d, m: None)
        assert engine.sequencer_of(view) == view.coordinator

    def test_rotation_spreads_across_members(self):
        view = self._view()
        kernel = Kernel(seed=0)
        chosen = {
            SequencerEngine(kernel, view.members[0], lambda m: None,
                            lambda d, m: None, rotation=k).sequencer_of(view)
            for k in range(3)
        }
        assert chosen == set(view.members)

    def test_rotation_wraps_past_view_size(self):
        view = self._view()
        engine = SequencerEngine(Kernel(seed=0), view.members[0],
                                 lambda m: None, lambda d, m: None, rotation=4)
        assert engine.sequencer_of(view) == view.members[1]

    def test_make_engine_passes_rotation(self):
        engine = make_engine("sequencer", Kernel(seed=0),
                             Address("head0", 4413), lambda m: None,
                             lambda d, m: None, rotation=2)
        assert engine.rotation == 2

    def test_member_uses_group_id_as_rotation(self):
        stack = sharded_stack(2)
        stack.cluster.run(until=2.0)
        joshua = stack.joshua("head0")
        seqs = {
            r.index: r.group.engine.sequencer_of(r.group.view)
            for r in joshua.shards
        }
        # Shard k is sequenced by the member of rank k: distinct heads.
        assert seqs[0].node != seqs[1].node
        assert seqs[0] == joshua.shards[0].group.view.coordinator


class TestRouting:
    def test_queue_hash_routing_is_crc32(self):
        stack = sharded_stack(4)
        stack.cluster.run(until=0.0)
        joshua = stack.joshua("head0")
        for queue in ("batch", "debug", "prod", "long"):
            spec = JobSpec(name="j", queue=queue)
            expect = zlib.crc32(queue.encode()) % 4
            assert joshua.shard_for_queue(spec).index == expect

    def test_empty_queue_falls_back_to_owner(self):
        stack = sharded_stack(4)
        stack.cluster.run(until=0.0)
        joshua = stack.joshua("head0")
        spec = JobSpec(name="j", queue="", owner="alice")
        expect = zlib.crc32(b"alice") % 4
        assert joshua.shard_for_queue(spec).index == expect

    def test_job_id_routing_follows_stripe(self):
        stack = sharded_stack(3)
        stack.cluster.run(until=0.0)
        joshua = stack.joshua("head0")
        assert joshua.shard_for_job("1.joshua").index == 0
        assert joshua.shard_for_job("2.joshua").index == 1
        assert joshua.shard_for_job("3.joshua").index == 2
        assert joshua.shard_for_job("4.joshua").index == 0

    def test_non_numeric_job_id_routes_to_shard_zero(self):
        stack = sharded_stack(3)
        stack.cluster.run(until=0.0)
        joshua = stack.joshua("head0")
        assert joshua.shard_for_job("bogus").index == 0

    def test_single_shard_router_is_passthrough(self):
        stack = sharded_stack(1)
        stack.cluster.run(until=0.0)
        joshua = stack.joshua("head0")
        assert joshua.shard_for_queue(JobSpec(name="j")) is joshua.shards[0]
        assert joshua.shard_for_job("7.joshua") is joshua.shards[0]

    def test_queue_for_shard_covers_every_shard(self):
        for nshards in (2, 3, 4):
            for shard in range(nshards):
                name = queue_for_shard(shard, nshards)
                assert zlib.crc32(name.encode()) % nshards == shard


class TestStriping:
    def test_striped_ids_interleave_without_collision(self):
        stack = sharded_stack(3)
        stack.cluster.run(until=0.0)
        joshua = stack.joshua("head0")
        seqs = {
            r.index: [r.driver.next_forced_job_id() for _ in range(3)]
            for r in joshua.shards
        }
        assert seqs[0] == ["1.joshua", "4.joshua", "7.joshua"]
        assert seqs[1] == ["2.joshua", "5.joshua", "8.joshua"]
        assert seqs[2] == ["3.joshua", "6.joshua", "9.joshua"]

    def test_single_shard_disables_striping(self):
        stack = sharded_stack(1)
        stack.cluster.run(until=0.0)
        joshua = stack.joshua("head0")
        assert joshua.shards[0].driver.next_forced_job_id() is None
        assert joshua.shards[0].driver.stripe_count == 0

    def test_forced_id_owns_its_routing_stripe(self):
        # Round trip: the id a shard forces must route back to that shard.
        stack = sharded_stack(3)
        stack.cluster.run(until=0.0)
        joshua = stack.joshua("head0")
        for replica in joshua.shards:
            for _ in range(4):
                jid = replica.driver.next_forced_job_id()
                assert joshua.shard_for_job(jid) is replica


class TestFacadeCompat:
    def test_merged_views_when_sharded(self):
        stack = sharded_stack(2)
        stack.cluster.run(until=0.0)
        joshua = stack.joshua("head0")
        joshua.shards[0].stats["executed"] = 3
        joshua.shards[1].stats["executed"] = 4
        assert joshua.stats["executed"] == 7
        assert len(joshua.groups) == 2
        assert joshua.group is joshua.shards[0].group
