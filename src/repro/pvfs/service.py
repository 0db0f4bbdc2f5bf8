"""The replicated metadata service: backend driver + deployment builder.

:class:`MetadataBackend` is the backend driver that puts a
:class:`~repro.pvfs.metadata.MetadataStore` on the replication core
(:class:`~repro.joshua.shard.ShardReplica`, hosted by a ``"pvfs-mds"``
:class:`~repro.joshua.host.ReplicaHost` on every head). Two details keep
replicas bit-identical:

* **logical timestamps** — inode times are the operation's position in the
  delivered total order, not the local clock (replicas execute the same
  operation at slightly different simulated instants; wall-clock stamps
  would diverge);
* **service times** — each operation charges a per-op CPU cost, so the
  latency benches reflect 2006-class metadata performance.

An operation that raises (a :class:`~repro.pvfs.metadata.PVFSError` from
the store, or a bad argument) fails identically at every replica; the
replication core caches its error as the replicated result and relays it
to the client as an ``ErrorResp("service-error", …)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.cluster.cluster import Cluster
from repro.gcs.config import GroupConfig
from repro.joshua.host import ReplicaHost
from repro.joshua.shard import BackendDriver
from repro.joshua.wire import Command
from repro.net.address import Address
from repro.pvfs.metadata import MetadataStore, PVFSError
from repro.pvfs.wire import (
    Create,
    GetAttr,
    Mkdir,
    ReadDir,
    Rename,
    Rmdir,
    SetAttr,
    StatFs,
    Unlink,
)
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["MetadataBackend", "ReplicatedMDS", "build_replicated_mds",
           "MDS_PORT", "MDS_GCS_PORT"]

MDS_PORT = 3334      # PVFS2's well-known port
MDS_GCS_PORT = 3335


class MetadataBackend(BackendDriver):
    """Backend driver over a MetadataStore."""

    def __init__(self, kernel, *, stripe_width: int = 4, op_cost: float = 0.004):
        self.kernel = kernel
        self.store = MetadataStore(stripe_width=stripe_width)
        self.op_cost = op_cost
        self._logical_time = 0.0

    def execute(self, command: Command) -> Generator:
        yield self.kernel.timeout(self.op_cost)
        self._logical_time += 1.0
        return self._apply(command.payload, self._logical_time)

    def _apply(self, op, now: float):
        store = self.store
        if isinstance(op, Mkdir):
            return store.mkdir(op.path, now=now)
        if isinstance(op, Create):
            return store.create(op.path, now=now)
        if isinstance(op, GetAttr):
            return store.getattr(op.path)
        if isinstance(op, SetAttr):
            return store.setattr(op.path, size=op.size, now=now)
        if isinstance(op, ReadDir):
            return store.readdir(op.path)
        if isinstance(op, Unlink):
            return store.unlink(op.path, now=now)
        if isinstance(op, Rmdir):
            return store.rmdir(op.path, now=now)
        if isinstance(op, Rename):
            return store.rename(op.src, op.dst, now=now)
        if isinstance(op, StatFs):
            return store.statfs()
        raise PVFSError(f"unknown metadata operation {type(op).__name__}")

    def snapshot(self) -> Generator:
        yield self.kernel.timeout(self.op_cost)
        state = self.store.snapshot()
        state["logical_time"] = self._logical_time
        return {"mode": "snapshot", "items": (state,), "next_seq": 0, "mutex": ()}

    def restore(self, response) -> Generator:
        yield self.kernel.timeout(self.op_cost)
        state = dict(response.items[0])
        self._logical_time = state.pop("logical_time")
        self.store.restore(state)


def _mds(node: "Node", driver: MetadataBackend, config: GroupConfig, **membership) -> ReplicaHost:
    """One ``"pvfs-mds"`` daemon: *driver* on the replication core."""
    return ReplicaHost(
        node, "pvfs-mds", MDS_PORT, [driver],
        gcs_port=MDS_GCS_PORT, group_config=config, **membership,
    )


@dataclass
class ReplicatedMDS:
    """Handles to a deployed replicated metadata service."""

    cluster: Cluster
    head_names: list[str]
    group_config: GroupConfig

    def replica(self, head: str) -> ReplicaHost:
        return self.cluster.node(head).daemon("pvfs-mds")  # type: ignore[return-value]

    def backend(self, head: str) -> MetadataBackend:
        return self.replica(head).shards[0].driver  # type: ignore[return-value]

    def addresses(self) -> list[Address]:
        return [Address(h, MDS_PORT) for h in self.head_names]

    def live_heads(self) -> list[str]:
        return [
            h for h in self.head_names
            if self.cluster.node(h).is_up and "pvfs-mds" in self.cluster.node(h).daemons
        ]

    def add_replica(self, name: str | None = None) -> "Node":
        """Join a brand-new metadata replica (snapshot state transfer)."""
        from repro.cluster.node import Node

        contacts = self.live_heads()
        if not contacts:
            raise ReproError("no live replica to join through")
        name = name or f"head{len(self.head_names)}"
        node = Node(self.cluster.network, name, role="head")
        self.cluster.heads.append(node)
        self.head_names.append(name)
        config = self.group_config
        node.add_daemon("pvfs-mds", lambda n: _mds(
            n, MetadataBackend(n.kernel), config, contacts=contacts,
        ))
        return node


def build_replicated_mds(
    cluster: Cluster,
    *,
    group_config: GroupConfig | None = None,
    stripe_width: int = 4,
) -> ReplicatedMDS:
    """Deploy one metadata replica on every head node of *cluster*."""
    config = group_config or GroupConfig(
        heartbeat_interval=0.1, suspect_timeout=0.35,
        flush_timeout=0.8, retransmit_interval=0.05,
    )
    head_names = [h.name for h in cluster.heads]

    def factory(node: "Node") -> ReplicaHost:
        return _mds(
            node, MetadataBackend(node.kernel, stripe_width=stripe_width),
            config, initial_heads=head_names,
        )

    for head in cluster.heads:
        head.add_daemon("pvfs-mds", factory)
    return ReplicatedMDS(cluster, head_names, config)
