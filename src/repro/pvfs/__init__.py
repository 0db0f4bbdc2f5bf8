"""PVFS-like parallel-filesystem metadata service, replicated active/active.

The paper names this service twice: the generic symmetric active/active
model "is applicable to any deterministic HPC system service, such as to
the metadata server of the parallel virtual file system (PVFS)" (§1), and
§6 reports ongoing work on exactly that. This package completes the
follow-on inside the reproduction:

* :mod:`repro.pvfs.metadata` — the metadata store substrate: a
  deterministic in-memory filesystem tree (directories, files with striped
  data-file handles) with the PVFS metadata operations (create/mkdir/
  getattr/setattr/readdir/unlink/rmdir/rename/statfs);
* :mod:`repro.pvfs.wire` — the operation records;
* :mod:`repro.pvfs.service` — the backend driver + deployment builder that
  replicates the store across head nodes on JOSHUA's replication core
  (:class:`~repro.joshua.shard.ShardReplica` in a ``"pvfs-mds"``
  :class:`~repro.joshua.host.ReplicaHost`);
* :mod:`repro.pvfs.client` — a typed client with replica failover.

Because the store is deterministic and reached only through its operation
interface, the *same* core that replicates PBS provides continuous
availability here with zero service-specific replication code — ordering,
exactly-once output, joins, partition-merge resync and the lost-push pull
path included — which is precisely the paper's generality claim, now
demonstrated.
"""

from repro.pvfs.metadata import MetadataStore, FileAttr
from repro.pvfs.service import MetadataBackend, build_replicated_mds, ReplicatedMDS
from repro.pvfs.client import PVFSClient, ServiceError

__all__ = [
    "MetadataStore",
    "FileAttr",
    "MetadataBackend",
    "ReplicatedMDS",
    "build_replicated_mds",
    "PVFSClient",
    "ServiceError",
]
