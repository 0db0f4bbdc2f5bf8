"""repro — reproduction of *JOSHUA: Symmetric Active/Active Replication for
Highly Available HPC Job and Resource Management* (IEEE CLUSTER 2006).

Quick tour (see README.md for the full map):

>>> from repro.cluster import Cluster
>>> from repro.joshua import build_joshua_stack
>>> cluster = Cluster(head_count=2, compute_count=2, login_node=True, seed=1)
>>> stack = build_joshua_stack(cluster)
>>> client = stack.client(node="login")

Sub-packages
------------
``repro.sim``      deterministic discrete-event simulation kernel
``repro.net``      simulated LAN: links, partitions, reliable transport
``repro.cluster``  nodes, daemons, disks, failure injection
``repro.gcs``      group communication (Transis stand-in): total order,
                   SAFE delivery, view-synchronous membership
``repro.pbs``      TORQUE/Maui-compatible job & resource management
``repro.joshua``   the paper's contribution: the replication core (paper §3's
                   universal active/active wrapper) driving PBS + jmutex
``repro.pvfs``     PVFS metadata server on the same core (paper's follow-on)
``repro.ha``       HA baselines, Equations 1-3, correlated failures, RAS
``repro.bench``    experiment harness for every paper figure
``repro.cli``      ``python -m repro`` experiment runner
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
