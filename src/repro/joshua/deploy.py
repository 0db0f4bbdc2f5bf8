"""Deployment of the full JOSHUA system on a simulated cluster.

:func:`build_joshua_stack` assembles the paper's Figure 8 architecture:

* on every head node: a TORQUE PBS server + Maui scheduler (FIFO,
  exclusive) + the joshua daemon;
* on every compute node: one PBS mom registered with *all* head-node
  servers (TORQUE v2.0p1 multi-server feature) with the jmutex prologue
  and jdone epilogue installed;
* all joshua daemons in one group over the simulated LAN.

Later heads can be added live with :meth:`JoshuaStack.add_head` — the new
head boots its own PBS stack, joins the group and receives state transfer,
reproducing the paper's head-node join.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.gcs.config import GroupConfig
from repro.joshua.commands import JoshuaClient
from repro.joshua.config import JOSHUA_GROUP_CONFIG
from repro.joshua.jmutex import install_jmutex
from repro.joshua.pbs_driver import REPLICA_SERVER_NAME
from repro.joshua.server import JoshuaServer
from repro.net.address import Address
from repro.pbs.mom import PBSMom
from repro.pbs.scheduler import MauiScheduler
from repro.pbs.server import PBS_MOM_PORT, PBS_SERVER_PORT, PBSServer
from repro.pbs.service_times import ERA_2006, ServiceTimes
from repro.util.errors import JoshuaError

__all__ = ["JoshuaStack", "build_joshua_stack"]

@dataclass
class JoshuaStack:
    """Handles to a deployed JOSHUA system."""

    cluster: Cluster
    head_names: list[str]
    service_times: ServiceTimes
    group_config: GroupConfig
    state_transfer: str
    #: Independent ordering groups hosted on the shared heads. Every head
    #: runs one replica unit per shard; :meth:`add_head` joins all of them.
    shards: int = 1
    legacy_obit_retry: bool = False
    #: Maui policy. True is the paper's configuration ("each job exclusive
    #: access to our test cluster"); False is the future-work mode it
    #: forecasts — safe here because strict head-of-queue FIFO keeps the
    #: replicated schedulers' decisions convergent and the launch mutex
    #: arbitrates any transient divergence.
    exclusive: bool = True

    @property
    def mom_addresses(self) -> list[Address]:
        return [Address(c.name, PBS_MOM_PORT) for c in self.cluster.computes]

    def joshua(self, head: str) -> JoshuaServer:
        return self.cluster.node(head).daemon("joshua")  # type: ignore[return-value]

    def pbs(self, head: str) -> PBSServer:
        return self.cluster.node(head).daemon("pbs_server")  # type: ignore[return-value]

    def mom(self, compute: str) -> PBSMom:
        return self.cluster.node(compute).daemon("pbs_mom")  # type: ignore[return-value]

    def live_heads(self) -> list[str]:
        return [h for h in self.head_names if self.cluster.node(h).is_up]

    def client(self, node: str | None = None, **kwargs) -> JoshuaClient:
        """A JOSHUA command client on *node* (default: first head)."""
        return JoshuaClient(
            self.cluster.network,
            node or self.head_names[0],
            self.head_names,
            service_times=self.service_times,
            **kwargs,
        )

    def gateway(self, **kwargs) -> "JoshuaGateway":
        """A client gateway over this stack's heads (see
        :mod:`repro.joshua.gateway`)."""
        from repro.joshua.gateway import JoshuaGateway

        kwargs.setdefault("service_times", self.service_times)
        return JoshuaGateway(self.cluster.network, self.head_names, **kwargs)

    def _install_head_daemons(self, node: Node, *, initial: bool, contacts: list[str]) -> None:
        mom_addresses = self.mom_addresses
        server_address = Address(node.name, PBS_SERVER_PORT)
        times = self.service_times

        node.add_daemon(
            "pbs_server",
            lambda n: PBSServer(
                n,
                moms=mom_addresses,
                server_name=REPLICA_SERVER_NAME,
                service_times=times,
            ),
        )
        exclusive = self.exclusive
        node.add_daemon(
            "maui",
            lambda n: MauiScheduler(
                n, server=server_address, service_times=times, exclusive=exclusive
            ),
        )
        heads_at_creation = list(self.head_names)
        config = self.group_config
        mode = self.state_transfer
        shards = self.shards
        stack = self
        # A joshua daemon must only *boot* the group on its very first
        # start. Any later instantiation — the daemon was killed and
        # restarted, or its node crashed and rebooted — is a fresh
        # incarnation that must JOIN the existing group and receive state
        # transfer, or it would resurrect a stale divergent replica (the
        # paper's process-kill fault would otherwise split the brain).
        # Full-cluster cold restart is an operator action: redeploy.
        first_start = {"pending": initial}

        def joshua_factory(n: Node) -> JoshuaServer:
            if first_start["pending"]:
                first_start["pending"] = False
                return JoshuaServer(
                    n,
                    initial_heads=heads_at_creation,
                    group_config=config,
                    state_transfer=mode,
                    moms=mom_addresses,
                    shards=shards,
                )
            live = [h for h in stack.live_heads() if h != n.name]
            return JoshuaServer(
                n,
                contacts=live or contacts or [h for h in heads_at_creation if h != n.name],
                group_config=config,
                state_transfer=mode,
                moms=mom_addresses,
                shards=shards,
            )

        node.add_daemon("joshua", joshua_factory)

    def add_head(self, name: str | None = None) -> Node:
        """Bring a brand-new head node into the running system (join +
        state transfer). Returns the new node."""
        contacts = self.live_heads()
        if not contacts:
            raise JoshuaError("no live head to join through")
        name = name or f"head{len(self.head_names)}"
        node = Node(self.cluster.network, name, role="head")
        self.cluster.heads.append(node)
        self.cluster.register_node(node)
        self.head_names.append(name)
        self._install_head_daemons(node, initial=False, contacts=contacts)
        return node


def build_joshua_stack(
    cluster: Cluster,
    *,
    service_times: ServiceTimes = ERA_2006,
    group_config: GroupConfig = JOSHUA_GROUP_CONFIG,
    state_transfer: str = "replay",
    shards: int = 1,
    legacy_obit_retry: bool = False,
    exclusive: bool = True,
) -> JoshuaStack:
    """Deploy JOSHUA across every head node of *cluster*.

    *shards* > 1 partitions the ordering layer: N independent GCS groups
    over the same heads, job namespace split by PBS queue (PROTOCOLS.md
    §10). The default reproduces the paper's single group exactly.
    """
    if not cluster.heads:
        raise JoshuaError("cluster has no head nodes")
    if shards < 1:
        raise JoshuaError("shards must be >= 1")
    stack = JoshuaStack(
        cluster=cluster,
        head_names=[h.name for h in cluster.heads],
        service_times=service_times,
        group_config=group_config,
        state_transfer=state_transfer,
        shards=shards,
        legacy_obit_retry=legacy_obit_retry,
        exclusive=exclusive,
    )
    server_addresses = [Address(h, PBS_SERVER_PORT) for h in stack.head_names]
    for head in cluster.heads:
        stack._install_head_daemons(head, initial=True, contacts=[])

    def mom_factory(n: Node) -> PBSMom:
        mom = PBSMom(
            n,
            servers=list(server_addresses),
            service_times=service_times,
            legacy_obit_retry=legacy_obit_retry,
        )
        install_jmutex(mom)
        return mom

    for compute in cluster.computes:
        compute.add_daemon("pbs_mom", mom_factory)
    return stack
