"""State transfer: marker pinning, capture, and install.

The join protocol of paper §4, for any backend driver. A joining replica
enters the group, multicasts an :class:`~repro.joshua.wire.XferMarker` to
pin a cut in the command stream, discards deliveries ordered before its
own marker, and asks the group for the state as of the marker. Every
active member captures its service state exactly when its serial executor
reaches the marker (replicas are identical at the cut, so the captures are
too, and the joiner dedups).

The driver captures and installs the service state
(:meth:`~repro.joshua.shard.BackendDriver.snapshot` /
:meth:`~repro.joshua.shard.BackendDriver.restore`); this module adds what
every service needs around it: the command dedup cache (so a client retry
of a command executed before the cut is answered from cache, not run
again) and the applied-command counter of the read path.

The tracker also detects partition-merge demotion: an *established*
member whose GCS dissolved into the surviving component may have missed
commands, so the survivors are authoritative — it deactivates and resyncs
through a fresh marker even though it has no join contacts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gcs.view import View
from repro.joshua.wire import StateXferReq, StateXferResp, XferMarker, XferPush
from repro.net.address import Address
from repro.rpc import RpcTimeout, call as rpc_call, rpc_state
from repro.util.errors import PBSError

if TYPE_CHECKING:  # pragma: no cover
    from repro.joshua.shard import ShardReplica

__all__ = ["StateTransfer"]


class StateTransfer:
    """Marker-cut state transfer (both sponsor and joiner sides)."""

    def __init__(self, replica: "ShardReplica"):
        self.s = replica
        #: While syncing: drop deliveries ordered before our own marker.
        self.syncing_marker: str | None = None
        self.marker_seen = False
        self._responses: dict[str, StateXferResp] = {}
        #: Sponsor side: captures we already served, kept so a joiner whose
        #: pushed :class:`XferPush` frame was lost can pull them over RPC.
        self._served: dict[str, StateXferResp] = {}
        self._waiters: dict[str, object] = {}
        self._applied: set[str] = set()
        self._seen_rejoins = 0
        #: Set when a partition re-merge demotes us: an *established* member
        #: (no contacts) that must nevertheless pin a transfer marker.
        self.needs_resync = False

    def next_marker_uuid(self) -> str:
        marker_id = rpc_state(self.s.node.network).next_id("joshua-marker")
        return f"xfer-{self.s.node.name}-{marker_id}"

    # -- delivery gating ------------------------------------------------------

    def should_drop(self, payload) -> bool:
        """Everything ordered before our own marker is covered by the
        state transfer; drop it."""
        if self.syncing_marker is not None and not self.marker_seen:
            return not (
                isinstance(payload, XferMarker)
                and payload.marker_uuid == self.syncing_marker
            )
        return False

    def note_enqueued(self, payload) -> None:
        if isinstance(payload, XferMarker) and payload.marker_uuid == self.syncing_marker:
            self.marker_seen = True

    # -- view hook ------------------------------------------------------------

    def on_view(self, view: View) -> None:
        s = self.s
        rejoins = s.group.stats.get("rejoins", 0)
        if rejoins > self._seen_rejoins:
            self._seen_rejoins = rejoins
            if s.active and view.size > 1:
                # Our GCS member lost a partition merge and dissolved into
                # the surviving component (e.g. after a NIC blackout). Our
                # replica may have missed commands — or executed client
                # retries the majority already answered differently. The
                # survivors are authoritative: demote and resync.
                s.log.warning(
                    s.tag, "re-merged from losing partition side; resyncing"
                )
                s.active = False
                self.syncing_marker = None
                self.needs_resync = True
        if self.syncing_marker is None and not s.active and (
            s.contacts or self.needs_resync
        ) and s.group.can_multicast:
            # First view containing us after a join: pin the transfer cut.
            marker = XferMarker(self.next_marker_uuid(), s.address)
            self.syncing_marker = marker.marker_uuid
            self.marker_seen = False
            s.group.multicast(marker)

    # -- the executor's marker item -------------------------------------------

    def execute_marker(self, marker: XferMarker):
        if marker.joiner == self.s.address:
            yield from self.receive_state(marker)
        else:
            yield from self.serve_state(marker)

    # -- sponsor side ---------------------------------------------------------

    def serve_state(self, marker: XferMarker):
        # Preferred sponsor = lowest-ranked *active* member other than the
        # joiner; but every active member serves (replicas are identical at
        # the marker cut, so the captures are too, and the joiner dedups).
        # A single designated sponsor can deadlock: two replicas resyncing
        # at once would each elect the other — inactive and unable to serve.
        s = self.s
        view = s.group.view
        if view is None or not s.active:
            return
        # marker.joiner is the joiner's client-facing endpoint; members are
        # GCS endpoints — compare by node.
        others = [m for m in view.members if m.node != marker.joiner.node]
        if not others:
            return
        response = yield from self.capture_state(marker)
        self._served[marker.marker_uuid] = response
        s.stats["state_transfers_served"] += 1
        if not s.endpoint.closed:
            s.endpoint.send(marker.joiner, XferPush(response, s.shard_id))

    def served(self, marker_uuid: str) -> StateXferResp | None:
        """The capture for *marker_uuid*, if this member already served it
        (backs the :class:`~repro.joshua.wire.StateXferReq` pull path)."""
        return self._served.get(marker_uuid)

    def capture_state(self, marker: XferMarker):
        s = self.s
        fields = yield from s.driver.snapshot()
        # The applied counter at the marker cut, so the joiner's read path
        # resumes with an exact staleness position. Only transferred once a
        # read/tracked request has latched seq_tracking on this host (the
        # field stays at its default — and off the wire — in deployments
        # that never use the read path) and only from an exact counter (a
        # floor would poison the joiner's RYW gate).
        applied = (
            s.applied_seq
            if s.server.seq_tracking and s.seq_exact
            else -1
        )
        return StateXferResp(
            marker.marker_uuid,
            results=tuple(sorted(s.executor.results.items())),
            applied_seq=applied,
            **fields,
        )

    # -- joiner side ----------------------------------------------------------

    def _pull_state(self, uuid: str):
        """Ask each active member directly for the capture of *uuid*.

        Fallback for a lost :class:`XferPush` frame: the sponsors may
        have captured and answered perfectly well without our ever hearing
        it. Returns the first matching :class:`StateXferResp`, or ``None``
        if nobody has one (sponsor died mid-capture → fresh marker cut).
        """
        s = self.s
        view = s.group.view
        if view is None:
            return None
        for member in sorted(view.members):
            if member.node == s.node.name:
                continue
            # Every replica of the service listens on its host's port.
            target = Address(member.node, s.address.port)
            try:
                response = yield from rpc_call(
                    s.node.network, s.node.name, target,
                    StateXferReq(uuid, s.address, s.shard_id),
                    timeout=s.group.config.flush_timeout,
                )
            except (RpcTimeout, PBSError):
                continue
            if isinstance(response, StateXferResp) and response.marker_uuid == uuid:
                s.stats["state_transfers_pulled"] += 1
                s.log.info(s.tag, f"pulled state for {uuid} from {member.node}")
                return response
        return None

    def handle_response(self, response: StateXferResp) -> None:
        self._responses[response.marker_uuid] = response
        waiter = self._waiters.pop(response.marker_uuid, None)
        if waiter is not None and not waiter.triggered:
            waiter.succeed(response)

    def receive_state(self, marker: XferMarker):
        s = self.s
        uuid = marker.marker_uuid
        if uuid in self._applied or uuid != self.syncing_marker:
            return  # stale marker; we moved on to a fresh cut
        if uuid not in self._responses:
            waiter = s.kernel.event()
            self._waiters[uuid] = waiter
            deadline = s.kernel.timeout(s.group.config.flush_timeout * 4)
            yield s.kernel.any_of([waiter, deadline])
            if not waiter.triggered:
                self._waiters.pop(uuid, None)
                # The push frame may simply have been lost while the
                # sponsors captured fine: pull the state over RPC before
                # paying for a fresh marker cut.
                pulled = yield from self._pull_state(uuid)
                if pulled is not None:
                    self._responses[uuid] = pulled
            if uuid not in self._responses:
                # Sponsor silent (likely died mid-capture): pin a fresh cut.
                if not s.group.can_multicast:
                    # The group itself is mid-(re)join; a marker cannot be
                    # ordered right now. Drop the stale cut — the view that
                    # ends the join re-enters on_view, which pins a new one.
                    self.syncing_marker = None
                    return
                fresh = XferMarker(self.next_marker_uuid(), s.address)
                self.syncing_marker = fresh.marker_uuid
                self.marker_seen = False
                s.group.multicast(fresh)
                return  # the fresh marker's delivery re-enters here
        response = self._responses[uuid]
        self._applied.add(uuid)
        yield from s.driver.restore(response)
        for uuid, cached in response.results:
            s.executor.results.setdefault(uuid, cached)
        # Re-anchor the read path's applied position at the marker cut:
        # post-marker commands execute after this method returns, so the
        # sponsor's exact counter is exact here too. Without a transferred
        # counter we restart at a floor — eventual reads stay safe, but RYW
        # floors and write stamps are disabled until the replica re-founds.
        s.restore_applied(
            max(response.applied_seq, 0), response.applied_seq >= 0
        )
        self.syncing_marker = None
        self.needs_resync = False
        s.active = True
        s.log.info(s.tag, f"state transfer complete ({response.mode}), now active")
