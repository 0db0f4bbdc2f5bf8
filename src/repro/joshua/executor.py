"""Serial command execution and the delivered-once output cache.

The replication hot path of paper §4, for any backend driver. Client
requests are deduplicated by UUID (across client retries *and* replica
failovers), multicast through the GCS with SAFE service as a
:class:`~repro.joshua.wire.Command`, and applied to the local service by a
strictly serial executor through the replica's
:class:`~repro.joshua.shard.BackendDriver` — identical command order +
deterministic service = identical replica state. The replica that took the
client connection replays its cached local output back, exactly once.

The executor also drains work that must serialise with the command stream:
state-transfer markers (delegated to :mod:`repro.joshua.xfer`) and local
work a driver queues (PBS's launch-mutex revocations).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.gcs.messages import SAFE
from repro.joshua.wire import (
    Command,
    SeqStampedResp,
    XferMarker,
    refuse_joining,
    service_error,
)
from repro.net.address import Address
from repro.obs.collector import collector_of
from repro.sim.resources import Store
from repro.util.errors import Interrupt, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.joshua.shard import ShardReplica

__all__ = ["SerialExecutor"]


class SerialExecutor:
    """Command intake, dedup cache and serial executor for one replica."""

    def __init__(self, replica: "ShardReplica"):
        self.s = replica
        self.queue: Store = Store(replica.kernel)
        #: uuid -> cached local result (output dedup across retries).
        self.results: dict[str, object] = {}
        #: uuid -> applied_seq the command executed at on this replica
        #: (only recorded while the counter is exact; feeds SeqStampedResp).
        self.results_seq: dict[str, int] = {}
        #: uuid -> [(client src, rpc id, stamp seq?)] awaiting the result.
        self._pending_replies: dict[str, list[tuple[Address, int, bool]]] = {}
        #: uuids this replica has multicast (avoid re-multicast on retry).
        self._multicast_uuids: set[str] = set()
        #: Replicated command log (delivered order) — used by tests and by
        #: the invariant checks; state transfer itself captures the service
        #: state rather than replaying from time zero.
        self.command_log: list[Command] = []

    # -- client command intake ----------------------------------------------

    def submit(self, src: Address, request_id: int, payload):
        """Dedup an incoming client request and multicast its command."""
        s = self.s
        if not s.active or not s.group.can_multicast:
            # Inactive (state transfer in progress) or mid-(re)join after an
            # exclusion: either way we cannot order the command — send the
            # client to another replica instead of crashing on the multicast.
            return refuse_joining()
        uuid = payload.uuid
        track = bool(getattr(payload, "track_seq", False))
        if uuid in self.results:
            return self._stamped(self.results[uuid], uuid, track)
        self._pending_replies.setdefault(uuid, []).append((src, request_id, track))
        if uuid in self._multicast_uuids:
            return None  # already in flight; the delivery will answer
        self._multicast_uuids.add(uuid)
        command = s.driver.command(payload)
        s.stats["commands"] += 1
        collector = collector_of(s.node.network)
        if collector is not None:
            collector.job_event(s.node.name, "job.received",
                                trace_id=uuid, command=command.kind,
                                **self._shard_label())
        s.group.multicast(command, service=SAFE)
        return None

    def _shard_label(self) -> dict:
        """Trace-event label naming the owning shard — only when sharding
        is actually on, so single-shard event payloads stay byte-identical
        to the historical stream."""
        if self.s.nshards == 1:
            return {}
        return {"shard": self.s.shard_id}

    # -- serial executor ------------------------------------------------------

    def enqueue(self, work) -> None:
        """Queue local *work* (a zero-argument generator function) to run on
        the serial executor, in order with the delivered command stream."""
        self.queue.put_nowait(work)

    def loop(self):
        s = self.s
        while True:
            item = yield self.queue.get()
            if callable(item):
                yield from item()
                continue
            payload = item.payload
            if isinstance(payload, XferMarker):
                yield from s.xfer.execute_marker(payload)
            elif isinstance(payload, Command):
                s.drained_commands += 1
                collector = collector_of(s.node.network)
                if collector is not None:
                    collector.job_event(s.node.name, "job.ordered",
                                        trace_id=payload.uuid,
                                        seq=item.seq, view=item.view_id,
                                        **self._shard_label())
                if not s.active and s.xfer.syncing_marker is not None:
                    # Commands queued between an abandoned marker and its
                    # replacement are covered by the fresh capture.
                    continue
                yield from self.execute_command(payload)

    def execute_command(self, command: Command):
        s = self.s
        if command.uuid in self.results:
            self.answer(command.uuid)
            return
        self.command_log.append(command)
        try:
            result = yield from s.driver.execute(command)
        except (Interrupt, SimulationError):
            raise  # a daemon stop or a kernel fault, not the command's
        except Exception as exc:  # deterministic: same error at every replica
            result = service_error(exc)
        self.results[command.uuid] = result
        s.note_applied()
        if s.seq_exact:
            self.results_seq[command.uuid] = s.applied_seq
        s.stats["executed"] += 1
        collector = collector_of(s.node.network)
        if collector is not None:
            collector.job_event(s.node.name, "job.executed",
                                trace_id=command.uuid, command=command.kind,
                                result=type(result).__name__,
                                **self._shard_label())
        yield from s.driver.reply_pause()
        self.answer(command.uuid)

    def answer(self, uuid: str) -> None:
        result = self.results.get(uuid)
        for src, request_id, track in self._pending_replies.pop(uuid, []):
            self.s._reply(src, request_id, self._stamped(result, uuid, track))

    def _stamped(self, result, uuid: str, track: bool):
        """Wrap *result* in a :class:`SeqStampedResp` when the writer asked
        for its commit position — never for errors (an error relay must
        reach the client unwrapped to re-raise there) and never from a
        floor counter (an understated stamp would admit stale RYW reads
        later)."""
        if (
            not track
            or getattr(result, "__rpc_error_relay__", False)
            or uuid not in self.results_seq
        ):
            return result
        return SeqStampedResp(result, self.s.shard_id, self.results_seq[uuid])
