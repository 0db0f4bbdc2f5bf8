"""Layer tracing from outside the program: timing wrappers around the
public entry points of each ``repro`` layer.

:class:`Tracer` patches the entry points (class attributes and module-level
functions, including every ``from ... import`` alias of them inside
``repro``) with wrappers that record one span per entry: name, host start,
host end, parent span and the command uuid when the payload carries one.
A span's parent is the innermost wrapper still open on the call stack, so
inside each ``Kernel.step`` the spans form a tree rooted at ``sim.step``.

Generator entry points (RPC calls, dispatch handlers, command execution)
are timed per *resumption*: each time the kernel resumes the generator is
one span, so time spent waiting in simulated time is never counted.

Self time is a span's duration minus the time its direct children cover.
Host time is ``time.perf_counter``. Spans stay in memory until
:meth:`Tracer.write` saves them.

The wrappers are passive: they call the original with the same arguments
and return its result, so a traced simulation is event-for-event identical
to an untraced one (``run.py`` checks this on every traced run).
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

from repro.cluster.storage import Disk
from repro.gcs.batching import DataBatcher
from repro.gcs.member import GroupMember
from repro.joshua.executor import SerialExecutor
from repro.joshua.xfer import StateTransfer
from repro.net import network as net_module
from repro.net.codec import Codec
from repro.net.network import Network
from repro.pbs import scheduler as sched_module
from repro.pbs.server import PBSServer
from repro.pvfs.service import MetadataBackend
from repro.rpc import client as rpc_client
from repro.rpc.errors import RpcTimeout
from repro.rpc.server import RpcDispatcher
from repro.sim.kernel import Kernel
from repro.util.errors import NoActiveHeadError

__all__ = ["Tracer", "TABLE_FRAMES"]

#: Frame types whose encoded size grows with the job table.
TABLE_FRAMES = ("SchedPollResp", "JStatResp", "StatResp")


def _uuid_of(payload) -> str | None:
    uuid = getattr(payload, "uuid", None)
    if uuid is None:
        uuid = getattr(getattr(payload, "payload", None), "uuid", None)
    return uuid if isinstance(uuid, str) else None


class _Resumptions:
    """Iterator proxy over a generator: each ``send``/``throw`` is a span.

    ``yield from`` drives it exactly as it would drive the generator, so
    the wrapped coroutine sees the same values and exceptions."""

    __slots__ = ("gen", "tracer", "name", "uuid", "on_return")

    def __init__(self, gen, tracer, name, uuid, on_return):
        self.gen = gen
        self.tracer = tracer
        self.name = name
        self.uuid = uuid
        self.on_return = on_return

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _resume(self, step, arg):
        tracer = self.tracer
        frame = tracer.enter(self.name, self.uuid)
        try:
            return step(arg)
        except StopIteration as stop:
            if self.on_return is not None:
                self.on_return(stop.value, None)
            raise
        except BaseException as exc:
            if self.on_return is not None and not isinstance(exc, GeneratorExit):
                self.on_return(None, exc)
            raise
        finally:
            tracer.exit(frame)

    def send(self, value):
        return self._resume(self.gen.send, value)

    def throw(self, typ, val=None, tb=None):
        return self._resume(self.gen.throw, val if val is not None else typ)

    def close(self):
        self.gen.close()


def _drive(proxy):
    return (yield from proxy)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self._clock = time.perf_counter
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.uuids: list[str] = []
        self._uuid_ids: dict[str, int] = {}
        # One row per span, column-wise (compact: ~28 bytes a span).
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_uuid = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self.self_s: list[float] = []
        self.counts: Counter = Counter()
        self.encoded_by_type: Counter = Counter()
        #: (head, uuid) -> simulated time the receiving head took it in.
        self._submitted: dict[tuple[str, str], float] = {}
        #: Simulated submit -> execute waits on the receiving head.
        self.executor_waits: list[float] = []
        #: Simulated times at which a joining replica became active.
        self.became_active: list[tuple[str, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def _name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
        return found

    def _uuid_id(self, uuid: str | None) -> int:
        if uuid is None:
            return -1
        found = self._uuid_ids.get(uuid)
        if found is None:
            found = self._uuid_ids[uuid] = len(self.uuids)
            self.uuids.append(uuid)
        return found

    def enter(self, name_id: int, uuid_id: int = -1) -> list:
        index = len(self.span_name)
        stack = self._stack
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_uuid.append(uuid_id)
        self.span_end.append(0.0)
        frame = [index, 0.0, 0.0]
        stack.append(frame)
        frame[2] = now = self._clock()
        self.span_start.append(now)
        return frame

    def exit(self, frame: list) -> None:
        end = self._clock()
        index, children, start = frame
        self.span_end[index] = end
        duration = end - start
        stack = self._stack
        stack.pop()
        self.self_s[self.span_name[index]] += duration - children
        if stack:
            stack[-1][1] += duration

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_function(self, module, attr: str, replacement) -> None:
        """Patch a module-level function *and* every alias of it that other
        ``repro`` modules bound with ``from ... import``."""
        original = getattr(module, attr)
        for name, mod in sorted(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, replacement)

    def _timed(self, name: str, fn, *, uuid_arg: int | None = None, before=None, after=None):
        """Wrap a plain function: one span per call."""
        name_id = self._name_id(name)
        tracer = self
        counts = self.counts
        calls_key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            uuid_id = -1
            if uuid_arg is not None and len(args) > uuid_arg:
                uuid_id = tracer._uuid_id(_uuid_of(args[uuid_arg]))
            if before is not None:
                before(args, kwargs)
            frame = tracer.enter(name_id, uuid_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _resumed(self, name_id: int, uuid_id: int, gen, finish=None):
        """A generator driving *gen* with one span per resumption."""
        driven = _drive(_Resumptions(gen, self, name_id, uuid_id, finish))
        # Process names default to the generator's name: keep it.
        driven.__name__ = gen.__name__
        driven.__qualname__ = gen.__qualname__
        return driven

    def _timed_gen(self, name: str, fn, *, uuid_arg: int | None = None, on_create=None, on_return=None):
        """Wrap a function returning a generator: one span for the call
        (which only builds the generator), then one per resumption."""
        name_id = self._name_id(name)
        tracer = self
        counts = self.counts
        calls_key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            uuid_id = -1
            if uuid_arg is not None and len(args) > uuid_arg:
                uuid_id = tracer._uuid_id(_uuid_of(args[uuid_arg]))
            frame = tracer.enter(name_id, uuid_id)
            try:
                gen = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if not hasattr(gen, "send"):
                return gen
            if on_create is not None:
                on_create(args, kwargs)
            finish = None
            if on_return is not None:
                def finish(value, exc, _args=args):
                    on_return(_args, value, exc)
            return tracer._resumed(name_id, uuid_id, gen, finish)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> "Tracer":
        """Patch every layer entry point. Call before building a cluster."""
        counts = self.counts
        encoded = self.encoded_by_type
        payload_kind = net_module._payload_kind

        # repro.sim
        self._patch(Kernel, "step", self._timed("sim.step", Kernel.step))

        # repro.net
        def after_encode(args, frame):
            counts["net.encode.bytes"] += len(frame)
            encoded[payload_kind(args[1])] += len(frame)

        self._patch(Codec, "encode", self._timed("net.encode", Codec.encode, after=after_encode))
        self._patch(Codec, "decode", self._timed("net.decode", Codec.decode))
        self._patch(Network, "send", self._timed("net.send", Network.send, uuid_arg=3))

        # repro.rpc
        def call_return(args, value, exc):
            if isinstance(exc, RpcTimeout):
                counts["rpc.call.timeouts"] += 1

        self._patch_function(rpc_client, "call", self._timed_gen(
            "rpc.call", rpc_client.call, uuid_arg=3, on_return=call_return))
        self._patch_function(rpc_client, "failover_call", self._failover_wrapper(rpc_client.failover_call))
        self._patch(RpcDispatcher, "_handle", self._timed_gen(
            "rpc.dispatch", RpcDispatcher._handle, uuid_arg=3))

        # repro.gcs
        self._patch(GroupMember, "multicast", self._timed(
            "gcs.multicast", GroupMember.multicast, uuid_arg=1))
        self._patch(GroupMember, "_deliver_ready", self._timed(
            "gcs.delivery", GroupMember._deliver_ready))
        self._patch(GroupMember, "install_view", self._timed(
            "gcs.install_view", GroupMember.install_view))

        def before_flush(args, _kwargs):
            entries = len(args[0]._entries)
            if entries > 1:  # a single entry goes out as a plain DataMsg
                counts["gcs.batches"] += 1
                counts["gcs.batched_ops"] += entries

        self._patch(DataBatcher, "_flush", self._timed(
            "gcs.batch_flush", DataBatcher._flush, before=before_flush))

        # repro.cluster / repro.pbs
        self._patch(Disk, "write", self._timed("cluster.disk.write", Disk.write))

        def after_poll(args, response):
            counts["pbs.table_rows.sum"] += len(response.rows)
            counts["pbs.table_rows.max"] = max(counts["pbs.table_rows.max"], len(response.rows))

        self._patch(PBSServer, "_do_sched_poll", self._timed(
            "pbs.sched_poll", PBSServer._do_sched_poll, after=after_poll))
        self._patch_function(sched_module, "fifo_decide", self._timed(
            "pbs.fifo_decide", sched_module.fifo_decide))

        # repro.joshua
        submitted = self._submitted

        def after_submit(args, _result):
            executor, _src, _rid, payload = args[:4]
            key = (executor.s.node.name, payload.uuid)
            submitted.setdefault(key, executor.s.kernel.now)

        def on_execute(args, kwargs):
            executor, command = args[0], args[1]
            waited = submitted.pop((executor.s.node.name, command.uuid), None)
            if waited is not None:
                self.executor_waits.append(executor.s.kernel.now - waited)

        self._patch(SerialExecutor, "submit", self._timed(
            "joshua.submit", SerialExecutor.submit, uuid_arg=3, after=after_submit))
        self._patch(SerialExecutor, "execute_command", self._timed_gen(
            "joshua.execute", SerialExecutor.execute_command, uuid_arg=1,
            on_create=on_execute))

        def xfer_return(args, _value, exc):
            replica = args[0].s
            if exc is None and replica.active:
                self.became_active.append((replica.node.name, replica.kernel.now))

        self._patch(StateTransfer, "receive_state", self._timed_gen(
            "joshua.receive_state", StateTransfer.receive_state, on_return=xfer_return))

        # repro.aa / repro.pvfs
        self._patch(MetadataBackend, "execute", self._timed_gen(
            "aa.execute", MetadataBackend.execute))
        return self

    def _failover_wrapper(self, fn):
        """``failover_call`` with its target list observed: a target the
        loop skips because its node is down counts as ``skipped_down``;
        every target it called and then moved on from counts as a retry."""
        name_id = self._name_id("rpc.failover")
        tracer = self
        counts = self.counts

        def wrapper(network, node, targets, payload, **kwargs):
            counts["rpc.failover.calls"] += 1
            skip_down = kwargs.get("skip_down", True)
            attempted = [0]

            def observed():
                # Same test, at the same instant, as the loop it feeds.
                for target in targets:
                    if skip_down and not network.node_is_up(target.node):
                        counts["rpc.failover.skipped_down"] += 1
                    else:
                        attempted[0] += 1
                    yield target

            def finish(_value, exc):
                # NoActiveHeadError: every attempted target failed.
                answered = 0 if isinstance(exc, NoActiveHeadError) else 1
                counts["rpc.failover.retries"] += max(attempted[0] - answered, 0)

            uuid_id = tracer._uuid_id(_uuid_of(payload))
            frame = tracer.enter(name_id, uuid_id)
            try:
                gen = fn(network, node, observed(), payload, **kwargs)
            finally:
                tracer.exit(frame)
            return tracer._resumed(name_id, uuid_id, gen, finish)

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_time(self, name: str) -> float:
        found = self._name_ids.get(name)
        return self.self_s[found] if found is not None else 0.0

    def span_count(self) -> int:
        return len(self.span_name)

    def write(self, path: str) -> None:
        """Save every span (columns + name/uuid tables) as an ``.npz``."""
        import numpy as np

        np.savez(
            path,
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            uuid=np.frombuffer(self.span_uuid, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            names=np.array(self.names),
            uuids=np.array(self.uuids if self.uuids else [""]),
        )
