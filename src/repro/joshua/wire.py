"""JOSHUA wire messages: client commands, mutex traffic, state transfer.

The read-path records (PROTOCOLS.md §12) grow existing requests by
**wire-optional trailing fields** (:func:`repro.net.codec.mark_wire_optional`):
a request whose new fields still hold their defaults encodes — and reprs —
byte-identically to the pre-extension declaration, which is what keeps the
``consistency="ordered"`` default bit-identical on the wire (the pinned
``tests/data/wire_baseline.json`` digests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.net.address import Address
from repro.net.codec import elided_repr, mark_wire_optional, register_wire_types
from repro.pbs.job import JobSpec
from repro.pbs.wire import ErrorResp

__all__ = [
    "JSubReq", "JDelReq", "JStatReq", "JStatResp", "SeqStampedResp",
    "JMutexReq", "JMutexResp", "JStartedReq", "JDoneReq",
    "StateXferReq", "StateXferResp", "XferPush",
    "Command", "Claim", "Started", "Done", "XferMarker",
    "JOINING", "refuse_joining", "is_joining", "service_error",
]


# -- client -> joshua server ---------------------------------------------------


@dataclass(frozen=True, repr=False)
class JSubReq:
    """``jsub``: replicated job submission.

    ``track_seq`` asks the head to stamp the commit sequence of this write
    into the reply (:class:`SeqStampedResp`) so the client can later issue
    read-your-writes ``jstat`` requests against it.
    """

    uuid: str
    spec: JobSpec
    track_seq: bool = False

    __repr__ = elided_repr


@dataclass(frozen=True, repr=False)
class JDelReq:
    """``jdel``: replicated job deletion."""

    uuid: str
    job_id: str
    track_seq: bool = False

    __repr__ = elided_repr


@dataclass(frozen=True, repr=False)
class JStatReq:
    """``jstat``: status query.

    With ``consistency="ordered"`` (the legacy default) the query rides the
    totally ordered stream exactly like a write, so every user sees a queue
    consistent with the command order. ``"eventual"`` and ``"ryw"`` answer
    from the receiving head's local replica without entering the ordered
    stream; ``min_seq`` carries the client's read-your-writes floors as
    sorted ``(shard, applied_seq)`` pairs.
    """

    uuid: str
    job_id: str | None = None
    consistency: str = "ordered"
    min_seq: tuple = ()

    __repr__ = elided_repr


@dataclass(frozen=True)
class JStatResp:
    """A local-replica answer to a read-path ``jstat``.

    ``as_of_seq`` is the answering replica's applied position per shard
    (sorted ``(shard, applied_seq)`` pairs, exact counters only) — the
    staleness bound the client/invariants can check against their floors.
    Ordered-path queries keep answering with a plain PBS ``StatResp``; the
    response *type* is how a client distinguishes a local read from an
    ordered fallback.
    """

    rows: tuple
    as_of_seq: tuple = ()
    node: str = ""


@dataclass(frozen=True)
class SeqStampedResp:
    """A write reply carrying its commit position: the wrapped PBS result
    plus the (shard, applied_seq) the command executed at on the answering
    head. Only sent when the writer asked via ``track_seq``."""

    result: Any
    shard: int
    seq: int


# -- mom prologue/epilogue -> joshua server ----------------------------------------


@dataclass(frozen=True)
class JMutexReq:
    """``jmutex``: may this head's start attempt actually launch the job?"""

    job_id: str
    head: str  # head-node name of the attempting server


@dataclass(frozen=True)
class JMutexResp:
    decision: str  # "run" | "emulate"
    winner: str | None = None


@dataclass(frozen=True)
class JStartedReq:
    """The winning attempt really did start the job on the mom."""

    job_id: str


@dataclass(frozen=True)
class JDoneReq:
    """``jdone``: the job finished; release the launch mutex."""

    job_id: str


# -- state transfer ---------------------------------------------------------------


@dataclass(frozen=True)
class StateXferReq:
    """Joiner -> sponsor: send me the state as of my marker."""

    marker_uuid: str
    joiner: Address
    #: Which ordering shard's replica unit this transfer belongs to (the
    #: front-end router on JOSHUA_PORT serves every shard hosted on the
    #: head; 0 is the only shard in an unsharded deployment).
    shard: int = 0


@dataclass(frozen=True, repr=False)
class StateXferResp:
    marker_uuid: str
    mode: str  # "replay" | "snapshot"
    #: replay: tuple of (kind, payload) commands to re-execute;
    #: snapshot: tuple of Job records.
    items: tuple
    next_seq: int
    #: job_id -> (winner head, started) launch-mutex entries.
    mutex: tuple
    #: Job ids the sponsor could not transfer (held jobs in replay mode —
    #: the paper's documented limitation).
    skipped: tuple = ()
    #: (uuid, cached response) pairs: the sponsor's command dedup cache, so
    #: a client retrying an already-executed command against the joiner is
    #: answered from cache instead of re-executing (and possibly
    #: re-launching) it.
    results: tuple = ()
    #: The sponsor's exact applied-command counter at the marker cut, so
    #: the joiner's read path resumes with an exact staleness position.
    #: -1 (elided on the wire) when the sponsor is not tracking sequences —
    #: the joiner then restarts with a floor counter (eventual reads only).
    applied_seq: int = -1

    __repr__ = elided_repr


@dataclass(frozen=True)
class XferPush:
    """Sponsor -> joiner: unsolicited state-transfer capture push.

    Fire-and-forget (not request/response — the joiner asked via the
    ordered :class:`XferMarker`, not an RPC); sent to the joiner's joshua
    endpoint when the sponsor's executor reaches the marker cut. *shard*
    routes the push to the owning replica unit behind the front-end.
    """

    response: StateXferResp
    shard: int = 0


# -- group multicast payloads --------------------------------------------------------


@dataclass(frozen=True)
class Command:
    """A totally ordered user command, executed at every head."""

    uuid: str
    kind: str  # "jsub" | "jdel" | "jstat"
    payload: Any


@dataclass(frozen=True)
class Claim:
    """SAFE-delivered launch-mutex claim; first claim per job wins."""

    job_id: str
    head: str


@dataclass(frozen=True)
class Started:
    job_id: str


@dataclass(frozen=True)
class Done:
    job_id: str


@dataclass(frozen=True)
class XferMarker:
    """Joiner's cut point in the command stream for state transfer."""

    marker_uuid: str
    joiner: Address


mark_wire_optional(JSubReq, "track_seq")
mark_wire_optional(JDelReq, "track_seq")
mark_wire_optional(JStatReq, "consistency", "min_seq")
mark_wire_optional(StateXferResp, "applied_seq")

register_wire_types(
    JSubReq, JDelReq, JStatReq, JStatResp, SeqStampedResp,
    JMutexReq, JMutexResp, JStartedReq, JDoneReq,
    StateXferReq, StateXferResp, XferPush,
    Command, Claim, Started, Done, XferMarker,
)


# -- error answers of a replica ------------------------------------------------

#: ``ErrorResp`` kind of a replica that cannot order commands right now
#: (mid-join or mid-rejoin): not an application error, just the wrong
#: replica to ask — the client fails over to another one.
JOINING = "joining"


def refuse_joining(message: str = "head is joining; retry another") -> ErrorResp:
    """The answer of a replica that cannot order a request right now."""
    return ErrorResp(JOINING, message)


def is_joining(exc: Exception) -> bool:
    """Whether a relayed error (``"<kind>: <message>"``) is a joining
    refusal — the ``retry_error`` predicate of every failover client."""
    return str(exc).startswith(f"{JOINING}:")


def service_error(exc: Exception) -> ErrorResp:
    """The cached, replicated result of a command whose backend raised:
    every replica fails the same deterministic command the same way, so the
    error is relayed to the client instead of killing the executors."""
    return ErrorResp("service-error", f"{type(exc).__name__}: {exc}")
