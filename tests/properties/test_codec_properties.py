"""Property-based tests of the wire codec (:mod:`repro.net.codec`).

* every plain value tree round-trips exactly (encode -> decode == value),
  and :func:`encoded_size` is the exact frame length;
* every record type registered by the protocol layers round-trips from an
  exemplar instance, and the registry is exactly the set this test knows
  how to build (a new wire type must be added here, which is the point);
* decoding always produces a *fresh* object graph — no identity from the
  encoder's side survives the crossing;
* unsupported values (sets, unregistered classes) are encode errors, and
  corrupt frames are decode errors, never silent misreads.
"""

import dataclasses
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

# Importing the wire modules populates the shared registry, exactly as a
# simulation does: each module registers its own types at import time.
import repro.gcs.messages  # noqa: F401
import repro.joshua.wire  # noqa: F401
import repro.net.frames  # noqa: F401
import repro.pbs.wire  # noqa: F401
import repro.pvfs.metadata  # noqa: F401
import repro.pvfs.wire  # noqa: F401
import repro.rpc.wire  # noqa: F401
from repro.gcs.messages import DataMsg, MessageId
from repro.joshua.wire import StateXferResp
from repro.net.address import Address
from repro.net.codec import WIRE, Codec, CodecError, encoded_size
from repro.pbs.job import JobSpec, JobState
from repro.pbs.wire import SubmitReq
from repro.rpc.wire import Request

# ---------------------------------------------------------------------------
# plain value trees
# ---------------------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

value_trees = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(
            st.one_of(st.text(max_size=8), st.integers()), children, max_size=4
        ),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(value=value_trees)
def test_plain_values_round_trip_exactly(value):
    frame = WIRE.encode(value)
    assert isinstance(frame, bytes)
    assert WIRE.decode(frame) == value
    assert encoded_size(value) == len(frame)


@settings(max_examples=100, deadline=None)
@given(value=value_trees)
def test_decode_never_returns_the_encoder_side_object(value):
    decoded = WIRE.decode(WIRE.encode(value))
    if isinstance(value, (list, dict)) and value:
        assert decoded is not value


def test_bool_and_int_stay_distinct():
    for value in (True, False, 1, 0):
        decoded = WIRE.decode(WIRE.encode(value))
        assert decoded == value and type(decoded) is type(value)


def test_large_and_negative_ints_round_trip():
    for value in (-1, -(2**70), 2**70, 2**31 - 1, -(2**31)):
        assert WIRE.decode(WIRE.encode(value)) == value


# ---------------------------------------------------------------------------
# registered wire records: one exemplar per registered type
# ---------------------------------------------------------------------------

_ADDRESS = Address("n0", 15001)
_MSG_ID = MessageId(_ADDRESS, 2)
_SPEC = JobSpec(name="j", owner="u", nodes=1, walltime=2.0)

#: Exemplars for field annotations naming wire classes.
_BY_CLASS_NAME = {
    "Address": _ADDRESS,
    "MessageId": _MSG_ID,
    "JobSpec": _SPEC,
    "JobState": JobState.QUEUED,
    "StateXferResp": StateXferResp("m", "replay", (), 1, ()),
}

#: Exemplars for scalar / union annotations.
_BY_ANNOTATION = {
    "int": 3,
    "float": 1.5,
    "str": "x",
    "bool": True,
    "bytes": b"b",
    "Any": ("any", 1),
    "int | None": 3,
    "float | None": 1.5,
    "str | None": "x",
    "Address | None": _ADDRESS,
}


def _exemplar_value(annotation):
    text = annotation.__name__ if isinstance(annotation, type) else str(annotation)
    forward = re.fullmatch(r"ForwardRef\('([^']+)'\)", text)
    if forward:
        text = forward.group(1)
    if text in _BY_ANNOTATION:
        return _BY_ANNOTATION[text]
    if text.startswith("tuple"):
        return ()
    if text.startswith("dict"):
        return {}
    head = re.match(r"\w+", text)
    if head and head.group(0) in _BY_CLASS_NAME:
        return _BY_CLASS_NAME[head.group(0)]
    raise AssertionError(
        f"no exemplar rule for field annotation {text!r} — "
        "extend test_codec_properties"
    )


def _exemplar(cls):
    if cls in (type(v) for v in _BY_CLASS_NAME.values()):
        return next(v for v in _BY_CLASS_NAME.values() if type(v) is cls)
    if dataclasses.is_dataclass(cls):
        pairs = [(f.name, f.type) for f in dataclasses.fields(cls)]
    else:  # NamedTuple
        pairs = [(name, cls.__annotations__[name]) for name in cls._fields]
    return cls(**{name: _exemplar_value(ann) for name, ann in pairs})


def test_every_registered_record_round_trips():
    # The registry is shared per interpreter and other *test* modules may
    # register payload types of their own; the completeness claim is about
    # the package's wire surface.
    records = [
        cls for cls in WIRE.registered_records()
        if cls.__module__.startswith("repro.")
    ]
    assert len(records) > 60  # the whole wire surface, not a subset
    for cls in records:
        value = _exemplar(cls)
        frame = WIRE.encode(value)
        decoded = WIRE.decode(frame)
        assert decoded == value, cls.__name__
        assert type(decoded) is cls
        assert encoded_size(value) == len(frame)


def test_enum_members_round_trip_to_the_singleton():
    for member in JobState:
        decoded = WIRE.decode(WIRE.encode(member))
        assert decoded is member  # enum members are process-wide singletons


def test_nested_protocol_stack_round_trips():
    """A realistic full-depth frame: GCS data message carrying an rpc
    request carrying a PBS submit — the deepest nesting the stack builds."""
    msg = DataMsg(
        msg_id=_MSG_ID,
        view_id=4,
        service="joshua",
        payload=Request(7, SubmitReq(spec=_SPEC, force_job_id=None)),
    )
    decoded = WIRE.decode(WIRE.encode(msg))
    assert decoded == msg
    assert decoded is not msg
    assert decoded.payload.payload.spec == _SPEC
    assert decoded.payload.payload.spec is not _SPEC


# ---------------------------------------------------------------------------
# rejection: unsupported values and corrupt frames
# ---------------------------------------------------------------------------


def test_sets_are_rejected():
    with pytest.raises(CodecError):
        WIRE.encode({1, 2, 3})
    with pytest.raises(CodecError):
        WIRE.encode(frozenset({"a"}))


def test_unregistered_classes_are_rejected():
    @dataclasses.dataclass(frozen=True)
    class Stray:
        n: int

    with pytest.raises(CodecError):
        WIRE.encode(Stray(1))


def test_truncated_and_trailing_frames_are_decode_errors():
    frame = WIRE.encode(("hello", 42))
    with pytest.raises(CodecError):
        WIRE.decode(frame[:-1])
    with pytest.raises(CodecError):
        WIRE.decode(frame + b"\x00")
    with pytest.raises(CodecError):
        WIRE.decode(b"\xff")


# ---------------------------------------------------------------------------
# schema evolution: the tolerance paths hold for arbitrary payloads
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _EvoV1:
    uuid: str
    body: object


@dataclasses.dataclass(frozen=True)
class _EvoV2:
    uuid: str
    body: object
    extra: object = None


def _evo_codec(cls, *, strict=False):
    codec = Codec(strict=strict)
    codec.register(cls, name="Evo")
    return codec


@settings(max_examples=100, deadline=None)
@given(uuid=st.text(max_size=12), body=value_trees)
def test_absent_defaulted_trailing_field_fills(uuid, body):
    """Old sender -> new receiver: whatever rides in the common prefix, the
    absent trailing field comes back as the declared default."""
    frame = _evo_codec(_EvoV1).encode(_EvoV1(uuid, body))
    decoded = _evo_codec(_EvoV2).decode(frame)
    assert decoded == _EvoV2(uuid, body, extra=None)
    assert type(decoded) is _EvoV2


@settings(max_examples=100, deadline=None)
@given(uuid=st.text(max_size=12), body=value_trees, extra=value_trees)
def test_unknown_trailing_field_is_skipped(uuid, body, extra):
    """New sender -> old receiver: the unknown trailing field is consumed
    and dropped, whatever value tree it carried."""
    frame = _evo_codec(_EvoV2).encode(_EvoV2(uuid, body, extra))
    decoded = _evo_codec(_EvoV1).decode(frame)
    assert decoded == _EvoV1(uuid, body)
    assert type(decoded) is _EvoV1


@settings(max_examples=50, deadline=None)
@given(uuid=st.text(max_size=12), body=value_trees, extra=value_trees)
def test_strict_mode_rejects_any_version_skew(uuid, body, extra):
    old_frame = _evo_codec(_EvoV1).encode(_EvoV1(uuid, body))
    new_frame = _evo_codec(_EvoV2).encode(_EvoV2(uuid, body, extra))
    with pytest.raises(CodecError):
        _evo_codec(_EvoV2, strict=True).decode(old_frame)
    with pytest.raises(CodecError):
        _evo_codec(_EvoV1).decode(new_frame, strict=True)
    # ...while the same frames decode fine tolerantly.
    assert _evo_codec(_EvoV2).decode(old_frame).extra is None
    assert _evo_codec(_EvoV1).decode(new_frame) == _EvoV1(uuid, body)


@settings(max_examples=100, deadline=None)
@given(uuid=st.text(max_size=12), body=value_trees)
def test_tolerant_skew_round_trip_preserves_common_prefix(uuid, body):
    """v1 -> v2 -> v1 across codecs loses only the appended field — the
    common prefix survives both crossings bit-exactly."""
    v1, v2 = _evo_codec(_EvoV1), _evo_codec(_EvoV2)
    upgraded = v2.decode(v1.encode(_EvoV1(uuid, body)))
    downgraded = v1.decode(v2.encode(upgraded))
    assert downgraded == _EvoV1(uuid, body)


# ---------------------------------------------------------------------------
# registry self-check stays green after all layers registered
# ---------------------------------------------------------------------------


def test_registry_self_check_passes():
    WIRE.self_check()
