"""R4/R6: protocol completeness, handler shape, and codec coverage.

**R4 — protocol completeness and shape.** For every wire-message dataclass
the rule demands:

* a **server-side handler** somewhere in the protocol's handler package —
  recognised as a dispatch-dict key (``{DataMsg: self._handle_data, …}``),
  a ``register``/``reg`` call argument (including tuple registrations), an
  ``isinstance(payload, T)`` test, or a ``match``-case class pattern;
* a **client-side constructor**: the class is instantiated somewhere in the
  codebase outside the wire module that defines it;
* **shape agreement**: when a registered handler can be resolved to a
  function in the registering module, every attribute it reads off its
  payload parameter must be a declared field (or method) of the message
  type(s) it was registered for — catching handlers that dereference
  fields a wire dataclass no longer carries;
* every ``ErrorResp`` **kind string** a server emits must have a
  client-side consumer (a matching string literal somewhere outside the
  emitting call), or a reasoned entry in :data:`ERROR_KINDS_EXEMPT` —
  catching error codes no client can ever branch on.

Response types (``*Resp``) are produced by servers and consumed generically
by :func:`repro.rpc.client.call`, so they need a constructor but not a
registered handler. Types that are not wire messages at all (delivery
records, identifier tuples) are exempted in :data:`PROTOCOLS` with the
reason recorded next to the exemption.

**R6 — codec coverage.** Every wire dataclass must have a registered,
round-trippable codec entry. For each module listed in
:data:`CODEC_MODULES`, every exported dataclass / NamedTuple / Enum must

* appear in a ``register_wire_types`` / ``register_wire_enum`` call in its
  own module (so importing the wire module is sufficient to decode its
  frames), with enums going through ``register_wire_enum``;
* carry no ``set``/``frozenset`` fields (the codec rejects unordered
  containers — iteration order would leak host randomisation onto the
  wire);
* have a class name that is unique across all wire modules (the wire tag
  is the class name; a collision would make frames ambiguous).

Local-only records that must *never* be encoded are exempted per module
with the reason recorded next to the exemption.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.findings import Finding

__all__ = [
    "CODEC_MODULES",
    "CodecSpec",
    "ERROR_KINDS_EXEMPT",
    "PROTOCOLS",
    "ProtocolSpec",
    "rule_r4",
    "rule_r6",
]


@dataclass(frozen=True)
class ProtocolSpec:
    """One wire module and where its handlers/constructors may live."""

    name: str
    wire: str                          # wire module, repro-relative path
    handler_prefixes: tuple[str, ...]  # dirs scanned for dispatch of its types
    #: type name -> why no handler is required (not a wire message).
    exempt: dict[str, str] = field(default_factory=dict)


PROTOCOLS = (
    ProtocolSpec(name="net", wire="net/frames.py", handler_prefixes=("net/",)),
    ProtocolSpec(name="rpc", wire="rpc/wire.py", handler_prefixes=("rpc/",)),
    ProtocolSpec(
        name="gcs",
        wire="gcs/messages.py",
        handler_prefixes=("gcs/",),
        exempt={
            "MessageId": "identifier tuple embedded in messages, not itself sent",
            "DeliveredMessage": "local delivery record handed to services, never on the wire",
        },
    ),
    ProtocolSpec(name="pbs", wire="pbs/wire.py", handler_prefixes=("pbs/",)),
    ProtocolSpec(name="joshua", wire="joshua/wire.py", handler_prefixes=("joshua/",)),
    ProtocolSpec(name="pvfs", wire="pvfs/wire.py", handler_prefixes=("pvfs/",)),
)

_REGISTER_NAMES = ("register", "reg")

#: ErrorResp kind -> why no client-side consumer is required.
ERROR_KINDS_EXEMPT = {
    "unknown-job": "terminal user-facing error, relayed verbatim by the CLI",
    "bad-state": "terminal user-facing error (illegal transition), not branched on",
    "pbs-error": "generic server failure wrapper, surfaced to the user as-is",
    "bad-request": "malformed/unroutable request; a correct client never sees it",
    "bad-command": "unknown replicated command kind; a correct client never sees it",
    "service-error": "a backend exception the replication core relays as the "
                     "command's result (joshua/wire.py service_error); the PVFS "
                     "client re-raises it as ServiceError without branching on it",
    "retry": "consumed generically: the state-transfer puller retries on any "
             "PBSError (joshua/xfer.py)",
}


def _module_all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "__all__"
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            return [
                elt.value
                for elt in node.value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            ]
    return []


def _wire_classes(tree: ast.Module) -> dict[str, int]:
    """Class name -> definition line for classes exported via ``__all__``."""
    exported = set(_module_all(tree))
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, ast.ClassDef) and (not exported or node.name in exported)
    }


def _type_names(node: ast.AST) -> list[str]:
    """Type names out of a ``T`` or ``(T1, T2)`` dispatch argument."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, (ast.Tuple, ast.List)):
        names: list[str] = []
        for elt in node.elts:
            names.extend(_type_names(elt))
        return names
    return []


def _handled_types(tree: ast.AST) -> set[str]:
    handled: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            # Dispatch-table display: {DataMsg: handler, ...}.
            for key in node.keys:
                if key is not None:
                    handled.update(
                        n for n in _type_names(key) if n[:1].isupper()
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            func_name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else None
            )
            if func_name in _REGISTER_NAMES and node.args:
                handled.update(_type_names(node.args[0]))
            elif func_name == "isinstance" and len(node.args) == 2:
                handled.update(_type_names(node.args[1]))
        elif isinstance(node, ast.MatchClass):
            handled.update(_type_names(node.cls))
    return handled


def _constructed_types(tree: ast.AST) -> set[str]:
    constructed: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            constructed.update(
                n for n in _type_names(node.func) if n[:1].isupper()
            )
    return constructed


# ---------------------------------------------------------------------------
# R4 shape: handler payload-field agreement
# ---------------------------------------------------------------------------


def _class_members(tree: ast.Module) -> dict[str, set[str]]:
    """Class name -> declared member names (fields, class vars, methods)."""
    members: dict[str, set[str]] = {}
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        names: set[str] = set()
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                names.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(stmt.name)
        members[node.name] = names
    return members


def _functions_by_name(tree: ast.Module) -> dict[str, list[ast.AST]]:
    defs: dict[str, list[ast.AST]] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.setdefault(node.name, []).append(node)
    return defs


def _registrations(tree: ast.Module) -> list[tuple[list[str], ast.AST]]:
    """``(registered type names, handler expression)`` for every dispatch
    registration in the module: ``register(T, handler)`` calls and
    ``{T: handler}`` dispatch-table entries."""
    regs: list[tuple[list[str], ast.AST]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            func_name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else None
            )
            if func_name in _REGISTER_NAMES and len(node.args) >= 2:
                names = _type_names(node.args[0])
                if names:
                    regs.append((names, node.args[1]))
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if key is None:
                    continue
                names = [n for n in _type_names(key) if n[:1].isupper()]
                if names:
                    regs.append((names, value))
    return regs


def _handler_candidates(handler: ast.AST) -> set[str]:
    """Function names a handler expression may resolve to in its module:
    bare names, ``self.X`` attributes, and — for lambdas — the ``self.X``
    calls in the body that actually receive the payload parameter."""
    names: set[str] = set()
    if isinstance(handler, ast.Name):
        names.add(handler.id)
    for node in ast.walk(handler):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return names


def _lambda_forwards_payload(handler: ast.AST, candidate: str) -> bool:
    """For a ``lambda s, r, p: self.h(p)`` handler: does *candidate*'s call
    receive the lambda's payload (last) parameter? Handlers that ignore the
    payload (``self._do_purge()``) have nothing to shape-check."""
    if not isinstance(handler, ast.Lambda) or not handler.args.args:
        return True
    payload = handler.args.args[-1].arg
    for node in ast.walk(handler.body):
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else None
            )
            if name == candidate:
                return any(
                    isinstance(arg, ast.Name) and arg.id == payload
                    for arg in node.args
                )
    return True


def _payload_attr_reads(fn: ast.AST) -> list[tuple[str, int]]:
    """Attribute names read off the function's payload (last) parameter."""
    args = list(fn.args.args)
    if args and args[0].arg == "self":
        args = args[1:]
    if not args:
        return []
    payload = args[-1].arg
    reads: list[tuple[str, int]] = []
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == payload
            and not node.attr.startswith("__")
        ):
            reads.append((node.attr, node.lineno))
    return reads


def _shape_findings(
    spec: ProtocolSpec,
    members: dict[str, set[str]],
    path: str,
    tree: ast.Module,
) -> list[Finding]:
    findings: list[Finding] = []
    defs = _functions_by_name(tree)
    for type_names, handler in _registrations(tree):
        known = [n for n in type_names if n in members]
        if not known:
            continue  # foreign types: another spec's (or no) wire module
        allowed: set[str] = set()
        for name in known:
            allowed |= members[name]
        for candidate in sorted(_handler_candidates(handler)):
            resolved = defs.get(candidate)
            if resolved is None or len(resolved) != 1:
                continue  # not in this module, or ambiguous — skip quietly
            if not _lambda_forwards_payload(handler, candidate):
                continue
            for attr, lineno in _payload_attr_reads(resolved[0]):
                if attr not in allowed:
                    findings.append(
                        Finding(
                            "R4",
                            path,
                            lineno,
                            0,
                            f"{spec.name} handler {candidate} reads payload."
                            f"{attr}, which is not a field of "
                            f"{'/'.join(sorted(known))} (see {spec.wire})",
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# R4 shape: every emitted ErrorResp kind has a consumer
# ---------------------------------------------------------------------------


def _error_resp_kinds(tree: ast.AST) -> tuple[list[tuple[str, int]], set[int]]:
    """``ErrorResp("<kind>", …)`` call sites: (kind, line) plus the ids of
    the kind-constant nodes (so the consumer scan can exclude them)."""
    emitted: list[tuple[str, int]] = []
    emitting_nodes: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name)
                else None
            )
            if (
                name == "ErrorResp"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                emitted.append((node.args[0].value, node.lineno))
                emitting_nodes.add(id(node.args[0]))
    return emitted, emitting_nodes


def _error_kind_findings(files: dict[str, ast.Module]) -> list[Finding]:
    emitted: list[tuple[str, str, int]] = []  # (kind, path, line)
    consumers: set[str] = set()
    for path, tree in sorted(files.items()):
        if path.startswith("analysis/"):
            continue  # the lint's own exemption table is not a consumer
        kinds, emitting_nodes = _error_resp_kinds(tree)
        emitted.extend((kind, path, line) for kind, line in kinds)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in emitting_nodes
            ):
                consumers.add(node.value)
    findings: list[Finding] = []
    for kind, path, line in emitted:
        if kind in consumers or kind in ERROR_KINDS_EXEMPT:
            continue
        findings.append(
            Finding(
                "R4",
                path,
                line,
                0,
                f"ErrorResp kind {kind!r} has no client-side consumer — no "
                "code can branch on it (add one, or exempt it in "
                "analysis.protocol.ERROR_KINDS_EXEMPT with a reason)",
            )
        )
    return findings


def rule_r4(files: dict[str, ast.Module]) -> list[Finding]:
    """*files* maps repro-relative paths to parsed modules."""
    findings: list[Finding] = []
    for spec in PROTOCOLS:
        wire_tree = files.get(spec.wire)
        if wire_tree is None:
            continue
        classes = _wire_classes(wire_tree)
        members = _class_members(wire_tree)
        handled: set[str] = set()
        constructed: set[str] = set()
        for path, tree in files.items():
            if path == spec.wire:
                continue
            if path.startswith(spec.handler_prefixes):
                handled |= _handled_types(tree)
                findings.extend(_shape_findings(spec, members, path, tree))
            constructed |= _constructed_types(tree)
        for cls, lineno in sorted(classes.items()):
            if cls in spec.exempt:
                continue
            is_response = cls.endswith("Resp")
            if not is_response and cls not in handled:
                findings.append(
                    Finding(
                        "R4",
                        spec.wire,
                        lineno,
                        0,
                        f"{spec.name} message {cls} has no handler in "
                        f"{'/'.join(spec.handler_prefixes)} — register it in a "
                        "dispatch table (or exempt it in analysis.protocol."
                        "PROTOCOLS with a reason)",
                    )
                )
            if cls not in constructed:
                findings.append(
                    Finding(
                        "R4",
                        spec.wire,
                        lineno,
                        0,
                        f"{spec.name} message {cls} is never constructed "
                        "outside its wire module — dead wire type (no "
                        "client-side encoder)",
                    )
                )
    findings.extend(_error_kind_findings(files))
    return findings


# ---------------------------------------------------------------------------
# R6 — codec coverage of the wire surface
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodecSpec:
    """One module whose exported record types cross the simulated wire."""

    wire: str  # repro-relative path
    #: class name -> why no codec registration is required (local-only).
    exempt: dict[str, str] = field(default_factory=dict)


CODEC_MODULES = (
    CodecSpec(
        "net/address.py",
        exempt={
            "Delivery": "local mailbox record handed to the receiving "
                        "endpoint; built after decode, never itself encoded",
        },
    ),
    CodecSpec("net/frames.py"),
    CodecSpec("rpc/wire.py"),
    CodecSpec(
        "gcs/messages.py",
        exempt={
            "DeliveredMessage": "local delivery record handed to services, "
                                "never on the wire",
        },
    ),
    CodecSpec("pbs/wire.py"),
    CodecSpec("pbs/job.py"),
    CodecSpec("joshua/wire.py"),
    CodecSpec("pvfs/wire.py"),
    CodecSpec("pvfs/metadata.py"),
)

_RECORD_REGISTER = "register_wire_types"
_ENUM_REGISTER = "register_wire_enum"
_SET_ANNOTATION = re.compile(r"\b(set|Set|frozenset|FrozenSet)\b")


def _registered_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names passed to ``register_wire_types`` / ``register_wire_enum``
    (or direct ``WIRE.register`` / ``WIRE.register_enum`` calls)."""
    records: set[str] = set()
    enums: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "WIRE"
        ):
            name = {"register": _RECORD_REGISTER,
                    "register_enum": _ENUM_REGISTER}.get(func.attr, "")
        else:
            continue
        target = (
            records if name == _RECORD_REGISTER
            else enums if name == _ENUM_REGISTER
            else None
        )
        if target is not None:
            for arg in node.args:
                target.update(_type_names(arg))
    return records, enums


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (
            target.attr if isinstance(target, ast.Attribute)
            else target.id if isinstance(target, ast.Name)
            else None
        )
        if name == "dataclass":
            return True
    return False


def _base_names(node: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.add(base.id)
        elif isinstance(base, ast.Attribute):
            names.add(base.attr)
    return names


def _record_kind(node: ast.ClassDef) -> str | None:
    """``"record"``/``"enum"`` for codec-relevant classes, else ``None``
    (service classes, exceptions and other plain classes are not wire
    records and need no codec entry)."""
    bases = _base_names(node)
    if bases & {"Enum", "IntEnum", "StrEnum", "Flag", "IntFlag"}:
        return "enum"
    if _is_dataclass(node) or "NamedTuple" in bases:
        return "record"
    return None


def _set_fields(node: ast.ClassDef) -> list[tuple[str, int]]:
    hits: list[tuple[str, int]] = []
    for stmt in node.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and _SET_ANNOTATION.search(ast.unparse(stmt.annotation))
        ):
            hits.append((stmt.target.id, stmt.lineno))
    return hits


def rule_r6(files: dict[str, ast.Module]) -> list[Finding]:
    """*files* maps repro-relative paths to parsed modules."""
    findings: list[Finding] = []
    seen_names: dict[str, str] = {}  # wire class name -> defining module
    for spec in CODEC_MODULES:
        tree = files.get(spec.wire)
        if tree is None:
            continue
        exported = _wire_classes(tree)
        records, enums = _registered_names(tree)
        for node in tree.body:
            if not isinstance(node, ast.ClassDef) or node.name not in exported:
                continue
            if node.name in spec.exempt:
                continue
            kind = _record_kind(node)
            if kind is None:
                continue
            first = seen_names.setdefault(node.name, spec.wire)
            if first != spec.wire:
                findings.append(
                    Finding(
                        "R6",
                        spec.wire,
                        node.lineno,
                        0,
                        f"wire type {node.name} collides with {first} — the "
                        "codec tags frames by class name, so wire names must "
                        "be unique across wire modules",
                    )
                )
            expected = enums if kind == "enum" else records
            register_fn = _ENUM_REGISTER if kind == "enum" else _RECORD_REGISTER
            if node.name not in expected:
                findings.append(
                    Finding(
                        "R6",
                        spec.wire,
                        node.lineno,
                        0,
                        f"wire type {node.name} has no codec entry — add it "
                        f"to a {register_fn}(...) call in this module (or "
                        "exempt it in analysis.protocol.CODEC_MODULES with "
                        "a reason)",
                    )
                )
            for field_name, lineno in _set_fields(node):
                findings.append(
                    Finding(
                        "R6",
                        spec.wire,
                        lineno,
                        0,
                        f"wire type {node.name} field {field_name} is "
                        "set-typed — the codec rejects unordered containers; "
                        "use a sorted tuple",
                    )
                )
    return findings
