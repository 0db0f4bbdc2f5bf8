"""Persistent storage that survives node crashes.

Two flavours, both plain key/value namespaces that store and return exactly
the value they are given:

* :class:`Disk` — a node's local disk. Survives the node's crash/restart
  cycle (TORQUE persists its job queue this way).
* :class:`SharedStorage` — cluster-shared stable storage, the substrate of
  the active/standby baseline ("service state is saved regularly to some
  shared stable storage", §2 of the paper).

Values must be immutable (tuples of frozen records, numbers, strings): the
store keeps a reference, not a copy, so a value a daemon mutated after
writing would change "on disk" too. Writes take effect immediately (the
simulated fsync cost is folded into the service-time constants of the
daemons that use them).
"""

from __future__ import annotations

from typing import Any

__all__ = ["Disk", "SharedStorage"]


class Disk:
    """A node-local persistent key/value store of immutable values."""

    def __init__(self, node_name: str):
        self.node_name = node_name
        self._data: dict[str, Any] = {}

    def write(self, key: str, value: Any) -> None:
        """Persist *value* (immutable; stored by reference) under *key*."""
        self._data[key] = value

    def read(self, key: str, default: Any = None) -> Any:
        """Return the value last written under *key* (or *default*)."""
        return self._data.get(key, default)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Disk {self.node_name} keys={len(self._data)}>"


class SharedStorage(Disk):
    """Cluster-wide stable storage (e.g. an NFS filer or SAN).

    Identical semantics to :class:`Disk`; kept as its own type so call sites
    document whether state survives only a node or the whole cluster. The
    active/standby baseline checkpoints here; note the paper's observation
    that such a filer is itself a single point of failure unless replicated —
    we model it as never failing, which *favours* the baseline and makes the
    symmetric active/active comparison conservative.
    """

    def __init__(self, name: str = "shared"):
        super().__init__(name)
