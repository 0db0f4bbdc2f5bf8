"""The metadata store: a deterministic in-memory filesystem tree.

Models the state a PVFS (v2) metadata server owns: the namespace
(directories and file names), per-file attributes, and the *data-file
handles* that tell clients which I/O servers hold a file's stripes. Data
movement itself never touches the MDS — exactly why the MDS is small,
deterministic, and the perfect candidate for symmetric active/active
replication (and why its failure otherwise takes out the whole filesystem).

Determinism requirements (the replication wrapper relies on them):

* handle/inode numbers come from a monotone counter,
* timestamps are supplied by the caller (the replicated layer passes the
  *delivery-ordered* logical time, not wall clock),
* directory listings are sorted.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.net.codec import register_wire_types
from repro.util.errors import ReproError

__all__ = [
    "PVFSError", "NotFound", "AlreadyExists", "NotADirectory", "IsADirectory",
    "DirectoryNotEmpty", "InvalidPath",
    "FileAttr", "MetadataStore",
]


class PVFSError(ReproError):
    """Base for metadata-operation failures (deterministic; every replica
    raises the same one for the same operation sequence)."""


class NotFound(PVFSError):
    pass


class AlreadyExists(PVFSError):
    pass


class NotADirectory(PVFSError):
    pass


class IsADirectory(PVFSError):
    pass


class DirectoryNotEmpty(PVFSError):
    pass


class InvalidPath(PVFSError):
    pass


@dataclass(frozen=True)
class FileAttr:
    """What ``getattr`` returns."""

    handle: int
    kind: str  # "file" | "dir"
    size: int
    ctime: float
    mtime: float
    #: Data-file handles (one per stripe) for files; empty for directories.
    dfiles: tuple[int, ...] = ()


@dataclass
class _Inode:
    handle: int
    kind: str
    ctime: float
    mtime: float
    size: int = 0
    dfiles: tuple[int, ...] = ()
    children: dict[str, int] = field(default_factory=dict)  # dirs only


# FileAttr answers getattr over RPC; _Inode rides inside the join-time
# state-transfer snapshot — both cross the wire and need a codec entry.
register_wire_types(FileAttr, _Inode)


def split_path(path: str) -> list[str]:
    """Normalise an absolute path into components; validates syntax."""
    if not isinstance(path, str) or not path.startswith("/"):
        raise InvalidPath(f"path must be absolute: {path!r}")
    parts = [p for p in path.split("/") if p]
    for part in parts:
        if part in (".", ".."):
            raise InvalidPath(f"'.'/'..' not supported: {path!r}")
    return parts


class MetadataStore:
    """The MDS state and its operations.

    Parameters
    ----------
    stripe_width:
        Data-file handles allocated per created file (PVFS default: one
        per I/O server).
    """

    ROOT_HANDLE = 1

    def __init__(self, *, stripe_width: int = 4):
        if stripe_width < 1:
            raise PVFSError("stripe_width must be positive")
        self.stripe_width = stripe_width
        self._next_handle = self.ROOT_HANDLE + 1
        root = _Inode(self.ROOT_HANDLE, "dir", 0.0, 0.0)
        self._inodes: dict[int, _Inode] = {self.ROOT_HANDLE: root}
        self.op_count = 0

    # -- internal helpers --------------------------------------------------

    def _alloc(self) -> int:
        handle = self._next_handle
        self._next_handle += 1
        return handle

    def _resolve(self, path: str) -> _Inode:
        node = self._inodes[self.ROOT_HANDLE]
        for part in split_path(path):
            if node.kind != "dir":
                raise NotADirectory(f"{part!r} reached through a file in {path!r}")
            if part not in node.children:
                raise NotFound(path)
            node = self._inodes[node.children[part]]
        return node

    def _resolve_parent(self, path: str) -> tuple[_Inode, str]:
        parts = split_path(path)
        if not parts:
            raise InvalidPath("operation on the root directory")
        parent = self._inodes[self.ROOT_HANDLE]
        for part in parts[:-1]:
            if parent.kind != "dir":
                raise NotADirectory(path)
            if part not in parent.children:
                raise NotFound(path)
            parent = self._inodes[parent.children[part]]
        if parent.kind != "dir":
            raise NotADirectory(path)
        return parent, parts[-1]

    def _attr(self, inode: _Inode) -> FileAttr:
        return FileAttr(
            handle=inode.handle,
            kind=inode.kind,
            size=inode.size if inode.kind == "file" else len(inode.children),
            ctime=inode.ctime,
            mtime=inode.mtime,
            dfiles=inode.dfiles,
        )

    # -- operations --------------------------------------------------------------

    def mkdir(self, path: str, *, now: float = 0.0) -> FileAttr:
        parent, name = self._resolve_parent(path)
        if name in parent.children:
            raise AlreadyExists(path)
        inode = _Inode(self._alloc(), "dir", now, now)
        self._inodes[inode.handle] = inode
        parent.children[name] = inode.handle
        parent.mtime = now
        self.op_count += 1
        return self._attr(inode)

    def create(self, path: str, *, now: float = 0.0) -> FileAttr:
        """Create a file and allocate its striped data-file handles."""
        parent, name = self._resolve_parent(path)
        if name in parent.children:
            raise AlreadyExists(path)
        inode = _Inode(
            self._alloc(), "file", now, now,
            dfiles=tuple(self._alloc() for _ in range(self.stripe_width)),
        )
        self._inodes[inode.handle] = inode
        parent.children[name] = inode.handle
        parent.mtime = now
        self.op_count += 1
        return self._attr(inode)

    def getattr(self, path: str) -> FileAttr:
        self.op_count += 1
        return self._attr(self._resolve(path))

    def setattr(self, path: str, *, size: int, now: float = 0.0) -> FileAttr:
        inode = self._resolve(path)
        if inode.kind != "file":
            raise IsADirectory(path)
        if size < 0:
            raise PVFSError("size must be non-negative")
        inode.size = size
        inode.mtime = now
        self.op_count += 1
        return self._attr(inode)

    def readdir(self, path: str) -> list[str]:
        inode = self._resolve(path)
        if inode.kind != "dir":
            raise NotADirectory(path)
        self.op_count += 1
        return sorted(inode.children)

    def unlink(self, path: str, *, now: float = 0.0) -> FileAttr:
        """Remove a file; returns its last attributes (the data-file
        handles a client then deletes on the I/O servers)."""
        parent, name = self._resolve_parent(path)
        if name not in parent.children:
            raise NotFound(path)
        inode = self._inodes[parent.children[name]]
        if inode.kind == "dir":
            raise IsADirectory(path)
        del parent.children[name]
        del self._inodes[inode.handle]
        parent.mtime = now
        self.op_count += 1
        return self._attr(inode)

    def rmdir(self, path: str, *, now: float = 0.0) -> FileAttr:
        """Remove an empty directory; returns its last attributes."""
        parent, name = self._resolve_parent(path)
        if name not in parent.children:
            raise NotFound(path)
        inode = self._inodes[parent.children[name]]
        if inode.kind != "dir":
            raise NotADirectory(path)
        if inode.children:
            raise DirectoryNotEmpty(path)
        del parent.children[name]
        del self._inodes[inode.handle]
        parent.mtime = now
        self.op_count += 1
        return self._attr(inode)

    def rename(self, src: str, dst: str, *, now: float = 0.0) -> FileAttr:
        """Move an entry; returns the moved entry's attributes."""
        src_parent, src_name = self._resolve_parent(src)
        if src_name not in src_parent.children:
            raise NotFound(src)
        dst_parent, dst_name = self._resolve_parent(dst)
        moving = self._inodes[src_parent.children[src_name]]
        if dst_parent.handle == src_parent.handle and dst_name == src_name:
            # POSIX: renaming a file onto itself succeeds and does nothing.
            self.op_count += 1
            return self._attr(moving)
        if dst_name in dst_parent.children:
            existing = self._inodes[dst_parent.children[dst_name]]
            if existing.kind == "dir":
                if existing.children:
                    raise DirectoryNotEmpty(dst)
                if moving.kind != "dir":
                    raise IsADirectory(dst)
                del self._inodes[existing.handle]
            else:
                if moving.kind == "dir":
                    raise NotADirectory(dst)
                del self._inodes[existing.handle]
        # A directory may not be moved into its own subtree.
        if moving.kind == "dir":
            probe = dst_parent
            while True:
                if probe.handle == moving.handle:
                    raise InvalidPath(f"cannot move {src!r} into itself")
                owner = self._find_parent_handle(probe.handle)
                if owner is None:
                    break
                probe = self._inodes[owner]
        del src_parent.children[src_name]
        dst_parent.children[dst_name] = moving.handle
        src_parent.mtime = now
        dst_parent.mtime = now
        self.op_count += 1
        return self._attr(moving)

    def _find_parent_handle(self, handle: int) -> int | None:
        if handle == self.ROOT_HANDLE:
            return None
        for inode in self._inodes.values():
            if inode.kind == "dir" and handle in inode.children.values():
                return inode.handle
        return None  # pragma: no cover - orphan guard

    def statfs(self) -> dict:
        files = sum(1 for i in self._inodes.values() if i.kind == "file")
        dirs = sum(1 for i in self._inodes.values() if i.kind == "dir")
        return {
            "files": files,
            "directories": dirs,
            "handles_allocated": self._next_handle - 1,
            "operations": self.op_count,
        }

    # -- replication hooks -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deep-copyable full state (for join-time transfer)."""
        return {
            "next_handle": self._next_handle,
            "stripe_width": self.stripe_width,
            "op_count": self.op_count,
            "inodes": copy.deepcopy(self._inodes),
        }

    def restore(self, state: dict) -> None:
        self._next_handle = state["next_handle"]
        self.stripe_width = state["stripe_width"]
        self.op_count = state["op_count"]
        self._inodes = copy.deepcopy(state["inodes"])
