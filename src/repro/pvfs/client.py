"""Typed PVFS metadata client: UUID-tagged requests with replica failover."""

from __future__ import annotations

from typing import Generator

from repro.joshua.wire import Command, is_joining
from repro.net.address import Address
from repro.net.network import Network
from repro.pvfs.metadata import FileAttr
from repro.pvfs.wire import (
    Create,
    GetAttr,
    Mkdir,
    ReadDir,
    Rename,
    Rmdir,
    SetAttr,
    StatFs,
    Unlink,
)
from repro.rpc import failover_call, rpc_state
from repro.util.errors import NoActiveHeadError, PBSError, ReproError

__all__ = ["PVFSClient", "ServiceError"]


class ServiceError(ReproError):
    """The metadata service rejected the request (deterministically —
    every replica produced the same error)."""


class PVFSClient:
    """Metadata operations against any replica of the MDS group.

    Each operation is one exactly-once :class:`~repro.joshua.wire.Command`
    (its UUID survives retries and failovers) sent through
    :func:`~repro.rpc.failover_call`.
    """

    def __init__(
        self,
        network: Network,
        node: str,
        replicas: list[Address],
        *,
        timeout: float = 3.0,
        prefer: Address | None = None,
    ):
        if not replicas:
            raise NoActiveHeadError("no replicas configured")
        self.network = network
        self.node = node
        self.replicas = list(replicas)
        self.timeout = timeout
        self.prefer = prefer
        self.stats = {"failovers": 0}

    def _ordered(self) -> list[Address]:
        replicas = list(self.replicas)
        if self.prefer in replicas:
            replicas.remove(self.prefer)
            replicas.insert(0, self.prefer)
        return replicas

    def _call(self, op) -> Generator:
        """One metadata operation; returns the replicated result."""
        uuid = f"req-{self.node}-{rpc_state(self.network).next_id('pvfs-uuid')}"
        try:
            result = yield from failover_call(
                self.network, self.node, self._ordered(),
                Command(uuid, type(op).__name__.lower(), op),
                timeout=self.timeout,
                retry_error=is_joining,
                stats=self.stats,
                what="no replica answered",
            )
        except PBSError as exc:  # the relayed ErrorResp("service-error", ...)
            raise ServiceError(str(exc)) from None
        return result

    def mkdir(self, path: str) -> Generator:
        attr: FileAttr = yield from self._call(Mkdir(path))
        return attr

    def create(self, path: str) -> Generator:
        attr: FileAttr = yield from self._call(Create(path))
        return attr

    def getattr(self, path: str) -> Generator:
        attr: FileAttr = yield from self._call(GetAttr(path))
        return attr

    def setattr(self, path: str, *, size: int) -> Generator:
        attr: FileAttr = yield from self._call(SetAttr(path, size))
        return attr

    def readdir(self, path: str) -> Generator:
        names: list[str] = yield from self._call(ReadDir(path))
        return names

    def unlink(self, path: str) -> Generator:
        attr: FileAttr = yield from self._call(Unlink(path))
        return attr

    def rmdir(self, path: str) -> Generator:
        attr: FileAttr = yield from self._call(Rmdir(path))
        return attr

    def rename(self, src: str, dst: str) -> Generator:
        attr: FileAttr = yield from self._call(Rename(src, dst))
        return attr

    def statfs(self) -> Generator:
        stats: dict = yield from self._call(StatFs())
        return stats
