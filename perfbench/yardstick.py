"""A fixed reference task that gauges how fast this machine runs Python
right now.

On a shared machine the CPU time of one deterministic sub-run varies from
minute to minute: by up to 1.7x on the 2-core machine this benchmark was
written on, because neighbours compete for caches and cores. The
reference task below does a fixed amount of the kind of work the
simulator does: a heap of timed events resuming generators, dict updates,
deep copies of a table of small dataclass records, and byte encoding. It
uses no ``repro`` code, so a change to the program cannot change it.

A :class:`Gauge` runs one small chunk of the task between slices of
measured work. Chunks and slices alternate every few milliseconds, so
both see the same contention, and a host time scaled by
``NOMINAL_S / mean chunk time`` no longer depends on how busy the machine
was. On that machine, scaling cut the run-to-run spread of one sub-run's
CPU time from 13% to 5%.
"""

from __future__ import annotations

import copy
import heapq
import time
from dataclasses import dataclass

__all__ = ["NOMINAL_S", "Gauge", "chunk"]

#: CPU seconds one :func:`chunk` takes at the reference speed (about its
#: median on the machine this benchmark was written on).
NOMINAL_S = 0.0125
#: Event processes per chunk (sets the chunk's size).
_PROCESSES = 220


@dataclass
class _Row:
    job_id: str
    name: str
    walltime: float
    nodes: tuple


def _encode(row: _Row, out: bytearray) -> None:
    for text in (row.job_id, row.name):
        data = text.encode()
        out.append(len(data))
        out += data
    value = int(row.walltime)
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _task(processes: int) -> int:
    table = [_Row(f"{i}.ref", f"job{i:05d}", 1e4 + i, ("node0",)) for i in range(100)]
    heap: list = []
    state: dict[int, int] = {}

    def process(k: int):
        for j in range(10):
            yield ((k * 7 + j * 13) % 97) * 1e-3

    for k in range(processes):
        heapq.heappush(heap, (0.0, k, process(k)))
    sequence = processes
    encoded = 0
    while heap:
        now, _seq, gen = heapq.heappop(heap)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        state[sequence % 509] = state.get(sequence % 509, 0) + 1
        sequence += 1
        if sequence % 160 == 0:
            snapshot = copy.deepcopy(table)
            out = bytearray()
            for row in snapshot:
                _encode(row, out)
            encoded += len(out)
        heapq.heappush(heap, (now + delay, sequence, gen))
    return encoded


def chunk() -> float:
    """CPU seconds one chunk of the reference task takes now."""
    start = time.process_time()
    _task(_PROCESSES)
    return time.process_time() - start


class Gauge:
    """Call it between slices of measured work; :meth:`scale` then turns
    that work's host time into time at the reference speed."""

    def __init__(self):
        self.chunks: list[float] = []

    def __call__(self) -> None:
        self.chunks.append(chunk())

    def scale(self) -> float:
        return NOMINAL_S * len(self.chunks) / sum(self.chunks)
