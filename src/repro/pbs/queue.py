"""The server-side job queue.

A thin, well-tested container: insertion order is submission order, FIFO
selection respects it, and all mutation goes through explicit methods so
the server can persist on every change. Holding a job removes it from FIFO
eligibility without losing its position (PBS semantics: a released job is
eligible again at its original priority/position).
"""

from __future__ import annotations

from typing import Callable, Iterator

from repro.pbs.job import Job, JobState
from repro.util.errors import UnknownJobError

__all__ = ["JobQueue"]


class JobQueue:
    """Ordered collection of jobs keyed by job id."""

    def __init__(self):
        self._jobs: dict[str, Job] = {}  # insertion-ordered

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs.values())

    def add(self, job: Job) -> None:
        if job.job_id in self._jobs:
            raise UnknownJobError(job.job_id)  # pragma: no cover - server bug guard
        self._jobs[job.job_id] = job

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id) from None

    def update(self, job: Job) -> None:
        if job.job_id not in self._jobs:
            raise UnknownJobError(job.job_id)
        self._jobs[job.job_id] = job

    def remove(self, job_id: str) -> Job:
        if job_id not in self._jobs:
            raise UnknownJobError(job_id)
        return self._jobs.pop(job_id)

    def in_state(self, *states: JobState) -> list[Job]:
        wanted = set(states)
        # repro-lint: ignore[R3] submission (insertion) order IS the FIFO queue semantics
        return [j for j in self._jobs.values() if j.state in wanted]

    def first_eligible(self, predicate: Callable[[Job], bool] | None = None) -> Job | None:
        """Oldest QUEUED job (optionally filtered) — the FIFO policy."""
        # repro-lint: ignore[R3] submission (insertion) order IS the FIFO queue semantics
        for job in self._jobs.values():
            if job.state is JobState.QUEUED and (predicate is None or predicate(job)):
                return job
        return None

    def running(self) -> list[Job]:
        return self.in_state(JobState.RUNNING, JobState.EXITING)

    def snapshot(self) -> tuple[Job, ...]:
        """All jobs in submission order, as an immutable tuple (jobs are
        frozen, so the snapshot is safe to share and to store)."""
        return tuple(self._jobs.values())

    def to_wire(self) -> list[dict]:
        # repro-lint: ignore[R3] submission (insertion) order IS the FIFO queue semantics
        return [j.stat_row() for j in self._jobs.values()]
