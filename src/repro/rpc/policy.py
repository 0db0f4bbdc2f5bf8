"""Timeout/retry/backoff policy for RPC clients.

One :class:`RetryPolicy` value describes the full client-side persistence
behaviour of a call: per-attempt deadline, how many retries follow the
first attempt, and an optional exponential backoff between attempts.
The default is a 2 s deadline, no retries and no backoff.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "DEFAULT_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """How persistent one logical RPC is."""

    #: Per-attempt response deadline (seconds).
    timeout: float = 2.0
    #: Extra attempts after the first (total attempts = 1 + retries).
    retries: int = 0
    #: Delay before the first retry; 0 keeps the historical immediate-retry
    #: behaviour (and schedules no extra simulation events).
    backoff: float = 0.0
    #: Multiplier applied to the delay after each retry.
    backoff_factor: float = 2.0
    #: Upper bound on the backoff delay.
    backoff_cap: float = 2.0

    @property
    def attempts(self) -> int:
        return 1 + self.retries

    def delay_before(self, attempt: int) -> float:
        """Backoff before *attempt* (attempts are numbered from 1)."""
        if attempt <= 1 or self.backoff <= 0:
            return 0.0
        return min(self.backoff * (self.backoff_factor ** (attempt - 2)),
                   self.backoff_cap)


DEFAULT_POLICY = RetryPolicy()
