"""Deterministic retry/backoff shared by reconnect and respawn paths.

The TCP :class:`~repro.core.engine_mp.HostPool` retries transient
failures when it connects and when it re-dials lost hosts.  The
schedule lives here so it is computed once, tested once, and — like
every other source of nondeterminism in this repo — *seeded*: jitter
comes from an explicit seed, never from global RNG state, so two runs
with the same seed retry at the same instants.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence, TypeVar

import numpy as np

__all__ = ["backoff_schedule", "with_backoff"]

T = TypeVar("T")


def backoff_schedule(
    retries: int,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    jitter_seed: int | None = None,
) -> list[float]:
    """Exponential delays ``base_delay * 2**i`` capped at ``max_delay``.

    With ``jitter_seed`` each delay is scaled by a factor drawn uniformly
    from [0.5, 1.0) ("decorrelated-down" jitter: never longer than the
    deterministic ladder, so timeouts stay bounded).  The same seed
    always yields the same schedule.
    """
    delays = [min(base_delay * (2.0**i), max_delay) for i in range(max(retries, 0))]
    if jitter_seed is not None and delays:
        rng = np.random.default_rng(np.random.SeedSequence([int(jitter_seed)]))
        factors = rng.uniform(0.5, 1.0, size=len(delays))
        delays = [d * float(f) for d, f in zip(delays, factors)]
    return delays


def with_backoff(
    fn: Callable[[], T],
    retries: int = 5,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    jitter_seed: int | None = None,
    exceptions: tuple[type[BaseException], ...] = (OSError,),
    sleep: Callable[[float], None] = time.sleep,
    schedule: Sequence[float] | None = None,
) -> T:
    """Call ``fn`` until it succeeds or the schedule is exhausted.

    ``fn`` runs once plus once per delay in the schedule (``retries``
    delays unless an explicit ``schedule`` is given); only ``exceptions``
    are retried, anything else propagates immediately, and the final
    failure re-raises the last exception.  ``sleep`` is injectable so
    unit tests can capture the schedule without waiting.
    """
    delays = (
        list(schedule)
        if schedule is not None
        else backoff_schedule(retries, base_delay, max_delay, jitter_seed)
    )
    last: BaseException | None = None
    for attempt in range(len(delays) + 1):
        try:
            return fn()
        except exceptions as exc:
            last = exc
            if attempt == len(delays):
                raise
            sleep(delays[attempt])
    raise last if last is not None else RuntimeError("unreachable")  # pragma: no cover
