"""Open-loop load generator for the serving workloads.

Requests arrive on a seeded Poisson schedule regardless of how fast the
server answers (independent users make an open loop), so a stall shows
up as queueing for every request behind it.  Each request is timed from
its *due* time, not from when it was sent, and the generator reports its
own lateness (send time minus due time) so a run whose generator fell
behind can be recognised and discarded.

:meth:`LoadGenerator.serial` is the other mode: one request in flight
at a time, as a single user issues them, with the host-speed probe run
between requests while nothing is outstanding.

One asyncio process drives at most ``nproc`` pipelined connections.
``repro.serve.client.run_load`` is deliberately not used: it fires one
burst and times each request from its send, which hides queueing.

The mix (:class:`RequestStream`) is synthetic and assumed, not taken
from recorded traffic; it follows ``benchmarks/bench_serving.py``'s
pattern of marginal-gain queries beside win probes.  Three in four
requests are ``marginal_gain`` of one random candidate on one shared
2-seed prefix (so the server's coalescer merges concurrent ones into
shared engine rounds), one in four is ``prefix_win_probability`` on a
random 2-seed set, and every 64th request is an ``apply_delta``
rewriting one target opinion.  Deltas always go out on connection 0,
which the server reads in order, so the sequence of writes — and the
final problem state the correctness check reads — is fixed by the seed.
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .stats import percentile

#: Every DELTA_EVERY-th request is a write.
DELTA_EVERY = 64

#: The latency limit a ladder rung must meet, and the percentile it is
#: on: every rung holds at least RUNG_MIN_REQUESTS, so twenty or more
#: samples lie beyond it.
LIMIT_MS = 100.0
LIMIT_Q = 95.0

#: A rung lasts RUNG_SECONDS of arrivals, and at least RUNG_MIN_REQUESTS.
RUNG_SECONDS = 2.0
RUNG_MIN_REQUESTS = 400

#: A rung's backlog grows when its last quarter's median latency exceeds
#: its first quarter's by more than this.
BACKLOG_GROWTH_MS = LIMIT_MS / 2

#: A run whose generator sent its median request later than this after
#: its due time measured the generator, not the server.  The median, not
#: a tail: a generator that cannot keep up is late on most requests,
#: while one host stall of a few tens of milliseconds delays a handful of
#: sends in a row and alone lifts the p99 of a few hundred past 10 ms.
MAX_LAG_MS = 10.0


@dataclass
class Sample:
    """One request: its op, phase, and monotonic due/sent/done times."""

    op: str
    phase: str
    due: float
    sent: float
    done: float = 0.0
    ok: bool = False

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def lag_ms(self) -> float:
        return (self.sent - self.due) * 1e3


class RequestStream:
    """The deterministic request mix for one seed (see the module docstring)."""

    def __init__(self, seed: int, n: int, target: int) -> None:
        self._rng = random.Random(seed)
        self.n = int(n)
        self.target = int(target)
        self.prefix = self._rng.sample(range(self.n), 2)
        self.index = 0
        #: Delta payloads in the order they were drawn (= sent on conn 0).
        self.deltas: list[dict] = []

    def next(self) -> dict:
        i = self.index
        self.index += 1
        rng = self._rng
        if i % DELTA_EVERY == DELTA_EVERY - 1:
            node = rng.randrange(self.n)
            payload = {
                "op": "apply_delta",
                "opinions_changed": [[self.target, node, rng.random()]],
            }
            self.deltas.append(payload)
            return payload
        if i % 4 == 3:
            seeds = rng.sample(range(self.n), 2)
            return {"op": "prefix_win_probability", "seeds": seeds}
        return {
            "op": "marginal_gain",
            "seeds": list(self.prefix),
            "candidates": [rng.randrange(self.n)],
        }


def poisson_offsets(rate: float, count: int, seed: int) -> list[float]:
    """The first ``count`` arrival offsets of a rate-``rate`` Poisson process."""
    rng = random.Random(seed)
    out: list[float] = []
    t = 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


class LoadGenerator:
    """Pipelined connections to one server plus the shared request stream."""

    def __init__(
        self, stream: RequestStream, clients: Sequence[Any], address: tuple[str, int]
    ) -> None:
        self.stream = stream
        self.clients = list(clients)
        self.address = address

    @classmethod
    async def connect(
        cls, host: str, port: int, stream: RequestStream, connections: int
    ) -> "LoadGenerator":
        from repro.serve.client import ServeClient

        clients = [await ServeClient.connect(host, port) for _ in range(connections)]
        return cls(stream, clients, (host, port))

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    async def _fire(self, slot: int, payload: dict, sample: Sample) -> None:
        params = {k: v for k, v in payload.items() if k != "op"}
        conn = 0 if payload["op"] == "apply_delta" else slot % len(self.clients)
        try:
            response, _ = await self.clients[conn].request_raw(payload["op"], **params)
            sample.ok = response.get("ok") is True
        except (ConnectionError, OSError):
            sample.ok = False
        sample.done = asyncio.get_running_loop().time()

    async def open_loop(
        self, phase: str, rate: float, count: int, seed: int
    ) -> list[Sample]:
        """Send ``count`` requests on the Poisson schedule; returns once
        every reply is in."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        samples: list[Sample] = []
        tasks = []
        for slot, offset in enumerate(poisson_offsets(rate, count, seed)):
            due = start + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            payload = self.stream.next()
            sample = Sample(payload["op"], phase, due, loop.time())
            samples.append(sample)
            tasks.append(asyncio.create_task(self._fire(slot, payload, sample)))
        await asyncio.gather(*tasks)
        return samples

    async def serial(
        self, phase: str, until: float, between: Callable[[], float]
    ) -> list[tuple[Sample, float]]:
        """One request in flight at a time, on connection 0, until the loop
        clock passes ``until`` (at least one): a single user's requests,
        each timed from its send.  ``between()`` runs before each request,
        while none is outstanding; its value is paired with the request."""
        loop = asyncio.get_running_loop()
        pairs: list[tuple[Sample, float]] = []
        while not pairs or loop.time() < until:
            value = between()
            payload = self.stream.next()
            now = loop.time()
            sample = Sample(payload["op"], phase, now, now)
            await self._fire(0, payload, sample)
            pairs.append((sample, value))
        return pairs

    async def ladder(
        self, base: float, doublings: int, seed: int
    ) -> list[tuple[float, list[Sample]]]:
        """Rungs at ``base`` times 2, 4, ... up to ``2**doublings``,
        stopping after the first that fails (higher rungs would only
        queue)."""
        steps = []
        for i in range(1, doublings + 1):
            rate = base * 2**i
            count = max(RUNG_MIN_REQUESTS, round(RUNG_SECONDS * rate))
            step = await self.open_loop(f"r{rate:g}", rate, count, seed + i)
            steps.append((rate, step))
            if not rate_passes(step):
                break
        return steps

    async def sequential(self, payloads: Sequence[dict]) -> list[bytes]:
        """Send ``payloads`` on a fresh connection; raw reply lines in order."""
        from repro.serve.client import ServeClient

        client = await ServeClient.connect(*self.address)
        try:
            lines = []
            for payload in payloads:
                params = {k: v for k, v in payload.items() if k != "op"}
                _, raw = await client.request_raw(payload["op"], **params)
                lines.append(raw)
            return lines
        finally:
            await client.close()


# ----------------------------------------------------------------------
# Decisions over samples
# ----------------------------------------------------------------------
def tail_ms(samples: Sequence[Sample]) -> float:
    """Latency at the limit's percentile."""
    return percentile([s.latency_ms for s in samples], LIMIT_Q)


def backlog_grows(samples: Sequence[Sample]) -> bool:
    """True when the rung's last quarter (by due time) has a median
    latency more than :data:`BACKLOG_GROWTH_MS` above its first quarter's.

    An open loop above capacity queues without bound, so latency climbs
    through the rung; below capacity the last quarter looks like the
    first.  The growth is absolute, not a ratio: just below capacity a
    stable queue's median wanders between 10 and 30 ms, which a ratio
    would call a backlog.
    """
    ordered = sorted(samples, key=lambda s: s.due)
    quarter = len(ordered) // 4
    if quarter == 0:
        return False
    first = percentile([s.latency_ms for s in ordered[:quarter]], 50)
    last = percentile([s.latency_ms for s in ordered[-quarter:]], 50)
    return last - first > BACKLOG_GROWTH_MS


def rate_passes(samples: Sequence[Sample]) -> bool:
    """A rung passes with no failures, its tail within the limit and no
    growing backlog."""
    return (
        bool(samples)
        and all(s.ok for s in samples)
        and tail_ms(samples) <= LIMIT_MS
        and not backlog_grows(samples)
    )


def capacity(steps: Sequence[tuple[float, Sequence[Sample]]]) -> float:
    """Highest arrival rate that meets the latency limit, between rungs.

    Walks the ascending ladder to the first rung that fails.  If its
    tail is over the limit and it had no errors, the limit is crossed
    between that rung and the one below, and the crossing is
    interpolated on log tail latency against log rate: the tail climbs
    steeply there, so noise in it moves the estimate little, and the
    result does not snap to a rung.  A rung that fails otherwise
    (errors, a growing backlog under the limit) caps capacity at the
    rung below; a ladder that never fails returns its top rate.  0 when
    the lowest rung already fails.
    """
    best = below = 0.0
    for rate, samples in sorted(steps, key=lambda step: step[0]):
        if rate_passes(samples):
            best, below = rate, tail_ms(samples)
            continue
        tail = tail_ms(samples) if samples else 0.0
        if best and all(s.ok for s in samples) and tail > LIMIT_MS:
            share = math.log(LIMIT_MS / below) / math.log(tail / below)
            return best * (rate / best) ** share
        break
    return best
