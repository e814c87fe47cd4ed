"""Fast checks of the benchmark's own arithmetic and decisions.

Covers the percentile and sample-count rule, the ladder and backlog
decisions, span self-time arithmetic, the tracer's patching, the
determinism of the load schedule and request mix for a seed, the serial
request mode and the host-speed scaling rule.  Runs in about a second;
nothing here starts a server or an engine.
"""

from __future__ import annotations

import asyncio
import statistics
import threading

import pytest

from . import hostspeed
from .loadgen import (
    DELTA_EVERY,
    LIMIT_MS,
    LoadGenerator,
    RequestStream,
    Sample,
    backlog_grows,
    capacity,
    poisson_offsets,
    rate_passes,
    tail_ms,
)
from .stats import percentile, quartiles, regression, spread, summarize, tail_percentile
from .trace import Tracer, count, outermost, self_times, size_sum, total_s, within
from .workloads import round_durations


# ----------------------------------------------------------------------
# Percentiles and the sample-count rule
# ----------------------------------------------------------------------
def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 25) == pytest.approx(1.75)
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize(
    "count_, expected",
    [(10_000, 99.9), (2000, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0),
     (100, 90.0), (40, 75.0), (39, None), (6, None)],
)  # fmt: skip
def test_tail_needs_ten_samples_beyond(count_, expected):
    assert tail_percentile(count_) == expected


def test_summary_reports_median_quartiles_count_and_tail():
    values = list(range(1, 2001))
    s = summarize(values)
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert (s["q1"], s["median"], s["q3"]) == (q1, med, q3)
    assert s["count"] == 2000
    assert s["tail_q"] == 99.0
    assert s["tail"] == pytest.approx(percentile(values, 99))
    assert summarize([5.0])["tail_q"] is None


def test_spread_and_regression():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert spread([10.0] * 5) == 0.0
    q1, med, q3 = statistics.quantiles([8.0, 9.0, 10.0, 11.0, 12.0], n=4)
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx((q3 - q1) / med)
    assert regression(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert regression(100.0, 110.0, "higher") == pytest.approx(-0.10)
    assert regression(100.0, 90.0, "higher") == pytest.approx(0.10)


# ----------------------------------------------------------------------
# Ladder and backlog decisions
# ----------------------------------------------------------------------
def _step(latencies_ms: list[float], ok: bool = True) -> list[Sample]:
    """One request every 10 ms with the given latencies."""
    samples = []
    for i, latency in enumerate(latencies_ms):
        due = i / 100.0
        done = due + latency / 1e3
        samples.append(Sample("marginal_gain", "step", due, due, done, ok))
    return samples


def test_steady_step_passes_and_growing_backlog_fails():
    steady = _step([5.0] * 300)
    assert not backlog_grows(steady)
    assert rate_passes(steady)
    # A stable queue near capacity: the median wanders from 10 to 30 ms.
    wandering = _step([10.0] * 150 + [30.0] * 150)
    assert not backlog_grows(wandering)
    # Latency climbing through the step: the last quarter is far above the
    # first although every request stays under the limit.
    growing = _step([1.0 + 0.3 * i for i in range(300)])
    assert tail_ms(growing) <= LIMIT_MS
    assert backlog_grows(growing)
    assert not rate_passes(growing)


def test_failures_or_slow_tail_fail_the_step():
    assert not rate_passes(_step([5.0] * 300, ok=False))
    assert not rate_passes(_step([5.0] * 280 + [500.0] * 20))
    assert rate_passes(_step([5.0] * 290 + [500.0] * 10))  # beyond the p95
    assert not rate_passes([])


def test_capacity_interpolates_between_passing_and_slow_rung():
    good, slow = _step([25.0] * 300), _step([400.0] * 300)
    # log(100/25) / log(400/25) = 1/2 of the way from 200 to 400, in log rate.
    assert capacity([(400.0, slow), (200.0, good)]) == pytest.approx(200 * 2**0.5)
    assert capacity([(200.0, good), (400.0, slow), (800.0, good)]) == pytest.approx(
        200 * 2**0.5
    )


def test_capacity_without_interpolation():
    good, errors = _step([5.0] * 300), _step([500.0] * 300, ok=False)
    assert capacity([(200.0, good), (400.0, errors)]) == 200.0
    assert capacity([(200.0, good), (400.0, good)]) == 400.0
    assert capacity([(200.0, errors), (400.0, good)]) == 0.0


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _spans() -> list[list]:
    # name, start, end, parent, trace, size
    return [
        ["root", 0.0, 10.0, -1, 0, 0],
        ["a", 1.0, 4.0, 0, 0, 3],
        ["a", 2.0, 3.0, 1, 0, 5],  # a wrapped override calling its wrapped base
        ["b", 5.0, 6.0, 0, 0, 2],
        ["a", 11.0, 12.0, -1, 4, 7],
    ]


def test_self_time_subtracts_direct_children():
    assert self_times(_spans()) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.0])


def test_nested_same_name_spans_count_once():
    spans = _spans()
    assert outermost(spans, ["a"]) == [1, 4]
    assert total_s(spans, ["a"]) == pytest.approx(4.0)
    assert count(spans, ["a", "b"]) == 3
    assert size_sum(spans, ["a"]) == 10


def test_window_reparents_spans_outside_it():
    window = within(_spans(), 1.5, 11.5)
    assert [s[0] for s in window] == ["a", "b", "a"]
    assert [s[3] for s in window] == [-1, -1, -1]


def test_round_durations_run_commit_to_commit():
    spans = [
        ["greedy.rounds", 0.0, 10.0, -1, 0, 0],
        ["engine.gains", 0.0, 3.0, 0, 0, 9],
        ["engine.commit", 3.0, 4.0, 0, 0, 0],
        ["engine.gains", 4.0, 8.0, 0, 0, 8],
        ["engine.commit", 8.0, 9.0, 0, 0, 0],
    ]
    assert round_durations(spans) == pytest.approx([4.0, 5.0])


class _Target:
    def work(self, items):
        return self.inner(len(items))

    def inner(self, n):
        return n * 2


def test_tracer_wraps_restores_and_parents_per_thread():
    tracer = Tracer()
    original = _Target.__dict__["work"]
    tracer.wrap(_Target, "work", "outer", lambda _self, items: len(items))
    tracer.wrap(_Target, "inner", "inner")
    assert _Target().work([1, 2, 3]) == 6
    worker = threading.Thread(target=lambda: _Target().inner(1))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    tracer.uninstall()
    assert _Target.__dict__["work"] is original
    names = [(s[0], s[3], s[5]) for s in tracer.spans]
    assert names == [("outer", -1, 3), ("inner", 0, 0), ("inner", -1, 0)]
    assert tracer.spans[1][4] == 0  # shares the root's trace id
    _Target().work([1])
    assert len(tracer.spans) == 3  # unwrapped again


# ----------------------------------------------------------------------
# Schedule and request-mix determinism
# ----------------------------------------------------------------------
def test_poisson_schedule_is_deterministic_per_seed():
    first = poisson_offsets(200.0, 1000, 2023)
    assert first == poisson_offsets(200.0, 1000, 2023)
    assert first != poisson_offsets(200.0, 1000, 2024)
    assert len(first) == 1000
    assert first == sorted(first) and first[0] > 0.0
    # 1000 arrivals at 200/s span about 5 s; five standard deviations.
    assert abs(first[-1] - 5.0) < 5 * 1000**0.5 / 200.0


def test_request_stream_mix_and_delta_order():
    streams = [RequestStream(7, 2000, 1) for _ in range(2)]
    drawn = [[s.next() for _ in range(256)] for s in streams]
    assert drawn[0] == drawn[1]
    ops = [p["op"] for p in drawn[0]]
    assert [i for i, op in enumerate(ops) if op == "apply_delta"] == [
        i for i in range(256) if i % DELTA_EVERY == DELTA_EVERY - 1
    ]
    assert ops.count("marginal_gain") == 192
    assert streams[0].deltas == [p for p in drawn[0] if p["op"] == "apply_delta"]
    gains = [p for p in drawn[0] if p["op"] == "marginal_gain"]
    assert all(p["seeds"] == streams[0].prefix for p in gains)
    other = RequestStream(8, 2000, 1)
    assert [other.next() for _ in range(256)] != drawn[0]


class _Client:
    """A server stand-in that records how many requests overlap."""

    def __init__(self) -> None:
        self.inflight = self.peak = 0
        self.ops: list[str] = []

    async def request_raw(self, op: str, **_params):
        self.inflight += 1
        self.peak = max(self.peak, self.inflight)
        await asyncio.sleep(0)
        self.inflight -= 1
        self.ops.append(op)
        return {"ok": True}, b""


def test_serial_sends_one_request_at_a_time_with_its_probe():
    first, second = _Client(), _Client()
    gen = LoadGenerator(RequestStream(7, 2000, 1), [first, second], ("", 0))
    probes = iter(range(10**6))

    async def drive():
        until = asyncio.get_running_loop().time() + 0.05
        return await gen.serial("serial", until, lambda: float(next(probes)))

    pairs = asyncio.run(drive())
    assert pairs and all(sample.ok for sample, _ in pairs)
    assert [value for _, value in pairs] == [float(i) for i in range(len(pairs))]
    assert first.peak == 1 and not second.ops  # one in flight, on connection 0
    assert first.ops == [sample.op for sample, _ in pairs]


def test_times_scale_to_the_reference_probe():
    assert hostspeed.at_reference(10.0, hostspeed.REFERENCE_MS) == 10.0
    assert hostspeed.at_reference(10.0, 2 * hostspeed.REFERENCE_MS) == 5.0
