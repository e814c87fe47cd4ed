"""Tests for shared utilities."""

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.timing import Timer
from repro.utils.validation import (
    check_opinions,
    check_positive,
    check_probability,
    check_seed_budget,
    check_stubbornness,
    check_time_horizon,
)


def test_ensure_rng_accepts_all_forms():
    g = np.random.default_rng(0)
    assert ensure_rng(g) is g
    assert isinstance(ensure_rng(7), np.random.Generator)
    assert isinstance(ensure_rng(None), np.random.Generator)
    with pytest.raises(TypeError):
        ensure_rng("seed")


def test_ensure_rng_reproducible():
    a = ensure_rng(5).random(3)
    b = ensure_rng(5).random(3)
    np.testing.assert_array_equal(a, b)


def test_spawn_rngs_independent_and_reproducible():
    children = spawn_rngs(3, 4)
    assert len(children) == 4
    again = spawn_rngs(3, 4)
    for c1, c2 in zip(children, again):
        np.testing.assert_array_equal(c1.random(2), c2.random(2))
    draws = [c.random() for c in children]
    assert len(set(draws)) == 4
    with pytest.raises(ValueError):
        spawn_rngs(0, -1)


def test_check_probability():
    assert check_probability(0.5, "p") == 0.5
    assert check_probability(0.0, "p") == 0.0
    with pytest.raises(ValueError):
        check_probability(-0.1, "p")
    with pytest.raises(ValueError):
        check_probability(1.1, "p")
    with pytest.raises(ValueError):
        check_probability(0.0, "p", inclusive_low=False)


def test_check_opinions_clips_float_noise():
    out = check_opinions(np.array([0.0, 1.0 + 1e-14]))
    assert out.max() <= 1.0
    with pytest.raises(ValueError):
        check_opinions(np.array([1.5]))
    with pytest.raises(ValueError):
        check_opinions(np.array([np.nan]))


def test_check_stubbornness_shape():
    with pytest.raises(ValueError):
        check_stubbornness(np.zeros(3), 4)


def test_check_seed_budget():
    assert check_seed_budget(3, 10) == 3
    with pytest.raises(ValueError):
        check_seed_budget(-1, 10)
    with pytest.raises(ValueError):
        check_seed_budget(11, 10)


def test_check_positive_scalars_and_arrays():
    assert check_positive(3, "count") == 3
    assert check_positive(None, "count") is None  # optional, left unset
    values = np.array([1, 2])
    assert check_positive(values, "count") is values
    for bad, shown in ((0, "0"), (-3, "-3"), (np.array([4, 0, -2]), "0")):
        with pytest.raises(ValueError, match=f"count must be positive, got {shown}"):
            check_positive(bad, "count")
    with pytest.raises(ValueError, match="got nan"):
        check_positive(float("nan"), "count")


def test_check_time_horizon():
    assert check_time_horizon(5) == 5
    with pytest.raises(ValueError):
        check_time_horizon(-1)


def test_timer_measures():
    with Timer() as t:
        sum(range(10_000))
    assert t.elapsed >= 0.0


# ----------------------------------------------------------------------
# Deterministic retry/backoff (repro.utils.retry)
# ----------------------------------------------------------------------
def test_backoff_schedule_exponential_and_capped():
    from repro.utils.retry import backoff_schedule

    assert backoff_schedule(4, base_delay=0.1, max_delay=0.5) == [
        0.1,
        0.2,
        0.4,
        0.5,
    ]
    assert backoff_schedule(0) == []
    assert backoff_schedule(-3) == []


def test_backoff_schedule_jitter_seeded_and_bounded():
    from repro.utils.retry import backoff_schedule

    plain = backoff_schedule(6, base_delay=0.05, max_delay=2.0)
    a = backoff_schedule(6, base_delay=0.05, max_delay=2.0, jitter_seed=7)
    b = backoff_schedule(6, base_delay=0.05, max_delay=2.0, jitter_seed=7)
    c = backoff_schedule(6, base_delay=0.05, max_delay=2.0, jitter_seed=8)
    assert a == b  # same seed, same instants
    assert a != c  # different seed, different jitter
    # Decorrelated-down: jitter never lengthens the deterministic ladder.
    assert all(0.5 * p <= d < p for d, p in zip(a, plain))


def test_with_backoff_retries_then_succeeds():
    from repro.utils.retry import with_backoff

    slept: list[float] = []
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise OSError("transient")
        return "ok"

    result = with_backoff(
        flaky,
        retries=5,
        base_delay=0.1,
        max_delay=1.0,
        sleep=slept.append,
    )
    assert result == "ok"
    assert calls["n"] == 3
    assert slept == [0.1, 0.2]  # one sleep per failed attempt


def test_with_backoff_exhausts_and_reraises():
    from repro.utils.retry import with_backoff

    slept: list[float] = []

    def always_down():
        raise ConnectionRefusedError("down")

    with pytest.raises(ConnectionRefusedError):
        with_backoff(
            always_down,
            retries=3,
            base_delay=0.05,
            sleep=slept.append,
        )
    assert slept == [0.05, 0.1, 0.2]  # ran once plus once per delay


def test_with_backoff_unlisted_exception_propagates_immediately():
    from repro.utils.retry import with_backoff

    slept: list[float] = []

    def broken():
        raise ValueError("not transient")

    with pytest.raises(ValueError):
        with_backoff(broken, retries=5, sleep=slept.append)
    assert slept == []  # no retry for exceptions outside the allow-list


def test_with_backoff_explicit_schedule():
    from repro.utils.retry import with_backoff

    slept: list[float] = []

    def always_down():
        raise OSError("down")

    with pytest.raises(OSError):
        with_backoff(
            always_down, schedule=[0.3, 0.7], sleep=slept.append
        )
    assert slept == [0.3, 0.7]


# ----------------------------------------------------------------------
# stop_worker_pool idempotency (repro.utils.workers)
# ----------------------------------------------------------------------
def test_stop_worker_pool_idempotent_after_kill_and_double_close():
    """A dead peer plus a second close must both be no-ops.

    Regression test: supervised pools can race their own loss handling
    against the engine's outer close(), so the teardown has to tolerate
    connections whose peer died, and connections that were already
    closed, without raising.
    """
    import socket

    from repro.core.engine_net import FramedSocket
    from repro.utils.workers import stop_worker_pool

    class Handle:
        def __init__(self, conn):
            self.conn = conn

    pairs = [socket.socketpair() for _ in range(2)]
    handles = [Handle(FramedSocket(ours)) for ours, _ in pairs]
    # Host 0 dies hard mid-round: its end of the connection is gone.
    pairs[0][1].close()

    def send_stop(conn):
        conn.send_bytes(b"stop")

    stop_worker_pool(handles, send_stop)
    # The live host got its stop frame, then saw the connection close.
    survivor = FramedSocket(pairs[1][1])
    assert survivor.recv_bytes() == b"stop"
    with pytest.raises(EOFError):
        survivor.recv_bytes()
    survivor.close()

    # Second close on the same, already-closed handles.
    stop_worker_pool(handles, send_stop)
