"""Independent oracles the engine and greedy tests compare against.

* :func:`dense_trajectory` — the FJ recurrence in dense numpy, with no
  pre-scaled operator and no sparse kernel.
* :func:`full_scan_rounds` — Algorithm 1 as the paper states it: every
  remaining candidate's gain evaluated in every round, ``np.argmax`` over
  the ascending-node scan.
* :func:`celf_rounds` — CELF's ``(-gain, node, stamp)`` heap [Leskovec et
  al. 2007] over a black-box set function.
"""

from __future__ import annotations

import heapq

import numpy as np


def dense_trajectory(state, q, seeds, horizon):
    """``(horizon+1, n)`` opinions about ``q`` with ``seeds`` pinned, from a
    dense numpy form of the FJ recurrence ``b(s+1) = (b(s) W)(1-d) + b⁰d``
    (seeded rows have ``d = 1`` and ``b⁰ = 1``): no pre-scaled operator,
    no sparse kernel."""
    src, dst, weight = state.graph(q).edges()
    w = np.zeros((state.n, state.n))
    w[src, dst] = weight
    b0 = np.array(state.initial_opinions[q], dtype=np.float64)
    d = np.array(state.stubbornness[q], dtype=np.float64)
    b0[list(seeds)] = 1.0
    d[list(seeds)] = 1.0
    rows = [b0]
    for _ in range(horizon):
        rows.append((rows[-1] @ w) * (1.0 - d) + b0 * d)
    return np.stack(rows)


def full_scan_rounds(session, k, pool):
    """``k`` exhaustive greedy rounds on ``session``: one
    ``marginal_gains`` call over every remaining candidate (ascending
    nodes) per round, the first maximum committed.  Returns ``(seeds,
    gains, objective)``."""
    remaining = np.asarray(pool, dtype=np.int64).copy()
    seeds, gains = [], []
    for _ in range(k):
        round_gains = session.marginal_gains(remaining)
        idx = int(np.argmax(round_gains))
        seeds.append(int(remaining[idx]))
        gains.append(float(round_gains[idx]))
        session.commit(seeds[-1], gain=gains[-1])
        remaining = np.delete(remaining, idx)
    return (
        np.array(seeds, dtype=np.int64),
        np.array(gains, dtype=np.float64),
        session.value,
    )


def celf_rounds(value_fn, k, n):
    """CELF over ``value_fn`` on nodes ``0..n-1``: one evaluation of every
    node, then stale heap tops re-evaluated one at a time until a fresh
    one pops.  Equal gains pop the smallest node first.  Returns
    ``(seeds, gains, evaluations)``."""
    seeds: tuple[int, ...] = ()
    value = float(value_fn(()))
    initial = np.array([value_fn((v,)) for v in range(n)], dtype=np.float64) - value
    heap = [(-float(g), v, 0) for v, g in enumerate(initial)]
    heapq.heapify(heap)
    evaluations = n
    gains = []
    for _ in range(k):
        while True:
            neg_gain, v, stamp = heapq.heappop(heap)
            if stamp == len(seeds):
                break
            gain = float(
                np.array([value_fn(seeds + (v,))], dtype=np.float64)[0] - value
            )
            evaluations += 1
            heapq.heappush(heap, (-gain, v, len(seeds)))
        seeds += (v,)
        gains.append(-neg_gain)
        value += -neg_gain
    return np.array(seeds, dtype=np.int64), np.array(gains), evaluations
