"""Independent oracles the engine and greedy tests compare against.

* :func:`dense_trajectory` — the FJ recurrence in dense numpy, with no
  pre-scaled operator and no sparse kernel.
* :func:`full_scan_rounds` — Algorithm 1 as the paper states it: every
  remaining candidate's gain evaluated in every round, ``np.argmax`` over
  the ascending-node scan.
* :func:`celf_rounds` — CELF's ``(-gain, node, stamp)`` heap [Leskovec et
  al. 2007] over a black-box set function.
* :func:`matmul_gain_bounds` — the certified gain bound's reverse pass
  through scipy's ``operator.T @ x``, over whole-trajectory arrays.
"""

from __future__ import annotations

import heapq

import numpy as np
from scipy import sparse


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


def matmul_gain_bounds(
    problem, operator, traj, committed, candidates, user_weights=None
):
    """:func:`repro.core.engine.gain_bounds` written with ``operator.T @ x``
    and the whole ``a = max(1 - traj, 0)`` array (``operator`` is the
    engine's ``_wt_scaled``); the engine's ``csr_matvec`` pass on the
    sorted explicit transpose must give these bytes."""
    from repro.core.engine import GAIN_BOUND_SLACK

    score = problem.score
    weights = score.gain_weights(traj[-1], problem.others_by_user())
    if weights is None:
        return None
    weights = np.array(weights, dtype=np.float64)
    scale = float(problem.n)
    if user_weights is not None:
        positive = np.maximum(user_weights, 0.0)
        scale = float(positive.sum())
        with np.errstate(invalid="ignore"):
            weights = np.where(positive > 0.0, weights * positive, 0.0)
    if not np.all(weights >= 0.0):
        return None
    committed = np.asarray(committed, dtype=np.int64)
    a = np.maximum(1.0 - traj, 0.0)
    a[:, committed] = 0.0
    infinite = np.isinf(weights)
    weights[infinite] = 0.0
    weights[committed] = 0.0
    horizon = traj.shape[0] - 1
    bound = a[horizon] * weights
    for tau in range(horizon - 1, -1, -1):
        weights = operator.T @ weights
        weights[committed] = 0.0
        bound += a[tau] * weights
    bound = bound[candidates]
    bound += GAIN_BOUND_SLACK * (bound + scale)
    if score.integral_gains and user_weights is None:
        np.floor(bound, out=bound)
    infinite[committed] = False
    if infinite.any():
        pattern = sparse.csr_matrix(
            (np.ones(operator.nnz), operator.indices, operator.indptr),
            shape=operator.shape,
        ).T
        reach = infinite.astype(np.float64)
        hit = (a[horizon] > 0.0) & infinite
        for tau in range(horizon - 1, -1, -1):
            reach = np.minimum(pattern @ reach, 1.0)
            reach[committed] = 0.0
            hit |= (a[tau] > 0.0) & (reach > 0.0)
        bound[hit[candidates]] = np.inf
    return bound
