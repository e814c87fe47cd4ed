"""Preference ranks β (paper Eq. 4).

``β(b_qv) = Σ_{cx∈C} 1[b_xv ≥ b_qv]`` is the rank of candidate ``q`` in
user ``v``'s preference order at the time horizon.  The sum includes ``q``
itself, so ranks start at 1 and ties count *against* the target (a tie with
one other candidate gives rank 2).
"""

from __future__ import annotations

import numpy as np


def ranks(opinions: np.ndarray, q: int) -> np.ndarray:
    """Rank of candidate ``q`` for every user given opinion matrix ``(r, n)``."""
    opinions = np.asarray(opinions, dtype=np.float64)
    if opinions.ndim != 2:
        raise ValueError(f"opinions must be 2-D (r, n), got shape {opinions.shape}")
    r = opinions.shape[0]
    if not 0 <= q < r:
        raise ValueError(f"candidate index {q} out of range for r={r}")
    return 1 + np.sum(
        np.delete(opinions, q, axis=0) >= opinions[q][None, :], axis=0
    ).astype(np.int64)


def rank_against(values: np.ndarray, others_by_user: np.ndarray) -> np.ndarray:
    """Rank of hypothetical target values against fixed competitor opinions.

    Parameters
    ----------
    values:
        ``(m,)`` candidate-``q`` opinion values for ``m`` users.
    others_by_user:
        ``(m, r-1)`` competitor opinions for the same ``m`` users.

    Used by the greedy optimizers, which repeatedly re-rank only the users
    whose estimated target opinion changed.
    """
    values = np.asarray(values, dtype=np.float64)
    others_by_user = np.asarray(others_by_user, dtype=np.float64)
    if others_by_user.ndim != 2 or others_by_user.shape[0] != values.shape[0]:
        raise ValueError(
            f"others_by_user must be (m, r-1) with m={values.shape[0]}, "
            f"got {others_by_user.shape}"
        )
    return 1 + np.sum(others_by_user >= values[:, None], axis=1).astype(np.int64)

