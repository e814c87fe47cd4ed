"""Input validation helpers shared across the library.

All public entry points validate their numeric inputs eagerly, raising
``ValueError`` with a descriptive message, so failures surface at the API
boundary instead of deep inside a diffusion loop.
"""

from __future__ import annotations

import operator

import numpy as np


def check_probability(value: float, name: str, *, inclusive_low: bool = True) -> float:
    """Validate that ``value`` is a probability in [0, 1] (or (0, 1])."""
    value = float(value)
    low_ok = value >= 0.0 if inclusive_low else value > 0.0
    if not (low_ok and value <= 1.0):
        bracket = "[0, 1]" if inclusive_low else "(0, 1]"
        raise ValueError(f"{name} must be in {bracket}, got {value}")
    return value


def check_opinions(opinions: np.ndarray, name: str = "opinions") -> np.ndarray:
    """Validate an opinion array: finite values in [0, 1]."""
    arr = np.asarray(opinions, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    if arr.size and (arr.min() < -1e-12 or arr.max() > 1 + 1e-12):
        raise ValueError(
            f"{name} must lie in [0, 1]; observed range "
            f"[{arr.min():.6g}, {arr.max():.6g}]"
        )
    return np.clip(arr, 0.0, 1.0)


def check_stubbornness(stubbornness: np.ndarray, n: int) -> np.ndarray:
    """Validate a stubbornness vector: length ``n``, values in [0, 1]."""
    arr = np.asarray(stubbornness, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"stubbornness must have shape ({n},), got {arr.shape}")
    return check_opinions(arr, "stubbornness")


def check_seed_budget(k: int, n: int) -> int:
    """Validate an integer seed budget ``k`` against the node count ``n``."""
    k = check_index(k, "seed budget k")
    if not 0 <= k <= n:
        raise ValueError(f"seed budget k must be in [0, {n}], got {k}")
    return k


def check_index(value, name: str) -> int:
    """Validate that ``value`` is an integer index and return it as ``int``.

    ``int()`` would truncate ``1.5`` to 1 and read ``True`` as 1; node and
    candidate ids must be Python or NumPy integers, never bools or floats.
    """
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(value, name: str) -> float:
    """Validate that ``value`` is a finite real number; return it as ``float``.

    ``float()`` would read ``True`` as 1.0 and the string ``"0.5"`` as 0.5,
    and fail with a ``TypeError`` on ``None`` or a list; edge weights and
    opinion values must be finite Python or NumPy reals, never bools,
    strings, ``None`` or containers.
    """
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, (bool, np.bool_)
    ):
        real = float(value)
        if np.isfinite(real):
            return real
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def check_index_array(values, name: str) -> np.ndarray:
    """Validate that ``values`` holds integer indices; return them as int64.

    The array form of :func:`check_index`: an ``int64`` cast would
    truncate ``1.7`` to 1 and read ``True`` as 1, so any dtype that is not
    an integer kind (floats, bools, objects) is rejected.  One dtype check
    per array, not per element.  An empty sequence passes whatever dtype
    numpy infers for it.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "iu" and arr.size:
        raise ValueError(f"{name} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def check_positive(value, name: str):
    """Validate that ``value`` (a scalar, or every entry of an array) is > 0.

    For user-given sample counts and accuracy parameters: a count of zero
    is an error, never silently replaced by one sample.  ``None`` (an
    optional parameter left unset) passes.  Returns ``value`` unchanged.
    """
    if value is None:
        return value
    arr = np.asarray(value, dtype=np.float64)
    bad = arr[~(arr > 0)]
    if bad.size:
        raise ValueError(f"{name} must be positive, got {bad[0]:g}")
    return value


def check_count(value, name: str):
    """Validate a positive integer sample count: a scalar or an array.

    Walk and sketch counts are integers: ``2.7`` walks per node or a
    ``True`` budget is rejected like a float node id (see
    :func:`check_index` and :func:`check_index_array`), never truncated.
    ``None`` passes.  Returns an ``int``, or an ``int64`` array.
    """
    if value is None:
        return None
    if np.ndim(value) == 0:
        count = check_index(value, name)
    else:
        count = check_index_array(value, name)
    return check_positive(count, name)


def check_time_horizon(t: int) -> int:
    """Validate a time horizon (non-negative integer)."""
    t = int(t)
    if t < 0:
        raise ValueError(f"time horizon must be non-negative, got {t}")
    return t
