"""Deterministic fault injection for chaos tests and resilience benchmarks.

Every recovery path in the execution stack (host re-shard and rejoin,
block repair, request shedding) is only trustworthy if the *failure* that
triggers it can be replayed exactly.  This module is that seam: a seeded
:class:`FaultPlan` names which fault fires where (sever host A in pool
round 3, corrupt candidate 0's first walk block, drop serve request 5),
and instrumented fault points call :func:`maybe_fail` with their local
context.  A spec fires exactly once, when its ``when`` constraints all
match; with no plan installed every fault point is a cheap no-op.

The registry :data:`FAULT_IDS` is the schema: plans may only reference
registered ids, and the ``fault-point`` reprolint checker cross-references
the registry against the ``maybe_fail("...")`` call sites so injection
points and tests cannot drift apart.

Determinism contract: firing decisions depend only on the plan (never on
wall clock or unseeded randomness), and byte corruption derives from the
plan's seed via :func:`corrupt_file` — the same plan always damages the
same bytes.
"""

from __future__ import annotations

import json
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.utils.validation import check_index

__all__ = [
    "FAULT_IDS",
    "FaultPlan",
    "FaultSpec",
    "active",
    "clear",
    "corrupt_file",
    "injected",
    "install",
    "maybe_fail",
]

#: Registered fault points: id -> the context keys a plan may constrain.
#: Adding a ``maybe_fail`` call site requires registering its id here
#: (enforced by the ``fault-point`` reprolint checker), and vice versa.
FAULT_IDS: dict[str, tuple[str, ...]] = {
    # engine_mp.HostPool._run: sever host ``host`` before round ``round``.
    "net-sever-host": ("host", "round"),
    # walk_store._load_block: corrupt the block's bytes before the
    # checksum verification runs, exercising quarantine + repair.
    "store-corrupt-block": ("candidate", "kind", "block"),
    # serve.server: shed the ``request``-th accepted request as if the
    # dispatcher queue were full.
    "serve-drop": ("request",),
    # serve.batcher.execute: sleep ``value`` seconds before batch
    # ``batch`` executes, deterministically expiring its deadlines.
    "serve-delay": ("batch",),
}


@dataclass(frozen=True)
class FaultSpec:
    """One planned failure: fire ``fault_id`` when ``when`` matches.

    ``when`` maps context keys (a subset of the keys registered for the
    id in :data:`FAULT_IDS`) to required values; a spec with an empty
    ``when`` fires at the first call site for its id.  ``value`` carries
    a fault parameter where one makes sense (seconds for ``serve-delay``).
    """

    fault_id: str
    when: Mapping[str, Any] = field(default_factory=dict)
    value: float | None = None

    def __post_init__(self) -> None:
        if self.fault_id not in FAULT_IDS:
            raise ValueError(
                f"unknown fault id {self.fault_id!r}; "
                f"registered: {sorted(FAULT_IDS)}"
            )
        allowed = FAULT_IDS[self.fault_id]
        unknown = sorted(set(self.when) - set(allowed))
        if unknown:
            raise ValueError(
                f"fault {self.fault_id!r} does not take context "
                f"keys {unknown}; allowed: {list(allowed)}"
            )
        # Freeze the mapping so specs are hashable/safely shareable.
        object.__setattr__(self, "when", dict(self.when))

    def matches(self, ctx: Mapping[str, Any]) -> bool:
        return all(key in ctx and ctx[key] == value for key, value in self.when.items())


class FaultPlan:
    """A seeded, replayable schedule of failures.

    ``seed`` feeds deterministic corruption (see :func:`corrupt_file`);
    ``faults`` is the ordered list of :class:`FaultSpec` to arm.  Each
    spec fires at most once; ``fired`` records ``(fault_id, ctx)`` in
    firing order so tests can assert the schedule actually ran.
    """

    def __init__(self, seed: int = 0, faults: Sequence[FaultSpec] = ()) -> None:
        self.seed = int(seed)
        self.faults: list[FaultSpec] = list(faults)
        self.fired: list[tuple[str, dict[str, Any]]] = []
        self._armed: list[bool] = [True] * len(self.faults)
        self._lock = threading.Lock()

    def maybe_fail(self, fault_id: str, **ctx: Any) -> FaultSpec | None:
        """Return the first armed matching spec (disarming it), else None."""
        if fault_id not in FAULT_IDS:
            raise ValueError(f"unregistered fault id {fault_id!r}")
        with self._lock:
            for i, spec in enumerate(self.faults):
                if self._armed[i] and spec.fault_id == fault_id and spec.matches(ctx):
                    self._armed[i] = False
                    self.fired.append((fault_id, dict(ctx)))
                    return spec
        return None

    def rng(self, *key: int) -> np.random.Generator:
        """A generator derived from the plan seed and a stable key."""
        return np.random.default_rng(np.random.SeedSequence([self.seed, *key]))

    # -- JSON round-trip ------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "seed": self.seed,
            "faults": [
                {
                    "fault_id": spec.fault_id,
                    "when": dict(spec.when),
                    **({"value": spec.value} if spec.value is not None else {}),
                }
                for spec in self.faults
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse and validate a plan; any defect is one ``ValueError``
        naming the bad field."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON ({exc})") from None
        if not isinstance(payload, dict):
            raise ValueError(f"must be a JSON object, got {type(payload).__name__}")
        unknown = sorted(set(payload) - {"seed", "faults"})
        if unknown:
            raise ValueError(f"unknown keys {unknown}; allowed: ['faults', 'seed']")
        seed = check_index(payload.get("seed", 0), "seed")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        entries = payload.get("faults", [])
        if not isinstance(entries, list):
            raise ValueError(f"faults must be a list, got {type(entries).__name__}")
        return cls(seed=seed, faults=[_spec(i, e) for i, e in enumerate(entries)])

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        """:meth:`from_json` of a file; errors name the file."""
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"fault plan {path}: cannot read it ({exc})") from None
        try:
            return cls.from_json(text)
        except ValueError as exc:
            raise ValueError(f"fault plan {path}: {exc}") from None


def _spec(index: int, entry: Any) -> FaultSpec:
    """The ``faults[index]`` entry of a decoded plan, validated."""
    where = f"faults[{index}]"
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be an object, got {type(entry).__name__}")
    unknown = sorted(set(entry) - {"fault_id", "when", "value"})
    if unknown:
        raise ValueError(
            f"{where} has unknown keys {unknown}; allowed: fault_id, when, value"
        )
    if "fault_id" not in entry:
        raise ValueError(f"{where} has no fault_id")
    fault_id = entry["fault_id"]
    if not isinstance(fault_id, str):
        raise ValueError(f"{where}.fault_id must be a string, got {fault_id!r}")
    when = entry.get("when", {})
    if not isinstance(when, dict):
        raise ValueError(f"{where}.when must be an object, got {when!r}")
    value = entry.get("value")
    if value is not None and (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
    ):
        raise ValueError(f"{where}.value must be a finite number, got {value!r}")
    try:
        return FaultSpec(fault_id=fault_id, when=when, value=value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


#: The process-wide installed plan; ``None`` keeps fault points no-ops.
_ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan | None) -> None:
    """Install ``plan`` process-wide (``None`` disables injection)."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    install(None)


def active() -> FaultPlan | None:
    return _ACTIVE


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope ``plan`` to a with-block, restoring the previous plan after."""
    previous = _ACTIVE
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


def maybe_fail(fault_id: str, **ctx: Any) -> FaultSpec | None:
    """Consult the installed plan at a fault point; None means proceed.

    Call sites pass their local coordinates (host address, pool round,
    block identity, ...) and act on the returned spec — closing the
    socket, corrupting the bytes.  The fault point
    itself never raises: injection is always an explicit action by the
    caller so the failure takes the production code path.
    """
    plan = _ACTIVE
    if plan is None:
        return None
    return plan.maybe_fail(fault_id, **ctx)


def corrupt_file(path: str | Path, rng: np.random.Generator, nbytes: int = 8) -> None:
    """Deterministically flip ``nbytes`` bytes in the middle of ``path``.

    Offsets and XOR masks come from ``rng`` (derive it from the plan via
    :meth:`FaultPlan.rng` with a stable key) so the same plan always
    produces the same damage.  Bytes are flipped with a non-zero mask so
    the file is guaranteed to differ.
    """
    path = Path(path)
    raw = bytearray(path.read_bytes())
    if not raw:
        return
    offsets = rng.integers(0, len(raw), size=min(nbytes, len(raw)))
    masks = rng.integers(1, 256, size=len(offsets))
    for offset, mask in zip(offsets, masks):
        raw[int(offset)] ^= int(mask)
    path.write_bytes(bytes(raw))
