"""In-memory span tracer for the end-to-end benchmark.

Spans are recorded from outside the program: the benchmark's own code
opens explicit spans around the calls it makes (problem build, store
open), and :func:`install_selection` / :func:`install_serving` patch
*class-level* wrappers onto the public functions each layer exposes.
Nothing under ``src/`` knows it is being traced.

A span is ``name, start, end, parent, trace, size`` — ``parent`` is the
index of the enclosing span on the same thread (-1 for a root),
``trace`` the index of the root span, so every span caused by one
operation (a greedy round, a dispatched batch) shares one identifier,
and ``size`` an optional work count taken from the call's arguments
(columns scored, candidates per call).  Times come from
``time.monotonic`` (``CLOCK_MONOTONIC`` on Linux), so spans recorded in
the server process line up with the load generator's phase windows.

Wrappers must go in only *after* worker pools are up, so forked workers
run unwrapped code; spans live in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

#: Span record layout (lists, not objects: tens of thousands per run).
NAME, START, END, PARENT, TRACE, SIZE = range(6)


class Tracer:
    """Collects spans from explicit ``span`` blocks and patched wrappers."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, size: int) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            trace = self.spans[parent][TRACE] if parent >= 0 else index
            self.spans.append([name, time.monotonic(), None, parent, trace, size])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack().pop()
        self.spans[index][END] = time.monotonic()

    @contextmanager
    def span(self, name: str, size: int = 0) -> Iterator[None]:
        index = self._open(name, size)
        try:
            yield
        finally:
            self._close(index)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        size: Callable[..., int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` (a class, module or dict entry) by a
        span-recording wrapper; :meth:`uninstall` restores it."""
        if isinstance(owner, dict):
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name, size(*args, **kwargs) if size else 0)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(index)

        if isinstance(owner, dict):
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_defined(
        self,
        classes: Iterable[type],
        attr: str,
        name: str,
        size: Callable[..., int] | None = None,
    ) -> None:
        """Wrap ``attr`` on every class that defines it itself (overrides
        included), so subclass implementations are traced too."""
        for cls in classes:
            if attr in cls.__dict__:
                self.wrap(cls, attr, name, size)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str | Path) -> None:
        """Write every span as JSON (``{"spans": [...]}``); a span still
        open (a thread mid-call) ends at the dump."""
        now = time.monotonic()
        spans = [
            span if span[END] is not None else [*span[:END], now, *span[END + 1 :]]
            for span in self.spans
        ]
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": spans}, separators=(",", ":")))


def load_spans(path: str | Path) -> list[list[Any]]:
    return json.loads(Path(path).read_text())["spans"]


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _has_ancestor_in(spans: Sequence[list], index: int, names: set[str]) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in names:
            return True
        parent = spans[parent][PARENT]
    return False


def outermost(spans: Sequence[list], names: Iterable[str]) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor also named there
    (a wrapped override calling its wrapped base counts once)."""
    group = set(names)
    return [
        i
        for i, span in enumerate(spans)
        if span[NAME] in group and not _has_ancestor_in(spans, i, group)
    ]


def self_times(spans: Sequence[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children share their parent's thread and run one after another, so
    their durations add without overlap.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def total_s(spans: Sequence[list], names: Iterable[str]) -> float:
    """Wall time inside the named spans, nested repeats counted once."""
    return sum(spans[i][END] - spans[i][START] for i in outermost(spans, names))


def self_total_s(spans: Sequence[list], names: Iterable[str]) -> float:
    group = set(names)
    own = self_times(spans)
    return sum(t for t, span in zip(own, spans) if span[NAME] in group)


def count(spans: Sequence[list], names: Iterable[str]) -> int:
    return len(outermost(spans, names))


def size_sum(spans: Sequence[list], names: Iterable[str]) -> int:
    return sum(spans[i][SIZE] for i in outermost(spans, names))


def within(spans: Sequence[list], lo: float, hi: float) -> list[list]:
    """Spans that started inside ``[lo, hi)``, parents re-indexed.

    A span whose parent falls outside the window becomes a root.
    """
    keep = [i for i, span in enumerate(spans) if lo <= span[START] < hi]
    remap = {old: new for new, old in enumerate(keep)}
    out = []
    for old in keep:
        span = list(spans[old])
        span[PARENT] = remap.get(span[PARENT], -1)
        out.append(span)
    return out


# ----------------------------------------------------------------------
# Layer wrappers
# ----------------------------------------------------------------------
def _columns(_self: Any, cols: Any, *_: Any, **__: Any) -> int:
    shape = getattr(cols, "shape", ())
    return int(shape[1]) if len(shape) == 2 else 1


def _candidates(_self: Any, candidates: Any, *_: Any, **__: Any) -> int:
    return len(candidates)


def _score_classes() -> list[type]:
    from repro.voting import scores

    return [
        obj
        for obj in vars(scores).values()
        if isinstance(obj, type) and issubclass(obj, scores.VotingScore)
    ]


def install_selection(tracer: Tracer) -> None:
    """Wrap the selection path: sessions, score reduction, the greedy
    round driver and the walk estimator's budget and gain calls."""
    from repro.core import greedy
    from repro.core.engine import (
        BatchedDMEngine,
        BatchedDMSession,
        SelectionSession,
        WalkEngine,
        WalkSession,
    )
    from repro.core.engine_mp import MultiprocessDMSession

    sessions = (SelectionSession, BatchedDMSession, MultiprocessDMSession, WalkSession)
    tracer.wrap_defined(sessions, "marginal_gains", "engine.gains", _candidates)
    tracer.wrap_defined(sessions, "commit", "engine.commit")
    scores = _score_classes()
    tracer.wrap_defined(scores, "contributions_batch_T", "voting.score", _columns)
    tracer.wrap_defined(scores, "score_targets_T", "voting.score", _columns)
    tracer.wrap(BatchedDMEngine, "score_target_row", "voting.score", lambda *_: 1)
    tracer.wrap(greedy, "run_selection_rounds", "greedy.rounds")
    tracer.wrap(WalkEngine, "prepare_budget", "walk.prepare_budget")
    tracer.wrap(WalkEngine, "marginal_gains", "walk.gains")


def install_build(tracer: Tracer) -> None:
    """Wrap problem construction as the CLI reaches it (the dataset
    registry entries and ``Dataset.problem``) plus the problem caches."""
    from repro import cli
    from repro.core.problem import FJVoteProblem
    from repro.datasets.synth import Dataset

    for name in list(cli.DATASETS):
        tracer.wrap(cli.DATASETS, name, "problem.build")
    tracer.wrap(Dataset, "problem", "problem.build")
    tracer.wrap(FJVoteProblem, "others_by_user", "problem.caches")
    tracer.wrap(FJVoteProblem, "target_trajectory", "problem.caches")


def install_serving(tracer: Tracer) -> None:
    """Wrap the serving path on top of :func:`install_selection`: the
    batcher, its coalesced engine rounds, deltas and the wire codec."""
    from repro.core.engine import (
        BatchedDMEngine,
        BatchedDMSession,
        ObjectiveEngine,
        SelectionSession,
    )
    from repro.core.engine_mp import MultiprocessDMSession
    from repro.serve import server
    from repro.serve.batcher import CoalescingBatcher, EngineHub

    install_selection(tracer)
    sessions = (SelectionSession, BatchedDMSession, MultiprocessDMSession)
    tracer.wrap(CoalescingBatcher, "execute", "serve.execute", _candidates)
    tracer.wrap_defined(sessions, "coalesced_gains", "serve.gains_round", _candidates)
    engines = (ObjectiveEngine, BatchedDMEngine)
    tracer.wrap_defined(engines, "query_sets", "serve.wins_round", _candidates)
    tracer.wrap(EngineHub, "apply_delta", "serve.delta")
    tracer.wrap(server, "decode_line", "serve.codec")
    tracer.wrap(server, "encode", "serve.codec")
