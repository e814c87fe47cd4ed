"""reprolint: each checker fires on its positive fixture, stays quiet on
the negative one, and the live tree is clean (the CI gate's contract)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    DeterminismChecker,
    EngineProtocolChecker,
    FaultPointChecker,
    MpOpParityChecker,
    PickleBudgetChecker,
    Project,
    ResourceLifecycleChecker,
    WireFormatChecker,
    apply_baseline,
    default_checkers,
    format_json,
    format_text,
    load_baseline,
    run_checkers,
    write_baseline,
)
from repro.cli import main


def check(checker, sources: dict[str, str]):
    """Run one checker over in-memory sources, suppressions applied."""
    findings = run_checkers(Project.from_sources(sources), [checker])
    return [f for f in findings if f.checker == checker.name]


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
DET_POSITIVE = """
import random
import time
import numpy as np
from repro.utils.rng import ensure_rng

a = np.random.default_rng()
b = np.random.rand(3)
c = random.random()
d = np.random.default_rng(time.time_ns())
e = ensure_rng()
f = ensure_rng(None)
"""

DET_NEGATIVE = """
import numpy as np
from repro.utils.rng import ensure_rng


def sample(seed, rng=None):
    gen = np.random.default_rng(seed)
    seq = np.random.SeedSequence(7)
    child = np.random.Generator(np.random.PCG64(1))
    threaded = ensure_rng(rng)
    return gen, seq, child, threaded
"""


def test_determinism_positive_fixture_fires():
    findings = check(DeterminismChecker(), {"mod.py": DET_POSITIVE})
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 6
    assert "unseeded default_rng" in messages
    assert "legacy global-state RNG call np.random.rand" in messages
    assert "stdlib random usage random.random" in messages
    assert "seeded from time.time_ns" in messages
    assert messages.count("ensure_rng() without an explicit seed") == 2


def test_determinism_negative_fixture_quiet():
    assert check(DeterminismChecker(), {"mod.py": DET_NEGATIVE}) == []


def test_determinism_suppression_needs_justification():
    src = (
        "import numpy as np\n"
        "a = np.random.default_rng()  "
        "# reprolint: disable=determinism -- fixture entropy\n"
        "b = np.random.default_rng()  # reprolint: disable=determinism\n"
    )
    findings = run_checkers(
        Project.from_sources({"mod.py": src}), [DeterminismChecker()]
    )
    # both suppressions silence the checker; the bare one is itself flagged
    assert [f.checker for f in findings] == ["suppression"]
    assert findings[0].line == 3


# ----------------------------------------------------------------------
# engine-protocol
# ----------------------------------------------------------------------
PROTO_POSITIVE = """
from abc import ABC, abstractmethod


class SelectionSession:
    def commit(self, seed, *, gain=None):
        return 0.0


class ObjectiveEngine(ABC):
    @abstractmethod
    def evaluate(self, seed_sets):
        ...

    def apply_delta(self, report, *, sessions="auto"):
        ...


def _make_good(problem, rng):
    return GoodEngine(problem)


def _make_bad(problem, rng):
    return IncompleteEngine(problem)


_ENGINE_FACTORIES = {"good": _make_good, "bad": _make_bad}


class GoodEngine(ObjectiveEngine):
    def evaluate(self, seed_sets):
        return []


class IncompleteEngine(ObjectiveEngine):
    def apply_delta(self, report, *, sessions="auto"):
        ...


class RenamingEngine(ObjectiveEngine):
    def evaluate(self, seeds):
        return []


class DroppingSession(SelectionSession):
    def commit(self, seed, *, gain):
        return 0.0
"""

PROTO_NEGATIVE = """
from abc import ABC, abstractmethod


class ObjectiveEngine(ABC):
    @abstractmethod
    def evaluate(self, seed_sets):
        ...

    def open_session(self, base=()):
        ...


def _make_good(problem, rng):
    return GoodEngine(problem)


_ENGINE_FACTORIES = {"good": _make_good}


class GoodEngine(ObjectiveEngine):
    def evaluate(self, seed_sets):
        return []

    def open_session(self, base=(), extra=None, **kwargs):
        ...
"""


def test_engine_protocol_positive_fixture_fires():
    findings = check(EngineProtocolChecker(), {"engine.py": PROTO_POSITIVE})
    messages = "\n".join(f.message for f in findings)
    assert "IncompleteEngine, which never implements abstract 'evaluate'" in messages
    assert "renames positional parameter 'seed_sets' to 'seeds'" in messages
    assert "drops the default of keyword 'gain'" in messages
    assert len(findings) == 3


def test_engine_protocol_negative_fixture_quiet():
    assert check(EngineProtocolChecker(), {"engine.py": PROTO_NEGATIVE}) == []


def test_engine_protocol_crosses_modules():
    base = (
        "from abc import ABC, abstractmethod\n"
        "class ObjectiveEngine(ABC):\n"
        "    @abstractmethod\n"
        "    def evaluate(self, seed_sets): ...\n"
    )
    sub = (
        "from base import ObjectiveEngine\n"
        "class RemoteEngine(ObjectiveEngine):\n"
        "    def evaluate(self, sets): ...\n"
    )
    findings = check(
        EngineProtocolChecker(), {"base.py": base, "sub.py": sub}
    )
    assert len(findings) == 1
    assert findings[0].path == "sub.py"
    assert "renames positional parameter" in findings[0].message


# ----------------------------------------------------------------------
# mp-op-parity
# ----------------------------------------------------------------------
MP_POSITIVE = """
import pickle


def _worker_main(conn):
    while True:
        message = conn.recv()
        op = message[0]
        if op == "stop":
            break
        elif op == "eval":
            conn.send(("ok", 1))
        elif op == "orphan":
            conn.send(("ok", 2))


class Pool:
    def _run(self, messages):
        return messages

    def go(self):
        self._run([("eval", 1)] * 2)
        self._run([("mystery", 2)])
        return pickle.dumps(("stop",))
"""

MP_NEGATIVE = MP_POSITIVE.replace('elif op == "orphan":', 'elif op == "eval2":').replace(
    '[("mystery", 2)]', '[("eval2", 2)]'
)


def test_mp_op_parity_positive_fixture_fires():
    findings = check(MpOpParityChecker(), {"pool.py": MP_POSITIVE})
    messages = sorted(f.message for f in findings)
    assert len(findings) == 2
    assert "op 'mystery' is sent" in messages[0]
    assert "handles op 'orphan' but nothing" in messages[1]


def test_mp_op_parity_negative_fixture_quiet():
    assert check(MpOpParityChecker(), {"pool.py": MP_NEGATIVE}) == []


def test_mp_op_parity_ignores_modules_without_worker_loop():
    src = "def go(run):\n    run([('mystery', 1)])\n"
    assert check(MpOpParityChecker(), {"mod.py": src}) == []


# ----------------------------------------------------------------------
# resource-lifecycle
# ----------------------------------------------------------------------
LIFE_POSITIVE = """
from multiprocessing import shared_memory


def leak(nbytes):
    segment = shared_memory.SharedMemory(create=True, size=nbytes)
    return segment.name
"""

LIFE_NEGATIVE = """
import weakref
from multiprocessing import shared_memory

from repro.utils.workers import stop_worker_pool


def scoped(nbytes):
    segment = shared_memory.SharedMemory(create=True, size=nbytes)
    try:
        return segment.name
    finally:
        segment.close()
        segment.unlink()


def attach_only(name):
    return shared_memory.SharedMemory(name=name)


class Arena:
    def __init__(self):
        self._segments = {}
        self._finalizer = weakref.finalize(self, dict.clear, self._segments)

    def create(self, nbytes):
        return shared_memory.SharedMemory(create=True, size=nbytes)


class PoolOwner:
    def start(self, ctx):
        self._proc = ctx.Process(target=print)
        self._proc.start()

    def close(self):
        stop_worker_pool([self._proc], lambda conn: None)
"""


def test_lifecycle_positive_fixture_fires():
    findings = check(ResourceLifecycleChecker(), {"mod.py": LIFE_POSITIVE})
    assert len(findings) == 1
    assert "SharedMemory segment allocated without a paired teardown" in (
        findings[0].message
    )


def test_lifecycle_negative_fixture_quiet():
    assert check(ResourceLifecycleChecker(), {"mod.py": LIFE_NEGATIVE}) == []


THREADS_POSITIVE = """
from concurrent.futures import ThreadPoolExecutor


def leak(jobs):
    pool = ThreadPoolExecutor(2)
    try:
        return list(pool.map(print, jobs))
    finally:
        pool.close_enough()


def leak_in_unrelated_with(path, jobs):
    with open(path) as handle:
        pool = ThreadPoolExecutor(2)
        return list(pool.map(handle.write, jobs))
"""

THREADS_NEGATIVE = """
import concurrent.futures


def scoped(jobs):
    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        yield from pool.map(print, jobs)


def finally_shutdown(jobs):
    pool = concurrent.futures.ThreadPoolExecutor(2)
    try:
        return list(pool.map(print, jobs))
    finally:
        pool.shutdown(wait=True)
"""


def test_lifecycle_thread_pool_without_with_or_shutdown_fires():
    findings = check(ResourceLifecycleChecker(), {"mod.py": THREADS_POSITIVE})
    assert len(findings) == 2
    for finding in findings:
        assert "ThreadPoolExecutor created outside a with block" in finding.message


def test_lifecycle_thread_pool_with_or_finally_shutdown_quiet():
    assert check(ResourceLifecycleChecker(), {"mod.py": THREADS_NEGATIVE}) == []


def test_lifecycle_unguarded_process_fires():
    src = (
        "import multiprocessing as mp\n"
        "def spawn():\n"
        "    proc = mp.Process(target=print)\n"
        "    proc.start()\n"
    )
    findings = check(ResourceLifecycleChecker(), {"mod.py": src})
    assert len(findings) == 1
    assert "worker Process" in findings[0].message


# ----------------------------------------------------------------------
# pickle-budget
# ----------------------------------------------------------------------
PICKLE_POSITIVE = """
class Ship:
    def __init__(self):
        self._cached_rows = None
        self._seeded_trajectories = {}
        self._plain = 1

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_seeded_trajectories"] = {}
        return state
"""

PICKLE_NEGATIVE = """
class Ship:
    _SHAREABLE_CACHES = ("_cached_rows",)

    def __init__(self):
        self._cached_rows = None
        self._seeded_trajectories = {}
        self._plain = 1

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_seeded_trajectories"] = {}
        return state


class NoGetstate:
    def __init__(self):
        self._cached_free = None
"""


def test_pickle_budget_positive_fixture_fires():
    findings = check(PickleBudgetChecker(), {"mod.py": PICKLE_POSITIVE})
    assert len(findings) == 1
    assert "Ship._cached_rows looks like a cache" in findings[0].message


def test_pickle_budget_negative_fixture_quiet():
    assert check(PickleBudgetChecker(), {"mod.py": PICKLE_NEGATIVE}) == []


# ----------------------------------------------------------------------
# wire-format
# ----------------------------------------------------------------------
WIRE_POSITIVE = """
import json


def encode(payload):
    return json.dumps(payload, sort_keys=True) + "\\n"
"""

WIRE_NEGATIVE = """
import json


def encode(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\\n"
"""


def test_wire_format_positive_fixture_fires():
    findings = check(
        WireFormatChecker(), {"src/repro/serve/protocol.py": WIRE_POSITIVE}
    )
    assert len(findings) == 1
    assert "separators" in findings[0].message
    both = check(
        WireFormatChecker(),
        {"src/repro/serve/p.py": "import json\nx = json.dumps({})\n"},
    )
    assert len(both) == 2


def test_wire_format_negative_fixture_quiet():
    assert check(
        WireFormatChecker(), {"src/repro/serve/protocol.py": WIRE_NEGATIVE}
    ) == []


def test_wire_format_scoped_to_serve_paths():
    assert check(
        WireFormatChecker(), {"src/repro/core/walk_store.py": WIRE_POSITIVE}
    ) == []


# ----------------------------------------------------------------------
# fault-point
# ----------------------------------------------------------------------
FAULT_REGISTRY = """
FAULT_IDS = {
    "net-sever-host": ("host", "round"),
    "store-corrupt-block": ("candidate", "kind", "block"),
    "never-instrumented": ("round",),
}
"""

FAULT_POSITIVE = """
from repro.core import faults


def run(self):
    faults.maybe_fail("net-sever-host", host="a:1", round=2)
    faults.maybe_fail("made-up-fault", worker=1)
    faults.maybe_fail("store-corrupt-block", candidate=0, shard=3)
    faults.maybe_fail(self.fault_id)
"""

FAULT_NEGATIVE = """
from repro.core import faults


def run(self):
    faults.maybe_fail("net-sever-host", host="a:1", round=2)
    faults.maybe_fail("store-corrupt-block", candidate=0, kind="uniform")
    faults.maybe_fail("never-instrumented", round=1)
"""


def test_fault_point_positive_fixture_fires():
    findings = check(
        FaultPointChecker(),
        {
            "src/repro/core/faults.py": FAULT_REGISTRY,
            "src/repro/core/engine_mp.py": FAULT_POSITIVE,
        },
    )
    messages = "\n".join(f.message for f in findings)
    assert len(findings) == 4
    assert "'made-up-fault' is not registered" in messages
    assert "'shard' not registered" in messages
    assert "string-literal fault id" in messages
    assert "'never-instrumented' has no maybe_fail call site" in messages


def test_fault_point_negative_fixture_quiet():
    assert (
        check(
            FaultPointChecker(),
            {
                "src/repro/core/faults.py": FAULT_REGISTRY,
                "src/repro/core/engine_mp.py": FAULT_NEGATIVE,
            },
        )
        == []
    )


def test_fault_point_quiet_without_registry():
    # A project without the seam (fixture trees) has nothing to check.
    assert check(FaultPointChecker(), {"mod.py": FAULT_POSITIVE}) == []


# ----------------------------------------------------------------------
# framework: ordering, reporters, baseline
# ----------------------------------------------------------------------
def test_findings_sorted_and_json_deterministic():
    sources = {
        "b.py": "import numpy as np\nx = np.random.default_rng()\n",
        "a.py": "import numpy as np\nx = np.random.rand()\n",
    }
    checkers = [DeterminismChecker()]
    first = run_checkers(Project.from_sources(sources), checkers)
    second = run_checkers(Project.from_sources(sources), checkers)
    assert [f.path for f in first] == ["a.py", "b.py"]
    assert format_json(first, checkers) == format_json(second, checkers)
    payload = json.loads(format_json(first, checkers))
    assert [f["path"] for f in payload["findings"]] == ["a.py", "b.py"]
    assert payload["counts"] == {"determinism": 2}
    assert "2 finding(s)" in format_text(first)


def test_baseline_roundtrip(tmp_path):
    sources = {"mod.py": "import numpy as np\nx = np.random.default_rng()\n"}
    findings = run_checkers(
        Project.from_sources(sources), [DeterminismChecker()]
    )
    baseline = tmp_path / "baseline.json"
    assert write_baseline(findings, baseline) == 1
    fresh, baselined = apply_baseline(findings, load_baseline(baseline))
    assert fresh == [] and baselined == 1
    # a second, new occurrence of the same key is NOT silenced (multiset)
    doubled = findings + [
        type(findings[0])(
            findings[0].path, 99, 0, findings[0].checker, findings[0].message
        )
    ]
    fresh, baselined = apply_baseline(doubled, load_baseline(baseline))
    assert len(fresh) == 1 and baselined == 1


def test_baseline_rejects_foreign_files(tmp_path):
    bogus = tmp_path / "bogus.json"
    bogus.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError, match="not a reprolint baseline"):
        load_baseline(bogus)


def test_parse_errors_are_reported(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    project = Project.from_paths([tmp_path])
    findings = run_checkers(project, default_checkers())
    assert len(findings) == 1
    assert findings[0].checker == "parse"


# ----------------------------------------------------------------------
# CLI and the live tree
# ----------------------------------------------------------------------
def fixture_dir(tmp_path: Path) -> Path:
    root = tmp_path / "fixture"
    root.mkdir()
    (root / "dirty.py").write_text(
        "import numpy as np\nx = np.random.default_rng()\n"
    )
    return root


def test_cli_lint_exit_codes_and_baseline(tmp_path, capsys):
    root = fixture_dir(tmp_path)
    assert main(["lint", str(root)]) == 1
    out = capsys.readouterr().out
    assert "unseeded default_rng" in out and "determinism=1" in out

    baseline = tmp_path / "baseline.json"
    assert main(["lint", str(root), "--write-baseline", str(baseline)]) == 0
    capsys.readouterr()
    assert main(["lint", str(root), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined finding(s)" in out
    assert main(["lint", str(root), "--baseline", str(tmp_path / "no.json")]) == 2


def test_cli_lint_json_format(tmp_path, capsys):
    root = fixture_dir(tmp_path)
    assert main(["lint", str(root), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"determinism": 1}
    assert len(payload["checkers"]) == 7


def test_cli_lint_list(capsys):
    assert main(["lint", "--list"]) == 0
    out = capsys.readouterr().out
    assert "determinism" in out and "wire-format" in out


def test_live_tree_is_clean():
    """The repo's own source passes every checker — the CI gate's invariant."""
    package_root = Path(repro.__file__).parent
    project = Project.from_paths([package_root])
    assert len(project.modules) > 50
    findings = run_checkers(project, default_checkers())
    assert findings == [], "\n".join(f.render() for f in findings)


def test_live_tree_checkers_have_coverage():
    """All seven checkers inspect real seams of the live tree (not vacuous)."""
    package_root = Path(repro.__file__).parent
    project = Project.from_paths([package_root])
    # the registry and worker loops the structural checkers key off exist
    sources = {m.path: m.source for m in project.modules}
    engine = next(s for p, s in sources.items() if p.endswith("core/engine.py"))
    assert "_ENGINE_FACTORIES" in engine
    engine_mp = next(
        s for p, s in sources.items() if p.endswith("core/engine_mp.py")
    )
    assert "_worker_loop" in engine_mp
