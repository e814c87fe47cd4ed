"""The seven project-invariant checkers behind ``repro lint``.

Each checker machine-checks one hand-maintained invariant that the
parity/crash suites depend on (see the module docstrings below and the
README "Static analysis" section).  All analysis is syntactic — nothing
under :mod:`repro` is imported — so the checkers run in milliseconds and
cannot trip worker-pool or shared-memory side effects.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.base import Checker, Finding, Module, Project

__all__ = [
    "ALL_CHECKERS",
    "DeterminismChecker",
    "EngineProtocolChecker",
    "FaultPointChecker",
    "MpOpParityChecker",
    "PickleBudgetChecker",
    "ResourceLifecycleChecker",
    "WireFormatChecker",
    "default_checkers",
]


def _dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _const_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _keyword(call: ast.Call, name: str) -> ast.expr | None:
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    return None


def _func_defs(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# 1. determinism
# ----------------------------------------------------------------------
class DeterminismChecker(Checker):
    """No unseeded or global-state RNG: randomness flows from parameters.

    Byte-identical selections across dm / dm-mp / rw-store only hold when
    every random draw derives from an explicit seed, ``Generator`` or
    ``SeedSequence`` handed down by the caller.  Flags: zero-argument
    ``np.random.default_rng()`` (fresh OS entropy), the legacy global
    ``np.random.*`` API, any stdlib ``random`` usage, time/urandom-derived
    seeds, and zero-argument ``ensure_rng()`` (the entropy fallthrough).
    """

    name = "determinism"
    description = "RNG must flow from an explicit seed/Generator parameter"

    _CONSTRUCTORS = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )
    _ENTROPY_SOURCES = (
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.now",
        "datetime.utcnow",
        "os.urandom",
        "os.getrandom",
        "uuid.uuid1",
        "uuid.uuid4",
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        numpy_aliases = {"numpy"}
        random_aliases: set[str] = set()
        seeded_names: set[str] = set()  # default_rng imported directly
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "random":
                        random_aliases.add(alias.asname or "random")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    random_aliases.update(a.asname or a.name for a in node.names)
                elif node.module in ("numpy.random", "numpy"):
                    for alias in node.names:
                        if alias.name in self._CONSTRUCTORS:
                            seeded_names.add(alias.asname or alias.name)
                        elif alias.name == "random":
                            numpy_aliases.add(
                                f"__npr__{alias.asname or alias.name}"
                            )

        np_random_prefixes = {f"{alias}.random" for alias in numpy_aliases}
        np_random_prefixes.update(
            alias[len("__npr__") :]
            for alias in numpy_aliases
            if alias.startswith("__npr__")
        )

        for call in ast.walk(module.tree):
            if not isinstance(call, ast.Call):
                continue
            name = _dotted(call.func)
            if name is None:
                continue
            prefix, _, attr = name.rpartition(".")
            if prefix in np_random_prefixes:
                if attr in self._CONSTRUCTORS:
                    yield from self._check_constructor(module, call, name)
                else:
                    yield self.finding(
                        module,
                        call,
                        f"legacy global-state RNG call {name}(); draw from an "
                        "explicit np.random.Generator instead",
                    )
            elif attr in self._CONSTRUCTORS and (
                name in seeded_names or prefix in np_random_prefixes
            ):
                yield from self._check_constructor(module, call, name)
            elif name in seeded_names:
                yield from self._check_constructor(module, call, name)
            elif name.split(".", 1)[0] in random_aliases and (
                "." in name or name in random_aliases
            ):
                yield self.finding(
                    module,
                    call,
                    f"stdlib random usage {name}(); all randomness must come "
                    "from seeded numpy Generators",
                )
            elif attr == "ensure_rng" or name == "ensure_rng":
                if not call.args or _is_none(call.args[0]):
                    yield self.finding(
                        module,
                        call,
                        "ensure_rng() without an explicit seed falls through "
                        "to fresh entropy; thread the caller's rng in",
                    )

        # seeding an RNG from wall-clock/OS entropy defeats replayability
        # even though the constructor *looks* seeded.
        for call in ast.walk(module.tree):
            if not isinstance(call, ast.Call):
                continue
            name = _dotted(call.func) or ""
            if name.rpartition(".")[2] not in self._CONSTRUCTORS:
                continue
            for arg in list(call.args) + [kw.value for kw in call.keywords]:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Call):
                        sub_name = _dotted(sub.func) or ""
                        if any(
                            sub_name == src or sub_name.endswith("." + src)
                            for src in self._ENTROPY_SOURCES
                        ):
                            yield self.finding(
                                module,
                                call,
                                f"RNG seeded from {sub_name}(); time/OS-derived "
                                "seeds are not replayable",
                            )

    def _check_constructor(
        self, module: Module, call: ast.Call, name: str
    ) -> Iterator[Finding]:
        if name.rpartition(".")[2] != "default_rng":
            return
        if not call.args or _is_none(call.args[0]):
            yield self.finding(
                module,
                call,
                "unseeded default_rng(); pass a seed, Generator or "
                "SeedSequence so the stream is replayable",
            )


# ----------------------------------------------------------------------
# 2. engine-protocol
# ----------------------------------------------------------------------
class _ClassInfo:
    __slots__ = ("module", "node", "bases", "methods")

    def __init__(self, module: Module, node: ast.ClassDef) -> None:
        self.module = module
        self.node = node
        self.bases = [
            base
            for base in ((_dotted(b) or "").rpartition(".")[2] for b in node.bases)
            if base
        ]
        self.methods: dict[str, ast.FunctionDef] = {
            item.name: item
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }


def _class_table(project: Project) -> dict[str, _ClassInfo]:
    table: dict[str, _ClassInfo] = {}
    for module in project.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name not in table:
                table[node.name] = _ClassInfo(module, node)
    return table


def _ancestry(name: str, table: dict[str, _ClassInfo]) -> list[str]:
    """Linearized project-visible ancestor chain (name first), cycle-safe."""
    seen: list[str] = []
    queue = [name]
    while queue:
        current = queue.pop(0)
        if current in seen or current not in table:
            continue
        seen.append(current)
        queue.extend(table[current].bases)
    return seen


def _is_abstract(func: ast.FunctionDef) -> bool:
    return any(
        (_dotted(dec) or "").rpartition(".")[2] == "abstractmethod"
        for dec in func.decorator_list
    )


def _positional_params(func: ast.FunctionDef) -> list[str]:
    args = func.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return names


def _positional_defaults(func: ast.FunctionDef) -> int:
    """How many trailing positional parameters carry defaults."""
    return len(func.args.defaults)


def _signature_conflicts(
    base: ast.FunctionDef, override: ast.FunctionDef
) -> list[str]:
    """Why ``override`` is not call-compatible with ``base`` (empty = fine)."""
    if override.args.vararg is not None and override.args.kwarg is not None:
        return []
    problems: list[str] = []
    base_pos = _positional_params(base)
    over_pos = _positional_params(override)
    base_defaults = _positional_defaults(base)
    over_defaults = _positional_defaults(override)
    for i, name in enumerate(base_pos):
        if i >= len(over_pos):
            if override.args.vararg is None:
                problems.append(f"drops positional parameter '{name}'")
            continue
        if over_pos[i] != name:
            problems.append(
                f"renames positional parameter '{name}' to '{over_pos[i]}'"
            )
            continue
        base_has_default = i >= len(base_pos) - base_defaults
        over_has_default = i >= len(over_pos) - over_defaults
        if base_has_default and not over_has_default:
            problems.append(f"drops the default of parameter '{name}'")
    for i, name in enumerate(over_pos[len(base_pos) :], start=len(base_pos)):
        if i < len(over_pos) - over_defaults:
            problems.append(f"adds required positional parameter '{name}'")
    over_kwonly = {
        a.arg: d
        for a, d in zip(override.args.kwonlyargs, override.args.kw_defaults)
    }
    base_kwonly = {
        a.arg: d for a, d in zip(base.args.kwonlyargs, base.args.kw_defaults)
    }
    for name, default in base_kwonly.items():
        if name in over_kwonly:
            if default is not None and over_kwonly[name] is None:
                problems.append(f"drops the default of keyword '{name}'")
        elif name not in over_pos and override.args.kwarg is None:
            problems.append(f"drops keyword parameter '{name}'")
    if base.args.kwarg is None and override.args.kwarg is None:
        for name, default in over_kwonly.items():
            if name not in base_kwonly and name not in base_pos and default is None:
                problems.append(f"adds required keyword parameter '{name}'")
    return problems


class EngineProtocolChecker(Checker):
    """Every engine backend implements the full ``ObjectiveEngine`` surface.

    A new backend (the ROADMAP's ``dm-gpu``, a TCP-sharded engine) must
    not silently miss a seam: every class registered in
    ``_ENGINE_FACTORIES`` has to provide the abstract methods, and every
    override of an ``ObjectiveEngine`` / ``SelectionSession`` method must
    stay call-compatible with the base signature — the greedy driver,
    win-min and the serving coalescer call through the base protocol.
    """

    name = "engine-protocol"
    description = "engine/session subclasses must match the protocol surface"

    ROOTS = ("ObjectiveEngine", "SelectionSession")

    def run(self, project: Project) -> Iterator[Finding]:
        table = _class_table(project)
        for root_name in self.ROOTS:
            root = table.get(root_name)
            if root is None:
                continue
            protocol = {
                name: func
                for name, func in root.methods.items()
                if not (name.startswith("__") and name.endswith("__"))
            }
            abstract = {n for n, f in root.methods.items() if _is_abstract(f)}
            for cls_name, info in table.items():
                chain = _ancestry(cls_name, table)
                if cls_name == root_name or root_name not in chain:
                    continue
                for name, func in info.methods.items():
                    base_func = protocol.get(name)
                    if base_func is None or _is_abstract(func):
                        continue
                    for problem in _signature_conflicts(base_func, func):
                        yield self.finding(
                            info.module,
                            func,
                            f"{cls_name}.{name} {problem} relative to "
                            f"{root_name}.{name}; protocol callers use the "
                            "base signature",
                        )
        yield from self._check_registry(project, table)

    def _check_registry(
        self, project: Project, table: dict[str, _ClassInfo]
    ) -> Iterator[Finding]:
        factories: dict[str, tuple[Module, ast.AST]] = {}
        registry_module: Module | None = None
        for module in project.modules:
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "_ENGINE_FACTORIES"
                        for t in node.targets
                    )
                    and isinstance(node.value, ast.Dict)
                ):
                    registry_module = module
                    for key, value in zip(node.value.keys, node.value.values):
                        spec = _const_str(key) if key is not None else None
                        factory = _dotted(value)
                        if spec and factory:
                            factories[spec] = (module, value)
        if registry_module is None:
            return
        abstract_required: set[str] = set()
        root = table.get("ObjectiveEngine")
        if root is not None:
            abstract_required = {
                n for n, f in root.methods.items() if _is_abstract(f)
            }
        for spec, (module, value_node) in sorted(factories.items()):
            factory_name = (_dotted(value_node) or "").rpartition(".")[2]
            cls_name = self._resolve_factory(registry_module, factory_name, table)
            if cls_name is None:
                yield self.finding(
                    module,
                    value_node,
                    f"engine spec '{spec}': cannot resolve factory "
                    f"'{factory_name}' to a class; keep factories returning "
                    "a direct class constructor call",
                )
                continue
            chain = _ancestry(cls_name, table)
            if "ObjectiveEngine" not in chain:
                yield self.finding(
                    module,
                    value_node,
                    f"engine spec '{spec}' maps to {cls_name}, which does not "
                    "subclass ObjectiveEngine",
                )
                continue
            defined = {
                name
                for ancestor in chain
                for name, func in table[ancestor].methods.items()
                if not _is_abstract(func)
            }
            for required in sorted(abstract_required - defined):
                yield self.finding(
                    module,
                    value_node,
                    f"engine spec '{spec}' maps to {cls_name}, which never "
                    f"implements abstract '{required}'",
                )

    @staticmethod
    def _resolve_factory(
        module: Module, factory_name: str, table: dict[str, _ClassInfo]
    ) -> str | None:
        """Class a factory function returns (follows one local indirection)."""
        if factory_name in table:
            return factory_name
        funcs = {f.name: f for f in _func_defs(module.tree)}
        seen: set[str] = set()
        name: str | None = factory_name
        while name in funcs and name not in seen:
            seen.add(name)
            target: str | None = None
            for node in ast.walk(funcs[name]):
                if isinstance(node, ast.Return) and isinstance(
                    node.value, ast.Call
                ):
                    called = (_dotted(node.value.func) or "").rpartition(".")[2]
                    if called in table:
                        return called
                    target = called or target
            name = target
        return None


# ----------------------------------------------------------------------
# 3. mp-op-parity
# ----------------------------------------------------------------------
class MpOpParityChecker(Checker):
    """Worker-loop op dispatch exactly covers the ops the parent sends.

    The dm-mp host protocol frames its own messages: the first tuple
    element is the op string.  An op the parent sends but the
    worker loop never matches dead-locks or hits the fallback raise at
    run time; a dispatch branch for an op nobody sends is dead code that
    rots.  Both directions are checked per module, syntactically.
    """

    name = "mp-op-parity"
    description = "parent-sent op strings == worker-loop dispatch branches"

    _OP_RE = re.compile(r"^[a-z][a-z0-9_]*$")
    _SEND_FUNCS = frozenset({"_run", "append", "dumps", "send", "send_bytes"})

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            workers = [
                func
                for func in _func_defs(module.tree)
                if "worker" in func.name and self._has_recv_loop(func)
            ]
            if not workers:
                continue
            worker_nodes = {id(n) for w in workers for n in ast.walk(w)}
            handled = self._handled_ops(workers)
            sent = self._sent_ops(module, worker_nodes)
            for op, node in sorted(sent.items()):
                if op not in handled:
                    yield self.finding(
                        module,
                        node,
                        f"op '{op}' is sent to the worker pool but no worker "
                        "loop dispatch branch handles it",
                    )
            for op, node in sorted(handled.items()):
                if op not in sent:
                    yield self.finding(
                        module,
                        node,
                        f"worker loop handles op '{op}' but nothing in this "
                        "module ever sends it",
                    )

    @staticmethod
    def _has_recv_loop(func: ast.FunctionDef) -> bool:
        return any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("recv", "recv_bytes")
            for node in ast.walk(func)
        )

    def _handled_ops(
        self, workers: list[ast.FunctionDef]
    ) -> dict[str, ast.AST]:
        handled: dict[str, ast.AST] = {}
        for worker in workers:
            for node in ast.walk(worker):
                if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
                    continue
                if not isinstance(node.ops[0], (ast.Eq, ast.NotEq, ast.In)):
                    continue
                left_ok = (
                    isinstance(node.left, ast.Name) and node.left.id == "op"
                ) or isinstance(node.left, ast.Subscript)
                if not left_ok:
                    continue
                comparator = node.comparators[0]
                values = (
                    list(comparator.elts)
                    if isinstance(comparator, (ast.Tuple, ast.List, ast.Set))
                    else [comparator]
                )
                for value in values:
                    op = _const_str(value)
                    if op is not None and self._OP_RE.match(op):
                        handled.setdefault(op, node)
        return handled

    def _sent_ops(
        self, module: Module, worker_nodes: set[int]
    ) -> dict[str, ast.AST]:
        sent: dict[str, ast.AST] = {}
        op_routers: dict[str, int] = {}  # local funcs with a parameter 'op'
        for func in _func_defs(module.tree):
            params = [a.arg for a in func.args.posonlyargs + func.args.args]
            if "op" in params:
                index = params.index("op")
                if params and params[0] in ("self", "cls"):
                    index -= 1
                op_routers[func.name] = index
        for node in ast.walk(module.tree):
            if id(node) in worker_nodes or not isinstance(node, ast.Call):
                continue
            # Terminal attribute name, resolvable even through subscripted
            # chains like ``workers[i].conn.send(...)``.
            if isinstance(node.func, ast.Attribute):
                func_name = node.func.attr
            elif isinstance(node.func, ast.Name):
                func_name = node.func.id
            else:
                continue
            if func_name in self._SEND_FUNCS:
                for arg in node.args:
                    for sub in ast.walk(arg):
                        if isinstance(sub, ast.Tuple) and sub.elts:
                            op = _const_str(sub.elts[0])
                            if op is not None and self._OP_RE.match(op):
                                sent.setdefault(op, sub)
            if func_name in op_routers:
                index = op_routers[func_name]
                value = _keyword(node, "op")
                if value is None and 0 <= index < len(node.args):
                    value = node.args[index]
                if value is not None:
                    op = _const_str(value)
                    if op is not None and self._OP_RE.match(op):
                        sent.setdefault(op, node)
        return sent


# ----------------------------------------------------------------------
# 4. resource-lifecycle
# ----------------------------------------------------------------------
class ResourceLifecycleChecker(Checker):
    """Shared-memory and worker-pool allocations are paired with teardown.

    Every ``SharedMemory(create=True)`` segment and worker ``Process``
    must have a release path in its owning scope: a
    ``weakref.finalize`` guard, a ``finally`` that closes/unlinks, a
    ``with`` block, or routing through ``stop_worker_pool`` — otherwise a
    crash (or just an exception on the happy path) leaks segments or
    processes.  A ``ThreadPoolExecutor``
    must be a ``with`` block's context manager or have a ``finally`` in
    its owning scope that calls ``shutdown``: its threads would otherwise
    outlive an exception (and be alive at a later ``fork``).
    """

    name = "resource-lifecycle"
    description = (
        "shm/worker/thread-pool allocations need finalize/finally/with teardown"
    )

    _CLEANUP_ATTRS = frozenset(
        {"close", "unlink", "terminate", "kill", "stop", "shutdown", "aclose"}
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            parents = _parent_map(module.tree)
            for node in ast.walk(module.tree):
                kind = self._allocation(node)
                if kind is None:
                    continue
                scope = self._guard_scope(node, parents)
                if kind == "ThreadPoolExecutor":
                    if not (
                        self._with_item(node, parents)
                        or self._finally_calls(scope, frozenset({"shutdown"}))
                    ):
                        yield self.finding(
                            module,
                            node,
                            "ThreadPoolExecutor created outside a with block "
                            "and without a finally that calls shutdown",
                        )
                elif not self._guarded(scope, node, parents):
                    yield self.finding(
                        module,
                        node,
                        f"{kind} allocated without a paired teardown "
                        "(weakref.finalize, finally-close/unlink, with-block "
                        "or stop_worker_pool) in the owning scope",
                    )

    @staticmethod
    def _allocation(node: ast.AST) -> str | None:
        if not isinstance(node, ast.Call):
            return None
        name = (_dotted(node.func) or "").rpartition(".")[2]
        if name == "SharedMemory":
            create = _keyword(node, "create")
            if isinstance(create, ast.Constant) and create.value is True:
                return "SharedMemory segment"
            return None
        if name == "Process":
            return "worker Process"
        if name == "ThreadPoolExecutor":
            return name
        return None

    @staticmethod
    def _with_item(node: ast.AST, parents: dict[int, ast.AST]) -> bool:
        """``node`` is the context expression of a ``with`` item."""
        item = parents.get(id(node))
        return isinstance(item, ast.withitem) and item.context_expr is node

    @staticmethod
    def _finally_calls(scope: ast.AST, attrs: frozenset[str]) -> bool:
        """A ``finally`` inside ``scope`` calls one of the ``attrs`` methods."""
        for node in ast.walk(scope):
            if isinstance(node, ast.Try) and node.finalbody:
                for sub in node.finalbody:
                    for call in ast.walk(sub):
                        if (
                            isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr in attrs
                        ):
                            return True
        return False

    @staticmethod
    def _guard_scope(node: ast.AST, parents: dict[int, ast.AST]) -> ast.AST:
        """Innermost class (for methods) or function owning the allocation."""
        best: ast.AST | None = None
        current: ast.AST | None = node
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                best = current
            if isinstance(current, ast.ClassDef):
                return current
            current = parents.get(id(current))
        return best if best is not None else node

    def _guarded(
        self, scope: ast.AST, alloc: ast.AST, parents: dict[int, ast.AST]
    ) -> bool:
        current = parents.get(id(alloc))
        while current is not None and current is not parents.get(id(scope)):
            if isinstance(current, ast.With):
                return True
            current = parents.get(id(current))
        for node in ast.walk(scope):
            if isinstance(node, ast.Attribute) and node.attr == "finalize":
                return True
            if isinstance(node, ast.Name) and node.id == "stop_worker_pool":
                return True
            if isinstance(node, ast.Attribute) and node.attr == "stop_worker_pool":
                return True
        return self._finally_calls(scope, self._CLEANUP_ATTRS)


def _parent_map(tree: ast.AST) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


# ----------------------------------------------------------------------
# 5. pickle-budget
# ----------------------------------------------------------------------
class PickleBudgetChecker(Checker):
    """``__getstate__`` must disposition every cache-like attribute.

    The dm-mp tcp handshake ships problems by pickle; ``__getstate__`` keeps the
    byte budget bounded by dropping per-session caches.  A new
    ``_cached_*`` / trajectory attribute that ``__getstate__`` neither
    drops nor declares shareable silently reinstates the serialization
    tax (and can ship stale warm state into workers).
    """

    name = "pickle-budget"
    description = "__getstate__ must drop or declare every cache attribute"

    _CACHE_PATTERNS = tuple(
        re.compile(p)
        for p in (r"^_cached", r"^_memo", r"trajector", r"_cache$", r"_caches$")
    )

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef) and "__getstate__" in {
                    f.name
                    for f in node.body
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                }:
                    yield from self._check_class(module, node)

    def _check_class(
        self, module: Module, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        getstate = next(
            f
            for f in cls.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and f.name == "__getstate__"
        )
        handled: set[str] = {
            value
            for node in ast.walk(getstate)
            if (value := _const_str(node)) is not None
        }
        # class-level registries of string names (e.g. _SHAREABLE_CACHES)
        # count as explicit dispositions too.
        for item in cls.body:
            if isinstance(item, ast.Assign) and isinstance(
                item.value, (ast.Tuple, ast.List, ast.Set)
            ):
                for element in item.value.elts:
                    value = _const_str(element)
                    if value is not None:
                        handled.add(value)
        for attr, node in sorted(self._cache_attrs(cls).items()):
            if attr not in handled:
                yield self.finding(
                    module,
                    node,
                    f"{cls.name}.{attr} looks like a cache but "
                    "__getstate__ neither drops nor declares it; new cache "
                    "attributes must not leak into worker ships",
                )

    def _cache_attrs(self, cls: ast.ClassDef) -> dict[str, ast.AST]:
        attrs: dict[str, ast.AST] = {}
        for node in ast.walk(cls):
            target: ast.expr | None = None
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Attribute):
                        target = t
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Attribute):
                    target = node.target
            if (
                target is not None
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and any(p.search(target.attr) for p in self._CACHE_PATTERNS)
            ):
                attrs.setdefault(target.attr, node)
        return attrs


# ----------------------------------------------------------------------
# 6. wire-format
# ----------------------------------------------------------------------
class WireFormatChecker(Checker):
    """Serving-layer JSON must be byte-deterministic.

    Response bytes are part of the serving contract (the coalescing
    tests assert byte-identical coalesced-vs-serial responses), so every
    ``json.dumps`` on the wire path must pass ``sort_keys=True`` and the
    compact ``separators=(",", ":")`` — otherwise dict insertion order
    and whitespace leak into the bytes.
    """

    name = "wire-format"
    description = "serve-layer json.dumps needs sort_keys + compact separators"

    _PATH_MARKERS = ("/serve/", "/analysis/")

    def run(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            posix = "/" + module.path.replace("\\", "/")
            if not any(marker in posix for marker in self._PATH_MARKERS):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _dotted(node.func) or ""
                if name.rpartition(".")[2] not in ("dumps", "dump"):
                    continue
                if not (name.startswith("json.") or ".json." in name):
                    continue
                yield from self._check_call(module, node)

    def _check_call(self, module: Module, call: ast.Call) -> Iterator[Finding]:
        sort_keys = _keyword(call, "sort_keys")
        if not (
            isinstance(sort_keys, ast.Constant) and sort_keys.value is True
        ):
            yield self.finding(
                module,
                call,
                "json.dumps on the wire path without sort_keys=True; "
                "response bytes must not depend on dict insertion order",
            )
        separators = _keyword(call, "separators")
        compact = (
            isinstance(separators, ast.Tuple)
            and len(separators.elts) == 2
            and _const_str(separators.elts[0]) == ","
            and _const_str(separators.elts[1]) == ":"
        )
        if not compact:
            yield self.finding(
                module,
                call,
                'json.dumps on the wire path without separators=(",", ":"); '
                "whitespace must not leak into response bytes",
            )


class FaultPointChecker(Checker):
    """Fault-injection call sites and the registry must stay in sync.

    The chaos tests replay :class:`~repro.core.faults.FaultPlan`\\ s
    whose specs reference fault ids by name; a ``maybe_fail`` call site
    whose id (or context keys) drifted from :data:`FAULT_IDS` would make
    those plans silently never fire.  Both directions are checked: every
    call site must use a registered id with registered context keys, and
    every registered id must have a call site — an orphaned registration
    means a fault a plan can arm but nothing can trigger.
    """

    name = "fault-point"
    description = "maybe_fail call sites must match the FAULT_IDS registry"

    def run(self, project: Project) -> Iterator[Finding]:
        registry_module, registry, anchors = self._find_registry(project)
        if registry_module is None:
            return
        called: set[str] = set()
        for module in project.modules:
            if module is registry_module:
                # The seam's own plumbing (FaultPlan.maybe_fail and the
                # module-level forwarder) passes ids dynamically.
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _dotted(node.func) or ""
                if name.rpartition(".")[2] != "maybe_fail":
                    continue
                fault_id = (
                    _const_str(node.args[0]) if node.args else None
                )
                if fault_id is None:
                    yield self.finding(
                        module,
                        node,
                        "maybe_fail needs a string-literal fault id as its "
                        "first argument so the fault-point checker can "
                        "cross-reference the FAULT_IDS registry",
                    )
                    continue
                if fault_id not in registry:
                    yield self.finding(
                        module,
                        node,
                        f"fault id {fault_id!r} is not registered in "
                        "FAULT_IDS; register it (with its context keys) "
                        "next to the other fault points",
                    )
                    continue
                called.add(fault_id)
                allowed = set(registry[fault_id])
                for kw in node.keywords:
                    if kw.arg is not None and kw.arg not in allowed:
                        yield self.finding(
                            module,
                            node,
                            f"fault point {fault_id!r} passes context key "
                            f"{kw.arg!r} not registered in FAULT_IDS "
                            f"(registered: {sorted(allowed)}); plans "
                            "constraining it could never match",
                        )
        for fault_id in registry:
            if fault_id not in called:
                yield self.finding(
                    registry_module,
                    anchors[fault_id],
                    f"registered fault id {fault_id!r} has no maybe_fail "
                    "call site; instrument the fault point or drop the "
                    "registration",
                )

    @staticmethod
    def _find_registry(
        project: Project,
    ) -> tuple[Module | None, dict[str, tuple[str, ...]], dict[str, ast.AST]]:
        """Locate the ``FAULT_IDS`` dict literal and parse its schema."""
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Assign):
                    targets, value = node.targets, node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets, value = [node.target], node.value
                else:
                    continue
                if not any(
                    isinstance(t, ast.Name) and t.id == "FAULT_IDS"
                    for t in targets
                ):
                    continue
                if not isinstance(value, ast.Dict):
                    continue
                registry: dict[str, tuple[str, ...]] = {}
                anchors: dict[str, ast.AST] = {}
                for key, val in zip(value.keys, value.values):
                    fault_id = None if key is None else _const_str(key)
                    if fault_id is None:
                        continue
                    keys = tuple(
                        k
                        for k in (
                            _const_str(e) for e in getattr(val, "elts", ())
                        )
                        if k is not None
                    )
                    registry[fault_id] = keys
                    anchors[fault_id] = key
                return module, registry, anchors
        return None, {}, {}


def default_checkers() -> list[Checker]:
    """Fresh instances of every built-in checker, in report order."""
    return [cls() for cls in ALL_CHECKERS]


#: The registered checker classes (the ``repro lint --list`` order).
ALL_CHECKERS: tuple[type[Checker], ...] = (
    DeterminismChecker,
    EngineProtocolChecker,
    FaultPointChecker,
    MpOpParityChecker,
    PickleBudgetChecker,
    ResourceLifecycleChecker,
    WireFormatChecker,
)
