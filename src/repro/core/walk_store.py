"""Persistent walk store behind every walk/sketch consumer (§V/§VI).

One :class:`WalkStore` owns all reverse-walk material for a campaign state:
walks are generated once per *block* (a fixed-width generation unit with its
own deterministic seed), memoized per ``(candidate, kind, horizon)`` pool,
and served to selection sessions as lightweight copy-on-write views that
re-truncate incrementally on seed commits instead of regenerating.  The
store is what lets :func:`~repro.core.sketch.sketch_select`'s θ ladders
(the IMM-style OPT lower bound and the §VI-E doubling) grow θ while
reusing every walk already drawn — the martingale-sampling trick of the
RIS lineage the paper benchmarks against.

Blocks
------
A *block* is the canonical generation unit: ``block_walks`` uniform-start
walks, or one walk per node for per-node pools.  Each block is keyed by
its entropy ``[root, candidate, kind, block_index]``, so the walks a pool
produces are a pure function of the store seed and the walk count, and a
block can be regenerated (or generated elsewhere) from its identity alone.
Blocks are generated in process, in index order.

Serving
-------
``per_node_view`` / ``uniform_view`` return :meth:`TruncatedWalks.share`
clones of a cached pristine master: the padded walk matrices and the
first-occurrence index are shared read-only, the truncation state is
copy-on-write.  A greedy session truncates its clone seed by seed
(Post-Generation Truncation, Theorem 9) while the master — and every other
live view — stays byte-identical to the freshly generated state.

Persistence (``store_dir``)
---------------------------
Passing ``store_dir`` makes the store *out-of-core*: every generated block
is persisted as a pair of plain ``.npy`` files named by the deterministic
``(store seed, candidate, kind, horizon, block index)`` identity, next to
a versioned ``manifest.json`` that pins the identity parameters.  A block
the process has not just generated is loaded lazily: each part file is
read once, its crc32 checked against the manifest, and the read-only
array built from those same bytes, so the store only ever serves bytes
that passed the check.  An LRU bounds how many block arrays the store
retains between materializations; a served master is still one
concatenated in-RAM copy of the blocks it covers.  Because block content
is a pure function of its identity, a second process — or a restart —
that opens the same directory with the same seed serves
**byte-identical** walks while regenerating *zero* blocks
(``StoreStats.blocks_loaded`` counts the block loads;
``blocks_generated`` stays 0 on a warm open).  Writes are atomic (tmp +
rename) and idempotent across concurrent writers: any two stores can only
ever write the same bytes for the same identity.  A batch of blocks (one
generation call, one delta, one repair) stages every part in a tmp file,
writes the manifest once, and only then renames the parts into place, so
every visible block file has its ledger entry.  A damaged block is
quarantined and regenerated in place from its identity
(``blocks_quarantined`` / ``blocks_repaired``).

The store also pools the RR sets of the classic-IM baselines
(:func:`repro.baselines.imm.imm` accepts an ``rr_pool``), so an IC/LT sweep
over budgets draws from one extending sample instead of private walk sets.
RR-set pools are in-memory only — persistence covers the walk blocks.
"""

from __future__ import annotations

import io
import json
import math
import os
import threading
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from repro.core import faults
from repro.core.random_walk import (
    TruncatedWalks,
    generate_reverse_walks_streamed,
)
from repro.graph.digraph import InfluenceGraph
from repro.opinion.state import CampaignState
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_count, check_index, check_positive

#: Pool kinds: ``per-node`` blocks hold one walk per node (Algorithm 4,
#: grouping="start"); ``uniform`` blocks hold ``block_walks`` uniform-start
#: sketch walks (Algorithm 5, grouping="walk").
KIND_PER_NODE = "per-node"
KIND_UNIFORM = "uniform"

#: Stable integer codes mixed into per-block seeds; RR-set pools use the
#: diffusion-model codes.  Never renumber — block seeds are part of the
#: reproducibility contract.
_KIND_CODES = {KIND_PER_NODE: 1, KIND_UNIFORM: 2, "ic": 11, "lt": 12}

#: Default walks per uniform block.
DEFAULT_BLOCK_WALKS = 1024

#: Default RR sets per pool block.
DEFAULT_RR_BLOCK = 256

#: Materialized masters kept per pool (FIFO): a θ doubling ladder
#: touches O(log θ) counts, each a concatenated copy of the block rows.
_MASTER_CACHE_CAP = 8

#: On-disk store format version (bumped on any layout/naming change).
#: Format 2 switched block generation to one deterministic rng stream per
#: walk (``generate_reverse_walks_streamed``), which is what lets a graph
#: delta regenerate individual walks instead of whole blocks.  Format 3
#: records a crc32 per block part in the manifest.  Format 4 draws each
#: walk's uniforms from a counter-based splitmix64 hash of ``(block key,
#: walk index, step, slot)`` instead of one ``SeedSequence`` per walk, so
#: the walk bytes differ from format 3.  A store is a cache regenerable
#: from its deterministic identity, so any other format is refused rather
#: than upgraded.
STORE_FORMAT = 4

#: Default cap on loaded block arrays a store retains between uses.
DEFAULT_RESIDENT_BLOCKS = 64


@dataclass
class StoreStats:
    """Deterministic walk-generation work counters (``store.stats``).

    ``walk_steps_generated`` is the walk-store analogue of the engines'
    evolution counters: one unit per reverse-walk step actually sampled,
    immune to timer noise and identical for every ``rw-store`` spelling.  The
    ``*_reused`` counters make memoization visible: a second view over the
    same pool serves cached blocks and costs zero generation work.
    """

    blocks_generated: int = 0
    blocks_reused: int = 0
    #: Out-of-core traffic (``store_dir`` stores): blocks persisted to and
    #: read back (verified) from disk.  A warm re-open serves every block
    #: through ``blocks_loaded`` with ``blocks_generated == 0``; a cold
    #: open serves the blocks it generated and loads none.
    blocks_written: int = 0
    blocks_loaded: int = 0
    #: Delta traffic (:meth:`WalkStore.apply_delta`): blocks containing at
    #: least one walk that crossed a changed column, and the individual
    #: walks regenerated inside them.  A delta path leaves
    #: ``blocks_generated`` untouched — no block is regenerated whole.
    blocks_invalidated: int = 0
    walks_patched: int = 0
    #: Integrity traffic (``store_dir`` stores): persisted blocks whose
    #: bytes failed their manifest crc32 on load (the damaged files are
    #: renamed to ``*.quarantined``) and the blocks regenerated in place
    #: from their deterministic identity.  Repair is real generation
    #: work, so a warm open that only repaired damage reports
    #: ``blocks_generated == blocks_repaired``.
    blocks_quarantined: int = 0
    blocks_repaired: int = 0
    walks_generated: int = 0
    walk_steps_generated: int = 0
    index_builds: int = 0
    views_served: int = 0
    rr_sets_generated: int = 0
    rr_sets_reused: int = 0

    def reset(self) -> None:
        for field in fields(self):
            setattr(self, field.name, 0)

    def generation_work(self) -> int:
        """Total sampling work: walk steps plus RR-set draws."""
        return self.walk_steps_generated + self.rr_sets_generated


def _block_entropy(root: int, candidate: int, kind: str, index: int) -> list[int]:
    """Entropy list of one block: seeds its start nodes and walk key."""
    return [int(root), int(candidate), _KIND_CODES[kind], int(index)]


def _generate_block(
    graph: InfluenceGraph,
    stubbornness: np.ndarray,
    horizon: int,
    kind: str,
    block_walks: int,
    entropy: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """Generate one canonical block of reverse walks from its entropy.

    Start nodes come from the block-level stream (uniform pools) or are
    simply ``arange(n)`` (per-node pools); the walks themselves read a
    counter-based uniform source keyed by ``(entropy, i)`` (see
    :func:`generate_reverse_walks_streamed`), so
    :meth:`WalkStore.apply_delta` can regenerate walk ``i`` alone and land
    on exactly the bytes a from-scratch block generation would produce.
    """
    starts = _block_starts(graph.n, kind, block_walks, entropy)
    return generate_reverse_walks_streamed(
        graph, stubbornness, horizon, starts, entropy
    )


#: Parsed ``.npy`` headers keyed by their raw bytes (magic through the end
#: of the header dict): every part of one kind shares a header, so a warm
#: open parses each distinct header once.  Emptied when full; inserts hold
#: the lock so concurrent loads cannot push it past the cap.
_HEADER_MEMO: dict[bytes, tuple[tuple[int, ...], bool, np.dtype, int]] = {}
_HEADER_MEMO_CAP = 64
_HEADER_MEMO_LOCK = threading.Lock()


def _npy_array(data: bytes) -> np.ndarray:
    """The array an ``np.save`` file holds, as a read-only view of ``data``.

    The ``.npy`` header is parsed in memory — once per distinct header
    (see ``_HEADER_MEMO``) — and the payload wrapped with
    ``np.frombuffer``, so the array is exactly the bytes the caller read
    (and checksummed) — no second open of the file, no memory map.
    """
    # Magic (6 bytes) and version (2), then a 2-byte header length in
    # format 1.0 and a 4-byte one in 2.0 and 3.0.
    size_bytes = 2 if data[6:7] == b"\x01" else 4
    end = 8 + size_bytes + int.from_bytes(data[8 : 8 + size_bytes], "little")
    key = data[:end]
    header = _HEADER_MEMO.get(key)
    if header is None:
        stream = io.BytesIO(data)
        version = np.lib.format.read_magic(stream)
        if version == (1, 0):
            parsed = np.lib.format.read_array_header_1_0(stream)
        else:
            parsed = np.lib.format.read_array_header_2_0(stream)
        header = (*parsed, stream.tell())
        with _HEADER_MEMO_LOCK:
            if len(_HEADER_MEMO) >= _HEADER_MEMO_CAP:
                _HEADER_MEMO.clear()
            _HEADER_MEMO[key] = header
    shape, fortran_order, dtype, offset = header
    array = np.frombuffer(data, dtype=dtype, count=math.prod(shape), offset=offset)
    return array.reshape(shape, order="F" if fortran_order else "C")


def _block_starts(
    n: int, kind: str, block_walks: int, entropy: list[int]
) -> np.ndarray:
    """Deterministic start nodes of one block (independent of the graph)."""
    if kind == KIND_PER_NODE:
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    return rng.integers(0, n, size=block_walks)


class RRSetPool:
    """An extending pool of RR sets for one ``(candidate, model)`` pair.

    Blocks of :data:`DEFAULT_RR_BLOCK` RR sets are generated with
    deterministic per-block seeds, so any two consumers asking for ``m``
    sets see the same prefix of the same sample — IMM's lower-bound rounds
    and its final θ draw extend one martingale sample instead of redrawing.
    """

    def __init__(
        self,
        graph: InfluenceGraph,
        model: str,
        root: int,
        candidate: int,
        stats: StoreStats,
        *,
        block_size: int = DEFAULT_RR_BLOCK,
    ) -> None:
        if model not in ("ic", "lt"):
            raise ValueError(f"model must be 'ic' or 'lt', got {model!r}")
        self.graph = graph
        self.model = model
        self.block_size = int(block_size)
        self._root = int(root)
        self._candidate = int(candidate)
        self._stats = stats
        self._sets: list[np.ndarray] = []

    def ensure(self, count: int) -> list[np.ndarray]:
        """At least ``count`` RR sets; returns the (shared) prefix list."""
        count = int(count)
        from repro.baselines.rrset import rr_set_ic, rr_set_lt

        make_rr = rr_set_ic if self.model == "ic" else rr_set_lt
        self._stats.rr_sets_reused += min(len(self._sets), count)
        while len(self._sets) < count:
            block_index = len(self._sets) // self.block_size
            entropy = _block_entropy(
                self._root, self._candidate, self.model, block_index
            )
            rng = np.random.default_rng(np.random.SeedSequence(entropy))
            for _ in range(self.block_size):
                root_node = int(rng.integers(0, self.graph.n))
                self._sets.append(make_rr(self.graph, root_node, rng))
                self._stats.rr_sets_generated += 1
        return self._sets[:count]


class _WalkPool:
    """All blocks of one ``(candidate, kind)`` pool plus cached masters.

    ``blocks[i]`` is the resident ``(walks, lengths)`` pair of block ``i``
    or ``None`` for a block that lives on disk only (``store_dir``
    stores): a ``None`` entry still counts as *covered* — it never
    regenerates — and is loaded lazily (read once, crc32-verified) by
    :meth:`block`, with the store-wide LRU bounding residency.
    """

    def __init__(self, store: "WalkStore", candidate: int, kind: str) -> None:
        self.store = store
        self.candidate = int(candidate)
        self.kind = kind
        n = store.state.n
        self.block_walks = n if kind == KIND_PER_NODE else store.block_walks
        self.blocks: list[tuple[np.ndarray, np.ndarray] | None] = []
        self._masters: dict[object, TruncatedWalks] = {}
        if store.store_dir is not None:
            # Adopt the contiguous prefix of blocks a previous open (or
            # another process) already persisted: they are covered, not
            # regenerated, and load lazily on first use.
            self.blocks = [None] * store._disk_prefix(self.candidate, kind)

    # ------------------------------------------------------------------
    def generate(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Generate block ``index`` in this process from its identity."""
        state = self.store.state
        return _generate_block(
            state.graph(self.candidate),
            state.stubbornness[self.candidate],
            self.store.horizon,
            self.kind,
            self.block_walks,
            _block_entropy(self.store.root, self.candidate, self.kind, index),
        )

    def ensure_walks(self, num_walks: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Generate the blocks still missing to cover ``num_walks`` walks.

        Returns the blocks this call generated, by index: the LRU may
        already have evicted some of them, and :meth:`master` serves them
        from these arrays rather than reading back what it just wrote.
        """
        stats = self.store.stats
        have = len(self.blocks)
        need = -(-int(num_walks) // self.block_walks)  # ceil division
        fresh: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if need <= have:
            stats.blocks_reused += need
            return fresh
        stats.blocks_reused += have
        renames: list[tuple[Path, Path]] = []
        try:
            for index in range(have, need):
                walks, lengths = fresh[index] = self.generate(index)
                if self.store.store_dir is not None:
                    renames += self.store._write_block(
                        self.candidate, self.kind, index, walks, lengths
                    )
                self.blocks.append((walks, lengths))
                stats.blocks_generated += 1
                stats.walks_generated += walks.shape[0]
                stats.walk_steps_generated += int(lengths.sum())
                if self.store.store_dir is not None:
                    self.store._touch_resident(self, index)
        finally:
            # Publish every block this call added, even if a later one failed.
            if renames:
                self.store._publish(renames)
        return fresh

    def block(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        """Block ``index``, loading it back from disk if evicted."""
        entry = self.blocks[index]
        if entry is None:
            entry = self.store._load_block(self.candidate, self.kind, index)
            self.blocks[index] = entry
        if self.store.store_dir is not None:
            self.store._touch_resident(self, index)
        return entry

    def master(self, num_walks: int, lam: np.ndarray | None = None) -> TruncatedWalks:
        """Pristine memoized :class:`TruncatedWalks` over ``num_walks`` walks.

        Per-node counts ``lam`` (a per-node pool, ``num_walks = max λ · n``)
        serve node ``v`` only the walks of its first ``λ_v`` rounds, node
        by node; the first-occurrence index is built once, over those.
        """
        num_walks = int(num_walks)
        key = num_walks if lam is None else lam.tobytes()
        cached = self._masters.get(key)
        if cached is not None:
            self.store.stats.blocks_reused += -(-num_walks // self.block_walks)
            return cached
        fresh = self.ensure_walks(num_walks)
        # Only the covering prefix of blocks is materialized: a small view
        # over a pool a larger consumer already escalated must not copy
        # the whole pool.
        need = -(-num_walks // self.block_walks)
        parts = [fresh[i] if i in fresh else self.block(i) for i in range(need)]
        walks = np.concatenate([b[0] for b in parts])[:num_walks]
        lengths = np.concatenate([b[1] for b in parts])[:num_walks]
        if lam is not None:
            # Node v's walks are pool walks v, n + v, ..., (λ_v − 1)·n + v.
            n = lam.size
            starts = np.repeat(np.arange(n), lam)
            rounds = np.arange(starts.size) - (np.cumsum(lam) - lam)[starts]
            rows = rounds * n + starts
            walks, lengths = np.take(walks, rows, axis=0), lengths[rows]
        state = self.store.state
        master = TruncatedWalks(
            walks,
            lengths,
            state.initial_opinions[self.candidate],
            state.n,
        )
        self.store.stats.index_builds += 1
        while len(self._masters) >= _MASTER_CACHE_CAP:
            self._masters.pop(next(iter(self._masters)))
        self._masters[key] = master
        return master


class WalkStore:
    """Persistent, memoizing, in-process store of reverse walks and RR sets.

    Parameters
    ----------
    state:
        The multi-campaign instance; pools are keyed per candidate, so one
        store can serve every target of a sweep.
    horizon:
        Walk length ``t`` — part of every pool's identity.
    seed:
        Root entropy (int, Generator, or ``None``).  A Generator is
        consumed for one draw, which is how engine specs built from the
        same ``rng`` land on the same pools.
    block_walks:
        Uniform-pool generation unit (per-node pools use ``n``).
    store_dir:
        Optional directory for on-disk persistence (the
        ``rw-store:mmap=<DIR>`` spec / CLI ``--store-dir``): generated
        blocks are written as versioned ``.npy`` files and loaded lazily
        — each part read once, crc32-verified and served from those
        bytes — so the pools survive process restarts.  Masters are
        in-RAM concatenations, so a pool must still fit in memory.  The
        directory pins the store identity in ``manifest.json``;
        re-opening with a different seed, horizon or block size raises
        instead of silently serving walks drawn from different dynamics.
    resident_blocks:
        LRU cap on loaded block arrays the pools retain between uses
        (only meaningful with ``store_dir``); evicted blocks are loaded
        again on demand.
    """

    def __init__(
        self,
        state: CampaignState,
        horizon: int,
        *,
        seed: int | np.random.Generator | None = 0,
        block_walks: int = DEFAULT_BLOCK_WALKS,
        store_dir: str | os.PathLike | None = None,
        resident_blocks: int = DEFAULT_RESIDENT_BLOCKS,
    ) -> None:
        if block_walks < 1:
            raise ValueError(f"block_walks must be >= 1, got {block_walks}")
        if int(resident_blocks) < 1:
            raise ValueError(f"resident_blocks must be >= 1, got {resident_blocks}")
        self.state = state
        self.horizon = int(horizon)
        self.root = int(ensure_rng(seed).integers(0, np.iinfo(np.int64).max))
        self.block_walks = int(block_walks)
        self.stats = StoreStats()
        self.store_dir = None if store_dir is None else Path(store_dir)
        self.resident_blocks = int(resident_blocks)
        #: Graph surgery counters the pooled walks were drawn under, one
        #: per candidate; :meth:`apply_delta` advances them, and on-disk
        #: persistence pins them in the manifest.
        self._graph_versions = [int(g.version) for g in state.graphs]
        #: crc32 per persisted block part, keyed by block stem — the
        #: manifest's integrity ledger (see ``_write_block``).
        self._checksums: dict[str, dict[str, int]] = {}
        self._resident: dict[tuple[int, str, int], _WalkPool] = {}
        self._pools: dict[tuple[int, str], _WalkPool] = {}
        self._rr_pools: dict[tuple[int, str], RRSetPool] = {}
        if self.store_dir is not None:
            self._open_store_dir()

    # ------------------------------------------------------------------
    # On-disk persistence (``store_dir``)
    # ------------------------------------------------------------------
    def _manifest(self) -> dict:
        """The identity parameters every block file name/content derives from.

        ``graph_versions`` is the delta clock: blocks on disk were drawn
        under exactly these per-candidate surgery counters.  It is *not*
        part of the immutable identity — :meth:`apply_delta` patches the
        affected blocks and advances it atomically.  ``checksums`` is the
        integrity ledger (crc32 per block part, keyed by block stem) and
        is likewise excluded from the identity comparison: it grows with
        the store and is rewritten once per batch of block writes.
        """
        return {
            "format": STORE_FORMAT,
            "root": self.root,
            "horizon": self.horizon,
            "block_walks": self.block_walks,
            "n": self.state.n,
            "graph_versions": list(self._graph_versions),
            "checksums": {
                stem: dict(parts)
                for stem, parts in sorted(self._checksums.items())
            },
        }

    def _write_manifest(self) -> None:
        path = self.store_dir / "manifest.json"
        tmp = path.with_name(f"manifest.json.tmp{os.getpid()}")
        tmp.write_text(
            json.dumps(self._manifest(), indent=2, sort_keys=True) + "\n"
        )
        os.replace(tmp, path)

    def _open_store_dir(self) -> None:
        """Create or validate the on-disk store (atomic manifest write)."""
        self.store_dir.mkdir(parents=True, exist_ok=True)
        manifest = self._manifest()
        path = self.store_dir / "manifest.json"
        if path.exists():
            existing = self._read_manifest(path)
            disk_format = existing.get("format")
            if disk_format != STORE_FORMAT:
                raise ValueError(
                    f"store at {self.store_dir} uses on-disk format "
                    f"{disk_format!r}; this build reads format "
                    f"{STORE_FORMAT} only (the store is a regenerable "
                    "cache: point at a fresh directory)"
                )
            volatile = ("graph_versions", "checksums")
            identity = {k: v for k, v in manifest.items() if k not in volatile}
            disk_identity = {
                k: v for k, v in existing.items() if k not in volatile
            }
            if disk_identity != identity:
                diffs = ", ".join(
                    f"{key}: disk={existing.get(key)!r} != ours={value!r}"
                    for key, value in identity.items()
                    if existing.get(key) != value
                )
                raise ValueError(
                    f"store at {self.store_dir} was created with a different "
                    f"identity ({diffs}); reuse the original seed/horizon/"
                    "block_walks or point at a fresh directory"
                )
            if existing.get("graph_versions") != manifest["graph_versions"]:
                raise ValueError(
                    f"store at {self.store_dir} holds walks drawn at graph "
                    f"versions {existing.get('graph_versions')} but the "
                    f"current graphs are at {manifest['graph_versions']}; "
                    "open the store before mutating the graphs and forward "
                    "the delta through WalkStore.apply_delta, or point at a "
                    "fresh directory"
                )
            checksums = existing.get("checksums", {})
            if not isinstance(checksums, dict) or not all(
                isinstance(parts, dict)
                and all(type(crc) is int for crc in parts.values())
                for parts in checksums.values()
            ):
                raise ValueError(
                    f"store at {self.store_dir} has a malformed checksum "
                    "ledger in manifest.json (expected block stem -> part "
                    "-> integer crc32); point at a fresh directory"
                )
            self._checksums = {stem: dict(parts) for stem, parts in checksums.items()}
        else:
            self._write_manifest()

    def _read_manifest(self, path: Path) -> dict:
        """Parse ``manifest.json``: a JSON object, or a ValueError naming
        the store (never a bare decode or attribute error)."""
        try:
            existing = json.loads(path.read_text())
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValueError(
                f"store at {self.store_dir} has an unreadable manifest.json "
                f"({exc}); point at a fresh directory"
            ) from exc
        if not isinstance(existing, dict):
            raise ValueError(
                f"store at {self.store_dir} has a manifest.json that is not "
                f"a JSON object (got {type(existing).__name__}); point at a "
                "fresh directory"
            )
        return existing

    def _block_stem(self, candidate: int, kind: str, index: int) -> str:
        """Checksum-ledger key of one block: its identity, minus the part."""
        return (
            f"c{int(candidate)}-k{_KIND_CODES[kind]}-h{self.horizon}"
            f"-b{int(index):06d}"
        )

    @staticmethod
    def _part_name(stem: str, part: str) -> str:
        """File name of one part of the block with ledger key ``stem``."""
        return f"{stem}.{part}.npy"

    def _block_path(self, candidate: int, kind: str, index: int, part: str) -> Path:
        """Deterministic block file name: one identity, one path, forever."""
        return self.store_dir / self._part_name(
            self._block_stem(candidate, kind, index), part
        )

    def _disk_prefix(self, candidate: int, kind: str) -> int:
        """Number of contiguous complete blocks already on disk, read
        from one listing of ``store_dir``."""
        names = set(os.listdir(self.store_dir))
        count = 0
        while all(
            self._part_name(self._block_stem(candidate, kind, count), part) in names
            for part in ("walks", "lengths")
        ):
            count += 1
        return count

    def _write_block(
        self,
        candidate: int,
        kind: str,
        index: int,
        walks: np.ndarray,
        lengths: np.ndarray,
    ) -> list[tuple[Path, Path]]:
        """Stage one block: write its parts to tmp files, ledger their crc32s.

        The crc32 of every part's exact file bytes lands in the manifest
        ledger, so a later load can prove the bytes it serves are the
        bytes this store wrote — and regenerate the block in place if
        not (see ``_repair_block``).  Returns the ``(tmp, final)`` renames
        that :meth:`_publish` applies once the ledger is on disk.
        """
        checksums: dict[str, int] = {}
        renames = []
        for part, array in (("walks", walks), ("lengths", lengths)):
            path = self._block_path(candidate, kind, index, part)
            buffer = io.BytesIO()
            np.save(buffer, array)
            data = buffer.getvalue()
            checksums[part] = zlib.crc32(data)
            tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
            tmp.write_bytes(data)
            renames.append((tmp, path))
        self._checksums[self._block_stem(candidate, kind, index)] = checksums
        self.stats.blocks_written += 1
        return renames

    def _publish(self, renames: list[tuple[Path, Path]]) -> None:
        """Write the ledger once, then rename the staged block files into
        place (atomic, idempotent bytes): a visible block file always has
        its ledger entry, and a batch of B blocks costs one manifest write.
        """
        self._write_manifest()
        for tmp, path in renames:
            os.replace(tmp, path)

    def _load_block(
        self, candidate: int, kind: str, index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Load one persisted block: one read per part, verified, served.

        Every part is read once and its crc32 checked against the
        manifest ledger; the read-only arrays are views of those same
        bytes, so a file changed after the check cannot reach the pool.
        A mismatch (bit rot, torn write, injected corruption) quarantines
        the damaged files and serves the block regenerated in place from
        its deterministic identity — see ``_repair_block``.
        """
        stem = self._block_stem(candidate, kind, index)
        paths = {
            part: self.store_dir / self._part_name(stem, part)
            for part in ("walks", "lengths")
        }
        spec = faults.maybe_fail(
            "store-corrupt-block",
            candidate=int(candidate),
            kind=kind,
            block=int(index),
        )
        if spec is not None:
            plan = faults.active()
            faults.corrupt_file(
                paths["walks"],
                plan.rng(int(candidate), _KIND_CODES[kind], int(index)),
            )
        recorded = self._checksums.get(stem, {})
        damaged = False
        payloads = []
        for part, path in paths.items():
            data = path.read_bytes()
            crc = zlib.crc32(data)
            if part not in recorded:
                # Block written by a concurrent pre-checksum writer
                # after this store's manifest snapshot: adopt it.
                self._checksums.setdefault(stem, {})[part] = crc
            elif recorded[part] != crc:
                damaged = True
            payloads.append(data)
        if damaged:
            walks, lengths = self._repair_block(candidate, kind, index)
        else:
            walks, lengths = (_npy_array(data) for data in payloads)
        self.stats.blocks_loaded += 1
        return walks, lengths

    def _repair_block(
        self, candidate: int, kind: str, index: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Quarantine a corrupt block and regenerate it from its identity.

        Block content is a pure function of the block identity, so the
        repaired bytes must reproduce the ledger checksums exactly —
        repair is verified, not assumed — and the regenerated arrays are
        what the caller serves.  The damaged files stay next to the store
        as ``*.quarantined`` for post-mortems.
        """
        stem = self._block_stem(candidate, kind, index)
        recorded = dict(self._checksums.get(stem, {}))
        for part in ("walks", "lengths"):
            path = self._block_path(candidate, kind, index, part)
            if path.exists():
                os.replace(path, path.with_name(f"{path.name}.quarantined"))
        self.stats.blocks_quarantined += 1
        walks, lengths = self.pool(candidate, kind).generate(index)
        self.stats.blocks_generated += 1
        self.stats.walks_generated += walks.shape[0]
        self.stats.walk_steps_generated += int(lengths.sum())
        self._publish(self._write_block(candidate, kind, index, walks, lengths))
        self.stats.blocks_repaired += 1
        fresh = self._checksums.get(stem, {})
        if recorded and fresh != recorded:
            raise ValueError(
                f"repaired block {stem} does not reproduce its recorded "
                f"checksums (expected {recorded}, regenerated {fresh}); "
                "the walks this store was built with no longer match its "
                "identity — point at a fresh directory"
            )
        return walks, lengths

    def _touch_resident(self, pool: _WalkPool, index: int) -> None:
        """LRU-track a resident block; evict the coldest past the cap.

        Eviction only drops the pool's reference (the entry goes back to
        ``None``); any master or caller still holding the arrays keeps
        them alive, so eviction is always safe mid-materialization.
        """
        key = (pool.candidate, pool.kind, int(index))
        self._resident.pop(key, None)
        self._resident[key] = pool
        while len(self._resident) > self.resident_blocks:
            (cand, kind, evicted), owner = next(iter(self._resident.items()))
            del self._resident[(cand, kind, evicted)]
            owner.blocks[evicted] = None

    # ------------------------------------------------------------------
    # Delta invalidation (FJVoteProblem.apply_delta reports)
    # ------------------------------------------------------------------
    def apply_delta(self, report) -> None:
        """Patch pooled walks after a graph/opinion delta (idempotent).

        Edge churn for candidate ``q`` invalidates exactly the walks that
        drew a transition *out of* a touched column (a reverse walk
        consults column ``v`` only when it steps out of ``v`` before
        terminating); every block containing at least one such walk is
        patched in place by regenerating those walks from their per-walk
        uniform streams — and, for ``store_dir`` stores, rewritten on
        disk — so a patched pool is byte-identical to one generated from
        scratch under the post-delta graph.  Opinion-only deltas leave every
        block byte intact and merely drop the cached masters (their
        per-walk values embed ``B⁰``).

        Idempotent per candidate graph version, so engines sharing this
        store can each forward the same :class:`DeltaReport`; distinct
        reports must be forwarded in the order the deltas were applied.
        """
        state = self.state
        todo: dict[int, np.ndarray] = {}
        for cand, touched in report.touched_by_candidate.items():
            cand = int(cand)
            if self._graph_versions[cand] == int(state.graph(cand).version):
                continue  # this delta already patched these pools
            touched = np.asarray(touched, dtype=np.int64)
            if touched.size:
                todo[cand] = touched
        dirty_b0 = {int(cand) for cand in report.opinions_by_candidate}
        for cand in sorted(dirty_b0 | set(todo)):
            for kind in (KIND_PER_NODE, KIND_UNIFORM):
                pool = self._pools.get((cand, kind))
                if pool is not None:
                    pool._masters.clear()
        if not todo:
            return
        renames: list[tuple[Path, Path]] = []
        for cand, touched in sorted(todo.items()):
            lookup = np.zeros(state.n, dtype=bool)
            lookup[touched] = True
            for kind in (KIND_PER_NODE, KIND_UNIFORM):
                pool = self._pools.get((cand, kind))
                if pool is None:
                    if self.store_dir is None or not self._disk_prefix(
                        cand, kind
                    ):
                        continue
                    pool = self.pool(cand, kind)
                pool._masters.clear()
                for index in range(len(pool.blocks)):
                    renames += self._patch_block(pool, index, lookup)
            # RR-set pools sample the graph directly; regenerate lazily.
            self._rr_pools.pop((cand, "ic"), None)
            self._rr_pools.pop((cand, "lt"), None)
            self._graph_versions[cand] = int(state.graph(cand).version)
        if self.store_dir is not None:
            self._publish(renames)

    def _patch_block(
        self,
        pool: _WalkPool,
        index: int,
        touched_lookup: np.ndarray,
    ) -> list[tuple[Path, Path]]:
        """Regenerate the walks of one block that crossed a touched column.

        Returns the staged renames of a patched ``store_dir`` block (see
        :meth:`_write_block`); :meth:`apply_delta` publishes them all at once.
        """
        entry = pool.blocks[index]
        from_disk = entry is None
        if from_disk:
            entry = self._load_block(pool.candidate, pool.kind, index)
        walks, lengths = entry
        width = walks.shape[1]
        # A walk consulted column v only where it stepped out of v:
        # padded tail positions and the end node drew no transition.
        trans = np.arange(width)[None, :] < np.asarray(lengths)[:, None]
        hit = trans & touched_lookup[np.where(trans, walks, 0)]
        invalid = np.where(hit.any(axis=1))[0]
        if invalid.size == 0:
            if from_disk:
                pool.blocks[index] = None  # inspection only; LRU untouched
            return []
        state = self.state
        entropy = _block_entropy(self.root, pool.candidate, pool.kind, index)
        new_walks, new_lengths = generate_reverse_walks_streamed(
            state.graph(pool.candidate),
            state.stubbornness[pool.candidate],
            self.horizon,
            walks[invalid, 0].astype(np.int64),
            entropy,
            stream_indices=invalid,
        )
        patched_walks = np.array(walks)
        patched_lengths = np.array(lengths, dtype=np.int64)
        patched_walks[invalid] = new_walks
        patched_lengths[invalid] = new_lengths
        pool.blocks[index] = (patched_walks, patched_lengths)
        self.stats.blocks_invalidated += 1
        self.stats.walks_patched += int(invalid.size)
        self.stats.walk_steps_generated += int(new_lengths.sum())
        if self.store_dir is None:
            return []
        renames = self._write_block(
            pool.candidate, pool.kind, index, patched_walks, patched_lengths
        )
        self._touch_resident(pool, index)
        return renames

    # ------------------------------------------------------------------
    # Pools and views
    # ------------------------------------------------------------------
    def require_problem(self, problem) -> None:
        """Raise unless ``problem`` is the instance this store samples.

        Pools are keyed only by ``(candidate, kind)`` — the graph,
        stubbornness and horizon are fixed at construction — so serving a
        problem with different state would silently return walks drawn
        from the wrong dynamics.  Every consumer that accepts an external
        store calls this first.
        """
        if problem.state is not self.state or int(problem.horizon) != self.horizon:
            raise ValueError(
                "walk store is bound to a different campaign state or "
                "horizon; build one with store_for_problem(problem)"
            )

    def pool(self, candidate: int, kind: str) -> _WalkPool:
        """The walk pool for ``(candidate, kind)``, created on first use."""
        if kind not in (KIND_PER_NODE, KIND_UNIFORM):
            raise ValueError(
                f"kind must be {KIND_PER_NODE!r} or {KIND_UNIFORM!r}, got {kind!r}"
            )
        candidate = int(candidate)
        if not 0 <= candidate < self.state.r:
            raise ValueError(f"unknown candidate index {candidate}")
        key = (candidate, kind)
        found = self._pools.get(key)
        if found is None:
            found = self._pools[key] = _WalkPool(self, candidate, kind)
        return found

    def _view(
        self, pool: _WalkPool, num_walks: int, lam: np.ndarray | None = None
    ) -> TruncatedWalks:
        master = pool.master(num_walks, lam)
        self.stats.views_served += 1
        return master.share()

    def per_node_view(
        self, candidate: int, walks_per_node: int | np.ndarray
    ) -> TruncatedWalks:
        """A ``walks_per_node``-per-node view (Algorithm 4 grouping).

        ``walks_per_node`` is one count for every node or a per-node
        array ``λ``.  Per-node block ``j`` holds round ``j`` (one walk
        from every node), so node ``v`` gets the walks of its first
        ``λ_v`` rounds: of the first ``max λ`` rounds, pool walk ``i`` is
        served iff ``i // n < λ[i % n]``.  An array view is therefore a
        per-node prefix of every larger view over the same pool.  It
        lists the walks node by node (a uniform count lists them round
        by round); estimates, gains and the cost of a greedy round do
        not depend on that order.

        The view is a copy-on-write clone of the cached master: truncating
        it (seed commits) never touches the stored blocks, so the next
        session starts pristine without regenerating or re-indexing.
        """
        lam = check_count(walks_per_node, "walks_per_node")
        n = self.state.n
        pool = self.pool(candidate, KIND_PER_NODE)
        if np.ndim(lam) == 0:
            return self._view(pool, lam * n)
        if lam.shape != (n,):
            raise ValueError(f"walks_per_node must be a scalar or shape ({n},)")
        rounds = int(lam.max())
        if np.all(lam == rounds):
            return self._view(pool, rounds * n)
        return self._view(pool, rounds * n, lam)

    def uniform_view(self, candidate: int, theta: int) -> TruncatedWalks:
        """A θ-walk uniform-start sketch view (Algorithm 5 grouping)."""
        theta = check_positive(check_index(theta, "theta"), "theta")
        pool = self.pool(candidate, KIND_UNIFORM)
        return self._view(pool, theta)

    def rr_pool(self, candidate: int, model: str) -> RRSetPool:
        """The RR-set pool for ``(candidate, model)`` (IC/LT baselines)."""
        candidate = int(candidate)
        if not 0 <= candidate < self.state.r:
            raise ValueError(f"unknown candidate index {candidate}")
        key = (candidate, model)
        found = self._rr_pools.get(key)
        if found is None:
            found = self._rr_pools[key] = RRSetPool(
                self.state.graph(candidate),
                model,
                self.root,
                candidate,
                self.stats,
            )
        return found

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WalkStore(pools={len(self._pools)}, "
            f"blocks={sum(len(p.blocks) for p in self._pools.values())})"
        )


def store_for_problem(
    problem,
    *,
    seed: int | np.random.Generator | None = 0,
    **kwargs: object,
) -> WalkStore:
    """Build a store bound to ``problem``'s state and horizon."""
    return WalkStore(problem.state, problem.horizon, seed=seed, **kwargs)


__all__ = [
    "DEFAULT_BLOCK_WALKS",
    "KIND_PER_NODE",
    "KIND_UNIFORM",
    "RRSetPool",
    "StoreStats",
    "WalkStore",
    "store_for_problem",
]
