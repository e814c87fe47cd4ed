#!/usr/bin/env python3
"""Persistent walk store: two invocations sharing one on-disk store.

The persistent walk store (``WalkStore(store_dir=...)``, CLI
``--store-dir``) persists every generated walk block as a ``.npy`` shard
keyed by its deterministic identity.  This script simulates two separate
CLI invocations — the same selection run twice, each through a *freshly
opened* store over one directory — and prints the cold vs. warm
``StoreStats`` counters: the first run generates and persists every
block, the second regenerates **zero** and serves byte-identical walks
(hence byte-identical seeds) from the verified block files.

The equivalent CLI pair is:

    python -m repro select --dataset yelp --users 400 --method rw \
        --score cumulative -k 4 --seed 7 --store-dir /tmp/walk-pools
    python -m repro select --dataset yelp --users 400 --method rw \
        --score cumulative -k 4 --seed 7 --store-dir /tmp/walk-pools

Run:  PYTHONPATH=src python examples/persistent_store.py
"""

import tempfile
from pathlib import Path

from repro.core.engine import make_engine
from repro.core.greedy import greedy_engine
from repro.core.walk_store import WalkStore
from repro.datasets.yelp import yelp_like
from repro.voting.scores import CumulativeScore


def run_once(problem, store_dir: Path, label: str):
    """One 'CLI invocation': open the store, select seeds, report counters."""
    store = WalkStore(
        problem.state, problem.horizon, seed=7, store_dir=store_dir
    )
    engine = make_engine(
        "rw-store",
        problem,
        store=store,
        walks_per_node=16,
        epsilon=None,
    )
    result = greedy_engine(engine, 4)
    stats = store.stats
    print(f"{label} run:")
    print(f"  seeds     : {result.seeds.tolist()}")
    print(f"  objective : {result.objective:.4f}")
    print(
        f"  store     : generated={stats.blocks_generated} "
        f"written={stats.blocks_written} loaded={stats.blocks_loaded} "
        f"reused={stats.blocks_reused} "
        f"walk-steps={stats.walk_steps_generated}"
    )
    return result


def main() -> None:
    dataset = yelp_like(n=400, r=6, rng=7, horizon=10)
    problem = dataset.problem(CumulativeScore())
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp) / "walk-pools"
        cold = run_once(problem, store_dir, "cold")
        shards = sorted(p.name for p in store_dir.glob("*.npy"))
        print(f"\non disk: manifest.json + {len(shards)} shard files, e.g.")
        for name in shards[:3]:
            print(f"  {name}")
        print()
        warm = run_once(problem, store_dir, "warm")
        assert warm.seeds.tolist() == cold.seeds.tolist()
        print(
            "\nwarm re-open regenerated 0 blocks and selected identical "
            "seeds — the pools survived the 'restart'."
        )


if __name__ == "__main__":
    main()
