"""Integration tests for the harness, metrics, reporting, and case study."""

import numpy as np
import pytest

from repro.datasets.dblp import dblp_like
from repro.datasets.yelp import yelp_like
from repro.eval.case_study import acm_election_case_study
from repro.eval.harness import METHOD_NAMES, run_methods, select_seeds
from repro.eval.metrics import relative_score, seed_overlap
from repro.eval.reporting import format_series, format_table
from repro.voting.scores import PluralityScore


@pytest.fixture(scope="module")
def small_dataset():
    return yelp_like(n=150, r=3, rng=0, horizon=4)


@pytest.fixture(scope="module")
def small_problem(small_dataset):
    return small_dataset.problem(PluralityScore())


FAST_KWARGS = {
    "rw": {"lambda_cap": 8},
    "rs": {"theta": 200},
    "ic": {"theta_cap": 2000},
    "lt": {"theta_cap": 2000},
}


@pytest.mark.parametrize("method", METHOD_NAMES)
def test_every_method_returns_k_distinct_seeds(small_problem, method):
    seeds = select_seeds(method, small_problem, 4, rng=1, **FAST_KWARGS.get(method, {}))
    assert seeds.size == 4
    assert len(set(seeds.tolist())) == 4
    assert seeds.min() >= 0 and seeds.max() < small_problem.n


def test_select_seeds_unknown_method(small_problem):
    with pytest.raises(ValueError):
        select_seeds("oracle", small_problem, 2)


def test_run_methods_structure(small_problem):
    runs = run_methods(
        small_problem,
        ks=[2, 4],
        methods=["rw", "dc"],
        rng=2,
        method_kwargs=FAST_KWARGS,
    )
    assert len(runs) == 4
    assert {r.method for r in runs} == {"rw", "dc"}
    for r in runs:
        assert r.seconds >= 0
        assert r.score_value >= 0
        assert r.seeds.size == r.k


def test_seed_overlap_metric():
    assert seed_overlap(np.array([1, 2, 3]), np.array([2, 3, 4])) == pytest.approx(2 / 3)
    assert seed_overlap(np.array([]), np.array([])) == 1.0
    assert seed_overlap(np.array([1]), np.array([2])) == 0.0


def test_relative_score():
    assert relative_score(5.0, 10.0) == 0.5
    assert relative_score(0.0, 0.0) == 1.0
    assert relative_score(1.0, 0.0) == float("inf")


def test_format_table_alignment():
    out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
    lines = out.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "bb" in lines[0]
    assert "-" in lines[1]


def test_format_series():
    out = format_series("k", [1, 2], {"rw": [0.1, 0.2], "dm": [0.3, 0.4]})
    assert "rw" in out and "dm" in out and "k" in out


def test_case_study_structure():
    ds = dblp_like(n=250, rng=4, horizon=5)
    result = acm_election_case_study(ds, k=10, rng=5, lambda_cap=8)
    assert result.votes_after >= result.votes_before
    assert len(result.rows) == 7
    assert 0.0 <= result.neutral_fraction_of_switchers <= 1.0
    for row in result.rows:
        assert 0 <= row.votes_without_seeds <= row.total_users
        assert 0 <= row.votes_with_seeds <= row.total_users
        assert 0 <= row.pct_without <= 100
    assert 0 < result.share_after <= 100


def test_case_study_requires_domains(small_dataset):
    with pytest.raises(ValueError):
        acm_election_case_study(small_dataset, k=5)


def test_run_methods_store_must_live_in_the_spec_mmap_dir(tmp_path):
    """A shared ``store=`` composes with ``rw-store:<S>`` specs and with an
    ``:mmap=<DIR>`` spec naming its own directory; a spec naming another
    directory is refused instead of opening a second store."""
    from repro.core.problem import FJVoteProblem
    from repro.core.walk_store import store_for_problem
    from tests.conftest import random_instance

    state = random_instance(n=12, r=2, seed=9)
    problem = FJVoteProblem(state, 0, 3, PluralityScore())
    directory = tmp_path / "pools"
    store = store_for_problem(problem, store_dir=directory)
    for spec in ("rw-store:2", f"rw-store:2:mmap={directory}"):
        runs = run_methods(problem, [2], ["dm"], rng=1, engine=spec, store=store)
        assert len(runs) == 1 and runs[0].seeds.size == 2
    with pytest.raises(ValueError, match="store_dir conflicts"):
        run_methods(
            problem,
            [2],
            ["dm"],
            rng=1,
            engine=f"rw-store:2:mmap={tmp_path / 'other'}",
            store=store,
        )
