"""Tests for the five voting scores, pinned to the paper's Table I."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.voting.scores import (
    CopelandScore,
    CumulativeScore,
    PApprovalScore,
    PluralityScore,
    PositionalPApprovalScore,
    SeparableScore,
    VotingScore,
    make_score,
)

# Opinions at t=1 in the running example (no seeds): c1 row from Table I,
# c2 row from the caption.
_EXAMPLE_OPINIONS = np.array(
    [
        [0.40, 0.80, 0.60, 0.75],
        [0.35, 0.75, 0.78, 0.90],
    ]
)


def test_cumulative_matches_table1():
    assert CumulativeScore().evaluate(_EXAMPLE_OPINIONS, 0) == pytest.approx(2.55)


def test_plurality_matches_table1():
    assert PluralityScore().evaluate(_EXAMPLE_OPINIONS, 0) == 2
    assert PluralityScore().evaluate(_EXAMPLE_OPINIONS, 1) == 2


def test_copeland_matches_table1():
    assert CopelandScore().evaluate(_EXAMPLE_OPINIONS, 0) == 0
    assert CopelandScore().evaluate(_EXAMPLE_OPINIONS, 1) == 0


def test_copeland_with_clear_winner():
    opinions = np.array([[0.9, 0.9, 0.2], [0.1, 0.5, 0.1], [0.2, 0.1, 0.9]])
    assert CopelandScore().evaluate(opinions, 0) == 2
    assert CopelandScore().evaluate(opinions, 1) == 0


def test_p_approval_counts_top_p():
    # 3 candidates; with p=2 candidate 0 is in the top 2 for users 0 and 1
    # (ranks 2, 2, 3 respectively).
    opinions = np.array([[0.5, 0.6, 0.1], [0.9, 0.7, 0.5], [0.1, 0.45, 0.5]])
    assert PApprovalScore(2, 3).evaluate(opinions, 0) == 2
    assert PApprovalScore(3, 3).evaluate(opinions, 0) == 3


def test_plurality_equals_one_approval():
    rng = np.random.default_rng(0)
    opinions = rng.random((4, 25))
    for q in range(4):
        assert PluralityScore().evaluate(opinions, q) == PApprovalScore(1, 4).evaluate(
            opinions, q
        )


def test_positional_weights_applied():
    opinions = np.array([[0.9, 0.4], [0.5, 0.8]])
    score = PositionalPApprovalScore(2, np.array([1.0, 0.25]))
    # User 0 ranks target first (weight 1), user 1 ranks it second (0.25).
    assert score.evaluate(opinions, 0) == pytest.approx(1.25)


def test_positional_reduces_to_p_approval_at_weight_one():
    rng = np.random.default_rng(2)
    opinions = rng.random((5, 40))
    positional = PositionalPApprovalScore(3, np.ones(5))
    approval = PApprovalScore(3, 5)
    for q in range(5):
        assert positional.evaluate(opinions, q) == pytest.approx(
            approval.evaluate(opinions, q)
        )


def test_positional_weight_validation():
    with pytest.raises(ValueError, match="non-increasing"):
        PositionalPApprovalScore(2, np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        PositionalPApprovalScore(2, np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="at least p"):
        PositionalPApprovalScore(3, np.array([1.0]))
    with pytest.raises(ValueError, match=">= 1"):
        PositionalPApprovalScore(0, np.array([1.0]))


def test_weight_at():
    score = PositionalPApprovalScore(2, np.array([1.0, 0.5]))
    assert score.weight_at(1) == 1.0
    assert score.weight_at(2) == 0.5
    assert score.weight_at(3) == 0.0


def test_evaluate_all_shape():
    values = CumulativeScore().evaluate_all(_EXAMPLE_OPINIONS)
    np.testing.assert_allclose(values, [2.55, 2.78])


def test_make_score_factory():
    assert isinstance(make_score("cumulative"), CumulativeScore)
    assert isinstance(make_score("plurality"), PluralityScore)
    assert isinstance(make_score("copeland"), CopelandScore)
    assert make_score("p-approval", p=2).p == 2
    assert make_score("positional-p-approval", p=2, weights=np.array([1, 0.5])).p == 2
    with pytest.raises(ValueError):
        make_score("borda")
    with pytest.raises(ValueError):
        make_score("p-approval")
    with pytest.raises(ValueError):
        make_score("positional-p-approval", p=2)


def test_copeland_validates_candidate():
    with pytest.raises(ValueError):
        CopelandScore().evaluate(_EXAMPLE_OPINIONS, 7)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000), r=st.integers(2, 5), n=st.integers(1, 30))
def test_property_score_bounds(seed, r, n):
    """Cumulative <= n; plurality/p-approval <= n; Copeland <= r-1."""
    rng = np.random.default_rng(seed)
    opinions = rng.random((r, n))
    for q in range(r):
        assert 0 <= CumulativeScore().evaluate(opinions, q) <= n
        assert 0 <= PluralityScore().evaluate(opinions, q) <= n
        assert 0 <= CopelandScore().evaluate(opinions, q) <= r - 1


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000))
def test_property_plurality_sums_at_most_n(seed):
    """At most one candidate can be a user's strict favorite."""
    rng = np.random.default_rng(seed)
    opinions = rng.random((4, 20))
    total = sum(PluralityScore().evaluate(opinions, q) for q in range(4))
    assert total <= 20


class _SquaredScore(SeparableScore):
    """A separable score with no vectorized path of its own."""

    def contributions(self, values, others_by_user):
        return np.asarray(values) ** 2 - others_by_user.min(axis=1)


class _WeightedSumScore(VotingScore):
    """A non-separable score with only ``evaluate``."""

    def evaluate(self, opinions, q):
        return float(np.sum(opinions[q] * np.arange(opinions.shape[1])))


@pytest.mark.parametrize(
    "score",
    [
        CumulativeScore(),
        PluralityScore(),
        PApprovalScore(2),
        PositionalPApprovalScore(2, np.array([1.0, 0.5])),
        CopelandScore(),
        _SquaredScore(),
        _WeightedSumScore(),
    ],
    ids=lambda score: type(score).__name__,
)
def test_column_batches_match_per_matrix_evaluate(score):
    """``score_targets_T`` (and ``contributions_batch_T`` for separable
    scores) score each column of a users-by-sets block exactly as
    ``evaluate`` scores the full opinion matrix with that column as the
    target row; the base classes' per-column loops are the fallback."""
    rng = np.random.default_rng(3)
    n, r, c = 9, 4, 5
    others = rng.random((n, r - 1))
    values_T = rng.random((n, c))
    values_T[:2, 0] = others[:2, 0]  # ties count against the target
    expected = [
        score.evaluate(np.vstack([values_T[:, i], others.T]), 0) for i in range(c)
    ]
    np.testing.assert_allclose(
        score.score_targets_T(values_T, others), expected, rtol=0, atol=1e-12
    )
    if isinstance(score, SeparableScore):
        contrib = np.asarray(score.contributions_batch_T(values_T, others))
        assert contrib.shape == (n, c)
        for i in range(c):
            np.testing.assert_array_equal(
                contrib[:, i], score.contributions(values_T[:, i], others)
            )
