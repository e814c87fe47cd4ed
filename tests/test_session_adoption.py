"""Adopted commits: a ``BatchedDMSession`` commit that follows a
one-candidate ``marginal_gains`` of the same seed takes the trajectory
that evaluation recorded instead of evolving the seed again.

The adopted trajectory must be bitwise what ``extend_trajectory`` builds,
and adoption must never outlive what it depends on: another gains call,
another commit or a delta in between makes the commit evolve again.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import BatchedDMEngine
from repro.core.problem import FJVoteProblem
from repro.voting.scores import CumulativeScore, PluralityScore
from tests.conftest import random_instance


def _problem(score=None, seed=3) -> FJVoteProblem:
    state = random_instance(n=24, r=3, seed=seed)
    return FJVoteProblem(state, 0, 6, score or CumulativeScore())


def _extended(engine, session, seed) -> np.ndarray:
    """What a commit of ``seed`` that does not adopt builds."""
    return engine.extend_trajectory(
        session._traj.copy(),
        np.asarray(session.seeds, dtype=np.int64),
        np.array([seed], dtype=np.int64),
    )


@pytest.mark.parametrize("score", [CumulativeScore(), PluralityScore()])
def test_adopted_commit_is_extend_trajectory_bytes(score):
    problem = _problem(score)
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    for seed in (5, 17, 2, 11):
        expected = _extended(engine, session, seed)
        gain = float(session.marginal_gains([seed])[0])
        steps = engine.stats.trajectory_steps
        session.commit(seed, gain=gain)
        assert engine.stats.trajectory_steps == steps
        assert session._traj.tobytes() == expected.tobytes()
    # The same commits, every one evolved, reach the same bytes and value.
    steps = engine.stats.trajectory_steps
    reference = engine.open_session()
    for seed in session.seeds:
        reference.commit(seed)
    assert reference._traj.tobytes() == session._traj.tobytes()
    assert reference.value == session.value
    assert engine.stats.trajectory_steps == steps + 4 * problem.horizon


def test_adopted_commit_without_gain_scores_the_adopted_row():
    problem = _problem()
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    gain = float(session.marginal_gains([7])[0])
    before = session.value
    assert session.commit(7) == before + gain
    assert engine.stats.trajectory_steps == 0


def test_commit_of_another_seed_evolves():
    problem = _problem()
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    session.marginal_gains([4])
    expected = _extended(engine, session, 9)
    steps = engine.stats.trajectory_steps
    session.commit(9)
    assert engine.stats.trajectory_steps == steps + problem.horizon
    assert session._traj.tobytes() == expected.tobytes()


@pytest.mark.parametrize("between", ["wide", "other", "empty"])
def test_a_gains_call_in_between_drops_the_kept_trajectory(between):
    problem = _problem()
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    session.commit(1)
    session.marginal_gains([4])
    if between == "wide":
        session.marginal_gains([4, 6])
    elif between == "other":
        session.marginal_gains([6])
    else:
        session.marginal_gains([])
    expected = _extended(engine, session, 4)
    steps = engine.stats.trajectory_steps
    session.commit(4)
    assert engine.stats.trajectory_steps == steps + problem.horizon
    assert session._traj.tobytes() == expected.tobytes()


def test_a_second_commit_does_not_adopt_again():
    problem = _problem()
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    session.marginal_gains([4])
    session.commit(4)
    steps = engine.stats.trajectory_steps
    session.commit(8)
    assert engine.stats.trajectory_steps == steps + problem.horizon


def test_target_delta_between_evaluation_and_commit_drops_it():
    """A delta on the target's graph invalidates the recorded trajectory:
    the commit evolves against the patched problem, bitwise what a session
    opened on it after the delta commits."""
    problem = _problem()
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    session.commit(3)
    session.marginal_gains([8])
    sources, weights = problem.state.graph(0).in_neighbors(8)
    edge = (int(sources[0]), 8, float(weights[0]) * 3.0)
    engine.apply_delta(problem.apply_delta(edges_added=[edge]))
    session.commit(8)
    reference = BatchedDMEngine(problem).open_session()
    reference.commit(3)
    reference.commit(8)
    assert session._traj.tobytes() == reference._traj.tobytes()
    assert session.value == reference.value


@pytest.mark.parametrize("bad", [[1.5], [True], np.array([2.0])])
def test_invalid_single_candidate_raises_and_keeps_nothing(bad):
    problem = _problem()
    engine = BatchedDMEngine(problem)
    session = engine.open_session()
    session.marginal_gains([1])
    with pytest.raises(ValueError, match="must be integers"):
        session.marginal_gains(bad)
    with pytest.raises(ValueError, match="out of range"):
        session.marginal_gains([problem.n])
    steps = engine.stats.trajectory_steps
    session.commit(1)
    assert engine.stats.trajectory_steps == steps + problem.horizon


def test_cached_trajectories_are_never_written():
    """The session's first trajectory is the problem's cached array and
    win-min probes cache their own; adopted commits swap the session's two
    buffers and leave both caches' bytes alone."""
    problem = _problem()
    engine = BatchedDMEngine(problem)
    base = problem.target_trajectory()
    base_bytes = base.tobytes()
    session = engine.open_session()
    assert session._traj is base
    for seed in (5, 17):
        session.commit(seed, gain=float(session.marginal_gains([seed])[0]))
    session.prefix_wins(1)
    probes = {k: v.tobytes() for k, v in session._probe_cache.items()}
    assert probes
    for seed in (2, 11, 20):
        session.commit(seed, gain=float(session.marginal_gains([seed])[0]))
        session.marginal_gains([0])
    assert base.tobytes() == base_bytes
    assert {k: v.tobytes() for k, v in session._probe_cache.items()} == probes
    assert all(v is not session._traj for v in session._probe_cache.values())


def test_one_candidate_calls_reuse_one_spare():
    """A session that never commits (a serving prefix) records every
    one-candidate call into the same spare buffer."""
    problem = _problem()
    engine = BatchedDMEngine(problem)
    session = engine.open_session((2,))
    session.marginal_gains([5])
    spare = session._spare
    for v in (6, 7, 8):
        session.marginal_gains([v])
        assert session._spare is spare
    session.commit(8)
    assert session._traj is spare
    # A wide call releases the spare rather than hold it beside its blocks.
    session.marginal_gains([5, 6])
    assert session._spare is None
    session.marginal_gains([5])
    session.commit(5)
    assert engine.stats.trajectory_steps == 0
