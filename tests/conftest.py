"""Shared fixtures: the paper's running example and small random instances."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.engine_net import run_net_worker
from repro.core.problem import FJVoteProblem
from repro.core.random_walk import TruncatedWalks, generate_reverse_walks_streamed
from repro.datasets.example import running_example
from repro.graph.build import graph_from_edges
from repro.opinion.state import CampaignState
from repro.voting.scores import VotingScore


@pytest.fixture
def example_dataset():
    """The Fig. 1 running example (4 users, 2 candidates, t=1)."""
    return running_example()


@pytest.fixture
def example_problem_factory(example_dataset):
    """Factory: a running-example problem for any score."""

    def make(score: VotingScore) -> FJVoteProblem:
        return example_dataset.problem(score)

    return make


def random_instance(
    n: int = 12,
    r: int = 3,
    *,
    density: float = 0.25,
    seed: int = 0,
    shared_graph: bool = True,
) -> CampaignState:
    """A small random campaign state for property-style tests."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    src, dst = np.where(mask)
    weights = rng.uniform(0.1, 1.0, size=src.size)
    graph = graph_from_edges(n, src, dst, weights)
    if shared_graph:
        graphs = (graph,) * r
    else:
        graphs = tuple(
            graph_from_edges(
                n, src, dst, rng.uniform(0.1, 1.0, size=src.size)
            )
            for _ in range(r)
        )
    return CampaignState(
        graphs=graphs,
        initial_opinions=rng.uniform(0, 1, size=(r, n)),
        stubbornness=rng.uniform(0, 1, size=(r, n)),
    )


@pytest.fixture
def random_state() -> CampaignState:
    """One deterministic small random instance."""
    return random_instance(seed=42)


@pytest.fixture
def random_state_factory():
    """Factory for seeded random instances."""
    return random_instance


def walks_from(graph, stubbornness, b0, horizon, starts, seed):
    """A :class:`TruncatedWalks` over reverse walks from ``starts``.

    Draws from the library's one generator,
    :func:`~repro.core.random_walk.generate_reverse_walks_streamed`,
    with block entropy ``[seed]``.
    """
    walks, lengths = generate_reverse_walks_streamed(
        graph, stubbornness, horizon, starts, [seed]
    )
    return TruncatedWalks(walks, lengths, b0, graph.n)


def start_worker(connections=1):
    """One net worker on a free loopback port; returns ``host:port`` and
    its thread (``connections=None`` serves until the process exits)."""
    ready = threading.Event()
    address: list[str] = []

    def on_ready(host, port):
        address.append(f"{host}:{port}")
        ready.set()

    thread = threading.Thread(
        target=run_net_worker,
        kwargs=dict(
            port=0,
            connections=connections,
            on_ready=on_ready,
        ),
        daemon=True,
    )
    thread.start()
    assert ready.wait(10), "net worker never became ready"
    return address[0], thread


@pytest.fixture(scope="session")
def loopback_hosts():
    """Four loopback net-worker addresses shared by the session's tests.

    Each serves one coordinator at a time and returns to ``accept`` when
    it disconnects, so every test dials them afresh (and must close its
    engine).  The daemon threads end with the test process.
    """
    return [start_worker(connections=None)[0] for _ in range(4)]


#: Stands in a parametrized spec list for two loopback net-worker hosts,
#: whose addresses exist only once :func:`loopback_hosts` has started them.
TCP_SPEC = "dm-mp:tcp"


@pytest.fixture
def spec(request):
    """An engine spec parametrized with ``indirect=True``; :data:`TCP_SPEC`
    becomes ``dm-mp:tcp=`` two of the shared loopback hosts."""
    if request.param == TCP_SPEC:
        hosts = request.getfixturevalue("loopback_hosts")[:2]
        return f"{TCP_SPEC}={','.join(hosts)}"
    return request.param
