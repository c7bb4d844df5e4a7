import json
import random
from importlib import resources

import pytest
from hypothesis import strategies as st

from timcolor.generators import random_weakly_chordal
from timcolor.graph import Graph, from_dict


def load_fixture(name: str) -> dict:
    text = resources.files("timcolor.fixtures").joinpath(name).read_text("utf-8")
    return json.loads(text)


def fixture_graph(name: str) -> Graph:
    return from_dict(load_fixture(name))


@st.composite
def weakly_chordal_graphs(draw):
    """A random weakly chordal graph; some lose vertices, so ids are not contiguous."""
    rng = random.Random(draw(st.integers(0, 10_000)))
    n = rng.randint(1, 16)
    g = random_weakly_chordal(n, rng.randint(0, 3 * n), rng)
    if draw(st.booleans()):
        g = g.induced_subgraph(rng.sample(g.vertices, n - rng.randint(0, n // 2)))
    return g


@pytest.fixture
def fig6() -> Graph:
    return fixture_graph("fig6.json")


@pytest.fixture
def fig8() -> Graph:
    return fixture_graph("fig8.json")


@pytest.fixture
def fig9() -> Graph:
    return fixture_graph("fig9.json")


@pytest.fixture
def c5() -> Graph:
    return fixture_graph("c5.json")
