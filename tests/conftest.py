import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from augmis import Graph, Pattern, enumerate_irreducible

settings.register_profile(
    "augmis",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("augmis")


@st.composite
def graphs_st(draw, min_n: int = 1, max_n: int = 9):
    n = draw(st.integers(min_n, max_n))
    nbits = n * (n - 1) // 2
    sel = draw(st.integers(0, (1 << nbits) - 1))
    edges = []
    k = 0
    for u in range(n):
        for v in range(u + 1, n):
            if sel >> k & 1:
                edges.append((u, v))
            k += 1
    return Graph(n, edges)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def path_greedy_takes_odd_positions(n: int) -> Graph:
    """P(n), n odd, labelled so that ascending-id greedy takes the
    (n - 1) / 2 odd positions: the one augmenting path is the whole
    path."""
    half = n // 2
    ids = [i // 2 if i % 2 else half + i // 2 for i in range(n)]
    return Graph(n, [(ids[i], ids[i + 1]) for i in range(n - 1)])


@pytest.fixture(scope="session")
def solver_catalog9():
    """Catalogue the p=3 solver uses at the n<=9 desk scale."""
    return enumerate_irreducible(
        9, (Pattern("P", (8,)), Pattern("T", (5,)), Pattern("K", (3, 3)))
    )


@pytest.fixture(scope="session")
def unfiltered_catalog9():
    return enumerate_irreducible(9)
