import pytest

import totaldom as td


@pytest.fixture
def figure1() -> td.Graph:
    """The 5-vertex WTD(2) example with labels x, y, z, t, w."""
    return td.Graph.from_edges(
        5,
        [(0, 1), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)],
        labels=("x", "y", "z", "t", "w"),
    )


@pytest.fixture(scope="session")
def enumerated8():
    """enumerate_graphs(n_max=8) as a list of (key, Graph, planar), each
    Graph built here from the adjacency the enumeration yields."""
    return [
        (key, td.Graph(len(adj), adj), planar)
        for key, adj, planar in td.enumerate_graphs(td.SearchFilter(n_max=8))
    ]


@pytest.fixture(scope="session")
def atlas8(enumerated8):
    """Every connected isomorphism class with 2 <= n <= 8, as (key, Graph).

    Shared by the corpus-sweep tests; building it once costs a few seconds.
    """
    return [(k, g) for k, g, _ in enumerated8]


@pytest.fixture(scope="session")
def atlas7(atlas8):
    return [(k, g) for k, g in atlas8 if g.n <= 7]


@pytest.fixture(scope="session")
def atlas6():
    """Connected classes with 2 <= n <= 6 only; cheap enough to build alone."""
    filt = td.SearchFilter(n_max=6)
    return [(k, td.Graph(len(adj), adj)) for k, adj, _ in td.enumerate_graphs(filt)]


@pytest.fixture
def classified(monkeypatch):
    """The canonical keys of the classes the search classifies, in order.

    Wraps search._classify_block, the one path every classification takes
    (run_search's blocks and classify alike), so it counts classes, not
    calls.
    """
    keys = []
    real = td.search._classify_block

    def counted(block):
        keys.extend(key for key, _, _ in block)
        return real(block)

    monkeypatch.setattr(td.search, "_classify_block", counted)
    return keys
