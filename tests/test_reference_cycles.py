"""No kernel call leaves a reference cycle behind.

Each check runs one call with the cyclic collector disabled and then asks
the collector how many unreachable objects it found: everything the call
allocated must have been freed by reference counting alone.  A recursive
helper written as a closure over itself leaves one function-cell cycle per
call, which only the collector frees.
"""

import gc

import pytest

import totaldom as td
from totaldom.errors import CapabilityError
from oracles import complete_bipartite, petersen_graph


def leftover(call) -> int:
    """Objects the collector finds unreachable after call()."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


PETERSEN = petersen_graph()


def raises_capability(call):
    def run():
        with pytest.raises(CapabilityError):
            call()

    return run


class TestKernels:
    def test_minimal_transversals(self):
        h = td.neighborhood_hypergraph(PETERSEN)
        assert leftover(lambda: td.enumerate_minimal_transversals(h)) == 0

    def test_bounded_minimal_transversals(self):
        h = td.neighborhood_hypergraph(PETERSEN)
        assert leftover(lambda: td.enumerate_minimal_transversals(h, max_size=4)) == 0

    def test_minimal_transversals_past_max_count(self):
        h = td.neighborhood_hypergraph(PETERSEN)
        call = raises_capability(lambda: td.enumerate_minimal_transversals(h, max_count=3))
        assert leftover(call) == 0

    def test_packing_number(self):
        assert leftover(lambda: td.packing_number(PETERSEN)) == 0

    def test_max_matching(self):
        assert leftover(lambda: td.max_matching_of_edges(PETERSEN.edges())) == 0

    @pytest.mark.parametrize("with_generators", [False, True])
    def test_canonical_key(self, with_generators):
        # Petersen is vertex-transitive: its refinement is one cell, so the
        # labelling search runs in full
        gens = [] if with_generators else None
        assert leftover(lambda: td.canonical_key(PETERSEN.n, PETERSEN.adj, gens)) == 0
        assert gens is None or len(gens) == 119

    @pytest.mark.parametrize("graph", [complete_bipartite(3, 3), PETERSEN], ids=["K33", "petersen"])
    def test_is_planar(self, graph):
        # both survive the series reduction, so the block DFS runs
        assert leftover(lambda: td.is_planar(graph)) == 0


class TestSearch:
    def test_enumeration(self):
        # the block expansion alone, without classification or a catalog
        def enumerate7():
            for _ in td.enumerate_graphs(td.SearchFilter(n_max=7)):
                pass

        assert leftover(enumerate7) == 0

    def test_fresh_then_resumed(self, tmp_path):
        out = str(tmp_path / "cat.jsonl")

        def search():
            td.run_search(td.SearchFilter(n_max=6), out_path=out)

        assert leftover(search) == 0
        assert leftover(search) == 0  # from the complete catalog
