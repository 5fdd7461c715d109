import random

import pytest
from hypothesis import given, settings, strategies as st

import totaldom as td
from oracles import (
    all_graphs_up_to_iso,
    are_isomorphic,
    brute_diameter,
    brute_girth,
    brute_packing_number,
    brute_planar,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_relabel,
    star_graph,
)


def random_graph(rng: random.Random, n: int, p: float) -> td.Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return td.Graph.from_edges(n, edges)


class TestGraphBasics:
    def test_from_edges_and_accessors(self):
        g = td.Graph.from_edges(4, [(0, 1), (2, 1), (2, 3)])
        assert g.n == 4
        assert g.m == 3
        assert g.edges() == ((0, 1), (1, 2), (2, 3))
        assert g.degree(1) == 2
        assert g.min_degree() == 1
        assert g.has_edge(1, 0) and not g.has_edge(0, 3)
        assert g.closed_neighborhood(1) == 0b0111

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            td.Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            td.Graph.from_edges(3, [(0, 3)])

    def test_rejects_too_many_vertices(self):
        with pytest.raises(ValueError):
            td.Graph(td.MAX_VERTICES + 1, tuple([0] * (td.MAX_VERTICES + 1)))

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(ValueError):
            td.Graph(2, (0b10, 0b00))

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            td.Graph.from_edges(2, [(0, 1)], labels=("a", "a"))

    def test_label_fallback_is_the_id(self):
        g = td.Graph.from_edges(2, [(0, 1)])
        assert g.label(1) == 1
        h = td.Graph.from_edges(2, [(0, 1)], labels=("p", "q"))
        assert h.label(1) == "q"

    def test_vertex_mask_helpers(self):
        assert td.vertex_mask([0, 3]) == 0b1001
        assert td.mask_members(0b1001) == (0, 3)
        assert list(td.iter_bits(0b10100)) == [2, 4]


class TestConnectivityAndStructure:
    def test_is_connected(self):
        assert td.is_connected(path_graph(5))
        two = td.Graph.from_edges(4, [(0, 1), (2, 3)])
        assert not td.is_connected(two)

    def test_triangle_free(self):
        assert td.is_triangle_free(cycle_graph(5))
        assert not td.is_triangle_free(complete_graph(3))

    def test_bipartition_sides(self):
        g = complete_bipartite(2, 3)
        parts = td.bipartition(g)
        assert parts is not None
        x, y = parts
        assert x | y == g.full_mask and x & y == 0
        for u, v in g.edges():
            assert (x >> u & 1) != (x >> v & 1)
        assert td.bipartition(cycle_graph(5)) is None

    def test_induced_subgraph_keeps_labels(self):
        g = td.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], labels=("a", "b", "c", "d"))
        sub, old = td.induced_subgraph(g, 0b1101)
        assert old == (0, 2, 3)
        assert sub.labels == ("a", "c", "d")
        assert sub.edges() == ((1, 2),)

    def test_delete_closed_neighborhood(self):
        c6 = cycle_graph(6)
        rest, old = td.delete_closed_neighborhood(c6, 0b000011)
        assert old == (3, 4)
        assert rest.edges() == ((0, 1),)
        with pytest.raises(ValueError):
            td.delete_closed_neighborhood(c6, 0)

    def test_matching_number(self):
        assert td.matching_number(path_graph(5)) == 2
        assert td.matching_number(complete_graph(4)) == 2
        assert td.matching_number(complete_bipartite(3, 3)) == 3
        assert td.matching_number(petersen_graph()) == 5
        assert td.matching_number(td.Graph(3, (0, 0, 0))) == 0


class TestMetricsAgainstOracles:
    def test_diameter_girth_known_values(self):
        assert td.diameter(cycle_graph(6)) == 3
        assert td.girth(cycle_graph(6)) == 6
        assert td.diameter(path_graph(4)) == 3
        assert td.girth(path_graph(4)) is None
        assert td.diameter(td.Graph.from_edges(4, [(0, 1), (2, 3)])) is None
        assert td.girth(petersen_graph()) == 5
        assert td.diameter(petersen_graph()) == 2

    def test_metrics_match_oracles_on_random_graphs(self):
        rng = random.Random(2024)
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            assert td.diameter(g) == brute_diameter(g)
            assert td.girth(g) == brute_girth(g)
            assert td.packing_number(g) == brute_packing_number(g)

    def test_planarity_matches_kuratowski_oracle(self):
        rng = random.Random(5)
        assert not td.is_planar(complete_graph(5))
        assert not td.is_planar(complete_bipartite(3, 3))
        assert td.is_planar(complete_graph(4))
        for _ in range(250):
            g = random_graph(rng, rng.randint(5, 7), 0.3 + 0.6 * rng.random())
            assert td.is_planar(g) == brute_planar(g)
        # subdivided K5: still nonplanar, needs the two-subdivider case
        k5 = complete_graph(5).edges()
        edges = [e for e in k5 if e != (0, 1) and e != (2, 3)]
        edges += [(0, 5), (1, 5), (2, 6), (3, 6)]
        assert not td.is_planar(td.Graph.from_edges(7, edges))


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(99)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            key = td.canonical_form(g)
            assert td.canonical_form(random_relabel(g, rng)) == key

    def test_separates_all_classes_up_to_6(self):
        expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
        for n, count in expected.items():
            keys = {td.canonical_form(g) for g in all_graphs_up_to_iso(n)}
            assert len(keys) == count

    def test_round_trip_through_canonical_graph(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 8), rng.random())
            rep = td.graph_from_canonical(td.canonical_form(g))
            assert are_isomorphic(g, rep)
            assert td.canonical_form(rep) == td.canonical_form(g)

    def test_bound_enforced(self):
        g = path_graph(td.CANONICAL_BOUND + 1)
        with pytest.raises(td.CapabilityError):
            td.canonical_form(g)
        assert td.canonical_form(g, bound=g.n)  # explicit bound lifts the cap

    @given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_relabel_property(self, n, pyrandom):
        g = random_graph(pyrandom, n, 0.5)
        assert td.canonical_form(random_relabel(g, pyrandom)) == td.canonical_form(g)


def test_star_and_complete_builders_sane():
    s = star_graph(3)
    assert s.degree(0) == 3 and s.m == 3
    assert complete_graph(4).m == 6
    assert complete_bipartite(2, 2).m == 4
