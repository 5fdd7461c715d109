import random

import pytest

import totaldom as td
from oracles import (
    brute_minimal_tds,
    brute_packing_number,
    brute_total_dominating_sets,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    star_graph,
)


def random_isolate_free_graph(rng, n):
    while True:
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        g = td.Graph(n, tuple(adj))
        if n == 0 or not g.has_isolated_vertex():
            return g


class TestTdsPredicates:
    def test_figure_pair(self, figure1):
        # {y, t} totally dominates: every vertex has a neighbor inside
        assert td.is_tds(figure1, 0b01010)
        assert td.is_minimal_tds(figure1, 0b01010)

    def test_p5_pair_misses_middle(self):
        g = path_graph(5)
        assert not td.is_tds(g, 0b01010)

    def test_whole_vertex_set(self, figure1):
        assert td.is_tds(figure1, figure1.full_mask)
        assert not td.is_minimal_tds(figure1, figure1.full_mask)

    def test_p5_middle_run(self):
        g = path_graph(5)
        assert td.is_minimal_tds(g, 0b01110)
        assert td.is_tds(g, 0b01111)
        assert not td.is_minimal_tds(g, 0b01111)

    def test_k2(self):
        g = path_graph(2)
        assert td.is_tds(g, 0b11)
        assert td.is_minimal_tds(g, 0b11)

    def test_out_of_range_mask(self):
        with pytest.raises(ValueError):
            td.is_tds(path_graph(2), 0b100)

    def test_random_agreement_with_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_isolate_free_graph(rng, rng.randint(2, 6))
            all_tds = set(brute_total_dominating_sets(g))
            s = rng.randrange(1 << g.n)
            assert td.is_tds(g, s) == (s in all_tds)


class TestMtdsEnumeration:
    def test_p5(self):
        fam = td.mtds(path_graph(5))
        assert fam.edges == (0b01110, 0b11011)

    def test_k2(self):
        assert td.mtds(path_graph(2)).edges == (0b11,)

    def test_figure_graph(self, figure1):
        assert td.mtds(figure1).edges == (0b00110, 0b01010, 0b11000)

    def test_c6_profile(self):
        fam = td.mtds(cycle_graph(6))
        assert len(fam.edges) == 9
        assert all(e.bit_count() == 4 for e in fam.edges)

    def test_isolated_vertex_rejected(self):
        with pytest.raises(td.DominationUndefinedError):
            td.mtds(td.Graph.from_edges(3, [(0, 1)]))

    def test_random_agreement_with_oracle(self):
        rng = random.Random(11)
        for _ in range(150):
            g = random_isolate_free_graph(rng, rng.randint(2, 7))
            assert list(td.mtds(g).edges) == brute_minimal_tds(g)


class TestReport:
    def test_figure_graph(self, figure1):
        r = td.report(figure1)
        assert (r.gamma_t, r.Gamma_t, r.is_wtd) == (2, 2, True)

    def test_p5(self):
        r = td.report(path_graph(5))
        assert (r.gamma_t, r.Gamma_t, r.is_wtd) == (3, 4, False)

    def test_c6(self):
        r = td.report(cycle_graph(6))
        assert (r.gamma_t, r.Gamma_t, r.is_wtd) == (4, 4, True)


class TestRecognizeWtdK:
    def test_figure_graph_at_2(self, figure1):
        r = td.recognize_wtd_k(figure1, 2)
        assert r.accepted and r.reason == "uniform"
        assert r.witness.bit_count() == 2

    def test_c6(self):
        assert not td.recognize_wtd_k(cycle_graph(6), 2).accepted
        assert td.recognize_wtd_k(cycle_graph(6), 4).accepted

    def test_small_accepting_cases(self):
        for g in (complete_graph(4), path_graph(4), cycle_graph(4)):
            assert td.recognize_wtd_k(g, 2).accepted

    def test_k_below_2(self):
        with pytest.raises(ValueError):
            td.recognize_wtd_k(path_graph(2), 1)

    def test_rejection_witness_is_minimal_tds(self):
        g = path_graph(5)
        r = td.recognize_wtd_k(g, 3)
        assert not r.accepted
        assert r.reason == "larger-witness"
        assert r.witness == 0b11011
        assert td.is_minimal_tds(g, r.witness)


class TestDominatingEdgeSubgraph:
    def test_figure_graph(self, figure1):
        gde = td.dominating_edge_subgraph(figure1)
        assert gde.edges == ((1, 2), (1, 3), (3, 4))
        assert gde.vertices == (1, 2, 3, 4)
        assert gde.vertex_mask == 0b11110

    def test_complete_graph(self):
        gde = td.dominating_edge_subgraph(complete_graph(4))
        assert len(gde.edges) == 6

    def test_star(self):
        gde = td.dominating_edge_subgraph(star_graph(3))
        assert gde.edges == ((0, 1), (0, 2), (0, 3))

    def test_undefined_when_gamma_t_above_2(self):
        gde = td.dominating_edge_subgraph(path_graph(5))
        assert gde.vertices == () and gde.edges == ()

    def test_vertices_are_edge_endpoints(self):
        rng = random.Random(17)
        seen_defined = 0
        for _ in range(150):
            g = random_isolate_free_graph(rng, rng.randint(2, 6))
            gde = td.dominating_edge_subgraph(g)
            if not gde.edges:
                continue
            seen_defined += 1
            incident = sorted({v for e in gde.edges for v in e})
            assert list(gde.vertices) == incident
            for u, v in gde.edges:
                assert td.is_minimal_tds(g, (1 << u) | (1 << v))
        assert seen_defined > 20


class TestPackingNumber:
    def test_known_values(self, figure1):
        assert td.packing_number(path_graph(4)) == 2
        assert td.packing_number(figure1) == 1
        assert td.packing_number(complete_bipartite(3, 3)) == 1
        assert td.packing_number(cycle_graph(6)) == 2
        assert td.packing_number(petersen_graph()) == 1

    def test_matches_brute_on_atlas7(self, atlas7):
        for _, g in atlas7:
            assert td.packing_number(g) == brute_packing_number(g)

    def test_matches_brute(self):
        rng = random.Random(23)
        for _ in range(120):
            g = random_isolate_free_graph(rng, rng.randint(2, 6))
            assert td.packing_number(g) == brute_packing_number(g)

    def test_isolated_vertices_allowed(self):
        # closed neighborhoods of isolated vertices are pairwise disjoint
        assert td.packing_number(td.Graph(1, (0,))) == 1
        assert td.packing_number(td.Graph(3, (0, 0, 0))) == 3

    def test_dominating_edge_forces_diameter_at_most_3(self):
        rng = random.Random(29)
        for _ in range(150):
            g = random_isolate_free_graph(rng, rng.randint(2, 7))
            fam = td.mtds(g)
            if min(e.bit_count() for e in fam.edges) == 2 and td.is_connected(g):
                assert td.diameter(g) <= 3


class TestMinimalVertexCovers:
    def test_k2(self):
        assert td.minimal_vertex_covers(path_graph(2)).edges == (0b01, 0b10)

    def test_p3(self):
        assert td.minimal_vertex_covers(path_graph(3)).edges == (0b010, 0b101)

    def test_two_disjoint_edges(self):
        fam = td.minimal_vertex_covers(td.Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert fam.edges == (0b0101, 0b0110, 0b1001, 0b1010)

    def test_empty_edge_set_rejected(self):
        with pytest.raises(ValueError):
            td.minimal_vertex_covers(td.Graph(0, ()))
        with pytest.raises(ValueError):
            td.minimal_vertex_covers(td.Graph(3, (0, 0, 0)))

    def test_covers_are_covers(self):
        rng = random.Random(31)
        for _ in range(100):
            g = random_isolate_free_graph(rng, rng.randint(2, 7))
            if g.m == 0:
                continue
            for cover in td.minimal_vertex_covers(g).edges:
                assert all((cover >> u & 1) or (cover >> v & 1) for u, v in g.edges())


class TestRealizeMtds:
    def test_single_pair_minimal_valid_is_p4(self):
        fam = td.SpernerFamily(2, (0b11,))
        r = td.realize_mtds(fam, core_edges=td.CORE_MINIMAL_VALID)
        assert r.graph.n == 4
        assert sorted(r.graph.edges()) == [(0, 1), (0, 2), (1, 3)]
        assert r.ground_vertices == (0, 1)
        assert r.transversal_sets == (0b01, 0b10)

    def test_two_pairs_complete(self):
        fam = td.SpernerFamily(4, (0b0011, 0b1100))
        r = td.realize_mtds(fam)
        assert r.graph.n == 8
        assert td.mtds(r.graph).edges == (0b0011, 0b1100)

    def test_support_compaction(self):
        # ground ids 0, 2, 4 in a 5-element ground; graph ids stay dense
        fam = td.SpernerFamily(5, (0b00101, 0b10100))
        r = td.realize_mtds(fam, core_edges=[(0, 2), (2, 4), (0, 4)])
        assert r.ground_vertices == (0, 2, 4)
        pos = {g_id: i for i, g_id in enumerate(r.ground_vertices)}
        expect = tuple(
            sorted(
                sum(1 << pos[v] for v in td.mask_members(e))
                for e in fam.edges
            )
        )
        assert td.mtds(r.graph).edges == expect

    def test_round_trip_against_oracle(self):
        cases = [
            td.SpernerFamily(2, (0b11,)),
            td.SpernerFamily(4, (0b0011, 0b1100)),
            td.SpernerFamily(4, (0b0011, 0b0101, 0b1001)),
            td.SpernerFamily(3, (0b011, 0b101, 0b110)),
        ]
        for fam in cases:
            for policy in (td.CORE_COMPLETE, td.CORE_MINIMAL_VALID):
                r = td.realize_mtds(fam, core_edges=policy)
                pos = {g_id: i for i, g_id in enumerate(r.ground_vertices)}
                expect = sorted(
                    sum(1 << pos[v] for v in td.mask_members(e))
                    for e in fam.edges
                )
                assert brute_minimal_tds(r.graph) == expect

    def test_singleton_member_rejected(self):
        with pytest.raises(td.ValidationError) as err:
            td.realize_mtds(td.SpernerFamily(3, (0b001, 0b110)))
        assert "fewer than two vertices" in str(err.value)

    def test_unknown_policy(self):
        fam = td.SpernerFamily(2, (0b11,))
        with pytest.raises(td.ValidationError) as err:
            td.realize_mtds(fam, core_edges="sparse")
        assert "unknown core-edges policy" in str(err.value)

    def test_explicit_edges_validated(self):
        fam = td.SpernerFamily(4, (0b0011, 0b1100))
        ok = td.realize_mtds(fam, core_edges=[(0, 1), (2, 3), (0, 2), (1, 3)])
        assert ok.graph.n == 8
        with pytest.raises(td.ValidationError) as err:
            td.realize_mtds(fam, core_edges=[(0, 1)])
        assert "no neighbor in" in str(err.value)
        with pytest.raises(td.ValidationError):
            td.realize_mtds(fam, core_edges=[(0, 0)])
        with pytest.raises(td.ValidationError):
            td.realize_mtds(fam, core_edges=[(0, 7)])

    def test_extension_wiring(self):
        fam = td.SpernerFamily(2, (0b11,))
        ext = td.Graph.from_edges(2, [(0, 1)])
        r = td.realize_mtds(fam, extension=ext, core_edges=td.CORE_MINIMAL_VALID)
        assert r.graph.n == 6
        base = 4
        assert r.graph.has_edge(base, base + 1)
        for w in (base, base + 1):
            assert r.graph.adj[w] & 0b11
        assert td.mtds(r.graph).edges == (0b11,)

    def test_labels(self):
        fam = td.SpernerFamily(4, (0b0011, 0b1100))
        r = td.realize_mtds(fam, labels=("a", "b", "c", "d"))
        assert r.graph.labels[:4] == ("a", "b", "c", "d")
        assert r.graph.labels[4:] == ("v{a,c}", "v{b,c}", "v{a,d}", "v{b,d}")

    def test_extension_labels(self):
        fam = td.SpernerFamily(2, (0b11,))
        named = td.Graph.from_edges(2, [(0, 1)], labels=("p", "q"))
        r = td.realize_mtds(fam, extension=named, labels=("a", "b"))
        assert r.graph.labels[-2:] == ("p", "q")
        bare = td.Graph.from_edges(2, [(0, 1)])
        r2 = td.realize_mtds(fam, extension=bare, labels=("a", "b"))
        assert r2.graph.labels[-2:] == ("u0", "u1")

    def test_ground_label_length_checked(self):
        fam = td.SpernerFamily(4, (0b0011, 0b1100))
        with pytest.raises(td.ValidationError):
            td.realize_mtds(fam, labels=("a", "b"))
