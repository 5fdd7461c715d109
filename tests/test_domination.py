import random

import pytest

import totaldom as td
from totaldom.domination import minimal_tds_lattice, subset_lattice
from oracles import (
    brute_minimal_tds,
    brute_packing_number,
    brute_total_dominating_sets,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph_of_kind,
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


def grafted_graph(rng, n):
    """A random isolate-free graph on n vertices: a random core of 3 to 6
    vertices, then each further vertex grafted on as a pendant vertex, a
    false twin (same neighborhood) or a true twin (same closed neighborhood)
    of an earlier one.  Pendants and false twins make the neighborhoods
    fail to be an antichain."""
    adj = [0] * n

    def join(u, v):
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    core = rng.randint(3, 6)
    for u in range(core):
        for v in range(u):
            if rng.random() < 0.5:
                join(u, v)
    for w in range(core, n):
        v = rng.randrange(w)
        kind = rng.choice(("pendant", "false twin", "true twin"))
        if kind == "pendant":
            join(w, v)
            continue
        for u in td.mask_members(adj[v]):
            join(w, u)
        if kind == "true twin":
            join(w, v)
    for u in range(n):
        if not adj[u]:
            join(u, (u + 1) % n)
    return td.Graph(n, tuple(adj))


class TestTdsPredicates:
    def test_figure_pair(self, figure1):
        # {y, t} totally dominates: every vertex has a neighbor inside
        assert td.is_tds(figure1, 0b01010)
        assert td.is_minimal_tds(figure1, 0b01010)

    def test_p5_pair_misses_middle(self):
        g = path_graph(5)
        assert not td.is_tds(g, 0b01010)
        assert not td.is_minimal_tds(g, 0b01010)

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

    @pytest.mark.parametrize(
        "g",
        [star_graph(k) for k in (2, 5, 9)]
        + [
            complete_multipartite(*parts)
            for parts in ((1, 1, 2), (1, 3), (2, 2, 3), (1, 2, 3, 4), (3, 3, 3))
        ],
        ids=lambda g: f"n{g.n}m{len(g.edges())}",
    )
    def test_non_antichain_neighborhoods_named(self, g):
        # mtds searches the neighborhoods as they are; a star's leaves share
        # one neighborhood, and in a complete multipartite graph every vertex
        # of a part has the same one
        assert len(set(g.adj)) < g.n
        assert td.mtds(g) == td.enumerate_minimal_transversals(td.neighborhood_hypergraph(g))

    def test_non_antichain_neighborhoods_grafted(self):
        rng = random.Random(29)
        not_antichain = 0
        for _ in range(200):
            g = grafted_graph(rng, rng.randint(9, 18))
            h = td.neighborhood_hypergraph(g)
            not_antichain += h.edges != tuple(sorted(g.adj))
            assert td.mtds(g) == td.enumerate_minimal_transversals(h)
        assert not_antichain >= 190  # a graph grafted only with true twins can be one

    def test_max_count(self):
        c6 = cycle_graph(6)
        with pytest.raises(td.CapabilityError):
            td.mtds(c6, max_count=8)
        assert len(td.mtds(c6, max_count=9).edges) == 9

    def test_builds_one_family(self, monkeypatch):
        # the family it returns is the only SpernerFamily a call constructs:
        # no minimized neighborhood family on the way
        built = 0
        real_post_init = td.SpernerFamily.__post_init__

        def counting(self):
            nonlocal built
            built += 1
            real_post_init(self)

        monkeypatch.setattr(td.SpernerFamily, "__post_init__", counting)
        for g in (cycle_graph(6), star_graph(4), petersen_graph()):
            built = 0
            td.mtds(g)
            assert built == 1


class TestMinimalTdsLattice:
    """minimal_tds_lattice's set bits, in ascending order, are mtds' family;
    it takes a graph's adjacency rows."""

    def test_tables_by_definition(self):
        for n in range(6):
            ind, avoid, layer = subset_lattice(n)
            masks = range(1 << n)
            assert ind == tuple(
                td.vertex_mask(s for s in masks if s >> w & 1) for w in range(n)
            )
            assert avoid == tuple(
                td.vertex_mask(s for s in masks if not s & mask) for mask in masks
            )
            assert layer == tuple(
                td.vertex_mask(s for s in masks if s.bit_count() == k) for k in range(n + 1)
            )

    def test_equals_mtds_to_7(self, atlas7):
        assert len(atlas7) == 995
        for _, g in atlas7:
            assert td.mask_members(minimal_tds_lattice(g.adj)) == td.mtds(g).edges, g.edges()

    @pytest.mark.parametrize("kind", ["tree", "sparse", "dense"])
    def test_equals_mtds_on_random_graphs(self, kind):
        # 15 graphs of each order 2..12, 495 over the three kinds
        rng = random.Random(38)
        for n in range(2, 13):
            for _ in range(15):
                g = random_graph_of_kind(rng, n, kind)
                assert td.mask_members(minimal_tds_lattice(g.adj)) == td.mtds(g).edges, g.edges()

    @pytest.mark.parametrize(
        "g",
        [pytest.param(complete_graph(n), id=f"K{n}") for n in range(2, 13)]
        + [pytest.param(cycle_graph(n), id=f"C{n}") for n in range(3, 13)],
    )
    def test_equals_mtds_on_named_graphs(self, g):
        assert td.mask_members(minimal_tds_lattice(g.adj)) == td.mtds(g).edges

    def test_order_13_refused(self):
        with pytest.raises(td.CapabilityError, match="stops at 12 vertices, got 13"):
            minimal_tds_lattice(cycle_graph(13).adj)

    def test_isolated_vertex_gives_no_set(self):
        # no domain check: with an isolated vertex no set dominates, so the
        # int is 0, and the caller (search.classify) makes the check
        assert minimal_tds_lattice((0b10, 0b01, 0)) == 0
        assert minimal_tds_lattice((0,)) == 0


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


class TestDominatingEdges:
    def test_figure_graph(self, figure1):
        assert td.dominating_edge_subgraph(figure1) == ((1, 2), (1, 3), (3, 4))

    def test_complete_graph(self):
        assert len(td.dominating_edge_subgraph(complete_graph(4))) == 6

    def test_star(self):
        assert td.dominating_edge_subgraph(star_graph(3)) == ((0, 1), (0, 2), (0, 3))

    def test_undefined_when_gamma_t_above_2(self):
        assert td.dominating_edge_subgraph(path_graph(5)) == ()

    def test_edges_match_brute_force(self):
        rng = random.Random(17)
        seen_defined = 0
        for _ in range(150):
            g = random_isolate_free_graph(rng, rng.randint(2, 6))
            dom_edges = td.dominating_edge_subgraph(g)
            tds = set(brute_total_dominating_sets(g))
            assert set(dom_edges) == {(u, v) for u, v in g.edges() if (1 << u) | (1 << v) in tds}
            if not dom_edges:
                continue
            seen_defined += 1
            for u, v in dom_edges:
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

    def test_matches_brute_past_the_atlas(self):
        # the branch and bound prunes more at larger n
        rng = random.Random(911)
        seen = set()
        for _ in range(60):
            n, p = rng.randint(9, 11), rng.uniform(0.1, 0.5)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            g = td.Graph.from_edges(n, edges)
            rho = brute_packing_number(g)
            assert td.packing_number(g) == rho, g.edges()
            seen.add(rho)
        assert len(seen) >= 4

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

    def test_singleton_member_named_by_label(self):
        # named as the caller spelled it; without labels, by its ground id
        for fam, labels, member in [
            (td.SpernerFamily(1, (0b1,)), ("a",), "{a}"),
            (td.SpernerFamily(3, (0b011, 0b100)), ("a", "b", "c"), "{c}"),
            (td.SpernerFamily(3, (0b011, 0b100)), None, "{2}"),
        ]:
            with pytest.raises(td.ValidationError) as err:
                td.realize_mtds(fam, labels=labels)
            assert str(err.value) == (
                f"family not realizable: member {member} has fewer than two vertices"
            )
        # the labels' length is checked before a singleton is named by them
        with pytest.raises(td.ValidationError) as err:
            td.realize_mtds(td.SpernerFamily(3, (0b011, 0b100)), labels=("a", "b"))
        assert str(err.value) == "ground labels must cover the whole ground set"

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

    def test_name_collision_names_both_vertices(self):
        # an unlabelled extension's vertices are named u0, u1, ...
        fam = td.SpernerFamily(2, (0b11,))
        bare = td.Graph.from_edges(2, [(0, 1)])
        with pytest.raises(
            td.ValidationError,
            match=r"^vertex names must be distinct: member u1 and extension vertex 1 "
            r"are both named 'u1'$",
        ):
            td.realize_mtds(fam, extension=bare, labels=("a", "u1"))
        named = td.Graph.from_edges(2, [(0, 1)], labels=("v{b}", "q"))
        with pytest.raises(
            td.ValidationError,
            match=r"^vertex names must be distinct: the vertex of transversal \{b\} and "
            r"extension vertex 0 are both named 'v\{b\}'$",
        ):
            td.realize_mtds(fam, extension=named, labels=("a", "b"))

    def test_ground_label_length_checked(self):
        fam = td.SpernerFamily(4, (0b0011, 0b1100))
        with pytest.raises(td.ValidationError):
            td.realize_mtds(fam, labels=("a", "b"))
