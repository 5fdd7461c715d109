import random

import pytest

import totaldom as td
from oracles import brute_minimal_tds, complete_graph, cycle_graph, path_graph


class TestValidation:
    def test_empty_selection(self):
        with pytest.raises(td.ValidationError) as err:
            td.reduce_by_matching(cycle_graph(6), ())
        assert "at least one edge" in str(err.value)

    def test_isolated_host(self):
        # the host must be in mtds's domain, K0 included, and is refused
        # with mtds's message
        for host, message in [
            (td.Graph.from_edges(3, [(0, 1)]), "vertex 2 is isolated"),
            (td.Graph.from_edges(0, []), "graph has no vertices"),
        ]:
            with pytest.raises(td.DominationUndefinedError) as err:
                td.reduce_by_matching(host, ((0, 1),))
            assert str(err.value) == f"total domination undefined: {message}"
            with pytest.raises(td.DominationUndefinedError) as err_mtds:
                td.mtds(host)
            assert str(err_mtds.value) == str(err.value)

    def test_non_edge(self):
        with pytest.raises(td.ValidationError) as err:
            td.reduce_by_matching(cycle_graph(6), ((0, 2),))
        assert "not an edge" in str(err.value)

    def test_overlapping_pairs(self):
        with pytest.raises(td.ValidationError) as err:
            td.reduce_by_matching(cycle_graph(6), ((0, 1), (1, 2)))
        assert "vertex-disjoint" in str(err.value)

    def test_cross_edge(self):
        with pytest.raises(td.ValidationError) as err:
            td.reduce_by_matching(complete_graph(4), ((0, 1), (2, 3)))
        assert "not induced" in str(err.value)


class TestReduction:
    def test_c6_single_edge(self):
        rest, vertex_map = td.reduce_by_matching(cycle_graph(6), ((0, 1),))
        assert rest.n != 0 and not rest.has_isolated_vertex()
        assert rest.n == 2
        assert rest.edges() == ((0, 1),)
        assert vertex_map == (3, 4)

    def test_c6_two_edges_empty(self):
        rest, vertex_map = td.reduce_by_matching(cycle_graph(6), ((0, 1), (3, 4)))
        assert rest.n == 0
        assert vertex_map == ()

    def test_leftover_isolated_vertex(self):
        # star plus a pendant path: removing the path edge leaves bare leaves
        g = td.Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        rest, vertex_map = td.reduce_by_matching(g, ((3, 4),))
        assert rest.has_isolated_vertex()
        assert rest.n == 2
        assert rest.m == 0
        assert vertex_map == (1, 2)

    def test_vertex_map_recovers_old_ids(self):
        g = cycle_graph(8)
        rest, vertex_map = td.reduce_by_matching(g, ((0, 1),))
        assert vertex_map == (3, 4, 5, 6)
        for new_u, new_v in rest.edges():
            assert g.has_edge(vertex_map[new_u], vertex_map[new_v])

    def test_pair_is_closed_neighborhood_deletion(self):
        # the result is delete_closed_neighborhood's pair for the matched
        # vertices, whatever the remainder's status
        for g, edges in [
            (cycle_graph(6), ((0, 1),)),
            (cycle_graph(6), ((0, 1), (3, 4))),
            (td.Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)]), ((3, 4),)),
            (cycle_graph(9), ((1, 2), (5, 6))),
            (path_graph(6), [(4, 5)]),
        ]:
            matched = td.vertex_mask(v for edge in edges for v in edge)
            assert td.reduce_by_matching(g, edges) == td.delete_closed_neighborhood(
                g, matched
            )

    def test_wtd_drop_is_twice_selection(self):
        # reducing a uniform-size host drops gamma_t by exactly 2 per pair
        host = cycle_graph(8)
        fam = td.mtds(host)
        sizes = {e.bit_count() for e in fam.edges}
        assert sizes == {4}
        rest, _ = td.reduce_by_matching(host, ((0, 1),))
        assert rest.n != 0 and not rest.has_isolated_vertex()
        reduced_sizes = {e.bit_count() for e in td.mtds(rest).edges}
        assert reduced_sizes == {2}

    def test_random_reductions_match_induced_subgraph(self):
        rng = random.Random(47)
        done = 0
        while done < 60:
            n = rng.randint(4, 7)
            adj = [0] * n
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.5:
                        adj[u] |= 1 << v
                        adj[v] |= 1 << u
            g = td.Graph(n, tuple(adj))
            if g.n == 0 or g.has_isolated_vertex() or g.m == 0:
                continue
            u, v = rng.choice(g.edges())
            try:
                rest, vertex_map = td.reduce_by_matching(g, ((u, v),))
            except td.ValidationError:
                continue
            keep = g.full_mask & ~(g.adj[u] | g.adj[v] | (1 << u) | (1 << v))
            expect, ids = td.induced_subgraph(g, keep)
            assert rest == expect
            assert vertex_map == ids
            done += 1
