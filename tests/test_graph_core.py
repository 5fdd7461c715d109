import hashlib
import json
import os
import random
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

import totaldom as td
from oracles import (
    all_graphs_up_to_iso,
    are_isomorphic,
    brute_automorphisms,
    brute_diameter,
    brute_girth,
    brute_matching_number,
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

    @pytest.mark.parametrize(
        "n, adj, labels, message",
        [
            (2, (0b10,), None, "adjacency length does not match vertex count"),
            (2, (0b110, 0b001), None, "neighborhood of 0 mentions out-of-range vertices"),
            (2, (0b01, 0b00), None, "self-loop at vertex 0"),
            (2, (0b10, 0b01), ("a",), "label count does not match vertex count"),
        ],
    )
    def test_rejects_malformed_construction(self, n, adj, labels, message):
        with pytest.raises(ValueError) as err:
            td.Graph(n, adj, labels)
        assert str(err.value) == message

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

    def test_bipartition_and_connectivity_on_every_graph_to_7(self, atlas7):
        # every class with n <= 7, disconnected ones included: the oracle's
        # sweep for n <= 6 (it takes minutes at 7), and at n = 7 the connected
        # classes plus each union of a connected class with any graph on the
        # remaining vertices
        sweep = {n: all_graphs_up_to_iso(n) for n in range(7)}
        connected = {1: [td.Graph(1, (0,))]}
        for _, g in atlas7:
            connected.setdefault(g.n, []).append(g)
        seven = connected[7] + [
            union(a, b, k) for k in range(1, 7) for a in connected[k] for b in sweep[7 - k]
        ]
        assert len({td.canonical_form(g) for g in seven}) == 1044  # OEIS A000088
        rng = random.Random(2024)
        graphs = [g for n in range(7) for g in sweep[n]] + seven
        graphs += [random_relabel(g, rng) for g in graphs]
        bipartite = 0
        for g in graphs:
            nxg = nx.Graph(g.edges())
            nxg.add_nodes_from(range(g.n))
            parts = list(nx.connected_components(nxg))
            assert td.is_connected(g) == (len(parts) <= 1)
            roots = td.vertex_mask(min(part) for part in parts)
            sides = [
                (x, g.full_mask & ~x)
                for x in range(1 << g.n)
                if x & roots == roots
                and all((x >> u & 1) != (x >> v & 1) for u, v in g.edges())
            ]
            assert len(sides) <= 1  # lowest vertex of each component in X
            assert bool(sides) == nx.is_bipartite(nxg)  # None iff an odd cycle
            assert td.bipartition(g) == (sides[0] if sides else None)
            bipartite += bool(sides)
        assert 0 < bipartite < len(graphs)

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
        with pytest.raises(ValueError, match="^vertex set a mentions out-of-range vertices$"):
            td.delete_closed_neighborhood(c6, 1 << 6)

    def test_matching_number(self):
        assert td.matching_number(path_graph(5)) == 2
        assert td.matching_number(complete_graph(4)) == 2
        assert td.matching_number(complete_bipartite(3, 3)) == 3
        assert td.matching_number(petersen_graph()) == 5
        assert td.matching_number(td.Graph(3, (0, 0, 0))) == 0

    def test_matching_number_matches_oracle_on_atlas7(self, atlas7):
        for key, g in atlas7:
            assert td.matching_number(g) == brute_matching_number(g), key.hex()

    def test_matching_number_matches_oracle_on_random_graphs(self):
        rng = random.Random(4141)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            assert td.matching_number(g) == brute_matching_number(g), g.edges()


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

    def test_diameter_matches_oracle_on_atlas8(self, atlas8):
        for key, g in atlas8:
            assert td.diameter(g) == brute_diameter(g), key.hex()
        # beside a disjoint edge each class is disconnected, whichever
        # source's BFS first comes up short
        for key, g in atlas8:
            if g.n <= 6:
                apart = td.Graph.from_edges(g.n + 2, [*g.edges(), (g.n, g.n + 1)])
                assert td.diameter(apart) is None, key.hex()
                assert brute_diameter(apart) is None

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

    def test_planarity_matches_oracle_on_atlas8(self, atlas8):
        for key, g in atlas8:
            assert td.is_planar(g) == brute_planar(g), key.hex()

    def test_planarity_matches_oracle_on_random_9_and_10(self):
        rng = random.Random(910)
        seen = set()
        for _ in range(300):
            g = random_graph(rng, rng.choice((9, 10)), 0.1 + 0.5 * rng.random())
            planar = brute_planar(g)
            assert td.is_planar(g) == planar
            seen.add(planar)
        assert seen == {False, True}

    def test_planarity_named_cases(self):
        k5, k33 = complete_graph(5), complete_bipartite(3, 3)
        assert not td.is_planar(k5)
        assert td.is_planar(td.Graph.from_edges(5, k5.edges()[1:]))  # K5 - e
        # every edge subdivided, then a pendant path and a pendant star hung
        # on branch and subdivision vertices: still non-planar
        for base in (k5, k33):
            assert not td.is_planar(subdivided_with_trees(base))
        assert td.is_planar(subdivided_with_trees(td.Graph.from_edges(5, k5.edges()[1:])))
        # a degree-2 vertex on the already adjacent 2 and 3 of K5 - {0,1}:
        # suppressing it only deletes it, and the rest stays planar
        edges = [e for e in k5.edges() if e != (0, 1)]
        assert td.is_planar(td.Graph.from_edges(6, edges + [(2, 5), (3, 5)]))
        # on 0 and 1 instead it restores the missing edge: a subdivided K5
        assert not td.is_planar(td.Graph.from_edges(6, edges + [(0, 5), (1, 5)]))
        # K5 plus a degree-2 vertex on an existing edge
        assert not td.is_planar(td.Graph.from_edges(6, k5.edges() + ((0, 5), (1, 5))))

    def test_planarity_of_blocks_and_large_graphs(self):
        k4, k5, k33 = complete_graph(4), complete_graph(5), complete_bipartite(3, 3)
        # K3,3 plus an edge inside one side: the first cycle is a triangle
        # through the added edge
        assert not td.is_planar(td.Graph.from_edges(6, k33.edges() + ((0, 1),)))
        # here the first edge (0-2, then 0-1) lies on no triangle, so the
        # search for the first cycle reaches its start vertex again; a cycle
        # that repeats it answers both graphs wrongly
        planar = [(0, 2), (0, 4), (0, 6), (1, 2), (1, 5), (1, 7), (2, 3), (2, 5), (2, 7)]
        planar += [(3, 4), (3, 7), (4, 6), (5, 6)]
        assert td.is_planar(td.Graph.from_edges(8, planar))
        nonplanar = [(0, 1), (0, 6), (0, 7), (1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]
        nonplanar += [(2, 5), (2, 7), (3, 6), (4, 6), (5, 7)]
        assert not td.is_planar(td.Graph.from_edges(8, nonplanar))
        assert td.is_planar(union(k4, k4, 3))  # two K4s sharing a cut vertex
        assert not td.is_planar(union(k4, k33, 3))
        assert not td.is_planar(union(k4, k5, 4, [(3, 4)]))  # joined by a bridge
        assert td.is_planar(octahedron_graph())
        ico = icosahedron_graph()
        assert ico.n == 12 and ico.m == 3 * ico.n - 6 and td.is_planar(ico)
        pete = petersen_graph()
        assert pete.m < 3 * pete.n - 6 and not td.is_planar(pete)
        stacked = stacked_triangulation(64, random.Random(64))
        assert stacked.m == 3 * 64 - 6 and td.is_planar(stacked)
        u, v = next((u, v) for u in range(64) for v in range(u) if not stacked.has_edge(u, v))
        assert not td.is_planar(td.Graph.from_edges(64, stacked.edges() + ((u, v),)))
        # the planar part comes first, so the non-planar block is found after it
        assert not td.is_planar(union(ico, pete, 12))

    def test_planarity_matches_networkx_past_the_oracle(self):
        rng = random.Random(1164)
        seen = {"gnm": set(), "cubic": set()}
        for _ in range(400):
            n = rng.randint(11, 64)
            m = rng.randint(n, 3 * n - 6)
            pairs = [(u, v) for v in range(n) for u in range(v)]
            edges = rng.sample(pairs, m)
            seen["gnm"].add(matches_networkx(td.Graph.from_edges(n, edges)))
        for _ in range(100):
            n = 2 * rng.randint(4, 32)
            cubic = nx.random_regular_graph(3, n, seed=rng.randrange(2**32))
            seen["cubic"].add(matches_networkx(td.Graph.from_edges(n, cubic.edges())))
        assert seen == {"gnm": {False, True}, "cubic": {False, True}}

    def test_search_runs_with_networkx_blocked(self):
        # planarity and the search need only the standard library
        code = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "from totaldom import Graph, is_planar\n"
            "from totaldom.cli import main\n"
            f"assert not is_planar(Graph.from_edges(6, {list(complete_bipartite(3, 3).edges())}))\n"
            f"assert not is_planar(Graph.from_edges(10, {list(petersen_graph().edges())}))\n"
            f"assert is_planar(Graph.from_edges(12, {list(icosahedron_graph().edges())}))\n"
            "assert main(['search', '--n-max', '6']) == 0\n"
            "assert sys.modules['networkx'] is None\n"
        )
        # the child imports the same totaldom as this process, installed or not
        src = os.path.dirname(os.path.dirname(td.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["classified"] == 142

    def test_tree_leaves_networkx_unloaded(self):
        tree = td.Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (5, 6)])
        assert networkx_loaded_by_planarity_test(tree) == ["False", "False"]

    def test_girth_and_diameter_on_forests_and_disconnected_graphs(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(0, 12)
            shape = rng.randrange(3)
            if shape == 0:  # a forest: each vertex joins an earlier one or none
                edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
                g = td.Graph.from_edges(n, edges)
            elif shape == 1:  # two random parts side by side
                a = random_graph(rng, n // 2, rng.random())
                b = random_graph(rng, n - n // 2, rng.random())
                shift = n // 2
                g = td.Graph.from_edges(
                    n, a.edges() + tuple((u + shift, v + shift) for u, v in b.edges())
                )
            else:  # sparse, where long cycles and long paths live
                g = random_graph(rng, n, 0.4 * rng.random())
            assert td.diameter(g) == brute_diameter(g)
            assert td.girth(g) == brute_girth(g)


def subdivided_with_trees(base: td.Graph) -> td.Graph:
    """base with every edge subdivided, a pendant path of length 2 on vertex
    0 and a pendant star with two leaves on the first subdivision vertex."""
    edges = []
    n = base.n
    for u, v in base.edges():
        edges += [(u, n), (n, v)]
        n += 1
    mid = base.n
    edges += [(0, n), (n, n + 1), (mid, n + 2), (n + 2, n + 3), (n + 2, n + 4)]
    return td.Graph.from_edges(n + 5, edges)


def networkx_loaded_by_planarity_test(g: td.Graph) -> list[str]:
    """In a fresh interpreter: whether networkx is loaded after importing
    totaldom and its CLI, then after one is_planar call on g."""
    # the child imports the same totaldom as this process, installed or not
    src = os.path.dirname(os.path.dirname(td.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, totaldom, totaldom.cli\n"
        "print('networkx' in sys.modules)\n"
        f"totaldom.is_planar(totaldom.Graph.from_edges({g.n}, {list(g.edges())}))\n"
        "print('networkx' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def union(a: td.Graph, b: td.Graph, shift: int, extra=()) -> td.Graph:
    """a plus b with b's vertices shifted by ``shift`` (a.n - 1 shares one
    vertex, a.n keeps them apart), plus the ``extra`` edges."""
    edges = a.edges() + tuple((u + shift, v + shift) for u, v in b.edges())
    return td.Graph.from_edges(shift + b.n, edges + tuple(extra))


def octahedron_graph() -> td.Graph:
    return td.Graph.from_edges(
        6, [(u, v) for v in range(6) for u in range(v) if (u, v) not in ((0, 1), (2, 3), (4, 5))]
    )


def icosahedron_graph() -> td.Graph:
    """Apex 0, upper ring 1..5, lower ring 6..10, apex 11."""
    edges = []
    for i in range(5):
        up, down = 1 + i, 6 + i
        edges += [(0, up), (up, 1 + (i + 1) % 5), (down, 6 + (i + 1) % 5), (down, 11)]
        edges += [(up, down), (up, 6 + (i + 1) % 5)]
    return td.Graph.from_edges(12, edges)


def stacked_triangulation(n: int, rng: random.Random) -> td.Graph:
    """Maximal planar: each new vertex goes into a random face and is
    joined to its three corners."""
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2)] * 2
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return td.Graph.from_edges(n, edges)


def matches_networkx(g: td.Graph) -> bool:
    """is_planar(g), asserted equal to networkx's answer."""
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    planar = td.is_planar(g)
    assert planar == nx.check_planarity(h)[0], g.edges()
    return planar


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

    def test_key_bytes_frozen(self, atlas7):
        # catalogs on disk are keyed by these bytes: a change to any of them
        # needs a catalog version bump
        keys = sorted(key for key, _ in atlas7)
        assert len(keys) == 995
        digest = hashlib.sha256(b"".join(keys)).hexdigest()
        assert digest == "4fdef5f6794d8a02bff18249da7145d2fe7410be2991e319ea8687f83264a104"
        assert td.canonical_form(petersen_graph()).hex() == "0a00d4c49a4c80"
        assert td.canonical_form(complete_bipartite(3, 3)).hex() == "061fb8"
        two_triangles = td.Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert td.canonical_form(two_triangles).hex() == "062e22"
        with_isolated = td.Graph.from_edges(7, [(0, 1), (1, 2), (4, 5)])
        assert td.canonical_form(with_isolated).hex() == "07040018"

    def test_key_bytes_frozen_past_8(self):
        # orders 9..12, where no catalog test reaches: 400 seeded random
        # graphs, sparse to dense, then three vertex-transitive graphs that
        # exercise the pruned search hardest
        rng = random.Random(912)
        graphs = [
            random_graph(rng, 9 + i % 4, (0.2, 0.35, 0.5, 0.65, 0.8)[i % 5])
            for i in range(400)
        ]
        keys = [td.canonical_form(g) for g in graphs + symmetric_twelves()]
        digest = hashlib.sha256(b"".join(keys)).hexdigest()
        assert digest == "69f9ce8382fdb3ebc8c26cc2e856b9c6234ba4cb5a25ffa3d968756cd5c6a847"

    def test_symmetric_twelves_relabel(self):
        rng = random.Random(4)
        for g in symmetric_twelves():
            key = td.canonical_form(g)
            for _ in range(3):
                assert td.canonical_form(random_relabel(g, rng)) == key

    def test_bound_enforced(self):
        g = path_graph(td.CANONICAL_BOUND + 1)
        with pytest.raises(td.CapabilityError):
            td.canonical_form(g)

    @given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_relabel_property(self, n, pyrandom):
        g = random_graph(pyrandom, n, 0.5)
        assert td.canonical_form(random_relabel(g, pyrandom)) == td.canonical_form(g)


def symmetric_twelves() -> list[td.Graph]:
    """C12, the icosahedron and the hexagonal prism C6 x K2."""
    solids = [nx.icosahedral_graph(), nx.circular_ladder_graph(6)]
    return [cycle_graph(12)] + [td.Graph.from_edges(12, list(h.edges())) for h in solids]


def is_automorphism(g: td.Graph, perm) -> bool:
    if sorted(perm) != list(range(g.n)):
        return False
    return all(
        g.adj[perm[v]] == td.vertex_mask(perm[u] for u in td.mask_members(g.adj[v]))
        for v in range(g.n)
    )


def group_order(n: int, gens) -> int:
    """Order of the permutation group gens generate, by closure."""
    identity = tuple(range(n))
    seen = {identity}
    stack = [identity]
    while stack:
        p = stack.pop()
        for q in gens:
            r = tuple(q[x] for x in p)
            if r not in seen:
                seen.add(r)
                stack.append(r)
    return len(seen)


def key_generators(n, adj):
    """The generators canonical_key's labelling search appends to its list."""
    gens = []
    td.canonical_key(n, adj, gens)
    return gens


def with_complements(connected: list[td.Graph]) -> list[td.Graph]:
    """One graph per class: each of the connected graphs and its complement
    (a disconnected graph has a connected complement).  Over one graph per
    connected class with 2 <= n <= 7, that is every graph of those orders."""
    graphs = {}
    for g in connected:
        complement = tuple(g.full_mask & ~a & ~(1 << v) for v, a in enumerate(g.adj))
        for h in (g, td.Graph(g.n, complement)):
            graphs.setdefault(td.canonical_form(h), h)
    return list(graphs.values())


class TestAutomorphismGenerators:
    def test_generators_are_automorphisms(self):
        rng = random.Random(12)
        named = [petersen_graph(), complete_bipartite(3, 4), cycle_graph(12), star_graph(6)]
        for g in named + [random_graph(rng, rng.randint(2, 12), rng.random()) for _ in range(200)]:
            for perm in key_generators(g.n, g.adj):
                assert is_automorphism(g, perm), (g.edges(), perm)

    def test_group_order_matches_brute_force_to_7(self, atlas7):
        # Equal orders make the generated group all of Aut(G), so the vertex
        # orbits agree too.
        graphs = with_complements([g for _, g in atlas7])
        assert len(graphs) == 2 + 4 + 11 + 34 + 156 + 1044
        for h in graphs:
            gens = key_generators(h.n, h.adj)
            assert all(is_automorphism(h, p) for p in gens)
            order = sum(1 for _ in brute_automorphisms(h))
            assert group_order(h.n, gens) == order, h.edges()
            assert (gens == []) == (order == 1)  # no identity generators
        assert key_generators(1, (0,)) == []

    def test_generator_lists_frozen(self, atlas7):
        # the lists themselves, in order, not only the groups they generate:
        # every graph with 2 <= n <= 7 (the canonical labelling of each
        # class, so the enumeration's labellings play no part), then the 400
        # seeded graphs of test_key_bytes_frozen_past_8
        rng = random.Random(912)
        past_8 = [
            random_graph(rng, 9 + i % 4, (0.2, 0.35, 0.5, 0.65, 0.8)[i % 5])
            for i in range(400)
        ]
        to_7 = with_complements([td.graph_from_canonical(key) for key, _ in atlas7])
        lists = [key_generators(g.n, g.adj) for g in to_7 + past_8]
        digest = hashlib.sha256(repr(lists).encode()).hexdigest()
        assert digest == "344ba3088aee47490b3891b3f64a5c21686427a0ab5dd5e9340426df9a69cadf"
        # a discrete refined order admits only the identity
        discrete = [
            gens
            for g, gens in zip(to_7 + past_8, lists)
            if len(td.graphs._refined_cells(g.n, g.adj)) == g.n
        ]
        assert len(discrete) > 100 and discrete == [[]] * len(discrete)

    def test_list_leaves_key_bytes_alone(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 12), rng.random())
            gens = [(0,)]  # appended to, never cleared
            assert td.canonical_key(g.n, g.adj, gens) == td.canonical_key(g.n, g.adj)
            assert gens[0] == (0,) and gens[1:] == key_generators(g.n, g.adj)


def test_star_and_complete_builders_sane():
    s = star_graph(3)
    assert s.degree(0) == 3 and s.m == 3
    assert complete_graph(4).m == 6
    assert complete_bipartite(2, 2).m == 4
