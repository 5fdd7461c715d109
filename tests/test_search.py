import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import combinations
from typing import get_type_hints

import pytest
from hypothesis import example, given, settings, strategies as st

import totaldom as td
from totaldom.graphio import graph6_from_key
from totaldom.search import (
    _below,
    _catalog_line,
    _degree_cap,
    _keyed_children,
    _neighbour_degree_sums,
    _new_vertex_is_least,
    _parts_without,
)
import class_sets
import fields
import search_checks
import stream_census
from oracles import (
    _connected,
    all_graphs_up_to_iso,
    brute_diameter,
    brute_girth,
    brute_matching_number,
    brute_minimal_tds,
    brute_packing_number,
    brute_planar,
    catalog_fields_from_graph6,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph_of_kind,
    random_relabel,
    relabel,
)

# OEIS A001349: connected graphs on n vertices
A001349 = {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
# OEIS A003094: connected planar graphs on n vertices
A003094 = {2: 1, 3: 2, 4: 6, 5: 20, 6: 99, 7: 646, 8: 5974}
# OEIS A024607: connected triangle-free graphs on n vertices
A024607 = {2: 1, 3: 1, 4: 3, 5: 6, 6: 19, 7: 59, 8: 267, 9: 1380, 10: 9832}


class TestSearchFilter:
    def test_n_min_floor(self):
        with pytest.raises(ValueError):
            td.SearchFilter(n_max=5, n_min=1)

    def test_n_min_above_n_max(self):
        with pytest.raises(ValueError):
            td.SearchFilter(n_max=3, n_min=4)

    @pytest.mark.parametrize("n_max", [-2, -3])
    def test_negative_n_max(self, n_max):
        # refused for itself, before the budget sums a table slice that a
        # negative bound would count from the far end
        with pytest.raises(ValueError) as err:
            td.SearchFilter(n_max=n_max)
        assert str(err.value) == f"n_max must be at least 2, got {n_max}"

    def test_n_max_cap(self):
        # checked before the class budget, which this n_max also exceeds
        with pytest.raises(td.CapabilityError) as err:
            td.SearchFilter(n_max=td.CANONICAL_BOUND + 1)
        assert str(err.value) == (
            f"searches are capped at {td.CANONICAL_BOUND} vertices, "
            f"got n_max={td.CANONICAL_BOUND + 1}"
        )

    def test_budget_counts_unrestricted_classes(self):
        assert sum(td.search.CONNECTED_CLASSES[2:10]) == 273_192
        td.SearchFilter(n_max=9)
        with pytest.raises(td.CapabilityError) as err:
            td.SearchFilter(n_max=10, min_degree=3)
        assert "11,989,763" in str(err.value)
        assert f"{td.search.SEARCH_BUDGET:,}" in str(err.value)
        # restricted searches are bounded by their own tables
        with pytest.raises(td.CapabilityError):
            td.SearchFilter(n_max=12, planar_only=True)
        with pytest.raises(td.CapabilityError):
            td.SearchFilter(n_max=12, triangle_free_only=True)

    @pytest.mark.parametrize(
        "restriction, accepted, count, sequence",
        [
            ({"planar_only": True}, 9, "1,131,438", "A003094"),
            ({"triangle_free_only": True}, 11, "1,246,471", "A024607"),
            ({"planar_only": True, "triangle_free_only": True}, 11, "1,246,471", "A024607"),
        ],
        ids=["planar", "triangle_free", "both"],
    )
    def test_budget_counts_restricted_classes(self, restriction, accepted, count, sequence):
        td.SearchFilter(n_max=accepted, **restriction)
        with pytest.raises(td.CapabilityError) as err:
            td.SearchFilter(n_max=accepted + 1, **restriction)
        message = str(err.value)
        assert count in message and sequence in message
        assert f"{td.search.SEARCH_BUDGET:,}" in message

    def test_budget_tables_match_enumerated_counts(self):
        # test_restricted_counts and test_connected_counts_to_8 enumerate
        # these orders; the rest of each table is cited from OEIS.  Each
        # search admits exactly the n_max whose classes fit its table's
        # budget, the triangle-free table taking precedence over the planar
        for table, counts, restriction in [
            (td.search.CONNECTED_CLASSES, A001349, {}),
            (td.search.CONNECTED_TRIANGLE_FREE, A024607, {"triangle_free_only": True}),
            (td.search.CONNECTED_PLANAR, A003094, {"planar_only": True}),
            (
                td.search.CONNECTED_TRIANGLE_FREE, A024607,
                {"planar_only": True, "triangle_free_only": True},
            ),
        ]:
            assert len(table) == td.CANONICAL_BOUND + 1
            assert {n: table[n] for n in counts} == counts
            for n_max in range(2, td.CANONICAL_BOUND + 1):
                fits = sum(table[2 : n_max + 1]) <= td.search.SEARCH_BUDGET
                try:
                    td.SearchFilter(n_max=n_max, **restriction)
                except td.CapabilityError:
                    assert not fits, (restriction, n_max)
                else:
                    assert fits, (restriction, n_max)

    def test_planar_budget_decides_as_a003094_would(self):
        # a planar search keys only planar children, so it is budgeted by the
        # connected planar classes (OEIS A003094, n = 2..12): it accepts
        # exactly the n_max whose classes fit
        planar = (1, 2, 6, 20, 99, 646, 5974, 71885, 1052805, 17449299, 313372298)
        assert {n: planar[n - 2] for n in A003094} == A003094
        assert td.CANONICAL_BOUND == 12
        assert td.search.CONNECTED_PLANAR[2:] == planar
        for n_max in range(2, 13):
            fits = sum(planar[: n_max - 1]) <= td.search.SEARCH_BUDGET
            try:
                td.SearchFilter(n_max=n_max, planar_only=True)
            except td.CapabilityError:
                assert not fits, n_max
            else:
                assert fits, n_max

    def test_min_degree_sign(self):
        with pytest.raises(ValueError):
            td.SearchFilter(n_max=4, min_degree=-1)


class TestEnumeration:
    def level_counts(self, filt):
        counts = {}
        for key, adj, _ in td.enumerate_graphs(filt):
            counts[len(adj)] = counts.get(len(adj), 0) + 1
        return counts

    def test_connected_counts(self):
        counts = self.level_counts(td.SearchFilter(n_max=6))
        assert counts == {n: c for n, c in A001349.items() if n <= 6}

    def test_connected_counts_to_8(self, enumerated8):
        counts = {}
        for _, g, _ in enumerated8:
            counts[g.n] = counts.get(g.n, 0) + 1
        assert counts == A001349

    @pytest.mark.parametrize(
        "restriction, n_max, keep",
        [
            ("planar_only", 7, lambda g, planar: planar),
            ("triangle_free_only", 8, lambda g, planar: td.is_triangle_free(g)),
            ("min_degree", 8, lambda g, planar: g.min_degree() >= 3),
        ],
    )
    def test_restriction_keeps_every_qualifying_class(
        self, enumerated8, restriction, n_max, keep
    ):
        value = 3 if restriction == "min_degree" else True
        filt = td.SearchFilter(n_max=n_max, **{restriction: value})
        got = [key for key, _, _ in td.enumerate_graphs(filt)]
        expect = [key for key, g, planar in enumerated8 if g.n <= n_max and keep(g, planar)]
        assert got == expect

    def test_planarity_matches_oracle_to_7(self, enumerated8):
        # every class of every order carries its planarity as a bool:
        # brute_planar's to order 7, and is_planar's on the last level
        seen = {True: 0, False: 0}
        for key, g, planar in enumerated8:
            assert isinstance(planar, bool), key.hex()
            assert planar == (brute_planar(g) if g.n <= 7 else td.is_planar(g)), key.hex()
            seen[planar] += 1
        assert all(seen.values())

    def test_last_level_planarity(self):
        # the last level, which is not expanded, also carries a bool equal
        # to brute_planar's answer, and the classification keeps it
        seen = {True: 0, False: 0}
        for key, adj, planar in td.enumerate_graphs(td.SearchFilter(n_max=7, n_min=7)):
            assert isinstance(planar, bool), key.hex()
            assert planar == brute_planar(td.Graph(7, adj)), key.hex()
            seen[planar] += 1
            assert td.search._classify_block([(key, adj, planar)])[0].planar is planar
        assert all(seen.values())

    @staticmethod
    def facts(n, adj, planar_only=False):
        """The planar fact of each child _keyed_children emits for the
        planar parent adj, by the child's neighbourhood mask."""
        keyed = _keyed_children(n, [(adj, True, None)], False, planar_only, False)
        return {child[-1]: fact for _, child, fact, _ in keyed}

    def test_face_rule_on_a_3_connected_parent(self):
        # K5 minus the edge 0-1 is 3-connected and planar, so its one
        # embedding decides: a new vertex joined to 0 and 1 makes a
        # subdivided K5, one joined to an edge (or to one vertex) fits in a
        # face; a planar search keys no child decided non-planar
        adj = complete_graph(5).adj
        adj = (adj[0] & ~2, adj[1] & ~1) + adj[2:]
        assert td.search._three_connected(adj, 0b11111)
        facts = self.facts(5, adj)
        assert facts[0b00011] is False
        assert facts[0b00101] is True
        assert facts[0b00001] is True
        parent = td.Graph(5, adj)
        child = td.Graph(6, (adj[0] | 1 << 5, adj[1] | 1 << 5) + adj[2:] + (0b11,))
        assert brute_planar(parent) and not brute_planar(child)
        planar_facts = self.facts(5, adj, planar_only=True)
        assert planar_facts == {nb: f for nb, f in facts.items() if f is not False}

    def test_face_rule_leaves_another_embedding_open(self):
        # triangle 0-1-2 with 3 joined to 0, 1 and 4 joined to 0, 2: one
        # block, but {0, 1} separates 3, so it has more than one embedding;
        # the one _embeds builds has no face holding 3 and 4, and the one
        # with 3 flipped across the edge 0-1 has, so the child joining 3 and
        # 4 is planar: the rule leaves it None, and _keyed_children emits
        # is_planar's True
        adj = (0b11110, 0b01101, 0b10011, 0b00011, 0b00101)
        assert td.search._blocks(adj) == [0b11111]
        assert not td.search._three_connected(adj, 0b11111)
        assert not any(not 0b11000 & ~face for face in td.search._embeds(adj, 0b11111))
        assert td.search._face_fact(adj, 0b11000, {}) is None
        assert self.facts(5, adj)[0b11000] is True
        child = (0b011110, 0b001101, 0b010011, 0b100011, 0b100101, 0b011000)
        assert brute_planar(td.Graph(6, child))

    def test_face_rule_leaves_two_blocks_open(self):
        # the path 0-1-2 has two blocks (bridges); a new vertex joined to
        # 0 and 2 spans both, and the rule leaves the child (C4) to is_planar
        adj = (0b010, 0b101, 0b010)
        assert td.search._face_fact(adj, 0b101, {}) is None
        assert self.facts(3, adj)[0b101] is True

    def test_one_key_per_orbit_of_neighbourhoods(self, monkeypatch):
        # a parent's neighbourhoods are tried once per automorphism orbit,
        # and only children whose new vertex is least by (degree, -sum of
        # neighbour degrees): 1,049 keys to n = 7 (1,362 by degree alone,
        # 2,797 with every neighbourhood), and the same 995 classes whose
        # key bytes test_key_bytes_frozen pins
        calls = []
        real = td.search.canonical_key

        def counted(n, adj, generators=None):
            calls.append(n)
            return real(n, adj, generators)

        monkeypatch.setattr(td.search, "canonical_key", counted)
        keys = sorted(key for key, _, _ in td.enumerate_graphs(td.SearchFilter(n_max=7)))
        assert len(keys) == 995
        digest = hashlib.sha256(b"".join(keys)).hexdigest()
        assert digest == "4fdef5f6794d8a02bff18249da7145d2fe7410be2991e319ea8687f83264a104"
        assert len(calls) == 1049

    def test_planar_search_keys_no_child_decided_non_planar(self, monkeypatch):
        # a planar search drops every non-planar child before keying it:
        # 7,382 keys to n = 8, whether the face rule or is_planar decides
        # it (with _three_connected False the rule decides nothing
        # non-planar), so the rule changes only the cost; the stream (key,
        # adjacency and planar, test_stream_frozen's planar8) is the same
        calls = []
        real = td.search.canonical_key

        def counted(n, adj, generators=None):
            calls.append(n)
            return real(n, adj, generators)

        monkeypatch.setattr(td.search, "canonical_key", counted)
        filt = td.SearchFilter(n_max=8, planar_only=True)
        assert stream_census.stream_digest(filt) == STREAMS[1].values[1]
        assert len(calls) == 7382
        monkeypatch.setattr(td.search, "_three_connected", lambda adj, block: False)
        calls.clear()
        assert stream_census.stream_digest(filt) == STREAMS[1].values[1]
        assert len(calls) == 7382

    def test_one_labelling_search_per_key(self, monkeypatch):
        # the generators a parent's orbits need come from the search that
        # computed its key: no second labelling search runs, so _min_code
        # runs once per computed key but the order-1 seed's, which needs none
        keys = []
        searches = []
        real_key = td.search.canonical_key
        real_min_code = td.graphs._min_code

        def counted_key(n, adj, generators=None):
            keys.append(n)
            return real_key(n, adj, generators)

        def counted_min_code(n, adj, cells):
            searches.append(n)
            return real_min_code(n, adj, cells)

        monkeypatch.setattr(td.search, "canonical_key", counted_key)
        monkeypatch.setattr(td.graphs, "_min_code", counted_min_code)
        assert sum(1 for _ in td.enumerate_graphs(td.SearchFilter(n_max=7))) == 995
        assert len(keys) == 1049
        assert len(searches) == 1049 - 1
        assert keys.count(1) == 1 and 1 not in searches

    def test_min_degree_three_at_four(self):
        got = list(td.enumerate_graphs(td.SearchFilter(n_max=4, min_degree=3)))
        assert len(got) == 1
        assert td.Graph(4, got[0][1]).m == 6  # K4 is the only candidate

    def test_triangle_free_matches_oracle(self):
        filt = td.SearchFilter(n_max=5, triangle_free_only=True)
        got = sum(self.level_counts(filt).values())
        expect = 0
        for n in (2, 3, 4, 5):
            expect += sum(
                1 for g in all_graphs_up_to_iso(n, connected_only=True)
                if td.is_triangle_free(g)
            )
        assert got == expect

    def test_planar_matches_oracle(self):
        filt = td.SearchFilter(n_max=6, planar_only=True)
        got = sum(self.level_counts(filt).values())
        expect = 0
        for n in (2, 3, 4, 5, 6):
            expect += sum(
                1 for g in all_graphs_up_to_iso(n, connected_only=True)
                if brute_planar(g)
            )
        assert got == expect

    @pytest.mark.parametrize(
        "restriction, counts",
        [("planar_only", A003094), ("triangle_free_only", A024607)],
        ids=["planar_only", "triangle_free_only"],
    )
    def test_restricted_counts(self, restriction, counts):
        # past the atlas the restrictions prune whole subtrees, so the
        # parent rule must still reach every class through qualifying parents
        filt = td.SearchFilter(n_max=max(counts), **{restriction: True})
        assert self.level_counts(filt) == counts

    def test_keys_sorted_and_unique(self):
        seen = set()
        last = None
        last_n = 0
        for key, adj, _ in td.enumerate_graphs(td.SearchFilter(n_max=5)):
            g = td.Graph(len(adj), adj)
            assert key not in seen
            seen.add(key)
            if g.n == last_n:
                assert last < key
            last, last_n = key, g.n
            assert td.canonical_form(g) == key


def catalog_entries_of(path):
    """The CatalogEntry of each line of a catalog, in file order."""
    return list(td.search._read_catalog(str(path), set()))


# the class count and frozen stream digests (stream_census.stream_digest)
# of each filter: of (key, adjacency, planar), then of (key, adjacency)
# alone, which holds whichever planar facts the enumeration decides
STREAMS = [
    pytest.param(
        td.SearchFilter(n_max=7),
        (
            995,
            "a381d20cdf20b7119e8583cd8532232879b70f63850dcc77126d1c799ddd7984",
            "f094e1dfa9ed03b4e84fd9c6efab6139bf6fbab7daa782df829b8df93dbbe8ef",
        ),
        id="n7",
    ),
    pytest.param(
        td.SearchFilter(n_max=8, planar_only=True),
        (
            6748,
            "d57e000a5e03c123db8b2a8aeb5a36da4f32af141429bbb51a1b374bc688ac2c",
            "7e3ce0a984b14d13d8100bb1260eb58d18a439f8dbd0f3448471b45635605f91",
        ),
        id="planar8",
    ),
    pytest.param(
        td.SearchFilter(n_max=8, triangle_free_only=True),
        (
            356,
            "c4557c74df3962fce5be42316d2594b3d9e74bfa1fc317b0aa68c82f42ea14ac",
            "66cf49ba00cb468127e069f9f1dc11f1be5e725a61fc0a681a845991b33a1411",
        ),
        id="triangle_free8",
    ),
    pytest.param(
        td.SearchFilter(n_max=8, min_degree=3),
        (
            2762,
            "20e6dd5ce8e509fd848a3327366860c963cf93edc84f8b11d586174a06293877",
            "0851065bd6728089a81067aed8033eed19d348b33ffe43968149216a9a250b01",
        ),
        id="min_degree3_8",
    ),
]


class TestEnumerationStream:
    # The whole stream is pinned, not only its keys: the adjacency a key
    # yields is the first labelled child that reached it, so it moves with
    # the order in which children are keyed.
    @pytest.mark.parametrize("filt, digest", STREAMS)
    def test_stream_frozen(self, filt, digest):
        assert stream_census.stream_digest(filt) == digest

    def test_stream_script(self, capsys):
        # CI runs the order-9 stream through tests/stream_census.py; here
        # the order-7 stream, with its frozen digest and with a wrong one
        digest = "099c2a1fdfc6e132138c3cd35a24fa488e11035c5105de4bf48953649eed0c9f"
        keyed = "4adc89248f2063e6d57c2e38748a0692383bf9c2cbae4f8987101404153cefe9"
        assert stream_census.main(["stream", "7", "853", digest]) == 0
        assert capsys.readouterr().out == (
            f"order 7: 853 classes, stream sha256 {digest}, (key, adjacency) sha256 {keyed}\n"
        )
        assert stream_census.main(["stream", "7", "852", digest]) == 1
        assert stream_census.main(["stream", "7", "853", digest[::-1]]) == 1

    @pytest.mark.parametrize("filt, digest", STREAMS)
    def test_every_child_fact_is_exact(self, monkeypatch, filt, digest):
        # every child _keyed_children emits under the filter carries its
        # planarity as a bool, never None: is_planar's answer, and
        # brute_planar's (an independent oracle, Kuratowski by brute force)
        # to order 7
        emitted = []
        real = td.search._keyed_children

        def spy(n, *args):
            keyed = real(n, *args)
            emitted.extend(keyed)
            return keyed

        monkeypatch.setattr(td.search, "_keyed_children", spy)
        assert sum(1 for _ in td.enumerate_graphs(filt)) == digest[0]
        seen = {True: 0, False: 0}
        for key, child, fact, _ in emitted:
            assert isinstance(fact, bool), key.hex()
            seen[fact] += 1
            g = td.Graph(len(child), child)
            assert fact == td.is_planar(g), key.hex()
            if g.n <= 7:
                assert fact == brute_planar(g), key.hex()
        # a planar search drops the non-planar children before keying
        assert seen[True] and bool(seen[False]) != filt.planar_only, seen

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("filt, digest", STREAMS)
    def test_stream_does_not_depend_on_block_size(self, monkeypatch, filt, digest, block):
        # a level is expanded BLOCK parents at a time; every block size
        # keys the children in the same order, so a key keeps the same
        # child and the same planar fact, and a triangle-free parent drops
        # the same children, across block boundaries
        monkeypatch.setattr(td.search, "BLOCK", block)
        assert stream_census.stream_digest(filt) == digest


def random_connected_graph(rng, n):
    while True:
        p = rng.uniform(0.25, 0.6)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = td.Graph.from_edges(n, edges)
        if _connected(g):
            return g


class TestCanonicalParent:
    """The augmentation rule of enumerate_graphs on graphs past the atlas."""

    @pytest.fixture(scope="class")
    def graphs(self):
        rng = random.Random(91)
        out = [random_connected_graph(rng, n) for n in (9, 10) for _ in range(8)]
        # K4 and K4 (or K5) joined through one vertex of degree 2: every
        # vertex of least degree is a cut vertex
        for a in (4, 5):
            edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
            edges += [(u, v) for u in range(5, 5 + a) for v in range(u + 1, 5 + a)]
            g = td.Graph.from_edges(5 + a, edges + [(0, 4), (4, 5)])
            out.append(random_relabel(g, rng))
        return out

    def test_least_degree_non_cut_vertex_is_accepted(self, graphs, atlas7):
        # order 7 adds ties between a deleted vertex and its own neighbours,
        # which the random graphs past the atlas seldom have
        tie_broken = 0
        for g in graphs + [g for _, g in atlas7 if g.n == 7]:
            n = g.n
            non_cut = []
            for v in range(n):
                order = [u for u in range(n) if u != v] + [v]
                h = relabel(g, {old: new for new, old in enumerate(order)})
                parent = td.Graph(n - 1, tuple(row & ~(1 << (n - 1)) for row in h.adj[:-1]))
                if _connected(parent):
                    non_cut.append((v, parent, h.adj[-1]))

            def rank(v):
                return (g.degree(v), -sum(g.degree(u) for u in td.mask_members(g.adj[v])))

            least = min(rank(v) for v, _, _ in non_cut)
            # least degree, but a smaller neighbour-degree sum than another
            tie_broken += sum(
                g.degree(v) == least[0] and rank(v) != least for v, _, _ in non_cut
            )
            for v, parent, nb in non_cut:
                kept = _new_vertex_is_least(
                    nb,
                    parent.adj,
                    _below(n - 1, parent.adj),
                    _parts_without(n - 1, parent.adj),
                    _neighbour_degree_sums(parent.adj),
                )
                assert kept == (rank(v) == least), (g.edges(), v)
        assert tie_broken > 0

    def test_degree_cap_skips_no_kept_neighbourhood(self, atlas6):
        # every neighbourhood the rule keeps has at most _degree_cap members,
        # and the cap skips some neighbourhoods
        skipped = 0
        for _, g in atlas6:
            below, parts = _below(g.n, g.adj), _parts_without(g.n, g.adj)
            sums, cap = _neighbour_degree_sums(g.adj), _degree_cap(g.adj, parts)
            for nb in range(1, 1 << g.n):
                if nb.bit_count() > cap:
                    skipped += 1
                    assert not _new_vertex_is_least(nb, g.adj, below, parts, sums)
        assert skipped > 0

    def test_classify_matches_oracles(self, graphs):
        checked = 0
        triangle_free = set()
        # the Petersen graph: triangle-free, with cycles
        for g in graphs + [petersen_graph()]:
            e = td.classify(g)
            minimal = set(brute_minimal_tds(g))
            sizes = {s.bit_count() for s in minimal}
            assert (e.gamma_t, e.Gamma_t) == (min(sizes), max(sizes)), g.edges()
            assert e.is_wtd == (len(sizes) == 1)
            assert e.rho == brute_packing_number(g)
            assert e.planar == brute_planar(g)
            assert (e.girth, e.diameter) == (brute_girth(g), brute_diameter(g)), g.edges()
            # a scan of vertex triples, which does not read the girth
            triangles = (
                g.has_edge(u, v) and g.has_edge(v, w) and g.has_edge(u, w)
                for u, v, w in combinations(range(g.n), 3)
            )
            assert e.triangle_free == (not any(triangles)), g.edges()
            triangle_free.add(e.triangle_free)
            # edges whose two endpoints form a (necessarily minimal) TDS
            dominating = [(u, v) for u, v in g.edges() if (1 << u) | (1 << v) in minimal]
            if e.gamma_t == 2:
                gde = td.Graph.from_edges(g.n, dominating)
                assert e.nu_gde == brute_matching_number(gde), g.edges()
                checked += 1
            else:
                assert e.nu_gde is None and not dominating
        assert checked > 0
        assert triangle_free == {False, True}


class TestClassify:
    def test_figure_graph(self, figure1):
        e = td.classify(figure1)
        assert (e.n, e.m, e.min_degree) == (5, 6, 2)
        assert (e.gamma_t, e.Gamma_t, e.is_wtd) == (2, 2, True)
        assert (e.rho, e.diameter, e.girth) == (1, 2, 3)
        assert e.nu_gde == 2
        assert e.planar and not e.triangle_free

    def test_c6(self):
        e = td.classify(cycle_graph(6))
        assert (e.gamma_t, e.Gamma_t, e.is_wtd) == (4, 4, True)
        assert (e.rho, e.diameter, e.girth) == (2, 3, 6)
        assert e.nu_gde is None
        assert e.planar and e.triangle_free

    def test_k4(self):
        e = td.classify(complete_graph(4))
        assert (e.n, e.m, e.min_degree) == (4, 6, 3)
        assert (e.gamma_t, e.Gamma_t, e.is_wtd) == (2, 2, True)
        assert (e.rho, e.diameter, e.girth) == (1, 1, 3)
        assert e.nu_gde == 2
        assert e.planar and not e.triangle_free

    def test_isolated_vertex_refused(self):
        # total domination is undefined on K2+K1, K1 and K0, so they have no
        # record: both refuse them with mtds's own message, which names a
        # labelled graph's isolated vertex by its label
        labelled = td.Graph.from_edges(3, [(0, 1)], labels=("a", "b", "c"))
        graphs = (td.Graph.from_edges(3, [(0, 1)]), labelled, td.Graph(1, (0,)), td.Graph(0, ()))
        for g in graphs:
            with pytest.raises(td.DominationUndefinedError) as ref:
                td.mtds(g)
            for compute in (td.classify, td.search.profile):
                with pytest.raises(td.DominationUndefinedError) as err:
                    compute(g)
                assert str(err.value) == str(ref.value)
        with pytest.raises(td.DominationUndefinedError) as err:
            td.classify(labelled)
        assert str(err.value) == "total domination undefined: vertex c is isolated"

    def test_lattice_fields_match_the_profile(self, atlas7):
        # classify reads gamma_t, Gamma_t and the dominating edges off the
        # subset lattice and rho, diameter and girth off the lane kernels,
        # profile off the MMCS family and the per-graph kernels
        rng = random.Random(3812)
        graphs = [g for _, g in atlas7]
        graphs += [
            random_graph_of_kind(rng, rng.randint(2, 12), kind)
            for _ in range(50)
            for kind in ("tree", "sparse", "dense")
        ]
        graphs += [path_graph(2)] + [cycle_graph(n) for n in range(3, 13)]
        graphs += [complete_graph(n) for n in range(3, 13)]
        with_nu = 0
        entries = []
        for g in graphs:
            e = td.classify(g)
            prof = td.search.profile(g)
            edges = prof.dominating_edges
            nu = None if edges is None else td.max_matching_of_edges(edges)
            rep = prof.report
            assert (e.gamma_t, e.Gamma_t, e.is_wtd, e.nu_gde) == (
                rep.gamma_t, rep.Gamma_t, rep.is_wtd, nu
            ), g.edges()
            assert (e.rho, e.diameter, e.girth) == (prof.rho, prof.diameter, prof.girth)
            with_nu += nu is not None
            entries.append(e)
        assert with_nu == 894  # 794 of them in the atlas
        # the same graphs as search blocks of 1, 2, 23 and BLOCK classes:
        # every record is classify's one-graph record, whatever block holds it
        payloads = [(td.canonical_form(g), g.adj, td.is_planar(g)) for g in graphs]
        for size in (1, 2, 23, td.search.BLOCK):
            for start in range(0, len(payloads), size):
                block = payloads[start : start + size]
                assert td.search._classify_block(block) == entries[start : start + size]
        # and a block across the atlas's step from order 6 to order 7
        at = [g.n for g in graphs].index(7) - 1
        assert [g.n for g in graphs[at : at + 2]] == [6, 7]
        assert td.search._classify_block(payloads[at : at + 2]) == entries[at : at + 2]

    def test_relabel_invariance(self, figure1):
        rng = random.Random(53)
        base = td.classify(figure1)
        for _ in range(10):
            assert td.classify(random_relabel(figure1, rng)) == base

    def test_matches_search_records_to_6(self, tmp_path):
        # classify keys the graph and decides its planarity itself, so a
        # relabelled copy of each class gets the record the search wrote
        rng = random.Random(23)
        out = tmp_path / "catalog.jsonl"
        td.run_search(td.SearchFilter(n_max=6), out_path=str(out))
        entries = catalog_entries_of(out)
        assert len(entries) == 142
        for entry in entries:
            g = td.graph_from_canonical(bytes.fromhex(entry.canonical_key))
            got = td.classify(random_relabel(g, rng))
            assert got == entry

    @staticmethod
    def checked_gamma_t_2(graphs):
        """How many graphs have gamma_t 2, after asserting that each profile
        then holds dominating_edge_subgraph(g) exactly, and None otherwise."""
        count = 0
        for g in graphs:
            prof = td.search.profile(g)
            if prof.report.gamma_t == 2:
                assert prof.dominating_edges == td.dominating_edge_subgraph(g), g.edges()
                count += 1
            else:
                assert prof.dominating_edges is None
        return count

    def test_dominating_edges_match_the_scan_to_7(self, atlas7):
        # C4's family lists {1, 2} before {0, 3}; the scan's order is pinned
        assert self.checked_gamma_t_2(g for _, g in atlas7) == 794

    def test_dominating_edges_match_the_scan_past_the_atlas(self):
        rng = random.Random(1212)
        graphs = [random_connected_graph(rng, rng.randint(12, 18)) for _ in range(200)]
        assert self.checked_gamma_t_2(graphs) == 60

    def test_wtd_regression_counts(self):
        wtd_by_n = {4: 0, 5: 0}
        for key, adj, _ in td.enumerate_graphs(td.SearchFilter(n_max=5, n_min=4)):
            e = td.classify(td.Graph(len(adj), adj))
            if e.is_wtd:
                wtd_by_n[e.n] += 1
        assert wtd_by_n == {4: 6, 5: 18}


# Records on both sides of each holds boundary and each applies boundary of
# ASSERTIONS: (id, base record's graph, fields replaced, applies, violated),
# each record's derived fields consistent with the rest.  K4 is planar,
# uniform size 2, min degree 3, nu_gde 2, girth 3; C4 is triangle-free,
# uniform size 2, as T11EQ's recognizer finds it.
NOT_WTD = {"Gamma_t": 3, "is_wtd": False}
BOUNDARIES = [
    ("L12B", "K4", {"nu_gde": 2}, True, False),
    ("L12B", "K4", {"nu_gde": 1}, True, True),
    ("L12B", "K4", {"nu_gde": 1, "min_degree": 2}, False, False),
    ("L12B", "K4", {"nu_gde": 1, **NOT_WTD}, False, False),
    ("T12", "K4", {"n": 16}, True, False),
    ("T12", "K4", {"n": 17}, True, True),
    ("T12", "K4", {"n": 17, "min_degree": 2}, False, False),
    ("T12", "K4", {"n": 17, "planar": False}, False, False),
    ("T12", "K4", {"n": 17, **NOT_WTD}, False, False),
    ("L12A", "K4", {"n": 8, "nu_gde": 3}, True, False),
    ("L12A", "K4", {"n": 9, "nu_gde": 3}, True, True),
    ("L12A", "K4", {"n": 9, "nu_gde": 2}, False, False),
    ("L12A", "K4", {"n": 9, "nu_gde": 3, "planar": False}, False, False),
    ("P7A", "K4", {"n": 9, "nu_gde": 2}, True, False),
    ("P7A", "K4", {"n": 9, "nu_gde": 3}, True, True),
    ("P7A", "K4", {"n": 9, "nu_gde": 1}, True, True),
    ("P7A", "K4", {"n": 8, "nu_gde": 3}, True, False),
    ("P7A", "K4", {"n": 9, "nu_gde": 3, "min_degree": 2}, False, False),
    ("P7A", "K4", {"n": 9, "nu_gde": 3, "planar": False}, False, False),
    ("T14", "K4", {"girth": 12}, True, False),
    ("T14", "K4", {"girth": 13}, True, True),
    ("T14", "K4", {"girth": None}, True, False),
    ("T14", "K4", {"girth": 13, "min_degree": 2}, False, False),
    ("T14", "K4", {"girth": 13, **NOT_WTD}, False, False),
    ("HR97", "K4", {"girth": 14, "min_degree": 2}, True, False),
    ("HR97", "K4", {"girth": 15, "min_degree": 2}, True, True),
    ("HR97", "K4", {"girth": None, "min_degree": 2}, True, False),
    ("HR97", "K4", {"girth": 15, "min_degree": 1}, False, False),
    ("HR97", "K4", {"girth": 15, "min_degree": 2, **NOT_WTD}, False, False),
    ("DIAM3", "K4", {"diameter": 3, "rho": 2}, True, False),
    ("DIAM3", "K4", {"diameter": 3, "rho": 1}, True, True),
    ("DIAM3", "K4", {"diameter": 2, "rho": 2}, True, True),
    ("DIAM3", "K4", {"diameter": 3, "rho": 1, "gamma_t": 3, "Gamma_t": 3, "nu_gde": None}, False, False),
    ("T11EQ", "C4", {}, True, False),
    ("T11EQ", "C4", NOT_WTD, True, True),
    ("T11EQ", "C4", {"girth": 3, "triangle_free": False, **NOT_WTD}, False, False),
]


class TestAssertionIds:
    def test_diam3_reports_violation(self):
        # P4 has gamma_t 2, diameter 3 and rho 2; a catalog entry whose rho
        # disagrees with its diameter must count as a DIAM3 violation
        entry = td.classify(path_graph(4))._replace(rho=1)
        assert (entry.gamma_t, entry.diameter, entry.rho) == (2, 3, 1)
        _, _, applies, holds = td.ASSERTIONS["DIAM3"]
        assert applies(entry) and not holds(entry)

    @pytest.mark.parametrize("name, base, changes, applies, violated", BOUNDARIES)
    def test_boundaries(self, name, base, changes, applies, violated):
        graph = {"K4": complete_graph(4), "C4": cycle_graph(4)}[base]
        entry = td.classify(graph)._replace(**changes)
        _, _, applies_to, holds = td.ASSERTIONS[name]
        assert applies_to(entry) == applies
        assert (applies_to(entry) and not holds(entry)) == violated

    def test_every_assertion_has_boundaries(self):
        assert {case[0] for case in BOUNDARIES} == set(td.ASSERTIONS)

    def test_planted_violation_reported(self, tmp_path, catalog7):
        # one WTD2 line with min degree >= 3 given nu_gde 1 in a copy of the
        # n <= 7 catalog: a resume folds it, and its report lists exactly that
        # key under L12B, every other count and list as the fresh search's
        lines = catalog7[0].decode().splitlines(keepends=True)
        at = next(
            i for i, line in enumerate(lines)
            if (r := json.loads(line))["is_wtd"] and r["gamma_t"] == 2 and r["min_degree"] >= 3
        )
        record = json.loads(lines[at])
        record["nu_gde"] = 1
        lines[at] = json.dumps(record, sort_keys=True) + "\n"
        out = tmp_path / "catalog.jsonl"
        out.write_text("".join(lines))
        rep = td.run_search(td.SearchFilter(n_max=7), out_path=str(out))
        expected = json.loads(json.dumps(catalog7[1]))
        expected["assertions"]["L12B"]["violations"] = [record["canonical_key"]]
        assert rep == expected


class TestRunSearch:
    def test_no_violations_up_to_6(self, tmp_path):
        out = tmp_path / "catalog.jsonl"
        rep = td.run_search(td.SearchFilter(n_max=6), out_path=str(out))
        entries = catalog_entries_of(out)
        assert rep["classified"] == 142 == len(entries)
        assert tuple(rep["assertions"]) == tuple(td.ASSERTIONS)
        for name, data in rep["assertions"].items():
            assert data["violations"] == [], name
        # sanity on applicability counts
        assert rep["assertions"]["DIAM3"]["checked"] == sum(
            1 for e in entries if e.gamma_t == 2
        )
        assert rep["assertions"]["T11EQ"]["checked"] == sum(
            1 for e in entries if e.triangle_free
        )
        assert rep["assertions"]["T11EQ"]["checked"] > 0
        assert rep["assertions"]["HR97"]["checked"] == sum(
            1 for e in entries if e.is_wtd and e.min_degree >= 2
        )

    def test_falsifiable_at_8(self):
        # only n_max decides falsifiability; the filter keeps the run small
        filt = td.SearchFilter(n_max=8, n_min=8, min_degree=3, triangle_free_only=True)
        rep = td.run_search(filt)
        falsifiable = {name for name, data in rep["assertions"].items() if data["falsifiable"]}
        assert falsifiable == {"L12B", "DIAM3", "T11EQ"}

    def test_planar_min_degree_slice(self):
        filt = td.SearchFilter(n_max=7, min_degree=3, planar_only=True)
        rep = td.run_search(filt)
        assert tuple(rep["assertions"]) == tuple(td.ASSERTIONS)
        for data in rep["assertions"].values():
            assert data["violations"] == []

    def test_frontier(self, tmp_path):
        out = tmp_path / "catalog.jsonl"
        rep = td.run_search(td.SearchFilter(n_max=6), out_path=str(out))
        entries = catalog_entries_of(out)
        frontier = rep["frontier"]
        assert frontier["n_max"] == 6
        qualifying = [
            e.n
            for e in entries
            if e.planar and e.is_wtd and e.gamma_t == 2 and e.min_degree >= 3
        ]
        best = frontier["largest_planar_wtd2_min_degree3"]
        assert best is not None
        assert best["n"] == max(qualifying) >= 4

    def test_catalog_persistence(self, tmp_path):
        out = tmp_path / "catalog.jsonl"
        filt = td.SearchFilter(n_max=4)
        rep = td.run_search(filt, out_path=str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == rep["classified"] == 9
        field_names = set(td.CatalogEntry._fields)
        keys_in_file = []
        for line in lines:
            record = json.loads(line)
            assert field_names <= set(record)
            assert isinstance(record["graph6"], str)
            # the same labelled graph as the key, as perfbench's check_catalog demands
            key = bytes.fromhex(record["canonical_key"])
            assert td.parse_graph(record["graph6"], td.GRAPH6) == td.graph_from_canonical(key)
            keys_in_file.append((record["n"], record["canonical_key"]))
        assert keys_in_file == sorted(keys_in_file)

        # a second run reuses every stored entry instead of recomputing
        again = td.run_search(filt, out_path=str(out))
        assert again == rep
        assert out.read_text().splitlines() == lines

    def test_catalog_bytes_frozen(self, tmp_path):
        # every byte of the n <= 6 catalog: fields, graph6 strings and order
        out = tmp_path / "catalog.jsonl"
        td.run_search(td.SearchFilter(n_max=6), out_path=str(out))
        data = out.read_bytes()
        assert data.count(b"\n") == 142
        assert hashlib.sha256(data).hexdigest() == (
            "8482fd8539dcbca332fb57fc27fe5c18602911852264921e655ff01aa9b60b8b"
        )

    def test_catalog_restart_completes_prefix(self, tmp_path):
        out = tmp_path / "catalog.jsonl"
        filt = td.SearchFilter(n_max=4)
        rep = td.run_search(filt, out_path=str(out))
        data = out.read_bytes()
        full = data.decode().splitlines()
        out.write_text(full[0] + "\n" + full[1] + "\n")
        assert td.run_search(filt, out_path=str(out)) == rep
        assert out.read_bytes() == data

    def test_catalog_blank_line_resumes(self, tmp_path, classified):
        out = tmp_path / "catalog.jsonl"
        filt = td.SearchFilter(n_max=4)
        rep = td.run_search(filt, out_path=str(out))
        assert len(classified) == rep["classified"] == 9
        full = out.read_text().splitlines(keepends=True)
        text = "".join(full[:3]) + "\n" + "".join(full[3:])
        out.write_text(text)
        classified.clear()
        assert td.run_search(filt, out_path=str(out)) == rep
        assert classified == [], "a stored class was classified again"
        assert out.read_text() == text

    def test_full_resume_builds_no_graph_per_class(self, tmp_path, monkeypatch, classified):
        # a resumed run builds a Graph only where the enumeration tests
        # planarity and where T11EQ rebuilds a class from its key: none for
        # the yield, and no classification for a catalogued class
        out = tmp_path / "catalog.jsonl"
        filt = td.SearchFilter(n_max=6)
        rep = td.run_search(filt, out_path=str(out))
        data = out.read_bytes()
        assert len(classified) == rep["classified"] == 142
        classified.clear()
        counts = {"graphs": 0, "is_planar": 0, "graph_from_canonical": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        real_post_init = td.Graph.__post_init__
        monkeypatch.setattr(td.Graph, "__post_init__", counting("graphs", real_post_init))
        for name in ("is_planar", "graph_from_canonical"):
            monkeypatch.setattr(td.search, name, counting(name, getattr(td.search, name)))
        assert td.run_search(filt, out_path=str(out)) == rep
        assert classified == [], "a catalogued class was classified again"
        assert out.read_bytes() == data
        assert counts["is_planar"] > 0 and counts["graph_from_canonical"] > 0
        assert counts["graphs"] == counts["is_planar"] + counts["graph_from_canonical"]
        assert counts["graphs"] < rep["classified"]

    def test_corrupt_catalog_line(self, tmp_path):
        out = tmp_path / "catalog.jsonl"
        out.write_text("not json\n")
        with pytest.raises(ValueError) as err:
            td.run_search(td.SearchFilter(n_max=4), out_path=str(out))
        assert "unreadable catalog line" in str(err.value)
        assert ":1:" in str(err.value)

    def test_parallel_matches_serial(self, tmp_path):
        # n <= 5 and n <= 6 are one block each, of 31 and 143 classes, whose
        # diameters and girths the workers take in lanes
        for n_max in (5, 6):
            filt = td.SearchFilter(n_max=n_max)
            serial = tmp_path / f"serial{n_max}.jsonl"
            parallel = tmp_path / f"parallel{n_max}.jsonl"
            rep1 = td.run_search(filt, out_path=str(serial))
            rep2 = td.run_search(filt, out_path=str(parallel), jobs=2)
            assert serial.read_bytes() == parallel.read_bytes()
            assert rep1 == rep2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_gapped_resume_reports_in_enumeration_order(self, tmp_path, monkeypatch, jobs):
        # a resume from every other line folds catalogued and fresh blocks
        # out of enumeration order; the report must not show it
        never = ("always violated", 2, lambda e: True, lambda e: False)
        monkeypatch.setitem(td.search.ASSERTIONS, "NEVER", never)
        filt = td.SearchFilter(n_max=7)
        out = tmp_path / "catalog.jsonl"
        fresh = td.run_search(filt, out_path=str(out))
        keys = [e.canonical_key for e in td.search._read_catalog(str(out), set())]
        lines = out.read_text().splitlines(keepends=True)
        out.write_text("".join(lines[::2]))
        resumed = td.run_search(filt, out_path=str(out), jobs=jobs)
        assert resumed["assertions"]["NEVER"]["violations"] == keys
        assert resumed["frontier"] == fresh["frontier"]
        assert resumed["frontier"]["largest_planar_wtd2_min_degree3"] is not None
        assert resumed == fresh


# the filters a resume must fold under, each against the n <= 7 catalog
RESTRICTIONS_7 = [
    pytest.param({"n_max": 6}, id="n-max-6"),
    pytest.param({"planar_only": True}, id="planar"),
    pytest.param({"triangle_free_only": True}, id="triangle-free"),
    pytest.param({"min_degree": 2}, id="min-degree-2"),
    pytest.param({"n_min": 5}, id="n-min-5"),
    pytest.param({"planar_only": True, "min_degree": 3}, id="planar-min-degree-3"),
]


@pytest.fixture(scope="module")
def catalog7(tmp_path_factory):
    """The bytes of the complete n <= 7 catalog, and its search report."""
    out = tmp_path_factory.mktemp("catalog7") / "catalog.jsonl"
    rep = td.run_search(td.SearchFilter(n_max=7), out_path=str(out))
    return out.read_bytes(), rep


def test_every_field_recomputed_to_7(catalog7):
    # each line of a fresh catalog against tests/oracles.py, which recomputes
    # it from the graph6 string alone, with no totaldom code
    lines = catalog7[0].decode().splitlines()
    assert len(lines) == 995
    for line in lines:
        record = json.loads(line)
        fields = catalog_fields_from_graph6(record["graph6"])
        assert fields == {name: record[name] for name in fields}, line
        assert set(record) == set(fields) | {"canonical_key", "graph6"}


def script_path() -> str:
    """PYTHONPATH for a script under tests/ run in a child process: the
    totaldom this process imports, installed or not, then tests/."""
    src = os.path.dirname(os.path.dirname(td.__file__))
    tests = os.path.dirname(fields.__file__)
    return os.pathsep.join(filter(None, [src, tests, os.environ.get("PYTHONPATH")]))


def test_fields_script(tmp_path, capsys, catalog7):
    # CI's field steps run tests/fields.py on the n <= 8 catalog and on the
    # order-9, -10 and -11 lines of larger ones; here it runs on the n <= 7
    # catalog, then on copies with one wrong rho or key on line 501 (order
    # 7, the 359th of that order, so in half 1)
    good = tmp_path / "catalog.jsonl"
    good.write_bytes(catalog7[0])
    proc = subprocess.run(
        [sys.executable, fields.__file__, str(good), "995"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=script_path()),
    )
    assert (proc.returncode, proc.stdout) == (0, "995 of 995 lines, 0 disagree with the recomputation\n")
    assert fields.main([str(good), "853", "--order", "7", "--half", "0"]) == 0
    assert capsys.readouterr().out == "426 of 853 order-7 lines, 0 disagree with the recomputation\n"
    # a count the catalog does not hold, though half 0 of 852 lines would
    # also be 426 lines
    assert fields.main([str(good), "852", "--order", "7", "--half", "0"]) == 1
    lines = catalog7[0].decode().splitlines(keepends=True)
    record = json.loads(lines[500])
    record["rho"] += 1
    lines[500] = json.dumps(record, sort_keys=True) + "\n"
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(lines))
    capsys.readouterr()
    assert fields.main([str(bad), "995"]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"{bad}:501: recomputed ")
    assert out.endswith("995 of 995 lines, 1 disagree with the recomputation\n")
    # half 1 holds the wrong line, half 0 does not
    assert fields.main([str(bad), "853", "--order", "7", "--half", "1"]) == 1
    assert fields.main([str(bad), "853", "--order", "7", "--half", "0"]) == 0
    # line 501's key with its first triangle bit flipped, then with its last
    # padding bit set (21 triangle bits of order 7 in 3 bytes), graph6 and
    # fields untouched: the script decodes the key itself, so both fail
    record = json.loads(catalog7[0].decode().splitlines()[500])
    key = bytes.fromhex(record["canonical_key"])
    assert len(key) == 4 and key[3] & 0b111 == 0
    for wrong in (key[:1] + bytes([key[1] ^ 0x80]) + key[2:], key[:3] + bytes([key[3] | 1])):
        lines[500] = json.dumps({**record, "canonical_key": wrong.hex()}, sort_keys=True) + "\n"
        bad.write_text("".join(lines))
        capsys.readouterr()
        assert fields.main([str(bad), "995"]) == 1
        assert capsys.readouterr().out == (
            f"{bad}:501: the key and the graph6 string disagree\n"
            "995 of 995 lines, 1 disagree with the recomputation\n"
        )


def test_search_checks_script(capsys, catalog7):
    # CI runs tests/search_checks.py's mtds sweep at order 8, its gc check
    # on the n <= 8 search and its RSS launcher on the n <= 9 searches under
    # 150 MB; here each at n <= 7, the launcher with a roomy bound and with
    # one no Python process meets
    report = json.loads(json.dumps(catalog7[1]))
    assert search_checks.main(["mtds", "7", "853"]) == 0
    assert capsys.readouterr().out == "order 7: mtds equals the subset sweep on 853 classes\n"
    assert search_checks.main(["mtds", "7", "852"]) == 1
    capsys.readouterr()
    assert search_checks.main(["gc", "7"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == report
    assert err == "unreachable objects after the search: 0\n"
    for limit, code in [("500", 0), ("1", 1)]:
        proc = subprocess.run(
            [sys.executable, search_checks.__file__, "rss", limit, "--n-max", "7"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=script_path()),
        )
        assert proc.returncode == code, proc.stderr
        assert json.loads(proc.stdout) == report
        assert proc.stderr.startswith("peak RSS of search --n-max 7: ")
        assert proc.stderr.endswith(f" MB (at most {limit} MB)\n")


@pytest.fixture(scope="module")
def triangle_free_catalog7(tmp_path_factory):
    """The bytes of the triangle-free n <= 7 catalog."""
    out = tmp_path_factory.mktemp("tfcatalog7") / "catalog.jsonl"
    td.run_search(td.SearchFilter(n_max=7, triangle_free_only=True), out_path=str(out))
    return out.read_bytes()


@pytest.fixture(scope="module")
def planar_catalog7(tmp_path_factory):
    """The bytes of the planar n <= 7 catalog."""
    out = tmp_path_factory.mktemp("pcatalog7") / "catalog.jsonl"
    td.run_search(td.SearchFilter(n_max=7, planar_only=True), out_path=str(out))
    return out.read_bytes()


def test_class_set_to_7(tmp_path, capsys, catalog7, triangle_free_catalog7, planar_catalog7):
    # CI runs tests/class_sets.py on the n <= 8, n <= 9, planar n <= 9 and
    # triangle-free n <= 11 catalogs; here it runs on the n <= 7 ones: each
    # connected (triangle-free, planar) class of order <= 7 exactly once, no
    # two lines isomorphic (tests/oracles.py, networkx alone), and each
    # order holding A001349's (A024607's, A003094's) count
    full = tmp_path / "catalog.jsonl"
    full.write_bytes(catalog7[0])
    proc = subprocess.run(
        [sys.executable, class_sets.__file__, str(full), "A001349", "7"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=script_path()),
    )
    assert (proc.returncode, proc.stdout) == (
        0, f"{full}: 995 classes, per order {{2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}}\n"
    )
    free = tmp_path / "free.jsonl"
    free.write_bytes(triangle_free_catalog7)
    assert class_sets.main([str(free), "A024607", "7"]) == 0
    planar = tmp_path / "planar.jsonl"
    planar.write_bytes(planar_catalog7)
    assert class_sets.main([str(planar), "A003094", "7"]) == 0
    assert capsys.readouterr().out.endswith(
        f"{planar}: 774 classes, per order {{2: 1, 3: 2, 4: 6, 5: 20, 6: 99, 7: 646}}\n"
    )
    # a count short of the table's: the catalog stops at order 7
    assert class_sets.main([str(full), "A001349", "8"]) == 1
    assert class_sets.main([str(free), "A024607", "6"]) == 1
    assert capsys.readouterr().out.endswith(
        f"{free}: A024607 has {{2: 1, 3: 1, 4: 3, 5: 6, 6: 19}}\n"
    )


def test_class_set_refuses_a_doubled_class(tmp_path, capsys, catalog7):
    # one order-7 line replaced by one whose graph6 is a relabelled copy of
    # another order-7 class: every count holds, so only the pairwise check
    # can see it
    lines = catalog7[0].decode().splitlines(keepends=True)
    kept, lost = len(lines) - 500, len(lines) - 400
    g = td.parse_graph(json.loads(lines[kept])["graph6"], td.GRAPH6)
    copy = td.serialize_graph(random_relabel(g, random.Random(3)), td.GRAPH6).strip()
    assert g.n == 7 and copy not in catalog7[0].decode()
    lines[lost] = json.dumps({**json.loads(lines[lost]), "graph6": copy}, sort_keys=True) + "\n"
    bad = tmp_path / "doubled.jsonl"
    bad.write_text("".join(lines))
    assert class_sets.main([str(bad), "A001349", "7"]) == 1
    assert capsys.readouterr().out.endswith("are isomorphic\n")


def test_class_set_refuses_a_triangle(tmp_path, capsys, catalog7, triangle_free_catalog7):
    # an order-7 line of the triangle-free catalog replaced by an order-7
    # line with a triangle: the counts hold and no two lines are isomorphic,
    # so only the triangle check can see it
    lines = triangle_free_catalog7.decode().splitlines(keepends=True)
    triangle = next(
        line for line in catalog7[0].decode().splitlines(keepends=True)
        if json.loads(line)["n"] == 7 and not json.loads(line)["triangle_free"]
    )
    assert json.loads(lines[-1])["n"] == 7
    lines[-1] = triangle
    bad = tmp_path / "triangle.jsonl"
    bad.write_text("".join(lines))
    assert class_sets.main([str(bad), "A024607", "7"]) == 1
    graph6 = json.loads(triangle)["graph6"]
    assert capsys.readouterr().out == f"{bad}: {graph6}: has a triangle\n"


def test_class_set_refuses_a_non_planar_line(tmp_path, capsys, catalog7, planar_catalog7):
    # an order-7 line of the planar catalog replaced by a non-planar order-7
    # line: the counts hold and no two lines are isomorphic, so only the
    # planarity check can see it, as it would see a class the enumeration
    # wrongly kept in a planar search
    lines = planar_catalog7.decode().splitlines(keepends=True)
    non_planar = next(
        line for line in catalog7[0].decode().splitlines(keepends=True)
        if json.loads(line)["n"] == 7 and not json.loads(line)["planar"]
    )
    assert json.loads(lines[-1])["n"] == 7
    lines[-1] = non_planar
    bad = tmp_path / "non_planar.jsonl"
    bad.write_text("".join(lines))
    assert class_sets.main([str(bad), "A003094", "7"]) == 1
    graph6 = json.loads(non_planar)["graph6"]
    assert capsys.readouterr().out == f"{bad}: {graph6}: not planar\n"


class TestCrossFilterResume:
    # a resume folds the catalogued records its filter admits and classifies
    # the enumerated classes the catalog lacks, whatever filter wrote the
    # catalog; so admits must accept exactly what the enumeration yields
    @pytest.mark.parametrize("restriction", RESTRICTIONS_7)
    def test_admits_what_the_enumeration_yields(self, tmp_path, catalog7, restriction):
        out = tmp_path / "catalog.jsonl"
        out.write_bytes(catalog7[0])
        filt = td.SearchFilter(**{"n_max": 7, **restriction})
        entries = list(td.search._read_catalog(str(out), set()))
        admitted = [e.canonical_key for e in entries if filt.admits(e)]
        assert 0 < len(admitted) < len(entries)
        assert admitted == [key.hex() for key, _, _ in td.enumerate_graphs(filt)]

    @pytest.mark.parametrize("restriction", RESTRICTIONS_7)
    def test_resume_reports_as_fresh(self, tmp_path, catalog7, classified, restriction):
        filt = td.SearchFilter(**{"n_max": 7, **restriction})
        fresh = td.run_search(filt)
        out = tmp_path / "catalog.jsonl"
        out.write_bytes(catalog7[0])
        classified.clear()
        assert td.run_search(filt, out_path=str(out)) == fresh
        assert classified == [], "a catalogued class was classified again"
        assert out.read_bytes() == catalog7[0]

    def test_planar_catalog_resumed_unrestricted(self, tmp_path, catalog7, classified):
        out = tmp_path / "catalog.jsonl"
        planar = td.run_search(td.SearchFilter(n_max=7, planar_only=True), out_path=str(out))
        classified.clear()
        assert td.run_search(td.SearchFilter(n_max=7), out_path=str(out)) == catalog7[1]
        assert len(classified) == catalog7[1]["classified"] - planar["classified"] > 0
        # the same records as the unrestricted run's, each once
        assert sorted(out.read_bytes().splitlines()) == sorted(catalog7[0].splitlines())


# a strategy for each field type of CatalogEntry, by its annotation
by_type = {
    str: st.binary(max_size=12).map(bytes.hex),
    int: st.integers(),
    int | None: st.none() | st.integers(),
    bool: st.booleans(),
}


@st.composite
def catalog_entries(draw):
    values = {
        name: draw(by_type[kind]) for name, kind in get_type_hints(td.CatalogEntry).items()
    }
    return td.CatalogEntry(**values)


class TestCatalogLine:
    @given(
        catalog_entries(),
        st.text(alphabet=st.sampled_from([chr(c) for c in range(63, 127)])),
    )
    @example(
        td.CatalogEntry("0611dc", 6, 7, 1, 2, 2, True, 2, 3, 4, 1, True, True), "EC\\o"
    )
    @example(td.CatalogEntry("", 0, -1, 0, 0, 0, False, -2, None, None, None, False, False), "~\\~")
    @example(td.CatalogEntry("ff", 10**20, 1, -3, 0, -1, False, 0, -4, 2**70, 5, True, False), "?")
    @settings(max_examples=300, deadline=None)
    def test_equals_sorted_json_dumps(self, entry, graph6):
        # the reference: the record json.dumps writes with sorted keys
        record = entry._asdict()
        record["graph6"] = graph6
        assert _catalog_line(entry, graph6) == json.dumps(record, sort_keys=True) + "\n"


@st.composite
def connected_graphs(draw):
    """A connected graph on 2 to 9 vertices: a random tree and any other pairs."""
    n = draw(st.integers(2, 9))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= {pair for pair in combinations(range(n), 2) if draw(st.booleans())}
    return td.Graph.from_edges(n, sorted(edges))


class TestCatalogRead:
    @given(st.lists(connected_graphs(), min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_reads_back_what_the_writer_writes(self, tmp_path_factory, graphs):
        # one entry per class, as a search writes them
        entries = list({e.canonical_key: e for e in map(td.classify, graphs)}.values())
        path = tmp_path_factory.mktemp("catalog") / "catalog.jsonl"
        path.write_text("".join(
            _catalog_line(e, graph6_from_key(bytes.fromhex(e.canonical_key))) for e in entries
        ))
        done = set()
        assert list(td.search._read_catalog(str(path), done)) == entries
        assert done == {bytes.fromhex(e.canonical_key) for e in entries}
