import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import totaldom as td
from totaldom.search import (
    _below,
    _catalog_line,
    _degree_cap,
    _fits_in_a_face,
    _neighbour_degree_sums,
    _new_vertex_is_least,
    _parts_without,
)
from oracles import (
    _connected,
    all_graphs_up_to_iso,
    brute_matching_number,
    brute_minimal_tds,
    brute_packing_number,
    brute_planar,
    complete_graph,
    cycle_graph,
    path_graph,
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
            ({"planar_only": True}, 9, "11,989,763", "A001349"),
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
        # these orders; the rest of each table is cited from OEIS
        for table, counts in [
            (td.search.CONNECTED_CLASSES, A001349),
            (td.search.CONNECTED_TRIANGLE_FREE, A024607),
        ]:
            assert len(table) == td.CANONICAL_BOUND + 1
            assert {n: table[n] for n in counts} == counts

    def test_planar_budget_decides_as_a003094_would(self):
        # a planar search is budgeted by all connected classes (A001349), as
        # it also keys non-planar children; it accepts exactly the n_max
        # whose connected planar classes (OEIS A003094, n = 2..12) fit
        planar = (1, 2, 6, 20, 99, 646, 5974, 71885, 1052805, 17449299, 313372298)
        assert {n: planar[n - 2] for n in A003094} == A003094
        assert td.CANONICAL_BOUND == 12
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
        # below the last level every class carries its planarity, decided by
        # is_planar or inherited; on the last level planar is inherited or
        # None, and every inherited value is right
        inherited = {True: 0, False: 0}
        for key, g, planar in enumerated8:
            if g.n <= 7:
                assert planar == brute_planar(g), key.hex()
            elif planar is not None:
                assert planar == brute_planar(g), key.hex()
                inherited[planar] += 1
        assert inherited[True] > 0 and inherited[False] > 0

    def test_last_level_planarity(self):
        # on the last level planar is inherited in both directions or None;
        # the classification keeps an inherited value and decides the rest
        inherited = {True: 0, False: 0, None: 0}
        for key, adj, planar in td.enumerate_graphs(td.SearchFilter(n_max=7, n_min=7)):
            g = td.Graph(7, adj)
            if planar is not None:
                assert planar == brute_planar(g), key.hex()
            inherited[planar] += 1
            entry = td.search._classify_block([(key, adj, planar)])[0]
            assert entry.planar == brute_planar(g), key.hex()
        assert all(inherited.values())

    def test_fits_in_a_face(self):
        # K5 minus the edge 0-1 is planar; a new vertex joined to an edge of
        # it (or to one vertex) keeps it planar, one joined to 0 and 1 makes
        # a subdivided K5
        adj = complete_graph(5).adj
        adj = (adj[0] & ~2, adj[1] & ~1) + adj[2:]
        assert _fits_in_a_face(adj, 0b00001)
        assert _fits_in_a_face(adj, 0b00101)
        assert not _fits_in_a_face(adj, 0b00011)
        assert not _fits_in_a_face(adj, 0b00111)
        parent = td.Graph(5, adj)
        child = td.Graph(6, (adj[0] | 1 << 5, adj[1] | 1 << 5) + adj[2:] + (0b11,))
        assert brute_planar(parent) and not brute_planar(child)

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
        for g in graphs:
            e = td.classify(g)
            minimal = set(brute_minimal_tds(g))
            sizes = {s.bit_count() for s in minimal}
            assert (e.gamma_t, e.Gamma_t) == (min(sizes), max(sizes)), g.edges()
            assert e.is_wtd == (len(sizes) == 1)
            assert e.rho == brute_packing_number(g)
            assert e.planar == brute_planar(g)
            # edges whose two endpoints form a (necessarily minimal) TDS
            dominating = [(u, v) for u, v in g.edges() if (1 << u) | (1 << v) in minimal]
            if e.gamma_t == 2:
                gde = td.Graph.from_edges(g.n, dominating)
                assert e.nu_gde == brute_matching_number(gde), g.edges()
                checked += 1
            else:
                assert e.nu_gde is None and not dominating
        assert checked > 0


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

    def test_isolated_vertex_fields(self):
        e = td.classify(td.Graph.from_edges(3, [(0, 1)]))
        assert e.gamma_t is None and e.Gamma_t is None and e.is_wtd is None
        assert e.nu_gde is None
        assert e.rho == 2
        assert e.diameter is None
        assert e.girth is None

    def test_relabel_invariance(self, figure1):
        rng = random.Random(53)
        base = td.classify(figure1)
        for _ in range(10):
            assert td.classify(random_relabel(figure1, rng)) == base

    def test_matches_search_records_to_6(self):
        # classify keys the graph and decides its planarity itself, so a
        # relabelled copy of each class gets the record the search wrote
        rng = random.Random(23)
        entries, _ = td.run_search(td.SearchFilter(n_max=6), ["DIAM3"])
        assert len(entries) == 142
        for entry in entries:
            g = td.graph_from_canonical(bytes.fromhex(entry.canonical_key))
            got = td.classify(random_relabel(g, rng))
            assert dataclasses.asdict(got) == dataclasses.asdict(entry)

    def test_wtd_regression_counts(self):
        wtd_by_n = {4: 0, 5: 0}
        for key, adj, _ in td.enumerate_graphs(td.SearchFilter(n_max=5, n_min=4)):
            e = td.classify(td.Graph(len(adj), adj))
            if e.is_wtd:
                wtd_by_n[e.n] += 1
        assert wtd_by_n == {4: 6, 5: 18}


class TestAssertionIds:
    def test_all(self):
        assert td.resolve_assertion_ids(["all"]) == tuple(td.ASSERTIONS)

    def test_case_insensitive_and_dedup(self):
        assert td.resolve_assertion_ids(["t12", "l12a", "T12"]) == ("T12", "L12A")

    @pytest.mark.parametrize("name", ["t12", "diam3"])
    def test_first_mention_order_with_all(self, name):
        first = name.upper()
        rest = tuple(known for known in td.ASSERTIONS if known != first)
        assert td.resolve_assertion_ids([name, "all"]) == (first,) + rest
        assert td.resolve_assertion_ids(["all", name]) == tuple(td.ASSERTIONS)

    def test_unknown(self):
        with pytest.raises(ValueError) as err:
            td.resolve_assertion_ids(["T99"])
        assert "unknown assertion id" in str(err.value)

    def test_empty(self):
        with pytest.raises(ValueError):
            td.resolve_assertion_ids([])
        with pytest.raises(ValueError):
            td.resolve_assertion_ids(["", "  "])

    def test_diam3_reports_violation(self):
        # P4 has gamma_t 2, diameter 3 and rho 2; a catalog entry whose rho
        # disagrees with its diameter must count as a DIAM3 violation
        entry = dataclasses.replace(td.classify(path_graph(4)), rho=1)
        assert (entry.gamma_t, entry.diameter, entry.rho) == (2, 3, 1)
        _, _, applies, holds = td.ASSERTIONS["DIAM3"]
        assert applies(entry) and not holds(entry)


class TestRunSearch:
    def test_no_violations_up_to_6(self):
        entries, rep = td.run_search(td.SearchFilter(n_max=6), ["all"])
        assert rep["classified"] == 142 == len(entries)
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
        _, rep = td.run_search(filt, ["all"])
        falsifiable = {name for name, data in rep["assertions"].items() if data["falsifiable"]}
        assert falsifiable == {"L12B", "DIAM3", "T11EQ"}

    def test_planar_min_degree_slice(self):
        filt = td.SearchFilter(n_max=7, min_degree=3, planar_only=True)
        entries, rep = td.run_search(filt, ["T14", "L12b"])
        assert set(rep["assertions"]) == {"T14", "L12B"}
        for data in rep["assertions"].values():
            assert data["violations"] == []

    def test_frontier(self):
        entries, rep = td.run_search(td.SearchFilter(n_max=6), ["T12"])
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
        entries, _ = td.run_search(filt, ["DIAM3"], out_path=str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == len(entries) == 9
        field_names = set(td.CatalogEntry.__dataclass_fields__)
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
        again, _ = td.run_search(filt, ["DIAM3"], out_path=str(out))
        assert again == entries
        assert out.read_text().splitlines() == lines

    def test_catalog_bytes_frozen(self, tmp_path):
        # every byte of the n <= 6 catalog: fields, graph6 strings and order
        out = tmp_path / "catalog.jsonl"
        td.run_search(td.SearchFilter(n_max=6), ["DIAM3"], out_path=str(out))
        data = out.read_bytes()
        assert data.count(b"\n") == 142
        assert hashlib.sha256(data).hexdigest() == (
            "8482fd8539dcbca332fb57fc27fe5c18602911852264921e655ff01aa9b60b8b"
        )

    def test_catalog_restart_completes_prefix(self, tmp_path):
        out = tmp_path / "catalog.jsonl"
        filt = td.SearchFilter(n_max=4)
        entries, _ = td.run_search(filt, ["DIAM3"], out_path=str(out))
        full = out.read_text().splitlines()
        out.write_text(full[0] + "\n" + full[1] + "\n")
        resumed, _ = td.run_search(filt, ["DIAM3"], out_path=str(out))
        assert resumed == entries
        assert len(out.read_text().splitlines()) == len(full)

    def test_catalog_blank_line_resumes(self, tmp_path, classified):
        out = tmp_path / "catalog.jsonl"
        filt = td.SearchFilter(n_max=4)
        entries, _ = td.run_search(filt, ["DIAM3"], out_path=str(out))
        assert len(classified) == len(entries) == 9
        full = out.read_text().splitlines(keepends=True)
        text = "".join(full[:3]) + "\n" + "".join(full[3:])
        out.write_text(text)
        classified.clear()
        resumed, _ = td.run_search(filt, ["DIAM3"], out_path=str(out))
        assert classified == [], "a stored class was classified again"
        assert resumed == entries
        assert out.read_text() == text

    def test_full_resume_builds_no_graph_per_class(self, tmp_path, monkeypatch, classified):
        # a resumed run builds a Graph only where the enumeration tests
        # planarity and where T11EQ rebuilds a class from its key: none for
        # the yield, and no classification for a catalogued class
        out = tmp_path / "catalog.jsonl"
        filt = td.SearchFilter(n_max=6)
        entries, _ = td.run_search(filt, ["all"], out_path=str(out))
        assert len(classified) == len(entries) == 142
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
        resumed, _ = td.run_search(filt, ["all"], out_path=str(out))
        assert classified == [], "a catalogued class was classified again"
        assert resumed == entries
        assert counts["is_planar"] > 0 and counts["graph_from_canonical"] > 0
        assert counts["graphs"] == counts["is_planar"] + counts["graph_from_canonical"]
        assert counts["graphs"] < len(entries)

    def test_corrupt_catalog_line(self, tmp_path):
        out = tmp_path / "catalog.jsonl"
        out.write_text("not json\n")
        with pytest.raises(ValueError) as err:
            td.run_search(td.SearchFilter(n_max=4), ["DIAM3"], out_path=str(out))
        assert "unreadable catalog line" in str(err.value)
        assert ":1:" in str(err.value)

    def test_parallel_matches_serial(self):
        filt = td.SearchFilter(n_max=5)
        serial, rep1 = td.run_search(filt, ["all"])
        parallel, rep2 = td.run_search(filt, ["all"], jobs=2)
        assert serial == parallel
        assert rep1 == rep2


# a strategy for each field type of CatalogEntry, by its annotation
by_type = {
    "str": st.binary(max_size=12).map(bytes.hex),
    "int": st.integers(),
    "int | None": st.none() | st.integers(),
    "bool": st.booleans(),
    "bool | None": st.none() | st.booleans(),
}


@st.composite
def catalog_entries(draw):
    values = {
        f.name: draw(by_type[f.type]) for f in dataclasses.fields(td.CatalogEntry)
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
    @example(td.CatalogEntry("", 0, -1, 0, None, None, None, -2, None, None, None, False, False), "~\\~")
    @example(td.CatalogEntry("ff", 10**20, 1, -3, 0, -1, False, 0, -4, 2**70, 5, True, False), "?")
    @settings(max_examples=300, deadline=None)
    def test_equals_sorted_json_dumps(self, entry, graph6):
        # the reference: the record json.dumps writes with sorted keys
        record = dataclasses.asdict(entry)
        record["graph6"] = graph6
        assert _catalog_line(entry, graph6) == json.dumps(record, sort_keys=True) + "\n"
