import dataclasses
import hashlib
import json
import random

import pytest

import totaldom as td
from totaldom.search import _below, _new_vertex_is_least, _parts_without
from oracles import (
    _connected,
    all_graphs_up_to_iso,
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


class TestSearchFilter:
    def test_n_min_floor(self):
        with pytest.raises(ValueError):
            td.SearchFilter(n_max=5, n_min=1)

    def test_n_min_above_n_max(self):
        with pytest.raises(ValueError):
            td.SearchFilter(n_max=3, n_min=4)

    def test_n_max_cap(self):
        with pytest.raises(td.CapabilityError):
            td.SearchFilter(n_max=td.CANONICAL_BOUND + 1)

    def test_min_degree_sign(self):
        with pytest.raises(ValueError):
            td.SearchFilter(n_max=4, min_degree=-1)


class TestEnumeration:
    def level_counts(self, filt):
        counts = {}
        for key, g, _ in td.enumerate_graphs(filt):
            counts[g.n] = counts.get(g.n, 0) + 1
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
        # below the last level every class carries its planarity, decided
        # by is_planar or inherited from a non-planar parent
        inherited = 0
        for key, g, planar in enumerated8:
            if g.n <= 7:
                assert planar == brute_planar(g), key.hex()
            else:
                assert planar in (None, False), key.hex()
                inherited += planar is False
        assert inherited > 0

    def test_last_level_planarity(self):
        # on the last level planar is only ever an inherited False; classify
        # decides the rest
        for key, g, planar in td.enumerate_graphs(td.SearchFilter(n_max=7, n_min=7)):
            assert planar is None or planar is False
            assert td.classify(g, key=key, planar=planar).planar == brute_planar(g), key.hex()

    def test_min_degree_three_at_four(self):
        got = list(td.enumerate_graphs(td.SearchFilter(n_max=4, min_degree=3)))
        assert len(got) == 1
        assert got[0][1].m == 6  # K4 is the only candidate

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

    def test_keys_sorted_and_unique(self):
        seen = set()
        last = None
        last_n = 0
        for key, g, _ in td.enumerate_graphs(td.SearchFilter(n_max=5)):
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

    def test_least_degree_non_cut_vertex_is_accepted(self, graphs):
        for g in graphs:
            n = g.n
            non_cut = []
            for v in range(n):
                order = [u for u in range(n) if u != v] + [v]
                h = relabel(g, {old: new for new, old in enumerate(order)})
                parent = td.Graph(n - 1, tuple(row & ~(1 << (n - 1)) for row in h.adj[:-1]))
                if _connected(parent):
                    non_cut.append((v, parent, h.adj[-1]))
            least = min(g.degree(v) for v, _, _ in non_cut)
            for v, parent, nb in non_cut:
                kept = _new_vertex_is_least(
                    nb, _below(n - 1, parent.adj), _parts_without(n - 1, parent.adj)
                )
                assert kept == (g.degree(v) == least), (g.edges(), v)

    def test_classify_matches_oracles(self, graphs):
        for g in graphs:
            e = td.classify(g)
            sizes = {s.bit_count() for s in brute_minimal_tds(g)}
            assert (e.gamma_t, e.Gamma_t) == (min(sizes), max(sizes)), g.edges()
            assert e.is_wtd == (len(sizes) == 1)
            assert e.rho == brute_packing_number(g)
            assert e.planar == brute_planar(g)


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

    def test_wtd_regression_counts(self):
        wtd_by_n = {4: 0, 5: 0}
        for key, g, _ in td.enumerate_graphs(td.SearchFilter(n_max=5, n_min=4)):
            e = td.classify(g, key=key)
            if e.is_wtd:
                wtd_by_n[e.n] += 1
        assert wtd_by_n == {4: 6, 5: 18}


class TestAssertionIds:
    def test_all(self):
        assert td.resolve_assertion_ids(["all"]) == tuple(td.ASSERTIONS)

    def test_case_insensitive_and_dedup(self):
        assert td.resolve_assertion_ids(["t12", "l12a", "T12"]) == ("T12", "L12A")

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
