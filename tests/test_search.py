import dataclasses
import json
import random

import pytest

import totaldom as td
from oracles import (
    all_graphs_up_to_iso,
    brute_planar,
    complete_graph,
    cycle_graph,
    path_graph,
    random_relabel,
)


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
        for key, g in td.enumerate_graphs(filt):
            counts[g.n] = counts.get(g.n, 0) + 1
        return counts

    def test_connected_counts(self):
        counts = self.level_counts(td.SearchFilter(n_max=6))
        assert counts == {2: 1, 3: 2, 4: 6, 5: 21, 6: 112}

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
        for key, g in td.enumerate_graphs(td.SearchFilter(n_max=5)):
            assert key not in seen
            seen.add(key)
            if g.n == last_n:
                assert last < key
            last, last_n = key, g.n
            assert td.canonical_form(g) == key


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
        for key, g in td.enumerate_graphs(td.SearchFilter(n_max=5, n_min=4)):
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
        _, applies, holds = td.ASSERTIONS["DIAM3"]
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
            rep_graph = td.parse_graph(record["graph6"], td.GRAPH6)
            assert td.canonical_form(rep_graph).hex() == record["canonical_key"]
            keys_in_file.append((record["n"], record["canonical_key"]))
        assert keys_in_file == sorted(keys_in_file)

        # a second run reuses every stored entry instead of recomputing
        again, _ = td.run_search(filt, ["DIAM3"], out_path=str(out))
        assert again == entries
        assert out.read_text().splitlines() == lines

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
