import concurrent.futures
import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import totaldom as td
from totaldom import cli
from totaldom.cli import _analyze_payload, _dumps, main

FIGURE1 = "n 5\n# labels: x y z t w\n0 1\n0 3\n1 2\n1 3\n2 4\n3 4\n"
P5 = "n 5\n0 1\n1 2\n2 3\n3 4\n"
P4 = "n 4\n0 1\n1 2\n2 3\n"
C6 = "n 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n"
ISOLATED = "n 3\n0 1\n"
FIG2_RECIPE = """\
H:
n 4
0 1
2 3
MVC:
0,2 -> 4
1,2 -> 5
0,3 -> 6
1,3 -> 7
STEP3:
0 2
1 3
HPRIME:
n 3
0 1
1 2
STEP4:
0 0
0 3
1 1
1 2
2 0
2 2
2 3
"""


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out:
        # every command's stdout is exactly the stdlib's indent-2 layout
        assert captured.out == json.dumps(json.loads(captured.out), indent=2) + "\n"
    return code, captured.out, captured.err


FIGURE1_ANALYZE = (
    '{\n  "n": 5,\n  "m": 6,\n  "gamma_t": 2,\n  "Gamma_t": 2,\n  "is_wtd": true,\n'
    '  "mtds": [\n    [\n      "y",\n      "z"\n    ],\n    [\n      "y",\n      "t"\n    ],\n'
    '    [\n      "t",\n      "w"\n    ]\n  ],\n  "rho": 1,\n  "diameter": 2,\n  "girth": 3,\n'
    '  "g_de_edges": [\n    [\n      "y",\n      "z"\n    ],\n    [\n      "y",\n      "t"\n    ],\n'
    '    [\n      "t",\n      "w"\n    ]\n  ]\n}\n'
)

REALIZE_AB_BC = (
    '{\n  "graph": "n 5\\n# labels: a b c v{b} v{a,c}\\n0 1\\n0 2\\n0 4\\n1 2\\n1 3\\n2 4\\n",\n'
    '  "ground": [\n    "a",\n    "b",\n    "c"\n  ],\n  "self_check": {\n    "n": 5,\n    "m": 6,\n'
    '    "gamma_t": 2,\n    "Gamma_t": 2,\n    "is_wtd": true,\n'
    '    "mtds": [\n      [\n        "a",\n        "b"\n      ],\n      [\n        "b",\n        "c"\n      ]\n    ],\n'
    '    "rho": 2,\n    "diameter": 3,\n    "girth": 3,\n'
    '    "g_de_edges": [\n      [\n        "a",\n        "b"\n      ],\n      [\n        "b",\n        "c"\n      ]\n    ]\n'
    '  }\n}\n'
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**63, max_value=10**40)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0])
    | st.text(),
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


@st.composite
def named_sets(draw):
    """(n, distinct labels or None, a list of nonempty vertex-set masks).

    n runs to 64, and half the lists hold at least _CHUNKED_FROM of up to 40
    sets, so the writer takes both of its paths (members one by one, and
    chunks of ids) across every chunk boundary."""
    n = draw(st.integers(1, 64))
    labels = st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True)
    least = draw(st.sampled_from((0, cli._CHUNKED_FROM)))
    masks = st.lists(st.integers(1, (1 << n) - 1), min_size=least, max_size=40)
    return n, draw(st.none() | labels.map(tuple)), draw(masks)


class TestWriter:
    @given(json_values)
    @example({"": [], "a": {}})
    @example([[], [{}], [True, 1], [1, 1.0], [None], ("é", "\x00"), [-3, 10**40]])
    @settings(max_examples=300, deadline=None)
    def test_equals_stdlib_indent2(self, value):
        assert _dumps(value) == json.dumps(value, indent=2)

    def test_figure1_analyze_bytes_frozen(self, capsys, graph_file):
        code, out, _ = run_cli(capsys, "analyze", graph_file(FIGURE1))
        assert code == 0
        assert out == FIGURE1_ANALYZE

    def test_realize_bytes_frozen(self, capsys):
        code, out, _ = run_cli(capsys, "realize", "--family", "{a,b};{b,c}")
        assert code == 0
        assert out == REALIZE_AB_BC

    @given(named_sets())
    @example((1, None, []))
    @example((1, None, [0b1]))
    @example((3, None, [0b1, 0b110]))
    @example((1, ('"',), [0b1]))
    @example((5, ("\\", "é", "\x00", "\n\x7f", "\u2028"), [0b11111, 0b10]))
    @example((64, None, [(1 << 64) - 1, 1 << 63, 1 << 6, (1 << 6) - 1, *range(1, 13)]))
    @example((64, tuple(map(str, range(64, 0, -1))), [1 << v for v in range(64)]))
    @settings(max_examples=300, deadline=None)
    def test_vertex_sets_equal_stdlib_indent2(self, case):
        n, labels, masks = case
        g = td.Graph(n, (0,) * n, labels)
        names = cli._name_table(g)
        listed = [[g.label(v) for v in td.mask_members(mask)] for mask in masks]
        for wrap in (lambda x: {"mtds": x}, lambda x: {"self_check": {"mtds": x}}):
            assert _dumps(wrap(cli._Sets(names, masks))) == json.dumps(wrap(listed), indent=2)
        # recognize writes its witness as the list of its members' names
        for members in listed:
            assert _dumps({"witness": members}) == json.dumps({"witness": members}, indent=2)


class TestAnalyze:
    def test_figure_graph(self, capsys, graph_file):
        path = graph_file(FIGURE1)
        code, out, err = run_cli(capsys, "analyze", path)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["n"] == 5 and payload["m"] == 6
        assert payload["gamma_t"] == 2 and payload["Gamma_t"] == 2
        assert payload["is_wtd"] is True
        assert payload["mtds"] == [["y", "z"], ["y", "t"], ["t", "w"]]
        assert payload["rho"] == 1
        assert payload["g_de_edges"] == [["y", "z"], ["y", "t"], ["t", "w"]]

    def test_c4_dominating_edges_in_pair_order(self, capsys, graph_file):
        # the family lists sets by mask, so {0, 3} (9) follows {1, 2} (6);
        # the dominating edges are the same four sets as sorted (u, v) pairs
        code, out, _ = run_cli(capsys, "analyze", graph_file("n 4\n0 1\n1 2\n2 3\n0 3\n"))
        assert code == 0
        payload = json.loads(out)
        assert payload["mtds"] == [[0, 1], [1, 2], [0, 3], [2, 3]]
        assert payload["g_de_edges"] == [[0, 1], [0, 3], [1, 2], [2, 3]]

    def test_family_limit(self, capsys, graph_file):
        # 16 disjoint copies of K4 have 6**16 minimal TDSs; the profile
        # stops after MTDS_LIMIT of them (about 1 s) instead
        edges = "".join(
            f"{4 * c + i} {4 * c + j}\n" for c in range(16) for i in range(4) for j in range(i + 1, 4)
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", graph_file("n 64\n" + edges))
        assert time.perf_counter() - start < 60
        assert code == 2 and out == ""
        assert f"more than MTDS_LIMIT = {td.search.MTDS_LIMIT} minimal total dominating sets" in err

    def test_byte_identical_reruns(self, capsys, graph_file):
        path = graph_file(FIGURE1)
        _, first, _ = run_cli(capsys, "analyze", path)
        _, second, _ = run_cli(capsys, "analyze", path)
        assert first == second

    def test_p5(self, capsys, graph_file):
        path = graph_file(P5)
        code, out, _ = run_cli(capsys, "analyze", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["gamma_t"] == 3 and payload["Gamma_t"] == 4
        assert payload["is_wtd"] is False
        assert "g_de_edges" not in payload
        assert payload["mtds"] == [[1, 2, 3], [0, 1, 3, 4]]

    def test_isolated_vertex(self, capsys, graph_file):
        path = graph_file(ISOLATED)
        code, out, err = run_cli(capsys, "analyze", path)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "total domination undefined" in err

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(P4))
        code, out, _ = run_cli(capsys, "analyze", "-")
        assert code == 0
        assert json.loads(out)["gamma_t"] == 2

    def test_graph6_format(self, capsys, graph_file):
        path = graph_file("C~\n", name="k4.g6")
        code, out, _ = run_cli(capsys, "analyze", path, "--format", "graph6")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 4 and payload["m"] == 6

    def test_graph6_second_graph_exits_2(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("C~\ngarbage!!\n"))
        code, out, err = run_cli(capsys, "analyze", "--format", "graph6", "-")
        assert code == 2
        assert out == ""
        assert "line 2: " in err

    def test_missing_file(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "analyze", str(tmp_path / "nope.txt"))
        assert code == 2
        assert err.startswith("error:")

    def test_agrees_with_catalog_on_atlas6(self, atlas6):
        for key, g in atlas6:
            # vertex sets stay masks until written, so compare the JSON
            payload = json.loads(_dumps(_analyze_payload(g)))
            entry = td.classify(g)
            assert entry.canonical_key == key.hex()
            for field in ("gamma_t", "Gamma_t", "is_wtd", "rho", "diameter", "girth"):
                assert payload[field] == getattr(entry, field), (key.hex(), field)
            edges = payload.get("g_de_edges")
            nu = None if edges is None else td.max_matching_of_edges(map(tuple, edges))
            assert entry.nu_gde == nu, key.hex()


class TestRecognize:
    def test_accept(self, capsys, graph_file):
        path = graph_file(FIGURE1)
        code, out, _ = run_cli(capsys, "recognize", path, "--k", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"wtd_k": True, "k": 2, "witness": ["y", "z"]}

    def test_reject_quiet(self, capsys, graph_file):
        path = graph_file(C6)
        code, out, _ = run_cli(capsys, "recognize", path, "--k", "2")
        assert code == 1
        payload = json.loads(out)
        assert payload == {"wtd_k": False, "k": 2}

    def test_reject_with_witness(self, capsys, graph_file):
        path = graph_file(C6)
        code, out, _ = run_cli(capsys, "recognize", path, "--k", "2", "--witness")
        assert code == 1
        payload = json.loads(out)
        assert payload["reason"] == "larger-witness"
        assert len(payload["witness"]) == 4

    def test_k_too_small(self, capsys, graph_file):
        path = graph_file(P4)
        code, _, err = run_cli(capsys, "recognize", path, "--k", "1")
        assert code == 2
        assert "at least 2" in err

    @staticmethod
    def disjoint_k4s(copies):
        return f"n {4 * copies}\n" + "".join(
            f"{4 * c + i} {4 * c + j}\n"
            for c in range(copies) for i in range(4) for j in range(i + 1, 4)
        )

    def test_size_k_limit(self, capsys, graph_file):
        # 6 disjoint copies of K4 have 6**6 = 46,656 minimal TDSs of size 12,
        # whose dualization ran for about a minute; recognition stops after
        # SIZE_K_LIMIT of them instead
        path = graph_file(self.disjoint_k4s(6))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "recognize", path, "--k", "12")
        assert time.perf_counter() - start < 10
        assert code == 2 and out == ""
        limit = td.hypergraph.SIZE_K_LIMIT
        assert f"more than SIZE_K_LIMIT = {limit} minimal transversals of size at most 12" in err

    @staticmethod
    def clique_prism(m):
        # two copies of K_m joined by a perfect matching: the matching's m
        # edges are its only minimal TDSs of size 2, and they dualize to the
        # 2**m sets with one end of each
        return f"n {2 * m}\n" + "".join(
            f"{s + i} {s + j}\n" for s in (0, m) for i in range(m) for j in range(i + 1, m)
        ) + "".join(f"{i} {m + i}\n" for i in range(m))

    def test_size_k_dualization_limit(self, capsys, graph_file):
        # the 20 size-2 sets dualize to 2**20 = 1,048,576 sets, which would
        # take well over a minute to list and check; recognition stops after
        # SIZE_K_LIMIT of them instead
        path = graph_file(self.clique_prism(20))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "recognize", path, "--k", "2", "--witness")
        assert time.perf_counter() - start < 10
        assert code == 2 and out == ""
        limit = td.hypergraph.SIZE_K_LIMIT
        assert (
            f"the 20 minimal transversals of size at most 2 dualize to "
            f"more than SIZE_K_LIMIT = {limit} sets"
        ) in err

    def test_below_size_k_dualization_limit(self, capsys, graph_file):
        # 2**12 = 4,096 sets in the dualization: decided, with a witness of
        # size 12 (one end of each matching edge)
        path = graph_file(self.clique_prism(12))
        code, out, _ = run_cli(capsys, "recognize", path, "--k", "2", "--witness")
        assert code == 1
        payload = json.loads(out)
        assert payload["reason"] == "larger-witness" and len(payload["witness"]) == 12

    def test_below_size_k_limit(self, capsys, graph_file):
        # 4 copies: 6**4 = 1,296 size-8 sets, accepted
        code, out, _ = run_cli(capsys, "recognize", graph_file(self.disjoint_k4s(4)), "--k", "8")
        assert code == 0
        assert json.loads(out)["wtd_k"] is True

    def test_size_k_limit_admits_depth_two_on_64_vertices(self, capsys, graph_file):
        # every pair of K64 is a minimal TDS: C(64, 2) = 2,016 sets, the most
        # a depth-2 search (w2-check's) can meet
        edges = "".join(f"{u} {v}\n" for u in range(64) for v in range(u + 1, 64))
        code, out, _ = run_cli(capsys, "recognize", graph_file("n 64\n" + edges), "--k", "2")
        assert code == 0
        assert json.loads(out)["wtd_k"] is True

    def test_cut_limit(self, capsys, graph_file):
        # at k = 2m - 1 on m copies (gamma_t = 2m) the depth-k search lists
        # no set but cuts 3 * 6**(m - 1) children at depth k.  For m = 16 it
        # stops at SIZE_K_CUT_LIMIT of them, in a subprocess that would
        # otherwise outlive the timeout
        path = graph_file(self.disjoint_k4s(16))
        proc = run_module("recognize", path, "--k", "31", timeout=10)
        assert proc.returncode == 2 and proc.stdout == ""
        limit = td.hypergraph.SIZE_K_CUT_LIMIT
        assert proc.stderr.startswith(f"error: more than SIZE_K_CUT_LIMIT = {limit} branches")
        # for m = 7, 139,968 cuts, it decides, with a witness of 14 vertices
        path = graph_file(self.disjoint_k4s(7))
        code, out, _ = run_cli(capsys, "recognize", path, "--k", "13", "--witness")
        assert code == 1
        payload = json.loads(out)
        assert payload["reason"] == "larger-witness" and len(payload["witness"]) == 14


class TestConstructW2:
    def test_eleven_vertex_recipe(self, capsys, graph_file):
        path = graph_file(FIG2_RECIPE, name="fig.recipe")
        code, out, _ = run_cli(capsys, "construct-w2", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["graph"].startswith("n 11\n")
        check = payload["self_check"]
        assert check["is_wtd"] is True
        assert check["gamma_t"] == 2
        assert check["rho"] == 2

    def test_self_check_family_limit(self, capsys, graph_file, monkeypatch):
        # the self-check is the analyze profile, with the same family limit
        # (this graph has two minimal TDSs)
        monkeypatch.setattr(td.search, "MTDS_LIMIT", 1)
        path = graph_file(FIG2_RECIPE, name="fig.recipe")
        code, out, err = run_cli(capsys, "construct-w2", path)
        assert code == 2 and out == ""
        assert "more than MTDS_LIMIT = 1 minimal total dominating sets" in err

    def test_step2_violation(self, capsys, graph_file):
        bad = "H:\nn 2\n0 1\nMVC:\n0 -> 2\n"
        path = graph_file(bad, name="bad.recipe")
        code, out, err = run_cli(capsys, "construct-w2", path)
        assert code == 2
        assert "step 2" in err and "no fresh vertex" in err

    @pytest.mark.parametrize(
        "bad, fragment",
        [
            ("H:\nn 2\n0 1\nMVC:\n,0 -> 2\n1 -> 3\n", "malformed MVC line ',0 -> 2'"),
            ("H:\nn 2\n0 1\nMVC:\n0 -> 2\n1, -> 3\n", "malformed MVC line '1, -> 3'"),
            ("MVC:\n0 -> 2\n1 -> 3\nH:\nn 2\n0 1\n", "line 4: section H: after MVC:"),
            # the H: and HPRIME: bodies name the recipe's line, not the
            # section's, also past blank and comment lines inside them
            ("# a comment\nH:\nn 2\n0 x\nMVC:\n0 -> 2\n1 -> 3\n", "line 4: edge endpoints must"),
            ("H:\n\n# the edge\nn 2\n0 x\nMVC:\n0 -> 2\n1 -> 3\n", "line 5: edge endpoints must"),
            ("H:\nn 2\n0 1\nMVC:\n0 -> 2\n1 -> 3\nHPRIME:\nn 2\n0 0\n", "line 9: self-loop 0 0"),
            (
                "H:\nn 2\n0 1\nMVC:\n0 -> 2\n1 -> 3\nHPRIME:\n# h'\n\nn 1\n\n0 1\n",
                "line 12: vertex 1 out of range for n=1",
            ),
            ("H:\nn 2\n0 1\nMVC:\n0 -> 2\n\n1 3\n", "line 7: malformed MVC line '1 3'"),
            # H:'s labels line is read, at its line in the recipe
            (
                "# h is an edge\nH:\nn 2\n# labels: a\n0 1\nMVC:\n0 -> 2\n1 -> 3\n",
                "line 4: labels directive names 1 vertices, expected 2",
            ),
        ],
    )
    def test_recipe_format_refused(self, capsys, graph_file, bad, fragment):
        path = graph_file(bad, name="bad.recipe")
        code, out, err = run_cli(capsys, "construct-w2", path)
        assert code == 2 and out == ""
        assert fragment in err


class TestW2Check:
    def test_member(self, capsys, graph_file):
        path = graph_file(P4)
        code, out, _ = run_cli(capsys, "w2-check", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True
        recipe = td.parse_recipe(payload["recipe"])
        assert recipe.h.n == 2

    def test_non_member_quiet(self, capsys, graph_file):
        path = graph_file(FIGURE1)
        code, out, _ = run_cli(capsys, "w2-check", path)
        assert code == 1
        assert json.loads(out) == {"member": False}

    def test_non_member_reason(self, capsys, graph_file):
        path = graph_file(FIGURE1)
        code, out, _ = run_cli(capsys, "w2-check", path, "--witness")
        assert code == 1
        assert json.loads(out)["reason"] == "packing number is 1"


class TestRealize:
    def test_two_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "realize", "--family", "{a,b};{c,d}")
        assert code == 0
        payload = json.loads(out)
        assert payload["ground"] == ["a", "b", "c", "d"]
        check = payload["self_check"]
        assert check["n"] == 8
        assert check["mtds"] == [["a", "b"], ["c", "d"]]

    def test_minimal_valid_single_pair(self, capsys):
        code, out, _ = run_cli(
            capsys, "realize", "--family", "{a,b}", "--core-edges", "minimal-valid"
        )
        assert code == 0
        check = json.loads(out)["self_check"]
        assert check["n"] == 4
        assert check["diameter"] == 3
        assert check["mtds"] == [["a", "b"]]

    def test_over_vertex_limit(self, capsys):
        # 14 disjoint pairs: 28 support vertices plus 2**14 transversals
        family = ";".join(f"{{a{i},b{i}}}" for i in range(14))
        code, out, err = run_cli(capsys, "realize", "--family", family)
        assert code == 2
        assert out == ""
        assert "64-vertex limit" in err

    def test_repeated_set(self, capsys):
        code, out, err = run_cli(capsys, "realize", "--family", "{a,b};{c};{b,a}")
        assert code == 2
        assert out == ""
        assert err == "error: repeated set '{b,a}' (same members as '{a,b}')\n"

    def test_contained_set_in_user_labels(self, capsys):
        code, out, err = run_cli(capsys, "realize", "--family", "{x,y};{x}")
        assert code == 2
        assert out == ""
        assert err == "error: not an antichain: '{x}' is contained in '{x,y}'\n"

    def test_whitespace_in_member_name(self, capsys):
        # a spaced name could not be read back from the graph's labels line
        code, out, err = run_cli(capsys, "realize", "--family", "{a b,c};{c,d}")
        assert code == 2
        assert out == ""
        assert err == "error: malformed set '{a b,c}': member name 'a b' contains whitespace\n"

    @pytest.mark.parametrize("family, member", [("{a}", "{a}"), ("{a,b};{c}", "{c}")])
    def test_singleton_member_named_as_typed(self, capsys, family, member):
        code, out, err = run_cli(capsys, "realize", "--family", family)
        assert code == 2 and out == ""
        assert err == (
            f"error: family not realizable: member {member} has fewer than two vertices\n"
        )

    def test_member_named_as_a_transversal_vertex(self, capsys):
        # transversal {a}'s vertex is named v{a}, the name of a member
        code, out, err = run_cli(capsys, "realize", "--family", "{a,v{a}}")
        assert code == 2
        assert out == ""
        assert err == (
            "error: vertex names must be distinct: member v{a} and the vertex of "
            "transversal {a} are both named 'v{a}'\n"
        )

    @pytest.mark.parametrize(
        "family",
        ["a,b", "{a,b", "{a,,b}", "{a,a}", "{a};{b,c}", "{a,b};{a,b,c}"],
    )
    def test_bad_family(self, capsys, family):
        code, _, err = run_cli(capsys, "realize", "--family", family)
        assert code == 2
        assert err.startswith("error:")


class TestReduce:
    def test_c6_single_edge(self, capsys, graph_file):
        path = graph_file(C6)
        code, out, _ = run_cli(capsys, "reduce", path, "--edges", "0-1")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["graph"] == "n 2\n0 1\n"
        assert payload["vertex_map"] == [[0, 3], [1, 4]]
        assert payload["self_check"]["is_wtd"] is True

    def test_c6_empties(self, capsys, graph_file):
        path = graph_file(C6)
        code, out, _ = run_cli(capsys, "reduce", path, "--edges", "0-1,3-4")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "empty"
        assert "self_check" not in payload

    def test_malformed_selection(self, capsys, graph_file):
        path = graph_file(C6)
        code, _, err = run_cli(capsys, "reduce", path, "--edges", "0+1")
        assert code == 2
        assert "malformed edge" in err
        code, out, err = run_cli(capsys, "reduce", path, "--edges", "a-b")
        assert code == 2 and out == ""
        assert err == "error: malformed edge 'a-b'\n"

    def test_c5_leaves_an_isolated_vertex(self, capsys, graph_file):
        path = graph_file("n 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        code, out, _ = run_cli(capsys, "reduce", path, "--edges", "0-1")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "isolated-vertices"
        assert payload["graph"] == "n 1\n"
        assert payload["vertex_map"] == [[0, 3]]
        assert "self_check" not in payload

    def test_overlapping_selection(self, capsys, graph_file):
        path = graph_file(C6)
        code, _, err = run_cli(capsys, "reduce", path, "--edges", "0-1,1-2")
        assert code == 2
        assert "vertex-disjoint" in err


class TestSearch:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n-max", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["classified"] == 9
        assert payload["assertions"]["DIAM3"]["violations"] == []

    def test_violation_exits_3(self, capsys, monkeypatch):
        never = ("always violated", 2, lambda e: True, lambda e: False)
        monkeypatch.setitem(td.search.ASSERTIONS, "NEVER", never)
        code, out, err = run_cli(capsys, "search", "--n-max", "3")
        assert code == 3 and err == ""
        assert len(json.loads(out)["assertions"]["NEVER"]["violations"]) == 3

    def test_internal_error_exits_4(self, capsys, monkeypatch):
        # a crash must not read as a counterexample (exit 3)
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "run_search", crash)
        code, out, err = run_cli(capsys, "search", "--n-max", "3")
        assert code == 4 and out == ""
        assert err == "internal error: boom\n"

    def test_catalog_out(self, capsys, tmp_path):
        out_path = tmp_path / "cat.jsonl"
        code, out, _ = run_cli(capsys, "search", "--n-max", "4", "--out", str(out_path))
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 9

    def test_filters(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n-max", "6", "--min-degree", "3", "--planar")
        assert code == 0
        payload = json.loads(out)
        assert tuple(payload["assertions"]) == tuple(td.ASSERTIONS)

    @pytest.mark.parametrize("cut", [1, 40])
    def test_resume_after_torn_final_line(self, capsys, tmp_path, cut):
        out_path = tmp_path / "cat5.jsonl"
        argv = ("search", "--n-max", "5", "--out", str(out_path))
        code, fresh, _ = run_cli(capsys, *argv)
        assert code == 0
        complete = out_path.read_bytes()
        out_path.write_bytes(complete[:-cut])
        code, repaired, _ = run_cli(capsys, *argv)
        assert code == 0
        assert repaired == fresh
        lines = out_path.read_text().splitlines()
        assert len(lines) == 30
        for line in lines:
            json.loads(line)
        assert out_path.read_bytes() == complete

    def test_resume_from_catalog_cut_in_half(self, capsys, tmp_path, classified):
        # a catalog cut at half its bytes, mid-line: the torn line is
        # dropped, the classes it and the lost lines held are classified
        # again and appended, and the bytes equal the fresh run's
        out_path = tmp_path / "cat6.jsonl"
        argv = ("search", "--n-max", "6", "--out", str(out_path))
        code, fresh, _ = run_cli(capsys, *argv)
        assert code == 0
        complete = out_path.read_bytes()
        half = complete[: len(complete) // 2]
        assert not half.endswith(b"\n")
        out_path.write_bytes(half)
        kept = half.count(b"\n")
        classified.clear()
        code, resumed, _ = run_cli(capsys, *argv)
        assert code == 0
        assert 0 < kept < 142 and len(classified) == 142 - kept
        assert resumed == fresh
        assert out_path.read_bytes() == complete

    def test_corrupt_middle_line(self, capsys, tmp_path):
        out_path = tmp_path / "cat5.jsonl"
        argv = ("search", "--n-max", "5", "--out", str(out_path))
        assert run_cli(capsys, *argv)[0] == 0
        lines = out_path.read_text().splitlines(keepends=True)
        lines[10] = lines[10][:-40] + "\n"
        out_path.write_text("".join(lines))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "cat5.jsonl:11: unreadable catalog line" in err
        assert out_path.read_text() == "".join(lines)

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda line: line[:-1] + b" x\n", id="trailing-data"),
            pytest.param(lambda line: line[:-1] + b" " + line, id="two-records"),
            pytest.param(lambda line: b'["canonical_key", "n"]\n', id="array"),
            pytest.param(lambda line: b'"canonical_key"\n', id="string"),
            pytest.param(
                # in the graph6 string, a field the reader does not keep
                lambda line: line.replace(b'"graph6": "', b'"graph6": "\xff', 1),
                id="non-utf8",
            ),
            pytest.param(
                lambda line: line.replace(b'"canonical_key": "', b'"canonical_key": "x', 1),
                id="key-not-hex",
            ),
            pytest.param(
                # bytes.fromhex skips the space, so the key must read back as written
                lambda line: line.replace(b'"canonical_key": "05', b'"canonical_key": "05 ', 1),
                id="key-spaced-hex",
            ),
            # each field must have the JSON type the writer gives it: a
            # string n used to stop the resume with an internal error (exit
            # 4), and a string planar or a bool rho used to be folded
            pytest.param(lambda line: line.replace(b'"n": 5', b'"n": "5"', 1), id="n-string"),
            pytest.param(
                lambda line: line.replace(b'"planar": true', b'"planar": "no"', 1),
                id="planar-string",
            ),
            pytest.param(
                lambda line: line.replace(b'"gamma_t": 2', b'"gamma_t": null', 1),
                id="gamma_t-null",
            ),
            pytest.param(lambda line: line.replace(b'"rho": 1', b'"rho": true', 1), id="rho-bool"),
        ],
    )
    def test_unreadable_line_exits_2(self, capsys, tmp_path, damage):
        out_path = tmp_path / "cat.jsonl"
        argv = ("search", "--n-max", "5", "--out", str(out_path))
        assert run_cli(capsys, *argv)[0] == 0
        lines = out_path.read_bytes().splitlines(keepends=True)
        lines[10] = damage(lines[10])
        damaged = b"".join(lines)
        out_path.write_bytes(damaged)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "cat.jsonl:11: unreadable catalog line" in err
        assert out_path.read_bytes() == damaged

    @pytest.mark.parametrize(
        "damage",
        [
            # the key fixes n: K5 read as of order 9 was dropped by admits,
            # with its key still marked done, and the class was lost
            pytest.param([(b'"n": 5', b'"n": 9')], id="n-not-the-keys"),
            # ... and m, which was folded as written
            pytest.param([(b'"m": 10', b'"m": 9')], id="m-not-the-keys"),
            # ... and the key's length: a padded key was another class
            pytest.param([(b'"05ffc0"', b'"05ffc000"')], id="key-padded"),
            # ... and its padding bits, even with m counting the set one
            pytest.param(
                [(b'"05ffc0"', b'"05ffc1"'), (b'"m": 10', b'"m": 11')], id="key-padding-bit"
            ),
            pytest.param([(b', "triangle_free"', b', "x": 1, "triangle_free"')], id="extra-field"),
            pytest.param([(b'"graph6": "D~{", ', b"")], id="no-graph6"),
            pytest.param([(b'"girth": 3', b'"girth": -3')], id="girth-negative"),
            # fields derived from others on the line: a changed is_wtd was
            # folded, a changed triangle_free or nu_gde made false violations
            pytest.param([(b'"is_wtd": true', b'"is_wtd": false')], id="is_wtd-not-derived"),
            pytest.param(
                [(b'"triangle_free": false', b'"triangle_free": true')],
                id="triangle_free-not-derived",
            ),
            pytest.param([(b'"nu_gde": 2', b'"nu_gde": null')], id="nu_gde-not-derived"),
        ],
    )
    def test_k5_line_not_as_written_exits_2(self, capsys, tmp_path, damage):
        # a resume reads back only the line _catalog_line writes, with the
        # key it encodes, the n and m that key fixes and the fields derived
        # as the writer derives them; K5's line is the last one
        out_path = tmp_path / "cat.jsonl"
        argv = ("search", "--n-max", "5", "--out", str(out_path))
        assert run_cli(capsys, *argv)[0] == 0
        lines = out_path.read_bytes().splitlines(keepends=True)
        assert b'"canonical_key": "05ffc0", ' in lines[29] and len(lines) == 30
        for old, new in damage:
            assert lines[29].count(old) == 1
            lines[29] = lines[29].replace(old, new)
        damaged = b"".join(lines)
        out_path.write_bytes(damaged)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "cat.jsonl:30: unreadable catalog line" in err
        assert out_path.read_bytes() == damaged

    def test_repeated_class_exits_2(self, capsys, tmp_path):
        # one run never writes a class twice, so a repeated class is refused,
        # not read as whichever of its records came last
        out_path = tmp_path / "cat.jsonl"
        argv = ("search", "--n-max", "5", "--out", str(out_path))
        assert run_cli(capsys, *argv)[0] == 0
        lines = out_path.read_bytes().splitlines(keepends=True)
        damaged = b"".join(lines[:21] + [lines[10]] + lines[21:])
        out_path.write_bytes(damaged)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        key = json.loads(lines[10])["canonical_key"]
        assert f"cat.jsonl:22: repeated class {key}" in err
        assert out_path.read_bytes() == damaged

    def test_crlf_catalog_resumes(self, capsys, tmp_path, classified):
        # the reader strips each line, so CRLF line ends read as LF ones
        out_path = tmp_path / "cat.jsonl"
        argv = ("search", "--n-max", "5", "--out", str(out_path))
        code, fresh, _ = run_cli(capsys, *argv)
        assert code == 0 and len(classified) == 30
        crlf = out_path.read_bytes().replace(b"\n", b"\r\n")
        out_path.write_bytes(crlf)
        classified.clear()
        code, resumed, _ = run_cli(capsys, *argv)
        assert code == 0
        assert classified == [], "a catalogued class was classified again"
        assert resumed == fresh
        assert out_path.read_bytes() == crlf

    def test_interrupted_block_write(self, capsys, tmp_path, monkeypatch):
        # a class past MTDS_LIMIT stops the search inside a later block:
        # the catalog keeps the whole lines of the blocks before that one,
        # and a rerun with the real limit completes it to the fresh bytes
        argv = ("search", "--n-max", "6", "--out", str(tmp_path / "fresh.jsonl"))
        code, fresh, _ = run_cli(capsys, *argv)
        assert code == 0
        complete = (tmp_path / "fresh.jsonl").read_bytes()
        filt = td.SearchFilter(n_max=6)
        sizes = [
            len(td.mtds(td.Graph(len(adj), adj)).edges) for _, adj, _ in td.enumerate_graphs(filt)
        ]
        block = 16
        limit = max(sizes[: 2 * block])
        first = next(i for i, size in enumerate(sizes) if size > limit)
        assert first >= 2 * block and first % block > 0
        monkeypatch.setattr(td.search, "BLOCK", block)
        real_limit = td.search.MTDS_LIMIT
        monkeypatch.setattr(td.search, "MTDS_LIMIT", limit)
        out_path = tmp_path / "cat.jsonl"
        argv = ("search", "--n-max", "6", "--out", str(out_path))
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"more than MTDS_LIMIT = {limit} minimal total dominating sets" in err
        cut = out_path.read_bytes()
        assert cut.endswith(b"\n") and complete.startswith(cut)
        assert cut.count(b"\n") == first - first % block
        monkeypatch.setattr(td.search, "MTDS_LIMIT", real_limit)
        code, resumed, _ = run_cli(capsys, *argv)
        assert code == 0 and resumed == fresh
        assert out_path.read_bytes() == complete

    def test_unrestricted_search_past_budget(self, capsys):
        # n <= 10 holds 11,989,763 connected classes (A001349); refused at
        # once, where the order-10 level would take gigabytes
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "search", "--n-max", "10")
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert "11,989,763" in err and f"{td.search.SEARCH_BUDGET:,}" in err

    @pytest.mark.parametrize(
        "restriction, n_max, count",
        [("--planar", "10", "1,131,438"), ("--triangle-free", "12", "1,246,471")],
    )
    def test_restricted_search_past_budget(self, capsys, restriction, n_max, count):
        # each restricted search drops the children outside its class before
        # keying them, so it is bounded by its own OEIS table
        sequence = {"--planar": "A003094", "--triangle-free": "A024607"}[restriction]
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "search", restriction, "--n-max", n_max)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert count in err and sequence in err and f"{td.search.SEARCH_BUDGET:,}" in err

    @pytest.mark.parametrize("n_max", ["1", "0", "-2", "-3"])
    def test_n_max_below_two(self, capsys, n_max):
        # rejected for itself, not as a range below the default n_min
        code, out, err = run_cli(capsys, "search", "--n-max", n_max)
        assert code == 2 and out == ""
        assert err == f"error: n_max must be at least 2, got {n_max}\n"

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one(self, capsys, jobs):
        code, out, err = run_cli(capsys, "search", "--n-max", "4", "--jobs", jobs)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "jobs must be at least 1" in err

    def test_jobs_clamped_to_cpu_count(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started on a one-CPU machine")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        code, out, _ = run_cli(capsys, "search", "--n-max", "4", "--jobs", "2")
        assert code == 0
        assert json.loads(out)["classified"] == 9

    def test_resumed_parallel_search_submits_no_work(self, capsys, monkeypatch, tmp_path):
        # pool workers start with the first submitted chunk, so a search whose
        # catalog already holds every class starts none
        out_path = str(tmp_path / "cat.jsonl")
        code, first, _ = run_cli(capsys, "search", "--n-max", "5", "--out", out_path)
        assert code == 0
        submitted = []

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(args)
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        argv = ("search", "--n-max", "5", "--jobs", "2", "--out", out_path)
        code, again, _ = run_cli(capsys, *argv)
        assert code == 0 and again == first
        assert submitted == []

    def test_unwritable_out_fails_before_parallel_enumeration(self, capsys, monkeypatch, tmp_path):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumeration started before the catalog was opened")

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(td.search, "enumerate_graphs", no_enumeration)
        out_path = tmp_path / "missing" / "cat.jsonl"
        code, out, err = run_cli(
            capsys, "search", "--n-max", "8", "--jobs", "2", "--out", str(out_path)
        )
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_serial_search_imports_no_process_pool(self):
        proc = run_python(
            "-c",
            "import sys, totaldom\n"
            "totaldom.run_search(totaldom.SearchFilter(n_max=4))\n"
            "print('concurrent.futures.process' in sys.modules)\n",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


def run_python(*argv, timeout=None):
    # the child imports the same totaldom as this process, installed or not
    src = os.path.dirname(os.path.dirname(td.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=timeout,
    )


def run_module(*argv, timeout=None):
    return run_python("-m", "totaldom", *argv, timeout=timeout)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "p4.txt"
        path.write_text(P4)
        proc = run_module("analyze", str(path))
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["gamma_t"] == 2

    def test_console_script_negative_exit(self, tmp_path):
        path = tmp_path / "c6.txt"
        path.write_text(C6)
        proc = run_module("recognize", str(path), "--k", "2")
        assert proc.returncode == 1


class TestRepeatedCalls:
    def test_shared_parser_keeps_no_state(self, capsys, graph_file):
        # main parses with one parser per process; a rejected parse and a
        # --witness call must leave nothing behind for the next call
        path = graph_file(C6)
        with pytest.raises(SystemExit) as exc:
            main(["recognize", path, "--k", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        with_witness = run_cli(capsys, "recognize", path, "--k", "2", "--witness")
        without = run_cli(capsys, "recognize", path, "--k", "2")
        assert "witness" in json.loads(with_witness[1])
        assert "witness" not in json.loads(without[1])
        for argv, (code, out, err) in [
            (["recognize", path, "--k", "2", "--witness"], with_witness),
            (["recognize", path, "--k", "2"], without),
        ]:
            fresh = run_module(*argv)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_transcripts() -> dict[str, str]:
    """Each `$ command` line of README's sh blocks, mapped to the text shown
    after it, up to the next command or the end of the block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    shown = {}
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, rest = chunk.partition("\n")
            shown[command] = rest
    return shown


class TestReadmeExamples:
    @pytest.mark.parametrize(
        ("command", "code"),
        [
            ("totaldom analyze fig.txt", 0),
            ("totaldom recognize --k 2 fig.txt", 0),
            (r"printf 'n 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n' | totaldom recognize --k 2 -", 1),
            ("totaldom search --n-max 5", 0),
        ],
        ids=["analyze", "recognize", "recognize-c6", "search"],
    )
    def test_output_as_shown(self, capsys, monkeypatch, tmp_path, command, code):
        # README compacts some arrays and objects, so its output is compared
        # with the command's as parsed JSON, not byte for byte
        import io

        shown = readme_transcripts()
        (tmp_path / "fig.txt").write_text(shown["cat fig.txt"])
        monkeypatch.chdir(tmp_path)
        tokens = shlex.split(command)
        if tokens[0] == "printf":
            monkeypatch.setattr(sys, "stdin", io.StringIO(tokens[1].replace("\\n", "\n")))
            tokens = tokens[3:]
        assert tokens[0] == "totaldom"
        got, out, _ = run_cli(capsys, *tokens[1:])
        assert (got, json.loads(out)) == (code, json.loads(shown[command]))
