import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

import totaldom as td
from totaldom.cli import _analyze_payload, main

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
    return code, captured.out, captured.err


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
            payload = _analyze_payload(g)
            entry = td.classify(g, key=key)
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

    def test_step2_violation(self, capsys, graph_file):
        bad = "H:\nn 2\n0 1\nMVC:\n0 -> 2\n"
        path = graph_file(bad, name="bad.recipe")
        code, out, err = run_cli(capsys, "construct-w2", path)
        assert code == 2
        assert "step 2" in err and "no fresh vertex" in err


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

    def test_overlapping_selection(self, capsys, graph_file):
        path = graph_file(C6)
        code, _, err = run_cli(capsys, "reduce", path, "--edges", "0-1,1-2")
        assert code == 2
        assert "vertex-disjoint" in err


class TestSearch:
    def test_small_run(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--n-max", "4", "--assert", "DIAM3")
        assert code == 0
        payload = json.loads(out)
        assert payload["classified"] == 9
        assert payload["assertions"]["DIAM3"]["violations"] == []

    def test_unknown_assertion(self, capsys):
        code, _, err = run_cli(capsys, "search", "--n-max", "4", "--assert", "T99")
        assert code == 2
        assert "unknown assertion id" in err

    def test_catalog_out(self, capsys, tmp_path):
        out_path = tmp_path / "cat.jsonl"
        code, out, _ = run_cli(
            capsys, "search", "--n-max", "4", "--assert", "all", "--out", str(out_path)
        )
        assert code == 0
        assert len(out_path.read_text().splitlines()) == 9

    def test_filters(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "search",
            "--n-max",
            "6",
            "--min-degree",
            "3",
            "--planar",
            "--assert",
            "T12,L12b",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["assertions"]) == {"T12", "L12B"}

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

    def test_serial_search_imports_no_process_pool(self):
        proc = run_python(
            "-c",
            "import sys, totaldom\n"
            "totaldom.run_search(totaldom.SearchFilter(n_max=4), ['all'])\n"
            "print('concurrent.futures.process' in sys.modules)\n",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


def run_python(*argv):
    # the child imports the same totaldom as this process, installed or not
    src = os.path.dirname(os.path.dirname(td.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_module(*argv):
    return run_python("-m", "totaldom", *argv)


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
