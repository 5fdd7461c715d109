"""Command-line front end.

Subcommands:
  analyze        total-domination profile of a graph
  recognize      decide whether every minimal total dominating set has size k
  construct-w2   build a graph from a four-step recipe file and self-check it
  w2-check       decide membership in the size-2/packing-2 class, emit a recipe
  realize        build a graph whose minimal total dominating sets match a family
  reduce         delete the closed neighborhood of an induced matching
  search         enumerate small graphs and check boundary assertions

Graphs are read from a file path or '-' for stdin, in edge-list (default) or
graph6 format.  Vertex names in JSON output are the input labels when the
edge list carried a `# labels:` line, else integer ids.

Exit codes: 0 success (and accepted decisions), 1 negative decision,
2 bad input, 3 internal error or assertion violations found by search.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (
    CapabilityError,
    DominationUndefinedError,
    ParseError,
    ValidationError,
)
from .graphs import Graph, mask_members
from .graphio import EDGE_LIST, FORMATS, parse_graph, serialize_graph
from .hypergraph import SpernerFamily, require_total_domination
from .domination import CORE_COMPLETE, CORE_MINIMAL_VALID, realize_mtds, recognize_wtd_k
from .reduction import MatchingSelection, reduce_by_matching
from .search import SearchFilter, profile, run_search
# unused here; bound because perfbench/layers.json traces cli.<name> sites
from .graphs import diameter, girth  # noqa: F401
from .domination import dominating_edge_subgraph, mtds, packing_number, report  # noqa: F401
from .wtd2 import construct_w2, parse_recipe, serialize_recipe, w2_membership


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(args) -> Graph:
    return parse_graph(_read_text(args.path), args.format)


def _names(g: Graph, mask: int) -> list:
    return [g.label(v) for v in mask_members(mask)]


def _analyze_payload(g: Graph) -> dict:
    require_total_domination(g)
    prof = profile(g)
    payload = {
        "n": g.n,
        "m": g.m,
        "gamma_t": prof.report.gamma_t,
        "Gamma_t": prof.report.Gamma_t,
        "is_wtd": prof.report.is_wtd,
        "mtds": [_names(g, e) for e in prof.family.edges],
        "rho": prof.rho,
        "diameter": prof.diameter,
        "girth": prof.girth,
    }
    if prof.dominating_edges is not None:
        payload["g_de_edges"] = [
            [g.label(u), g.label(v)] for u, v in prof.dominating_edges.edges
        ]
    return payload


def _cmd_analyze(args) -> int:
    print(json.dumps(_analyze_payload(_load_graph(args)), indent=2))
    return 0


def _cmd_recognize(args) -> int:
    g = _load_graph(args)
    result = recognize_wtd_k(g, args.k)
    if result.accepted:
        payload = {"wtd_k": True, "k": args.k, "witness": _names(g, result.witness)}
        print(json.dumps(payload, indent=2))
        return 0
    payload = {"wtd_k": False, "k": args.k}
    if args.witness:
        payload["witness"] = _names(g, result.witness)
        payload["reason"] = result.reason
    print(json.dumps(payload, indent=2))
    return 1


def _cmd_construct_w2(args) -> int:
    recipe = parse_recipe(_read_text(args.recipe))
    g = construct_w2(recipe)
    payload = {
        "graph": serialize_graph(g, EDGE_LIST),
        "self_check": _analyze_payload(g),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_w2_check(args) -> int:
    g = _load_graph(args)
    result = w2_membership(g)
    if result.member:
        payload = {"member": True, "recipe": serialize_recipe(result.recipe)}
        print(json.dumps(payload, indent=2))
        return 0
    payload = {"member": False}
    if args.witness:
        payload["reason"] = result.reason
    print(json.dumps(payload, indent=2))
    return 1


def _parse_family(text: str) -> tuple[SpernerFamily, list[str]]:
    sets: list[list[str]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise ParseError(f"malformed set {chunk!r}; expected {{a,b,...}}")
        tokens = [tok.strip() for tok in chunk[1:-1].split(",")]
        if any(not tok for tok in tokens):
            raise ParseError(f"malformed set {chunk!r}: empty member name")
        if len(set(tokens)) != len(tokens):
            raise ParseError(f"malformed set {chunk!r}: repeated member")
        sets.append(tokens)
    if not sets:
        raise ParseError("family must contain at least one set")
    ground = sorted({tok for s in sets for tok in s})
    index = {tok: i for i, tok in enumerate(ground)}
    edges = []
    for s in sets:
        mask = 0
        for tok in s:
            mask |= 1 << index[tok]
        edges.append(mask)
    family = SpernerFamily(len(ground), tuple(sorted(edges)))
    return family, ground


def _cmd_realize(args) -> int:
    family, ground = _parse_family(args.family)
    realized = realize_mtds(family, core_edges=args.core_edges, labels=tuple(ground))
    g = realized.graph
    payload = {
        "graph": serialize_graph(g, EDGE_LIST),
        "ground": [g.label(v) for v in realized.ground_vertices],
        "self_check": _analyze_payload(g),
    }
    print(json.dumps(payload, indent=2))
    return 0


def _parse_edge_selection(text: str) -> MatchingSelection:
    edges = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        parts = chunk.split("-")
        if len(parts) != 2:
            raise ParseError(f"malformed edge {chunk!r}; expected 'u-v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed edge {chunk!r}") from None
        edges.append((min(u, v), max(u, v)))
    return MatchingSelection(tuple(edges))


def _cmd_reduce(args) -> int:
    g = _load_graph(args)
    selection = _parse_edge_selection(args.edges)
    result = reduce_by_matching(g, selection)
    if result.is_empty:
        status = "empty"
    elif result.has_isolated:
        status = "isolated-vertices"
    else:
        status = "ok"
    payload = {
        "status": status,
        "graph": serialize_graph(result.graph, EDGE_LIST),
        "vertex_map": [[new, g.label(old)] for new, old in enumerate(result.vertex_map)],
    }
    if status == "ok":
        payload["self_check"] = _analyze_payload(result.graph)
    print(json.dumps(payload, indent=2))
    return 0


def _cmd_search(args) -> int:
    filt = SearchFilter(
        n_max=args.n_max,
        n_min=args.n_min,
        min_degree=args.min_degree,
        planar_only=args.planar,
        triangle_free_only=args.triangle_free,
    )
    ids = [tok for tok in args.assertions.split(",")]
    _, search_report = run_search(filt, ids, out_path=args.out, jobs=args.jobs)
    print(json.dumps(search_report, indent=2))
    violated = any(
        block["violations"] for block in search_report["assertions"].values()
    )
    return 3 if violated else 0


def _add_graph_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("path", help="graph file, or '-' for stdin")
    sub.add_argument(
        "--format",
        choices=sorted(FORMATS),
        default=EDGE_LIST,
        help="input format (default: edge-list)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="totaldom",
        description="total domination analysis for small simple graphs",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("analyze", help="full total-domination profile")
    _add_graph_input(sub)
    sub.set_defaults(fn=_cmd_analyze)

    sub = subs.add_parser("recognize", help="test uniform minimal-TDS size k")
    _add_graph_input(sub)
    sub.add_argument("--k", type=int, required=True, help="claimed uniform size (>= 2)")
    sub.add_argument(
        "--witness", action="store_true", help="include a witness on rejection"
    )
    sub.set_defaults(fn=_cmd_recognize)

    sub = subs.add_parser("construct-w2", help="build a graph from a recipe file")
    sub.add_argument("recipe", help="recipe file, or '-' for stdin")
    sub.set_defaults(fn=_cmd_construct_w2)

    sub = subs.add_parser(
        "w2-check", help="membership in the uniform-size-2, packing-2 class"
    )
    _add_graph_input(sub)
    sub.add_argument(
        "--witness", action="store_true", help="include the reason on rejection"
    )
    sub.set_defaults(fn=_cmd_w2_check)

    sub = subs.add_parser(
        "realize", help="build a graph whose minimal total dominating sets match a family"
    )
    sub.add_argument(
        "--family",
        required=True,
        help="semicolon-separated sets, e.g. '{a,b};{b,c,d}'",
    )
    sub.add_argument(
        "--core-edges",
        choices=[CORE_COMPLETE, CORE_MINIMAL_VALID],
        default=CORE_COMPLETE,
        help="edge policy on the support (default: complete)",
    )
    sub.set_defaults(fn=_cmd_realize)

    sub = subs.add_parser("reduce", help="delete N[A] for an induced matching A")
    _add_graph_input(sub)
    sub.add_argument(
        "--edges", required=True, help="comma-separated matching, e.g. '0-1,3-4'"
    )
    sub.set_defaults(fn=_cmd_reduce)

    sub = subs.add_parser("search", help="exhaustive scan with assertion checks")
    sub.add_argument("--n-min", type=int, default=2)
    sub.add_argument("--n-max", type=int, required=True)
    sub.add_argument("--min-degree", type=int, default=None)
    sub.add_argument("--planar", action="store_true", help="planar graphs only")
    sub.add_argument(
        "--triangle-free", action="store_true", help="triangle-free graphs only"
    )
    sub.add_argument(
        "--assert",
        dest="assertions",
        default="all",
        help="comma-separated assertion ids (default: all)",
    )
    sub.add_argument("--out", default=None, help="append results to this JSONL catalog")
    sub.add_argument("--jobs", type=int, default=1, help="parallel classification workers")
    sub.set_defaults(fn=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (
        ParseError,
        ValidationError,
        DominationUndefinedError,
        CapabilityError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
