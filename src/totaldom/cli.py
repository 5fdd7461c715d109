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

Every command prints one JSON document: exactly the bytes of
json.dumps(payload, indent=2), written by this module's own writer
(_dumps).  The stdlib falls back to its pure-Python encoder for any indent;
_dumps lays out the containers in Python.  Lists of vertex sets (the
minimal TDSs and dominating edges) stay bitmasks until they are written:
each set is joined straight from its mask through a table of vertex names
encoded once per graph, by the C string encoder for labels or int.__repr__
for ids; a long list of sets is joined from names pre-joined for chunks of
its ids.  A lone witness is a plain list of names, through the same encoders.

Exit codes: 0 success (and accepted decisions), 1 negative decision,
2 bad input, 3 assertion violations found by search, 4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .errors import CapabilityError, NotAntichainError, ParseError
from .graphs import Edge, Graph, mask_members
from .graphio import EDGE_LIST, FORMATS, parse_graph, serialize_graph
from .hypergraph import SpernerFamily
from .domination import CORE_COMPLETE, CORE_MINIMAL_VALID, realize_mtds, recognize_wtd_k
from .reduction import reduce_by_matching
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


def _analyze_payload(g: Graph) -> dict:
    prof = profile(g)
    names = _name_table(g)
    payload = {
        "n": g.n,
        "m": g.m,
        "gamma_t": prof.report.gamma_t,
        "Gamma_t": prof.report.Gamma_t,
        "is_wtd": prof.report.is_wtd,
        "mtds": _Sets(names, prof.family.edges),
        "rho": prof.rho,
        "diameter": prof.diameter,
        "girth": prof.girth,
    }
    if prof.dominating_edges is not None:
        # u < v on each dominating edge, so its mask lists u, then v
        payload["g_de_edges"] = _Sets(
            names, [(1 << u) | (1 << v) for u, v in prof.dominating_edges]
        )
    return payload


# each _cmd_* returns (exit code, JSON payload); main prints the payload
def _cmd_analyze(args) -> tuple[int, dict]:
    return 0, _analyze_payload(_load_graph(args))


def _cmd_recognize(args) -> tuple[int, dict]:
    g = _load_graph(args)
    result = recognize_wtd_k(g, args.k)
    witness = [g.label(v) for v in mask_members(result.witness)]
    if result.accepted:
        return 0, {"wtd_k": True, "k": args.k, "witness": witness}
    payload = {"wtd_k": False, "k": args.k}
    if args.witness:
        payload["witness"] = witness
        payload["reason"] = result.reason
    return 1, payload


def _cmd_construct_w2(args) -> tuple[int, dict]:
    recipe = parse_recipe(_read_text(args.recipe))
    g = construct_w2(recipe)
    return 0, {"graph": serialize_graph(g, EDGE_LIST), "self_check": _analyze_payload(g)}


def _cmd_w2_check(args) -> tuple[int, dict]:
    g = _load_graph(args)
    result = w2_membership(g)
    if result.member:
        return 0, {"member": True, "recipe": serialize_recipe(result.recipe)}
    payload = {"member": False}
    if args.witness:
        payload["reason"] = result.reason
    return 1, payload


def _parse_family(text: str) -> tuple[SpernerFamily, list[str]]:
    sets: dict[frozenset[str], str] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not (chunk.startswith("{") and chunk.endswith("}")):
            raise ParseError(f"malformed set {chunk!r}; expected {{a,b,...}}")
        tokens = [tok.strip() for tok in chunk[1:-1].split(",")]
        if any(not tok for tok in tokens):
            raise ParseError(f"malformed set {chunk!r}: empty member name")
        # the graph's `# labels:` line separates names by whitespace
        spaced = next((tok for tok in tokens if len(tok.split()) > 1), None)
        if spaced is not None:
            raise ParseError(
                f"malformed set {chunk!r}: member name {spaced!r} contains whitespace"
            )
        members = frozenset(tokens)
        if len(members) != len(tokens):
            raise ParseError(f"malformed set {chunk!r}: repeated member")
        if members in sets:
            raise ParseError(f"repeated set {chunk!r} (same members as {sets[members]!r})")
        sets[members] = chunk
    ground = sorted({tok for s in sets for tok in s})
    index = {tok: i for i, tok in enumerate(ground)}
    chunks: dict[int, str] = {}
    for s, chunk in sets.items():
        mask = 0
        for tok in s:
            mask |= 1 << index[tok]
        chunks[mask] = chunk
    try:
        family = SpernerFamily(len(ground), tuple(sorted(chunks)))
    except NotAntichainError as exc:
        raise ParseError(
            f"not an antichain: {chunks[exc.contained]!r} is contained in {chunks[exc.superset]!r}"
        ) from None
    return family, ground


def _cmd_realize(args) -> tuple[int, dict]:
    family, ground = _parse_family(args.family)
    realized = realize_mtds(family, core_edges=args.core_edges, labels=tuple(ground))
    g = realized.graph
    return 0, {
        "graph": serialize_graph(g, EDGE_LIST),
        "ground": [g.label(v) for v in realized.ground_vertices],
        "self_check": _analyze_payload(g),
    }


def _parse_edge_selection(text: str) -> tuple[Edge, ...]:
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
    return tuple(edges)


def _cmd_reduce(args) -> tuple[int, dict]:
    g = _load_graph(args)
    remaining, vertex_map = reduce_by_matching(g, _parse_edge_selection(args.edges))
    if remaining.n == 0:
        status = "empty"
    elif remaining.has_isolated_vertex():
        status = "isolated-vertices"
    else:
        status = "ok"
    payload = {
        "status": status,
        "graph": serialize_graph(remaining, EDGE_LIST),
        "vertex_map": [[new, g.label(old)] for new, old in enumerate(vertex_map)],
    }
    if status == "ok":
        payload["self_check"] = _analyze_payload(remaining)
    return 0, payload


def _cmd_search(args) -> tuple[int, dict]:
    filt = SearchFilter(
        n_max=args.n_max,
        n_min=args.n_min,
        min_degree=args.min_degree,
        planar_only=args.planar,
        triangle_free_only=args.triangle_free,
    )
    search_report = run_search(filt, out_path=args.out, jobs=args.jobs)
    violated = any(
        block["violations"] for block in search_report["assertions"].values()
    )
    return (3 if violated else 0), search_report


def _add_graph_input(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("path", help="graph file, or '-' for stdin")
    sub.add_argument(
        "--format",
        choices=sorted(FORMATS),
        default=EDGE_LIST,
        help="input format (default: edge-list)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call (argparse makes a fresh namespace for each parse)."""
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
    sub.add_argument("--out", default=None, help="append results to this JSONL catalog")
    sub.add_argument("--jobs", type=int, default=1, help="parallel classification workers")
    sub.set_defaults(fn=_cmd_search)

    return parser


def _name_table(g: Graph) -> list[str]:
    """The JSON text of each vertex's name: its label, else its id."""
    if g.labels is None:
        return list(map(int.__repr__, range(g.n)))
    return list(map(encode_basestring_ascii, g.labels))


@dataclass(frozen=True)
class _Sets:
    """A list of vertex sets (masks), written by _dumps as a list of lists
    of names through one name table."""

    names: list[str]
    masks: Sequence[int]


def _dumps(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2) for str-keyed dicts, lists, tuples, JSON
    scalars and lists of vertex sets (_Sets); pad is the newline and indent of
    obj's own nesting level."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        return "[" + inner + ("," + inner).join([
            _dumps(item, inner) for item in obj
        ]) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(key) + ": " + _dumps(value, inner)
            for key, value in obj.items()
        ]) + pad + "}"
    if type(obj) is _Sets:
        if not obj.masks:
            return "[]"
        inner = pad + "  "
        texts = _set_texts(obj.names, obj.masks, inner)
        return "[" + inner + ("," + inner).join(texts) + pad + "]"
    return json.dumps(obj)  # None, bool, float


# _set_texts pre-joins the names of each _CHUNK consecutive ids for a family
# of at least _CHUNKED_FROM sets; for fewer (profile-mid's dominating-edge
# lists) building the chunk texts costs more than it saves
_CHUNK = 6
_CHUNKED_FROM = 16


def _set_texts(names: list[str], masks: Sequence[int], pad: str) -> list[str]:
    """Each nonempty mask's member names, ascending by id, as a list at pad's
    level.

    A family of _CHUNKED_FROM or more sets is written by chunks of _CHUNK
    ids: once per call, each chunk gets the text of every subset of its
    names, built by doubling, with every name preceded by the separator,
    and a mask's text joins the texts of its chunks and drops the leading
    comma.  A set then costs one lookup per chunk rather than a step per
    member.  A smaller family would not repay the chunk texts, so its sets
    are walked member by member.
    """
    inner = pad + "  "
    sep, close = "," + inner, pad + "]"
    if len(masks) < _CHUNKED_FROM:
        texts = []
        for mask in masks:
            members = []
            while mask:
                low = mask & -mask
                members.append(names[low.bit_length() - 1])
                mask ^= low
            texts.append("[" + inner + sep.join(members) + close)
        return texts
    rows = []
    for shift in range(0, len(names), _CHUNK):
        texts = [""]
        for name in names[shift:shift + _CHUNK]:
            item = sep + name
            texts += [text + item for text in texts]
        rows.append((shift, texts))
    chunk = (1 << _CHUNK) - 1
    return [
        "[" + "".join([texts[mask >> shift & chunk] for shift, texts in rows])[1:] + close
        for mask in masks
    ]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload = args.fn(args)
        print(_dumps(payload))
        return code
    # ParseError, ValidationError, NotAntichainError and
    # DominationUndefinedError are all ValueErrors
    except (ValueError, CapabilityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug: exit 4, never the violation code 3
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


def run() -> None:
    raise SystemExit(main())
