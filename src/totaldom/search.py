"""Exhaustive small-graph searches with a persistent catalog.

Graphs are enumerated up to isomorphism by vertex augmentation, classified
by their total-domination profile, and checked against a registry of
boundary assertions (size, girth, and matching bounds that are conjectured
or proven for various planar and minimum-degree classes).  Results stream to
an append-only JSON-lines catalog keyed by canonical form, so an
interrupted run can resume without redoing finished work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields

from .errors import CapabilityError, DominationUndefinedError
from .graphs import (
    CANONICAL_BOUND,
    Graph,
    canonical_form,
    canonical_key,
    diameter,
    girth,
    graph_from_canonical,
    is_planar,
    is_triangle_free,
    max_matching_of_edges,
    iter_bits,
    vertex_mask,
)
from .graphio import graph6_from_key
from .hypergraph import SpernerFamily
from .domination import DominatingEdgeSubgraph, TotalDominationReport
from .domination import dominating_edge_subgraph, mtds, packing_number, report
# unused here; bound because perfbench/layers.json traces search.<name> sites
from .graphio import serialize_graph  # noqa: F401


@dataclass(frozen=True)
class SearchFilter:
    """What to enumerate: order range plus optional structural restrictions."""

    n_max: int
    n_min: int = 2
    min_degree: int | None = None
    planar_only: bool = False
    triangle_free_only: bool = False

    def __post_init__(self) -> None:
        if self.n_max > CANONICAL_BOUND:
            raise CapabilityError(
                f"searches are capped at {CANONICAL_BOUND} vertices, got n_max={self.n_max}"
            )
        if self.n_min < 2:
            raise ValueError("n_min must be at least 2")
        if self.n_min > self.n_max:
            raise ValueError("n_min must not exceed n_max")
        if self.min_degree is not None and self.min_degree < 0:
            raise ValueError("min_degree must be nonnegative")


@dataclass(frozen=True)
class CatalogEntry:
    """Classification record for one isomorphism class.

    gamma_t, Gamma_t, is_wtd, and nu_gde are None when total domination is
    undefined (the graph has an isolated vertex); nu_gde is also None unless
    gamma_t is 2.  diameter is None for disconnected graphs, girth for
    forests.
    """

    canonical_key: str
    n: int
    m: int
    min_degree: int
    gamma_t: int | None
    Gamma_t: int | None
    is_wtd: bool | None
    rho: int
    diameter: int | None
    girth: int | None
    nu_gde: int | None
    planar: bool
    triangle_free: bool


_FIELDS = tuple(f.name for f in fields(CatalogEntry))


@dataclass(frozen=True)
class Profile:
    """Total-domination profile of one graph, shared by the catalog and the CLI.

    family and report are None when total domination is undefined (an
    isolated vertex, or no vertex); dominating_edges only when gamma_t is 2.
    """

    family: SpernerFamily | None
    report: TotalDominationReport | None
    rho: int
    diameter: int | None
    girth: int | None
    dominating_edges: DominatingEdgeSubgraph | None


def profile(g: Graph) -> Profile:
    """Compute the total-domination profile of g once."""
    try:
        fam = mtds(g)
    except DominationUndefinedError:
        fam = rep = gde = None
    else:
        rep = report(g, fam)
        gde = dominating_edge_subgraph(g) if rep.gamma_t == 2 else None
    return Profile(fam, rep, packing_number(g), diameter(g), girth(g), gde)


def classify(
    g: Graph, key: bytes | None = None, planar: bool | None = None
) -> CatalogEntry:
    """Compute the full catalog record for one graph.

    key and planar, when given, must be g's canonical form and planarity
    (enumerate_graphs yields both); they are computed when None.
    """
    if key is None:
        key = canonical_form(g)
    if planar is None:
        planar = is_planar(g)
    prof = profile(g)
    rep, gde = prof.report, prof.dominating_edges
    return CatalogEntry(
        canonical_key=key.hex(),
        n=g.n,
        m=g.m,
        min_degree=g.min_degree(),
        gamma_t=None if rep is None else rep.gamma_t,
        Gamma_t=None if rep is None else rep.Gamma_t,
        is_wtd=None if rep is None else rep.is_wtd,
        rho=prof.rho,
        diameter=prof.diameter,
        girth=prof.girth,
        nu_gde=None if gde is None else max_matching_of_edges(gde.edges),
        planar=planar,
        triangle_free=is_triangle_free(g),
    )


def _parts_without(n: int, adj: tuple[int, ...]) -> list[tuple[int, ...]]:
    """For each vertex v, the connected components of the graph minus v."""
    full = (1 << n) - 1
    out = []
    for v in range(n):
        rest = full & ~(1 << v)
        parts = []
        while rest:
            seen = frontier = rest & -rest
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    reach |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = reach & rest & ~seen
                seen |= frontier
            parts.append(seen)
            rest &= ~seen
        out.append(tuple(parts))
    return out


def _below(n: int, adj: tuple[int, ...]) -> list[int]:
    """below[d] is the mask of vertices of degree less than d (d = 0..n+1)."""
    return [vertex_mask(v for v in range(n) if adj[v].bit_count() < d) for d in range(n + 2)]


def _new_vertex_is_least(
    nb: int, below: list[int], parts: list[tuple[int, ...]]
) -> bool:
    """Whether a new vertex joined to nb has least degree among the non-cut
    vertices of the child, given the parent's _below and _parts_without.

    An old vertex v has child degree deg(v) + [v in nb], so it is below the
    new vertex's degree d when deg(v) < d - 1, or deg(v) < d and v is not in
    nb.  It is a non-cut vertex of the child when every component of the
    parent minus v meets nb.
    """
    d = nb.bit_count()
    lower = (below[d] & ~nb) | (below[d - 1] & nb)
    while lower:
        low = lower & -lower
        if all(part & nb for part in parts[low.bit_length() - 1]):
            return False
        lower ^= low
    return True


def enumerate_graphs(filt: SearchFilter):
    """Yield (canonical key, graph, planar) per isomorphism class, by level
    then key.

    Only connected classes are enumerated.  Augmentation: each level-k class
    spawns level-(k+1) children by attaching a new vertex to a nonempty
    neighborhood, so every child of a connected parent is connected.  A
    child is kept only if no non-cut vertex of the child has a smaller
    degree than the new vertex (the degree half of McKay's canonical
    construction path; the per-level dict still removes duplicates).  This
    is complete: a connected graph G always has a non-cut vertex; deleting
    one of least degree among the non-cut vertices leaves a connected
    parent, and re-adding it passes the rule.  The parent is an induced
    subgraph of G, so under the planar, triangle-free and min-degree
    restrictions it is still in its level (min degree only filters what is
    yielded) and G is still reached.

    planar is inherited: a child is non-planar as soon as one parent that
    generates it is, since that parent is an induced subgraph.  is_planar
    decides the rest, once per class, for every level that is expanded
    further or filtered on planarity; on the last level planar is None
    unless inherited, and classify decides it when asked.  The planar and
    triangle-free restrictions prune whole subtrees, since a child can
    qualify only if its parent does.
    """
    level: dict[bytes, tuple[int, ...]] = {canonical_key(1, (0,)): (0,)}
    planar: dict[bytes, bool | None] = dict.fromkeys(level, True)
    n = 1
    while True:
        if n >= filt.n_min:
            for key in sorted(level):
                g = Graph(n, level[key])
                if filt.min_degree is not None and g.min_degree() < filt.min_degree:
                    continue
                yield key, g, planar[key]
        if n == filt.n_max:
            return
        nxt: dict[bytes, tuple[int, ...]] = {}
        nonplanar: set[bytes] = set()
        for pkey, adj in level.items():
            below = _below(n, adj)
            parts = _parts_without(n, adj)
            parent_nonplanar = planar[pkey] is False
            for nb in range(1, 1 << n):
                if filt.triangle_free_only and any(
                    adj[u] & nb for u in iter_bits(nb)
                ):
                    continue
                if not _new_vertex_is_least(nb, below, parts):
                    continue
                child = tuple(
                    row | ((nb >> i & 1) << n) for i, row in enumerate(adj)
                ) + (nb,)
                key = canonical_key(n + 1, child)
                if key not in nxt:
                    nxt[key] = child
                if parent_nonplanar:
                    nonplanar.add(key)
        n += 1
        decide = filt.planar_only or n < filt.n_max
        planar = {}
        for key, child in nxt.items():
            if key in nonplanar:
                planar[key] = False
            elif decide:
                planar[key] = is_planar(Graph(n, child))
            else:
                planar[key] = None
        if filt.planar_only:
            nxt = {key: child for key, child in nxt.items() if planar[key]}
        level = nxt


def _wtd2(entry: CatalogEntry) -> bool:
    return bool(entry.is_wtd) and entry.gamma_t == 2


def _girth_at_most(entry: CatalogEntry, bound: int) -> bool:
    return entry.girth is None or entry.girth <= bound


# id -> (description, smallest order, applies, holds); an assertion is
# violated by an entry where applies(entry) and not holds(entry).  The
# smallest order is a lower bound on the n at which a violation can exist:
# one past a bound on n, one past a bound on the girth (a cycle of length g
# needs g vertices), else 2.  T14 uses the Moore bound instead: min degree
# >= 3 and girth >= 13 need n >= 1 + 3 * (2**6 - 1) = 190.  A search with a
# smaller n_max cannot falsify it.
ASSERTIONS: dict[str, tuple] = {
    "T12": (
        "planar, uniform size 2, min degree >= 3 forces at most 16 vertices",
        17,
        lambda e: bool(e.planar) and _wtd2(e) and e.min_degree >= 3,
        lambda e: e.n <= 16,
    ),
    "L12A": (
        "planar, uniform size 2, dominating-edge matching >= 3 forces at most 8 vertices",
        9,
        lambda e: bool(e.planar) and _wtd2(e) and (e.nu_gde or 0) >= 3,
        lambda e: e.n <= 8,
    ),
    "L12B": (
        "uniform size 2 with min degree >= 3 forces dominating-edge matching >= 2",
        2,
        lambda e: _wtd2(e) and e.min_degree >= 3,
        lambda e: (e.nu_gde or 0) >= 2,
    ),
    "P7A": (
        "planar, uniform size 2, min degree >= 3 forces matching exactly 2 or at most 8 vertices",
        9,
        lambda e: bool(e.planar) and _wtd2(e) and e.min_degree >= 3,
        lambda e: e.nu_gde == 2 or e.n <= 8,
    ),
    "T14": (
        "uniform minimal-TDS size with min degree >= 3 forces girth at most 12",
        190,
        lambda e: bool(e.is_wtd) and e.min_degree >= 3,
        lambda e: _girth_at_most(e, 12),
    ),
    "HR97": (
        "uniform minimal-TDS size with min degree >= 2 forces girth at most 14",
        15,
        lambda e: bool(e.is_wtd) and e.min_degree >= 2,
        lambda e: _girth_at_most(e, 14),
    ),
    "DIAM3": (
        "with gamma_t 2, packing number 2 is the same as diameter 3",
        2,
        lambda e: e.gamma_t == 2,
        lambda e: (e.diameter == 3) == (e.rho == 2),
    ),
    "T11EQ": (
        "triangle-free: the linear recognizer agrees with the enumeration route",
        2,
        lambda e: bool(e.triangle_free),
        lambda e: _t11_agrees(e),
    ),
}


def _t11_agrees(entry: CatalogEntry) -> bool:
    from .wtd2 import recognize_triangle_free_wtd2

    g = graph_from_canonical(bytes.fromhex(entry.canonical_key))
    return recognize_triangle_free_wtd2(g) == _wtd2(entry)


def resolve_assertion_ids(ids) -> tuple[str, ...]:
    """Normalize user-supplied assertion names; 'all' selects everything."""
    chosen: list[str] = []
    for raw in ids:
        name = raw.strip().upper()
        if not name:
            continue
        if name == "ALL":
            for known in ASSERTIONS:
                if known not in chosen:
                    chosen.append(known)
            continue
        if name not in ASSERTIONS:
            raise ValueError(
                f"unknown assertion id {raw!r}; known ids: {', '.join(ASSERTIONS)} (or 'all')"
            )
        if name not in chosen:
            chosen.append(name)
    if not chosen:
        raise ValueError("no assertion ids given")
    return tuple(chosen)


def _classify_payload(payload: tuple[bytes, Graph, bool | None]) -> CatalogEntry:
    key, g, planar = payload
    return classify(g, key, planar)


def _load_existing(path: str) -> dict[str, CatalogEntry]:
    """Read a catalog.  A final line without its newline is the tail of an
    interrupted write: it is cut off (even if it parses, as the next record
    would join it) and its class classified again.  Other bad lines raise.
    """
    entries: dict[str, CatalogEntry] = {}
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.split(b"\n")
    torn = lines.pop()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            entry = CatalogEntry(**{k: record[k] for k in _FIELDS})
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: unreadable catalog line ({exc})") from exc
        entries[entry.canonical_key] = entry
    if torn:
        with open(path, "rb+") as fh:
            fh.truncate(len(data) - len(torn))
    return entries


def run_search(
    filt: SearchFilter,
    assertion_ids,
    out_path: str | None = None,
    jobs: int = 1,
):
    """Enumerate, classify, persist, and check assertions.

    Returns (entries, report).  ``report`` maps each requested assertion id
    to how many entries it applied to and which canonical keys violate it,
    and carries a frontier note: the largest classified instance that is
    planar with uniform size 2 and minimum degree 3 (the open range for the
    size bounds), if any showed up.  ``jobs`` must be at least 1; more
    workers than CPUs are clamped to the CPU count.
    """
    ids = resolve_assertion_ids(assertion_ids)
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    existing: dict[str, CatalogEntry] = {}
    if out_path is not None and os.path.exists(out_path):
        existing = _load_existing(out_path)

    fresh: list[tuple[bytes, Graph, bool | None]] = []
    order: list[str] = []
    for key, g, planar in enumerate_graphs(filt):
        hexkey = key.hex()
        order.append(hexkey)
        if hexkey not in existing:
            fresh.append((key, g, planar))

    # classification results stream to the catalog as they finish, so an
    # interrupted run leaves a usable prefix behind (fresh payloads arrive in
    # ascending canonical-key order, keeping the file sorted per run)
    pool = None
    if jobs > 1 and len(fresh) > 1:
        # imported here: serial runs and the per-graph commands never pay for it
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
    computed_iter = (
        pool.map(_classify_payload, fresh, chunksize=32)
        if pool is not None
        else map(_classify_payload, fresh)
    )
    sink = open(out_path, "a", encoding="utf-8") if out_path is not None else None
    try:
        for entry in computed_iter:
            existing[entry.canonical_key] = entry
            if sink is not None:
                record = {name: getattr(entry, name) for name in _FIELDS}
                record["graph6"] = graph6_from_key(bytes.fromhex(entry.canonical_key))
                sink.write(json.dumps(record, sort_keys=True) + "\n")
                sink.flush()
    finally:
        if sink is not None:
            sink.close()
        if pool is not None:
            pool.shutdown()
    entries = [existing[h] for h in order]

    assertion_report: dict[str, dict] = {}
    for name in ids:
        _, order, applies, holds = ASSERTIONS[name]
        checked = 0
        violations: list[str] = []
        for entry in entries:
            if applies(entry):
                checked += 1
                if not holds(entry):
                    violations.append(entry.canonical_key)
        assertion_report[name] = {
            "checked": checked,
            "violations": violations,
            "falsifiable": filt.n_max >= order,
        }

    frontier_entry = None
    for entry in entries:
        if entry.planar and _wtd2(entry) and entry.min_degree >= 3:
            if frontier_entry is None or entry.n > frontier_entry.n:
                frontier_entry = entry
    search_report = {
        "classified": len(entries),
        "assertions": assertion_report,
        "frontier": {
            "n_max": filt.n_max,
            "largest_planar_wtd2_min_degree3": (
                None
                if frontier_entry is None
                else {"canonical_key": frontier_entry.canonical_key, "n": frontier_entry.n}
            ),
        },
    }
    return entries, search_report
