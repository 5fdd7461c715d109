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
from contextlib import ExitStack
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter

from .errors import CapabilityError, DominationUndefinedError
from .graphs import (
    CANONICAL_BOUND,
    Graph,
    canonical_form,
    canonical_key,
    component,
    diameter,
    girth,
    graph_from_canonical,
    is_planar,
    is_triangle_free,
    max_matching_of_edges,
    neighbors,
    vertex_mask,
)
from .graphio import graph6_from_key
from .hypergraph import SpernerFamily
from .domination import DominatingEdgeSubgraph, TotalDominationReport
from .domination import dominating_edge_subgraph, mtds, packing_number, report
# unused here; bound because perfbench/layers.json traces search.<name> sites
from .graphio import serialize_graph  # noqa: F401


# Connected graphs on n vertices, n = 0..CANONICAL_BOUND: all of them (OEIS
# A001349) and the triangle-free ones (A024607).
CONNECTED_CLASSES = (
    1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571, 1006700565, 164059830476
)
CONNECTED_TRIANGLE_FREE = (1, 1, 1, 1, 3, 6, 19, 59, 267, 1380, 9832, 90842, 1144061)
# The most classes, summed over orders 2..n_max, that a search may key.  n <=
# 10 holds 11,989,763 connected classes, whose order-10 level dict alone
# would need about 8 GB.  A triangle-free search drops children with a
# triangle before keying them, so A024607 bounds its keys.  A planar search
# also keys the non-planar children of planar parents, so A001349 bounds it.
SEARCH_BUDGET = 1_000_000


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
        if self.triangle_free_only:
            table, kind = CONNECTED_TRIANGLE_FREE, "connected triangle-free classes (OEIS A024607)"
        else:
            table, kind = CONNECTED_CLASSES, "connected classes (OEIS A001349)"
        count = sum(table[2 : self.n_max + 1])
        if count > SEARCH_BUDGET:
            raise CapabilityError(
                f"a search to n_max={self.n_max} may key up to {count:,} {kind}, "
                f"more than the budget of {SEARCH_BUDGET:,}"
            )
        if self.n_max < 2:
            raise ValueError(f"n_max must be at least 2, got {self.n_max}")
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
# a parsed catalog line's fields in CatalogEntry's positional order
_entry_fields = itemgetter(*_FIELDS)
# parses one JSON value at the start of a str: (value, end index)
_decode = json.JSONDecoder().raw_decode

# A catalog line is json.dumps(record, sort_keys=True) of an entry's fields
# plus its graph6 string; _catalog_line writes those bytes without the dict
# and the encoder, each field by its type, in sorted key order.
_LINE = (
    '{"Gamma_t": %s, "canonical_key": %s, "diameter": %s, "gamma_t": %s, '
    '"girth": %s, "graph6": %s, "is_wtd": %s, "m": %d, "min_degree": %d, '
    '"n": %d, "nu_gde": %s, "planar": %s, "rho": %d, "triangle_free": %s}\n'
)
# JSON text of a bool, or of an optional one
_JSON_BOOL = {True: "true", False: "false", None: "null"}


def _catalog_line(entry: CatalogEntry, graph6: str) -> str:
    """The catalog line of entry: json.dumps(record, sort_keys=True) and a
    newline, where record holds entry's fields and graph6.
    """
    return _LINE % (
        "null" if entry.Gamma_t is None else int.__repr__(entry.Gamma_t),
        encode_basestring_ascii(entry.canonical_key),
        "null" if entry.diameter is None else int.__repr__(entry.diameter),
        "null" if entry.gamma_t is None else int.__repr__(entry.gamma_t),
        "null" if entry.girth is None else int.__repr__(entry.girth),
        encode_basestring_ascii(graph6),
        _JSON_BOOL[entry.is_wtd],
        entry.m,
        entry.min_degree,
        entry.n,
        "null" if entry.nu_gde is None else int.__repr__(entry.nu_gde),
        _JSON_BOOL[entry.planar],
        entry.rho,
        _JSON_BOOL[entry.triangle_free],
    )


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


# The most minimal total dominating sets a profile lists.  The family can
# grow exponentially with n (16 disjoint copies of K4 have 6**16); past this
# many sets profile raises CapabilityError instead, after about 2 s of
# enumeration.  No searched graph reaches it: the family is an antichain,
# so on CANONICAL_BOUND = 12 vertices it has at most C(12, 6) = 924 sets
# (Sperner's theorem).  The largest family that analyze and construct-w2
# meet on perfbench's 256 frozen profile-mid seeds has 320 sets.
MTDS_LIMIT = 100_000


def profile(g: Graph) -> Profile:
    """Compute the total-domination profile of g once: a one-graph block
    of _profile_block, the kernels every search classification runs.

    Raises CapabilityError when g has more than MTDS_LIMIT minimal total
    dominating sets.
    """
    return _profile_block([g])[0]


def _profile_block(graphs: list[Graph]) -> list[Profile]:
    """The profile of each graph, one kernel at a time over the whole list.

    Raises CapabilityError, naming MTDS_LIMIT, when any graph has more
    minimal total dominating sets than that.
    """
    families = []
    for g in graphs:
        try:
            families.append(mtds(g, max_count=MTDS_LIMIT))
        except DominationUndefinedError:
            families.append(None)
        except CapabilityError:
            raise CapabilityError(
                f"more than MTDS_LIMIT = {MTDS_LIMIT} minimal total dominating sets; "
                "a profile lists the whole family, so it stops there"
            ) from None
    reports = [None if fam is None else report(g, fam) for g, fam in zip(graphs, families)]
    edges = [
        dominating_edge_subgraph(g) if rep is not None and rep.gamma_t == 2 else None
        for g, rep in zip(graphs, reports)
    ]
    rhos = [packing_number(g) for g in graphs]
    diameters = [diameter(g) for g in graphs]
    girths = [girth(g) for g in graphs]
    return list(map(Profile, families, reports, rhos, diameters, girths, edges))


def classify(g: Graph) -> CatalogEntry:
    """The full catalog record of g, key and planarity included: a one-graph
    block of _classify_block, the path every search classification takes.

    Raises CapabilityError above CANONICAL_BOUND vertices, and as profile
    does past MTDS_LIMIT minimal total dominating sets (see MTDS_LIMIT).
    """
    return _classify_block([(canonical_form(g), g.adj, None)])[0]


# run_search classifies fresh classes in blocks of this many: each kernel
# runs over the whole block before the next one starts, and the block's
# catalog lines go out in one write, so an interrupted run classifies at
# most one block again.
BLOCK = 256


def _classify_block(block: list[tuple]) -> list[CatalogEntry]:
    """The catalog record of each class in a block of enumerate_graphs
    payloads (canonical key, adjacency, planar), one kernel at a time over
    the block.  The Graphs are built here (in the worker, under a pool);
    a planar of None is decided by is_planar.
    """
    keys, adjs, planars = zip(*block)
    graphs = [Graph(len(adj), adj) for adj in adjs]
    profiles = _profile_block(graphs)
    matchings = [
        None if p.dominating_edges is None else max_matching_of_edges(p.dominating_edges.edges)
        for p in profiles
    ]
    planars = [is_planar(g) if planar is None else planar for g, planar in zip(graphs, planars)]
    triangle_free = [is_triangle_free(g) for g in graphs]
    entries = []
    for g, key, prof, nu, planar, tf in zip(
        graphs, keys, profiles, matchings, planars, triangle_free
    ):
        rep = prof.report
        entries.append(
            CatalogEntry(
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
                nu_gde=nu,
                planar=planar,
                triangle_free=tf,
            )
        )
    return entries


def _parts_without(n: int, adj: tuple[int, ...]) -> list[tuple[int, ...]]:
    """For each vertex v, the connected components of the graph minus v."""
    full = (1 << n) - 1
    out = []
    for v in range(n):
        rest = full & ~(1 << v)
        parts = []
        while rest:
            parts.append(component(adj, rest & -rest, rest))
            rest &= ~parts[-1]
        out.append(tuple(parts))
    return out


def _below(n: int, adj: tuple[int, ...]) -> list[int]:
    """below[d] is the mask of vertices of degree less than d (d = 0..n+1)."""
    return [vertex_mask(v for v in range(n) if adj[v].bit_count() < d) for d in range(n + 2)]


def _degree_sum(adj: tuple[int, ...], mask: int) -> int:
    """The sum of the degrees of the vertices of mask."""
    total = 0
    while mask:
        low = mask & -mask
        total += adj[low.bit_length() - 1].bit_count()
        mask ^= low
    return total


def _neighbour_degree_sums(adj: tuple[int, ...]) -> list[int]:
    """For each vertex, the sum of its neighbours' degrees."""
    return [_degree_sum(adj, row) for row in adj]


def _degree_cap(adj: tuple[int, ...], parts: list[tuple[int, ...]]) -> int:
    """The largest neighbourhood a new vertex can have and pass
    _new_vertex_is_least: one more than the least degree of a non-cut
    vertex of the parent.

    A non-cut vertex v of the parent stays a non-cut vertex of every child
    except the one whose new vertex is joined to v alone, and its child
    degree is at most deg(v) + 1, so a larger neighbourhood puts v below
    the new vertex.
    """
    return 1 + min(row.bit_count() for row, cut in zip(adj, parts) if len(cut) <= 1)


def _new_vertex_is_least(
    nb: int,
    adj: tuple[int, ...],
    below: list[int],
    parts: list[tuple[int, ...]],
    sums: list[int],
) -> bool:
    """Whether a new vertex joined to nb is least among the non-cut vertices
    of the child by (degree, -sum of neighbour degrees), given the parent's
    adjacency, _below, _parts_without and _neighbour_degree_sums.

    An old vertex v has child degree deg(v) + [v in nb], so it is below the
    new vertex's degree d when deg(v) < d - 1, or deg(v) < d and v is not in
    nb, and ties with it when its child degree is exactly d.  It is a
    non-cut vertex of the child when every component of the parent minus v
    meets nb.  Neighbour-degree sums are compared only for tied non-cut
    vertices: the new vertex's is d plus the parent degrees over nb, and v's
    is its parent sum plus one per neighbour in nb, plus d if v itself is in
    nb.
    """
    d = nb.bit_count()
    lower = (below[d] & ~nb) | (below[d - 1] & nb)
    tie = ((below[d + 1] & ~nb) | (below[d] & nb)) & ~lower
    while lower:
        low = lower & -lower
        if all(part & nb for part in parts[low.bit_length() - 1]):
            return False
        lower ^= low
    own = -1
    while tie:
        low = tie & -tie
        tie ^= low
        v = low.bit_length() - 1
        if not all(part & nb for part in parts[v]):
            continue
        if own < 0:
            own = d + _degree_sum(adj, nb)
        theirs = sums[v] + (adj[v] & nb).bit_count() + (d if low & nb else 0)
        if theirs > own:
            return False
    return True


def _orbit_labels(n: int, gens: list[tuple[int, ...]]) -> list[int] | None:
    """The least member of each vertex mask's orbit under the group gens
    generate, indexed by mask; None when gens is empty (the trivial group).
    """
    if not gens:
        return None
    images = []
    for perm in gens:
        image = [0]  # image of each mask, built one vertex at a time
        for v in range(n):
            bit = 1 << perm[v]
            image += [x | bit for x in image]
        images.append(image)
    label = [-1] * (1 << n)
    for mask in range(1 << n):
        if label[mask] < 0:  # the least member of an unlabelled orbit
            label[mask] = mask
            stack = [mask]
            while stack:
                x = stack.pop()
                for image in images:
                    y = image[x]
                    if label[y] < 0:
                        label[y] = mask
                        stack.append(y)
    return label


def _fits_in_a_face(adj: tuple[int, ...], nb: int) -> bool:
    """Whether a new vertex joined to nb keeps a planar graph planar because
    it has degree 1, or degree 2 with adjacent neighbours: it then fits in a
    face beside its neighbour or beside that edge.  is_planar deletes such
    vertices by the same rule.
    """
    low = nb & -nb
    rest = nb ^ low
    if not rest:
        return True
    return rest & (rest - 1) == 0 and (adj[low.bit_length() - 1] & rest) != 0


def enumerate_graphs(filt: SearchFilter):
    """Yield (canonical key, adjacency, planar) per isomorphism class, by
    level then key.

    The adjacency is a tuple of neighbourhood masks over vertices 0..n-1,
    n = len(adjacency); no Graph is built for the yield, so a caller that
    skips a class (a resumed search, for one already in its catalog) pays
    nothing for it.

    Only connected classes are enumerated.  Augmentation: each level-k class
    spawns level-(k+1) children by attaching a new vertex to a nonempty
    neighborhood, so every child of a connected parent is connected.  A
    child is kept only if the new vertex is least among the non-cut
    vertices of the child by degree, and among those of least degree has
    the largest sum of neighbour degrees (the cheap-invariant half of
    McKay's canonical construction path; the per-level dict still removes
    duplicates).  This is complete: a connected graph G always has a
    non-cut vertex; deleting one that is least by (degree, -sum of
    neighbour degrees) among the non-cut vertices leaves a connected
    parent, and re-adding it passes the rule.  The parent is an induced
    subgraph of G, so under the planar, triangle-free and min-degree
    restrictions it is still in its level (min degree only filters what is
    yielded) and G is still reached.

    A parent tries one neighbourhood per orbit of its automorphism group
    (the orbit half of McKay's method), the least mask of each.  An
    automorphism s maps the child of nb isomorphically onto the child of
    s(nb), and the rule above and the triangle test hold for both or for
    neither, so every skipped child is isomorphic to one that is tried.
    The group's generators come from the labelling search that computed
    the parent's key (canonical_key's generators list), so each class runs
    one labelling search.  Neighbourhoods of more than _degree_cap members
    are not tried at all: the rule rejects every one of them.  The
    per-level dict keeps the first labelled child that reaches each key;
    which child that is depends on the rule and on the parent order, so the
    yielded adjacencies may be other labellings of the same classes, while
    the keys and their order do not change.

    Each level is one dict, key -> (adjacency, planar, generators), holding
    the record of each class from the moment its key is first reached, and
    is walked once in key order: each class is yielded, then expanded.
    generators are those of the adjacency kept, and None on the last
    level, which is not expanded.  planar is inherited in both directions,
    from whichever parent that generates the child shows it: False when the
    parent is non-planar, since it is an induced subgraph, and True when
    the parent is planar and the new vertex fits in a face
    (_fits_in_a_face).  A planar still None is decided by is_planar, once
    per class, when its level is expanded further or filtered on
    planarity; on the last level planar is None unless inherited, and
    the classification decides it (_classify_block).  A Graph is built only
    for is_planar.  The planar and triangle-free restrictions prune whole
    subtrees, since a child can qualify only if its parent does.
    """
    level: dict[bytes, tuple] = {canonical_key(1, (0,)): ((0,), True, [])}
    for n in range(1, filt.n_max + 1):
        deepen = n < filt.n_max
        keep_gens = n + 1 < filt.n_max
        nxt: dict[bytes, tuple] = {}
        for key in sorted(level):
            adj, planar, gens = level[key]
            if planar is None and (deepen or filt.planar_only):
                planar = is_planar(Graph(n, adj))
            if filt.planar_only and not planar:
                continue
            if n >= filt.n_min and (
                filt.min_degree is None or min(row.bit_count() for row in adj) >= filt.min_degree
            ):
                yield key, adj, planar
            if not deepen:
                continue
            orbit = _orbit_labels(n, gens)
            below = _below(n, adj)
            parts = _parts_without(n, adj)
            sums = _neighbour_degree_sums(adj)
            cap = _degree_cap(adj, parts)
            for nb in range(1, 1 << n):
                if nb.bit_count() > cap:
                    continue
                if orbit is not None and orbit[nb] != nb:
                    continue  # an isomorphic child comes from the orbit's least mask
                if filt.triangle_free_only and neighbors(adj, nb) & nb:
                    continue
                if not _new_vertex_is_least(nb, adj, below, parts, sums):
                    continue
                child = tuple(
                    row | ((nb >> i & 1) << n) for i, row in enumerate(adj)
                ) + (nb,)
                child_gens = [] if keep_gens else None
                child_key = canonical_key(n + 1, child, child_gens)
                if not planar:
                    fact = False
                elif _fits_in_a_face(adj, nb):
                    fact = True
                else:
                    fact = None
                record = nxt.get(child_key)
                if record is None:
                    nxt[child_key] = (child, fact, child_gens)
                elif record[1] is None and fact is not None:
                    nxt[child_key] = (record[0], fact, record[2])
        level = nxt


def _wtd2(entry: CatalogEntry) -> bool:
    return bool(entry.is_wtd) and entry.gamma_t == 2


def _planar_wtd2_min_degree3(entry: CatalogEntry) -> bool:
    """Planar, uniform size 2 and min degree >= 3: the class T12 and P7A
    bound, whose largest instance is the search's frontier."""
    return bool(entry.planar) and _wtd2(entry) and entry.min_degree >= 3


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
        _planar_wtd2_min_degree3,
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
        _planar_wtd2_min_degree3,
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
    # imported at call time, not for an import cycle (there is none): the
    # perfbench tracer wraps wtd2.recognize_triangle_free_wtd2, and a
    # module-level import would bind the unwrapped function, so that layer
    # would read 0 calls
    from .wtd2 import recognize_triangle_free_wtd2

    g = graph_from_canonical(bytes.fromhex(entry.canonical_key))
    return recognize_triangle_free_wtd2(g) == _wtd2(entry)


def resolve_assertion_ids(ids) -> tuple[str, ...]:
    """Normalize user-supplied assertion names, each once in order of first
    mention; 'all' selects everything."""
    chosen: dict[str, None] = {}
    for raw in ids:
        name = raw.strip().upper()
        if name == "ALL":
            chosen.update(dict.fromkeys(ASSERTIONS))
        elif name in ASSERTIONS:
            chosen[name] = None
        elif name:
            raise ValueError(
                f"unknown assertion id {raw!r}; known ids: {', '.join(ASSERTIONS)} (or 'all')"
            )
    if not chosen:
        raise ValueError("no assertion ids given")
    return tuple(chosen)


def _load_existing(path: str) -> dict[str, CatalogEntry]:
    """Read a catalog.  A final line without its newline is the tail of an
    interrupted write: it is cut off (even if it parses, as the next record
    would join it) and its class classified again.  Other bad lines raise.

    Each stripped line is decoded from UTF-8 once and parsed by one
    raw_decode, which must consume all of it: trailing data is rejected as
    json.loads rejects it.  Catalogs are written in ASCII, so a line that
    json.loads(bytes) would sniff as UTF-16 or UTF-32, or that starts with
    a byte-order mark, is unreadable.
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
            text = line.decode("utf-8", "surrogatepass")  # as json.loads decodes UTF-8
            record, end = _decode(text)
            if end != len(text):
                raise json.JSONDecodeError("Extra data", text, end)
            entry = CatalogEntry(*_entry_fields(record))
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

    order: list[str] = []

    def fresh():
        """The payloads of the classes the catalog lacks, BLOCK at a time."""
        block = []
        for payload in enumerate_graphs(filt):
            hexkey = payload[0].hex()
            order.append(hexkey)
            if hexkey not in existing:
                block.append(payload)
                if len(block) == BLOCK:
                    yield block
                    block = []
        if block:
            yield block

    # Fresh classes are classified a block at a time and each block's lines
    # go to the catalog in one write, so an interrupted run leaves a usable
    # prefix behind and classifies at most one block again (fresh payloads
    # arrive in ascending canonical-key order, keeping the file sorted per
    # run).  The catalog opens before enumeration, so an unwritable path
    # fails at once.  A serial run classifies each block as soon as it is
    # enumerated.  A pool's workers start with its first block, but
    # Executor.map submits the whole enumeration before it yields a result;
    # with no fresh class nothing is submitted and no worker starts.
    with ExitStack() as stack:
        sink = None
        if out_path is not None:
            sink = stack.enter_context(open(out_path, "a", encoding="utf-8"))
        if jobs > 1:
            # imported here: serial runs and the per-graph commands never pay for it
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            computed = pool.map(_classify_block, fresh())
        else:
            computed = map(_classify_block, fresh())
        for block in computed:
            for entry in block:
                existing[entry.canonical_key] = entry
            if sink is not None:
                sink.write("".join([
                    _catalog_line(entry, graph6_from_key(bytes.fromhex(entry.canonical_key)))
                    for entry in block
                ]))
                sink.flush()
    entries = [existing[h] for h in order]

    assertion_report: dict[str, dict] = {}
    for name in ids:
        _, smallest, applies, holds = ASSERTIONS[name]
        checked = list(filter(applies, entries))
        assertion_report[name] = {
            "checked": len(checked),
            "violations": [e.canonical_key for e in checked if not holds(e)],
            "falsifiable": filt.n_max >= smallest,
        }

    frontier_entry = max(
        filter(_planar_wtd2_min_degree3, entries), key=attrgetter("n"), default=None
    )
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
