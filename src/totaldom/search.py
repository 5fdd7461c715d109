"""Exhaustive small-graph searches with a persistent catalog.

Graphs are enumerated up to isomorphism by vertex augmentation, classified
by their total-domination profile, and checked against a registry of
boundary assertions (size, girth, and matching bounds that are conjectured
or proven for various planar and minimum-degree classes).  Results stream to
an append-only JSON-lines catalog keyed by canonical form, so an
interrupted run can resume without redoing finished work.
"""

from __future__ import annotations

import os
import re
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import CapabilityError
from .graphs import (
    CANONICAL_BOUND,
    Edge,
    Graph,
    _blocks,
    _embeds,
    _matching,
    _three_connected,
    canonical_form,
    canonical_key,
    component,
    diameter,
    diameters,
    girth,
    girths,
    graph_from_canonical,
    graphs_in_lanes,
    is_planar,
    key_triangle,
    mask_members,
    neighbors,
    vertex_mask,
)
from .graphio import graph6_from_key
from .hypergraph import SpernerFamily
from .domination import TotalDominationReport, mtds, packing_number, packing_numbers, report
from .domination import dominating_partners_in_lanes, require_total_domination
from .domination import minimal_tds_lattice, subset_lattice
# unused here; bound because perfbench/layers.json traces search.<name> sites
from .domination import dominating_edge_subgraph  # noqa: F401
from .graphio import serialize_graph  # noqa: F401


# Connected graphs on n vertices, n = 0..CANONICAL_BOUND: all of them (OEIS
# A001349), the triangle-free ones (A024607) and the planar ones (A003094).
CONNECTED_CLASSES = (
    1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080, 11716571, 1006700565, 164059830476
)
CONNECTED_TRIANGLE_FREE = (1, 1, 1, 1, 3, 6, 19, 59, 267, 1380, 9832, 90842, 1144061)
CONNECTED_PLANAR = (1, 1, 1, 2, 6, 20, 99, 646, 5974, 71885, 1052805, 17449299, 313372298)
# The most classes, summed over orders 2..n_max, that a search may key.  n <=
# 10 holds 11,989,763 connected classes, whose order-10 level dict alone
# would need about 5 GB: 11,716,571 records of about 416 B each (record and
# dict slot by sys.getsizeof, measured on the children of 3,000 random
# order-9 classes; an order-9 record takes 315 B, as the n <= 9
# enumeration's peak RSS of about 350 B per class agrees).  A triangle-free
# search drops children with a triangle, and a planar search non-planar
# children, before keying them, so A024607 and A003094 bound their keys;
# A024607 when both filters are set.
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
        # the fields first, so the budget below sums a table slice from 2 up
        if self.n_max < 2:
            raise ValueError(f"n_max must be at least 2, got {self.n_max}")
        if self.n_min < 2:
            raise ValueError("n_min must be at least 2")
        if self.n_min > self.n_max:
            raise ValueError("n_min must not exceed n_max")
        if self.min_degree is not None and self.min_degree < 0:
            raise ValueError("min_degree must be nonnegative")
        if self.n_max > CANONICAL_BOUND:
            raise CapabilityError(
                f"searches are capped at {CANONICAL_BOUND} vertices, got n_max={self.n_max}"
            )
        if self.triangle_free_only:
            table, kind = CONNECTED_TRIANGLE_FREE, "connected triangle-free classes (OEIS A024607)"
        elif self.planar_only:
            table, kind = CONNECTED_PLANAR, "connected planar classes (OEIS A003094)"
        else:
            table, kind = CONNECTED_CLASSES, "connected classes (OEIS A001349)"
        count = sum(table[2 : self.n_max + 1])
        if count > SEARCH_BUDGET:
            raise CapabilityError(
                f"a search to n_max={self.n_max} may key up to {count:,} {kind}, "
                f"more than the budget of {SEARCH_BUDGET:,}"
            )

    def admits(self, entry: CatalogEntry) -> bool:
        """Whether enumerate_graphs(self) yields entry's class, exact for any
        catalog run_search wrote: a resume holds only catalogued keys, folds
        the lines this admits, and refuses a class it reads twice."""
        return (
            self.n_min <= entry.n <= self.n_max
            and (self.min_degree is None or entry.min_degree >= self.min_degree)
            and (entry.planar or not self.planar_only)
            and (entry.triangle_free or not self.triangle_free_only)
        )


class CatalogEntry(NamedTuple):
    """Classification record for one isomorphism class, of a graph with
    total domination defined: at least one vertex and none isolated (the
    searched classes are connected, n >= 2).

    Three fields are derived from others: is_wtd is gamma_t == Gamma_t,
    triangle_free is girth != 3, and nu_gde is None exactly when gamma_t is
    not 2.  diameter is None for disconnected graphs, girth for forests.
    A NamedTuple, so immutable and built by tuple.__new__ (a search builds
    one per class it classifies or reads back): _replace gives a changed
    copy and _asdict the fields by name.
    """

    canonical_key: str
    n: int
    m: int
    min_degree: int
    gamma_t: int
    Gamma_t: int
    is_wtd: bool
    rho: int
    diameter: int | None
    girth: int | None
    nu_gde: int | None
    planar: bool
    triangle_free: bool


# A catalog line is json.dumps(record, sort_keys=True) of an entry's fields
# plus its graph6 string; _catalog_line writes those bytes without the dict
# and the encoder, each field by its type, in sorted key order.  It is the
# only statement of the layout: _read_catalog matches _LINE_PATTERN, made
# from it, and reads back no other line.
_LINE = (
    '{"Gamma_t": %d, "canonical_key": %s, "diameter": %s, "gamma_t": %d, '
    '"girth": %s, "graph6": %s, "is_wtd": %s, "m": %d, "min_degree": %d, '
    '"n": %d, "nu_gde": %s, "planar": %s, "rho": %d, "triangle_free": %s}\n'
)
# JSON text of a bool
_JSON_BOOL = {True: "true", False: "false"}
# _LINE stripped, as a regex: one group per field in its order but graph6,
# each int (nonnegative), optional int and bool as _catalog_line writes it,
# and the key as lowercase hex bytes.  _read_catalog compiles it (about 1
# ms), so that only a resume pays for it, not every import.
_INT, _OPT, _BOOL = "(0|[1-9][0-9]*)", "(0|[1-9][0-9]*|null)", "(true|false)"
_LINE_PATTERN = re.escape(_LINE[:-1].replace("%d", "%s")) % (
    _INT, '"((?:[0-9a-f]{2})+)"', _OPT, _INT, _OPT, '"[?-~]+"', _BOOL,
    _INT, _INT, _INT, _OPT, _BOOL, _INT, _BOOL,
)


def _catalog_line(entry: CatalogEntry, graph6: str) -> str:
    """The catalog line of entry: json.dumps(record, sort_keys=True) and a
    newline, where record holds entry's fields and graph6.
    """
    return _LINE % (
        entry.Gamma_t,
        encode_basestring_ascii(entry.canonical_key),
        "null" if entry.diameter is None else int.__repr__(entry.diameter),
        entry.gamma_t,
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
    """Total-domination profile of one graph, as analyze prints it.

    Only a graph with total domination defined (a vertex, none isolated)
    has one.  dominating_edges is None unless gamma_t is 2, and then holds
    what dominating_edge_subgraph returns.
    """

    family: SpernerFamily
    report: TotalDominationReport
    rho: int
    diameter: int | None
    girth: int | None
    dominating_edges: tuple[Edge, ...] | None


# The most minimal total dominating sets a profile lists.  The family can
# grow exponentially with n (16 disjoint copies of K4 have 6**16); past this
# many sets profile raises CapabilityError instead, after about 1 s of
# enumeration (0.93-1.03 s on a 2-vCPU VM, Python 3.11).  The largest family
# that analyze and construct-w2 meet on perfbench's 256 frozen profile-mid
# seeds has 320 sets.  A search cannot reach it: the family is an antichain,
# so on CANONICAL_BOUND = 12 vertices it has at most C(12, 6) = 924 sets
# (Sperner's theorem).  _classify_block counts the lattice's sets against it
# all the same, so a catalog record and a profile refuse the same graphs.
MTDS_LIMIT = 100_000


def _past_mtds_limit() -> CapabilityError:
    return CapabilityError(
        f"more than MTDS_LIMIT = {MTDS_LIMIT} minimal total dominating sets; "
        "a profile stops there"
    )


def profile(g: Graph) -> Profile:
    """Compute the total-domination profile of g once, listing its minimal
    total dominating sets by MMCS (mtds) for analyze and the self-checks of
    construct-w2 and realize.  _classify_block reads the same values off
    the subset lattice.

    Raises DominationUndefinedError, as mtds does, when g has no vertex or
    an isolated one, and CapabilityError when g has more than MTDS_LIMIT
    minimal total dominating sets.
    """
    try:
        family = mtds(g, max_count=MTDS_LIMIT)
    except CapabilityError:
        raise _past_mtds_limit() from None
    rep = report(g, family)
    # a dominating edge is a minimal TDS of size 2: its pairs (u, v), u < v,
    # sorted, since the family lists them by mask (C4's (1, 2) before (0, 3))
    edges = None if rep.gamma_t != 2 else tuple(sorted(
        mask_members(e) for e in family.edges if e.bit_count() == 2
    ))
    return Profile(family, rep, packing_number(g), diameter(g), girth(g), edges)


def classify(g: Graph) -> CatalogEntry:
    """The full catalog record of g, key and planarity included: a one-graph
    block of _classify_block, the path every search classification takes.
    The domain check is made here, once, on g itself, so a refusal names g's
    vertex as mtds's does (by its label when g has labels); the block gets
    g's rows and is_planar(g) as its planar fact.

    Raises CapabilityError above CANONICAL_BOUND vertices, and as profile
    does: DominationUndefinedError for a graph with no vertex or an isolated
    one, CapabilityError past MTDS_LIMIT minimal total dominating sets.
    """
    key = canonical_form(g)
    require_total_domination(g)
    return _classify_block([(key, g.adj, is_planar(g))])[0]


# enumerate_graphs expands parents, and run_search folds catalogued classes
# and classifies fresh ones, in blocks of this many: each kernel runs over
# the whole block before the next one starts.  A search block's catalog
# lines go out in one write, so an interrupted run redoes at most one block.
BLOCK = 256


def _classify_block(block: list[tuple]) -> list[CatalogEntry]:
    """The catalog record of each class in a block of enumerate_graphs
    payloads (canonical key, adjacency, planar), one kernel at a time over
    the block, each class with total domination defined (classify checks
    its graph) and planar its exact planarity, kept as given.  A block
    stays rows: graphs_in_lanes packs it and makes Graph's checks once
    (every order is at most CANONICAL_BOUND, below LANE_BOUND), and no
    Graph is built.  Packing numbers, diameters, girths and
    dominating partners come from the lane kernels, m and min_degree from
    the degrees.  gamma_t and Gamma_t are the least and largest set sizes
    in minimal_tds_lattice, its first layers met scanning up from 2 and down
    from n, and nu_gde is the matching number (graphs._matching) of the
    dominating partners: profile's values, without listing the family.
    triangle_free is girth != 3 (a forest's girth is None).
    """
    keys, adjs, planars = zip(*block)
    lanes = graphs_in_lanes(adjs)
    lattices = list(map(minimal_tds_lattice, adjs))
    if max(map(int.bit_count, lattices)) > MTDS_LIMIT:
        raise _past_mtds_limit()
    rhos = packing_numbers(lanes)
    diameter_list = diameters(lanes)
    girth_list = girths(lanes)
    partner_list = dominating_partners_in_lanes(lanes)
    entries = []
    for n, adj, key, lattice, rho, diam, gir, partners, planar in zip(
        map(len, adjs), adjs, keys, lattices, rhos, diameter_list, girth_list, partner_list, planars
    ):
        layer = subset_lattice(n)[2]
        gamma = 2
        while not lattice & layer[gamma]:
            gamma += 1
        big_gamma = n
        while not lattice & layer[big_gamma]:
            big_gamma -= 1
        degrees = list(map(int.bit_count, adj))
        # positional, in field order: keywords cost a NamedTuple twice the time
        entries.append(CatalogEntry(
            key.hex(), n, sum(degrees) // 2, min(degrees), gamma, big_gamma, gamma == big_gamma,
            rho, diam, gir, _matching(partners, {}, (1 << n) - 1) if gamma == 2 else None,
            planar, gir != 3,
        ))
    return entries


def _batches(items):
    """The items of an iterable in lists of BLOCK, the last one shorter."""
    items = iter(items)
    while block := list(islice(items, BLOCK)):
        yield block


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


def _face_fact(adj: tuple[int, ...], nb: int, blocks: dict[int, list | None]) -> bool | None:
    """The planarity of the child that joins a new vertex to nb in the
    planar parent adj, or None when this rule cannot tell; _keyed_children
    then calls is_planar, so the rule only saves that test.  blocks is empty
    until the first child that needs the parent's biconnected blocks, then
    maps each to None until a child that lies in it asks, then to [its faces
    by _embeds, whether it is 3-connected or None until needed]; a caller
    keeps one per parent, so each is computed at most once.

    A new vertex with one neighbour, or two adjacent ones, fits in a face
    beside that vertex or edge.  Otherwise, the new vertex and the block B
    that holds nb form one block of the child, and the parent's other
    blocks stay blocks of it, so the child is planar exactly when B has a
    plane embedding with nb on one face.  A face of _embeds' embedding that
    holds nb proves it.  When B is 3-connected that embedding is its only
    one (Whitney), so no such face proves the child non-planar; any other B
    may have another embedding, and so may an nb that spans two blocks.  B
    has at least three vertices, since a bridge holds only an adjacent
    pair, so _embeds applies, and a block of three vertices is a triangle,
    whose face holds every nb in it.
    """
    low = nb & -nb
    rest = nb ^ low
    if not rest or not rest & (rest - 1) and adj[low.bit_length() - 1] & rest:
        return True
    if not blocks:
        blocks.update(dict.fromkeys(_blocks(adj)))
    for block, known in blocks.items():
        if not nb & ~block:
            break
    else:
        return None
    if known is None:
        known = blocks[block] = [_embeds(adj, block), None]
    faces, rigid = known
    for face in faces:
        if not nb & ~face:
            return True
    if rigid is None:
        rigid = known[1] = _three_connected(adj, block)
    return False if rigid else None


def _keyed_children(
    n: int, parents: list[tuple], triangle_free: bool, planar_only: bool, keep_gens: bool
) -> list[tuple]:
    """The children of a block of order-n parents, each parent an
    (adjacency, planar, generators) record, as (key, child adjacency,
    planar, generators) in parent order, then neighbourhood-mask order.

    Each parent table (_orbit_labels, _below, _parts_without,
    _neighbour_degree_sums, _degree_cap) is built for the whole block
    before the candidate loop runs, and every child is keyed by
    canonical_key in one pass after it.  A parent tries the least mask of
    each orbit of masks with at most _degree_cap members, and keeps it when
    it passes _new_vertex_is_least and, if triangle_free is set, no two of
    its members are adjacent.  planar is the child's exact planarity, a
    bool: False under a non-planar parent, and under a planar one the face
    rule's answer (_face_fact), or is_planar's where the rule leaves it
    None; the parent's blocks, and a block's faces and 3-connectivity, are
    computed the first time a child asks for them.  With planar_only set, a
    non-planar child is dropped before it is keyed.
    generators is the list canonical_key fills when keep_gens is set, else
    None.  A pure function of its arguments, so it may run in any process.
    """
    adjs = [adj for adj, _, _ in parents]
    orbits = [_orbit_labels(n, gens) for _, _, gens in parents]
    belows = [_below(n, adj) for adj in adjs]
    partss = [_parts_without(n, adj) for adj in adjs]
    sumss = list(map(_neighbour_degree_sums, adjs))
    caps = list(map(_degree_cap, adjs, partss))
    children = []
    for (adj, planar, _), orbit, below, parts, sums, cap in zip(
        parents, orbits, belows, partss, sumss, caps
    ):
        blocks = {}  # _face_fact's tables of this parent, filled as children ask
        for nb in range(1, 1 << n):
            if nb.bit_count() > cap:
                continue
            if orbit is not None and orbit[nb] != nb:
                continue  # an isomorphic child comes from the orbit's least mask
            if triangle_free and neighbors(adj, nb) & nb:
                continue
            if not _new_vertex_is_least(nb, adj, below, parts, sums):
                continue
            child = tuple(row | ((nb >> i & 1) << n) for i, row in enumerate(adj)) + (nb,)
            fact = _face_fact(adj, nb, blocks) if planar else False
            if fact is None:
                fact = is_planar(Graph(n + 1, child))
            if planar_only and not fact:
                continue
            children.append((child, fact))
    keyed = []
    for child, fact in children:
        gens = [] if keep_gens else None
        keyed.append((canonical_key(n + 1, child, gens), child, fact, gens))
    return keyed


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
    (the orbit half of McKay's method).  An automorphism s maps the child
    of nb isomorphically onto the child of s(nb), and the rule above and
    the triangle test hold for both or for neither, so every skipped child
    is isomorphic to one that is tried.  The generators come from the
    labelling search that keyed the parent, so each class runs one.

    The search runs in three steps.  This walk takes each level, a dict
    key -> (adjacency, planar, generators), in key order, BLOCK classes at
    a time.  Each block's classes are yielded, then _keyed_children expands
    and keys the block, and the first child to reach a key is its record
    in the next level.  Its planar is that child's planarity, exact: False
    under a non-planar parent, and under a planar one what the face rule
    (_face_fact) decides from the parent's blocks and faces, or is_planar
    where the rule cannot tell.  A planar search keys no non-planar child,
    so every class it walks is planar.  The yielded adjacency is the first
    labelled child that reached its key, so another walk order could yield
    another labelling of the same class; the keys and their order would
    not change.  The planar and triangle-free restrictions prune whole
    subtrees, since a child can qualify only if its parent does.
    """
    level: dict[bytes, tuple] = {canonical_key(1, (0,)): ((0,), True, [])}
    for n in range(1, filt.n_max + 1):
        deepen = n < filt.n_max
        nxt: dict[bytes, tuple] = {}
        keys = sorted(level)
        for start in range(0, len(keys), BLOCK):
            parents = []
            for key in keys[start : start + BLOCK]:
                adj, planar, gens = level[key]
                if n >= filt.n_min and (
                    filt.min_degree is None
                    or min(row.bit_count() for row in adj) >= filt.min_degree
                ):
                    yield key, adj, planar
                if deepen:
                    parents.append((adj, planar, gens))
            for key, child, fact, gens in _keyed_children(
                n, parents, filt.triangle_free_only, filt.planar_only, n + 1 < filt.n_max
            ):
                nxt.setdefault(key, (child, fact, gens))
        level = nxt


def _wtd2(entry: CatalogEntry) -> bool:
    return entry.is_wtd and entry.gamma_t == 2


def _planar_wtd2_min_degree3(entry: CatalogEntry) -> bool:
    """Planar, uniform size 2 and min degree >= 3: the class T12 and P7A
    bound, whose largest instance is the search's frontier."""
    return entry.planar and _wtd2(entry) and entry.min_degree >= 3


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
        lambda e: e.planar and _wtd2(e) and e.nu_gde >= 3,
        lambda e: e.n <= 8,
    ),
    "L12B": (
        "uniform size 2 with min degree >= 3 forces dominating-edge matching >= 2",
        2,
        lambda e: _wtd2(e) and e.min_degree >= 3,
        lambda e: e.nu_gde >= 2,
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
        lambda e: e.is_wtd and e.min_degree >= 3,
        lambda e: _girth_at_most(e, 12),
    ),
    "HR97": (
        "uniform minimal-TDS size with min degree >= 2 forces girth at most 14",
        15,
        lambda e: e.is_wtd and e.min_degree >= 2,
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
        lambda e: e.triangle_free,
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


def _read_catalog(path: str, done: set[bytes]):
    """Yield the CatalogEntry of each catalog line, one line read at a time,
    and add its key to done as bytes.  A final line without its newline is
    an interrupted write's tail: it is cut off (even if it parses, as the
    next record would join it) and its class classified again.

    Other lines are stripped, and blank ones skipped.  A line is read only
    if it is ASCII that _LINE_PATTERN matches whole, its key is one that
    key_triangle decodes (the length its order fixes, zero padding), its n
    and m are the key's order and edge count, and its is_wtd, triangle_free
    and nu_gde are derived from its other fields as CatalogEntry states.
    min_degree and graph6 are not checked against the key, nor is the key
    checked to be canonical.  Any other line, and a repeated class, raise
    ValueError naming the line.
    """
    fullmatch = re.compile(_LINE_PATTERN).fullmatch
    with open(path, "rb+") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.endswith(b"\n"):  # the torn tail; no other line lacks it
                fh.truncate(fh.tell() - len(line))
                break
            line = line.strip()
            if not line:
                continue
            try:
                match = fullmatch(line.decode("ascii"))
                if match is None:
                    raise ValueError("not in the layout _catalog_line writes")
                (Gamma_t, hexkey, diam, gamma_t, gir, wtd, m,
                 min_degree, n, nu, planar, rho, free) = match.groups()
                key, n, m = bytes.fromhex(hexkey), int(n), int(m)
                order, triangle = key_triangle(key)
                if (order, triangle.bit_count()) != (n, m):
                    raise ValueError(f"n {n} or m {m} disagrees with key {hexkey}")
                if (
                    (wtd == "true") != (gamma_t == Gamma_t)
                    or (free == "true") != (gir != "3")
                    or (nu == "null") != (gamma_t != "2")
                ):
                    raise ValueError(
                        "is_wtd, triangle_free or nu_gde disagrees with the fields it derives from"
                    )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unreadable catalog line ({exc})") from exc
            if key in done:
                raise ValueError(f"{path}:{lineno}: repeated class {hexkey}")
            done.add(key)
            yield CatalogEntry(
                hexkey, n, m, int(min_degree), int(gamma_t), int(Gamma_t), wtd == "true",
                int(rho), None if diam == "null" else int(diam),
                None if gir == "null" else int(gir), None if nu == "null" else int(nu),
                planar == "true", free == "true",
            )


def run_search(filt: SearchFilter, *, out_path: str | None = None, jobs: int = 1) -> dict:
    """Enumerate, classify, persist, and check every assertion in ASSERTIONS.

    Returns the report: for each assertion, in ASSERTIONS order, how many
    classes it applied to, which canonical keys violate it (in enumeration
    order) and whether n_max reaches its smallest order; and a frontier
    note, the first enumerated class of the largest order that is planar
    with uniform size 2 and minimum degree 3 (the open range for the size
    bounds), if any showed up.  Each class is folded into the report as it
    is reached and dropped.  A resume holds only the catalogued keys: it
    folds the lines that filt.admits as it reads them, then classifies the
    enumerated classes whose key it lacks; a repeated class is refused.
    ``jobs`` must be at least 1; more workers than CPUs are clamped to the
    CPU count.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)

    checks = {
        name: {"checked": 0, "violations": [], "falsifiable": filt.n_max >= smallest}
        for name, (_, smallest, _, _) in ASSERTIONS.items()
    }
    classified = 0
    frontier = None  # (-n, key) of the frontier so far

    def fold(entries: list[CatalogEntry]) -> None:
        """Count a block of classes into the report."""
        nonlocal classified, frontier
        classified += len(entries)
        for (_, _, applies, holds), check in zip(ASSERTIONS.values(), checks.values()):
            hits = list(filter(applies, entries))
            check["checked"] += len(hits)
            check["violations"] += [e.canonical_key for e in hits if not holds(e)]
        candidates = [(-e.n, e.canonical_key) for e in filter(_planar_wtd2_min_degree3, entries)]
        if frontier is not None:
            candidates.append(frontier)
        frontier = min(candidates, default=None)

    done: set[bytes] = set()  # the keys of the catalogued classes
    if out_path is not None and os.path.exists(out_path):
        for block in _batches(filter(filt.admits, _read_catalog(out_path, done))):
            fold(block)

    # Each fresh block's lines go to the catalog in one write (fresh payloads
    # arrive in ascending key order, keeping the file sorted per run), then
    # the block is folded and dropped.  The catalog opens before enumeration,
    # so an unwritable path fails at once.  A pool's workers start with its
    # first block, but Executor.map submits the whole enumeration before it
    # yields a result; with no fresh class nothing is submitted and no
    # worker starts.
    with ExitStack() as stack:
        sink = None
        if out_path is not None:
            sink = stack.enter_context(open(out_path, "a", encoding="utf-8"))
        fresh = _batches(payload for payload in enumerate_graphs(filt) if payload[0] not in done)
        if jobs > 1:
            # imported here: serial runs and the per-graph commands never pay for it
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            computed = pool.map(_classify_block, fresh)
        else:
            computed = map(_classify_block, fresh)
        for block in computed:
            if sink is not None:
                sink.write("".join([
                    _catalog_line(entry, graph6_from_key(bytes.fromhex(entry.canonical_key)))
                    for entry in block
                ]))
                sink.flush()
            fold(block)

    # A resume folds catalogued classes before fresh ones, out of enumeration
    # order.  The enumeration ascends by key (a key's first byte is n, each
    # level is walked in sorted order, and lowercase hex sorts as the bytes
    # do), so sorting restores its order, and the frontier, the least key of
    # the largest n, is the first class of that order the enumeration reached.
    for check in checks.values():
        check["violations"].sort()
    return {
        "classified": classified,
        "assertions": checks,
        "frontier": {
            "n_max": filt.n_max,
            "largest_planar_wtd2_min_degree3": (
                None if frontier is None else {"canonical_key": frontier[1], "n": -frontier[0]}
            ),
        },
    }
