"""Total domination analysis built on the transversal machinery.

A set S totally dominates g when every vertex (including members of S) has a
neighbor in S; equivalently S hits every open neighborhood.  Everything here
routes through that correspondence: minimal total dominating sets are the
minimal transversals of the open-neighborhood hypergraph.

`mtds` runs the MMCS search on the neighborhoods as they are, indexed by
vertex: edge u is N(u), the vertices that dominate u.  By symmetry the edges
that hold v are then N(v) too, so the search's vertex-to-edge incidence is
the adjacency itself, a chosen vertex's critical edges are its private
neighbors, and the uncovered edges are the vertices not yet dominated.
Only `recognize_wtd_k` minimizes the neighborhoods into a SpernerFamily.

`minimal_tds_lattice` finds the same sets from the adjacency rows of at
most CANONICAL_BOUND vertices without listing them: one int whose bit S is
set when the vertex mask S is a minimal TDS.  The search reads its catalog
records off it; `mtds` keeps MMCS, which lists the family and scales past
12 vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .errors import CapabilityError, DominationUndefinedError, ValidationError
from .graphs import (
    CANONICAL_BOUND,
    MAX_VERTICES,
    Edge,
    Graph,
    Lanes,
    mask_members,
    neighbors,
    vertex_mask,
)
# unused here; bound because perfbench/layers.json traces domination.diameter
from .graphs import diameter  # noqa: F401
from .hypergraph import (
    SizeKDecision,
    SpernerFamily,
    all_minimal_transversals_have_size_k,
    enumerate_minimal_transversals,
    minimize_family,
    mmcs,
)

CORE_COMPLETE = "complete"
CORE_MINIMAL_VALID = "minimal-valid"


def require_total_domination(g: Graph) -> None:
    """Raise DominationUndefinedError unless g has vertices and none is isolated."""
    if g.n == 0:
        raise DominationUndefinedError("total domination undefined: graph has no vertices")
    if 0 in g.adj:
        raise DominationUndefinedError(
            f"total domination undefined: vertex {g.label(g.adj.index(0))} is isolated"
        )


def neighborhood_hypergraph(g: Graph) -> SpernerFamily:
    """Minimized family of open neighborhoods {N(v) : v in V(g)}.

    Total dominating sets of g are exactly the transversals of this family,
    and minimizing preserves the minimal ones.  `mtds` does without it;
    `recognize_wtd_k` needs it, because its double dualization certifies
    completeness by comparing Tr(g) with this antichain edge for edge.
    """
    require_total_domination(g)
    return minimize_family(g.n, g.adj)


def is_tds(g: Graph, s: int) -> bool:
    """True when every vertex of g has a neighbor in the bitmask s."""
    require_total_domination(g)
    if s & ~g.full_mask:
        raise ValueError("vertex set mentions out-of-range vertices")
    return neighbors(g.adj, s) == g.full_mask


def is_minimal_tds(g: Graph, s: int) -> bool:
    """True when s totally dominates but no single-vertex removal does."""
    if not is_tds(g, s):
        return False
    return not any(is_tds(g, s ^ (1 << v)) for v in mask_members(s))


def mtds(g: Graph, max_count: int | None = None) -> SpernerFamily:
    """The family of all minimal total dominating sets of g.

    One MMCS search on the open neighborhoods, not minimized, with edges
    indexed by vertex: ``containing`` is g.adj itself, and a chosen vertex's
    critical edges are its private neighbors.  The search is exact though
    the list need not be an antichain (see hypergraph._mmcs_branch).

    With ``max_count``, raise CapabilityError once more than that many turn
    up, before enumerating the rest.
    """
    require_total_domination(g)
    return mmcs(g.n, g.adj, g.adj, max_count)


@cache
def subset_lattice(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Tables over the 2**n vertex masks of order n (n at most
    CANONICAL_BOUND), in ints whose bit S stands for mask S: ind[w] holds
    the masks that contain vertex w, avoid[mask] the masks disjoint from
    mask, and layer[k] the masks of k vertices.  Built once per order and
    process: all orders up to CANONICAL_BOUND took about 2 ms of process
    time, and order 12's tables hold about 1.3 MB, most of it in avoid.
    """
    ind, avoid, layer = [], [1], [1]  # order 0: the empty mask alone
    for w in range(n):
        # order w + 1 from order w: the masks without w keep their bits, and
        # the same masks with w added sit 2**w bits higher
        half = 1 << w
        ind = [rows | rows << half for rows in ind] + [((1 << half) - 1) << half]
        avoid = [rows | rows << half for rows in avoid] + avoid
        layer = [low | high << half for low, high in zip(layer + [0], [0] + layer)]
    return tuple(ind), tuple(avoid), tuple(layer)


def minimal_tds_lattice(adj: Sequence[int]) -> int:
    """The minimal total dominating sets of the graph with adjacency rows
    adj as one int: bit S is set when the vertex mask S is one, so the bits
    in ascending order are mtds(Graph(len(adj), adj)).edges.  The rows are
    not checked, and neither is the domain: a graph with an isolated vertex
    has no TDS, and its int is 0 (search.classify checks the caller's Graph).

    The TDSs are the masks in no avoid[N(v)].  Being a TDS is monotone, so
    one is minimal when no single-vertex removal is one (is_minimal_tds):
    the TDSs without v, shifted up by bit v, are those that can lose v.
    About 5n operations on 2**n-bit ints; the tables grow as 4**n bits (512
    MB of avoid at order 16), so past CANONICAL_BOUND it raises
    CapabilityError.
    """
    n = len(adj)
    if n > CANONICAL_BOUND:
        raise CapabilityError(f"the subset lattice stops at {CANONICAL_BOUND} vertices, got {n}")
    ind, avoid, _ = subset_lattice(n)
    missed = 0
    for row in adj:
        missed |= avoid[row]
    tds = avoid[0] ^ missed
    shrinkable = 0
    for v, holding in enumerate(ind):
        shrinkable |= (tds & ~holding) << (1 << v)
    return tds & ~shrinkable


@dataclass(frozen=True)
class TotalDominationReport:
    gamma_t: int
    Gamma_t: int
    is_wtd: bool


def report(g: Graph, family: SpernerFamily | None = None) -> TotalDominationReport:
    """Summarize minimal-TDS sizes; ``family`` may carry a precomputed mtds(g)."""
    fam = family if family is not None else mtds(g)
    sizes = [e.bit_count() for e in fam.edges]
    gamma = min(sizes)
    big_gamma = max(sizes)
    return TotalDominationReport(gamma_t=gamma, Gamma_t=big_gamma, is_wtd=gamma == big_gamma)


def recognize_wtd_k(g: Graph, k: int) -> SizeKDecision:
    """Decide whether every minimal TDS of g has size exactly k (k >= 2).

    The decision's ``witness`` is a minimal TDS: of size k when accepted, of
    a deviating size otherwise.
    """
    if k < 2:
        raise ValueError(f"uniform minimal-TDS size k must be at least 2, got {k}")
    return all_minimal_transversals_have_size_k(neighborhood_hypergraph(g), k)


def dominating_edge_subgraph(g: Graph) -> tuple[Edge, ...]:
    """The dominating edges of g as (u, v) pairs, u < v, in ascending order.

    A dominating edge is an edge whose two endpoints form a TDS.  Such an
    edge is a minimal TDS of size 2, so some edge dominates exactly when
    gamma_t(g) = 2; otherwise the tuple is empty.
    """
    require_total_domination(g)
    adj, full = g.adj, g.full_mask
    dom_edges = []
    for u in range(g.n):
        row = adj[u]
        upper = row >> (u + 1) << (u + 1)
        while upper:
            low = upper & -upper
            if row | adj[low.bit_length() - 1] == full:
                dom_edges.append((u, low.bit_length() - 1))
            upper ^= low
    return tuple(dom_edges)


def dominating_partners_in_lanes(lanes: Lanes) -> list[tuple[int, ...]]:
    """For each graph of a list in lanes, the mask of each vertex u's
    dominating partners: the neighbours v with N(u) | N(v) every vertex, so
    that uv is a dominating edge (no mask has a member unless gamma_t is
    2).  One lane test per vertex pair for every graph at once: uv is a
    dominating edge in the lanes where bit v of row u is set and
    full ^ (N(u) | N(v)) is empty (adding 0x7FFF leaves the lane's top bit
    clear).  Each tuple runs over every vertex of the lanes, with empty
    masks past its graph's order."""
    _, full, ones, rows = lanes
    low, top = ones * 0x7FFF, ones << 15
    mates = [0] * len(rows)
    for v, row in enumerate(rows):
        for u in range(v):
            other = rows[u]
            hit = (top & ~((full ^ (row | other)) + low)) >> 15 & other >> v
            mates[u] |= hit << v
            mates[v] |= hit << u
    return lanes.per_graph(mates)


def packing_number(g: Graph) -> int:
    """Maximum number of vertices with pairwise disjoint closed neighborhoods.

    Computed exactly, as a maximum independent set of the
    closed-neighborhood-intersection graph, and never read off the diameter,
    so the search's DIAM3 assertion compares two independent quantities.
    Branch and bound on the least available vertex: one with no conflict
    left is taken outright, otherwise it is taken and then skipped, and a
    branch is cut once its size plus every available vertex cannot beat the
    best packing found.
    """
    adj = g.adj
    conflict = []  # N[u] meets N[v] exactly when u is within distance 2 of v
    for v in range(g.n):
        near = rest = adj[v]
        while rest:
            low = rest & -rest
            near |= adj[low.bit_length() - 1]
            rest ^= low
        conflict.append(near & ~(1 << v))
    return _grow_packing(conflict, 0, g.full_mask, 0)


def packing_numbers(lanes: Lanes, conflicts: Sequence[Sequence[int]]) -> list[int]:
    """packing_number(g) for each graph of a list in lanes: the same branch
    and bound on the conflict masks that graphs.distances gives the list."""
    return [
        _grow_packing(conflict, 0, full, 0)
        for conflict, full in zip(conflicts, lanes.values(lanes.full))
    ]


def _grow_packing(conflict: list[int], size: int, avail: int, best: int) -> int:
    """The larger of best and the largest packing that adds vertices of
    avail to one of the given size.

    The best packing so far comes in as an argument and goes out as the
    result, not through a closure over a nested function, so a call leaves
    no function-cell reference cycle behind.
    """
    while avail:
        if size + avail.bit_count() <= best:
            return best
        low = avail & -avail
        avail ^= low
        clash = conflict[low.bit_length() - 1] & avail
        size += 1
        if clash:
            # take it, then go on without it
            best = _grow_packing(conflict, size, avail & ~clash, best)
            size -= 1
    return size if size > best else best


def minimal_vertex_covers(g: Graph, max_count: int | None = None) -> SpernerFamily:
    """All inclusion-minimal vertex covers of g, as transversals of its edges.

    A graph without edges is rejected: every set would be a cover and the
    minimal one is degenerate.  With ``max_count``, raise CapabilityError
    once more than that many covers turn up.
    """
    edges = g.edges()
    if not edges:
        raise ValueError("minimal vertex covers of an empty edge set are not defined")
    family = SpernerFamily(g.n, tuple(sorted((1 << u) | (1 << v) for u, v in edges)))
    return enumerate_minimal_transversals(family, max_count)


@dataclass(frozen=True)
class RealizedGraph:
    """Output of realize_mtds.

    Graph vertices come in three blocks: the family's support (ids given by
    ``ground_vertices``, a graph-id -> ground-id map), then one fresh vertex
    per minimal transversal of the family (``transversal_sets[i]`` is the
    ground bitmask realized by graph vertex ``len(ground_vertices) + i``),
    then any extension vertices.
    """

    graph: Graph
    ground_vertices: tuple[int, ...]
    transversal_sets: tuple[int, ...]


def _name_collision(named: list[str], a_size: int, t_end: int) -> str:
    """The message for the first of a realized graph's vertex names that an
    earlier vertex already has, naming both vertices: named lists the
    support's a_size labels, then the transversal vertices' up to t_end,
    then the extension's."""

    def vertex(i: int) -> str:
        if i < a_size:
            return f"member {named[i]}"
        if i < t_end:
            return f"the vertex of transversal {named[i][1:]}"  # named v{...}
        return f"extension vertex {i - t_end}"

    i = next(i for i, name in enumerate(named) if name in named[:i])
    j = named.index(named[i])
    return f"vertex names must be distinct: {vertex(j)} and {vertex(i)} are both named {named[i]!r}"


def realize_mtds(
    family: SpernerFamily,
    extension: Graph | None = None,
    core_edges: str | Iterable[Edge] = CORE_COMPLETE,
    labels: Sequence[str] | None = None,
) -> RealizedGraph:
    """Build a graph whose minimal total dominating sets are exactly ``family``.

    The family's support A becomes a core where every vertex is adjacent to
    at least one member of every family set (policy: "complete" joins all of
    A, "minimal-valid" greedily adds only edges needed for the condition, or
    pass explicit ground-id edges to be validated).  Each minimal transversal
    T of the family gets a fresh vertex whose neighborhood is exactly T; an
    optional extension graph is attached with every extension vertex made
    adjacent to at least one member of every family set.

    Families with a singleton member are rejected, naming it by its label
    when labels are given: its element would have to be its own neighbor,
    and no minimal TDS family contains singletons.  A family whose
    transversals would push the graph past MAX_VERTICES raises
    CapabilityError as soon as the enumeration finds one too many.
    """
    if labels is not None and len(labels) != family.ground:
        raise ValidationError("ground labels must cover the whole ground set")
    for e in family.edges:
        if e.bit_count() < 2:
            (v,) = mask_members(e)
            name = str(v) if labels is None else labels[v]
            raise ValidationError(
                f"family not realizable: member {{{name}}} has fewer than two vertices"
            )
    support = 0
    for e in family.edges:
        support |= e
    ground_vertices = mask_members(support)
    pos = {g_id: i for i, g_id in enumerate(ground_vertices)}
    a_size = len(ground_vertices)

    ext_n = extension.n if extension is not None else 0
    try:
        t_sets = enumerate_minimal_transversals(family, MAX_VERTICES - a_size - ext_n).edges
    except CapabilityError:
        raise CapabilityError(
            f"the realized graph would exceed the {MAX_VERTICES}-vertex limit: {a_size} "
            f"support and {ext_n} extension vertices plus one per minimal transversal"
        ) from None
    n = a_size + len(t_sets) + ext_n
    adj = [0] * n

    def connect(i: int, j: int) -> None:
        adj[i] |= 1 << j
        adj[j] |= 1 << i

    local_sets = [
        vertex_mask(pos[v] for v in mask_members(e)) for e in family.edges
    ]
    if core_edges == CORE_COMPLETE:
        for i in range(a_size):
            for j in range(i + 1, a_size):
                connect(i, j)
    elif core_edges == CORE_MINIMAL_VALID:
        for i in range(a_size):
            for s in local_sets:
                others = s & ~(1 << i)
                if adj[i] & s == 0:
                    connect(i, (others & -others).bit_length() - 1)
    else:
        if isinstance(core_edges, str):
            raise ValidationError(
                f"unknown core-edges policy {core_edges!r}; "
                f"expected {CORE_COMPLETE!r}, {CORE_MINIMAL_VALID!r}, or explicit edges"
            )
        for u, v in core_edges:
            if u == v or (support >> u & 1) == 0 or (support >> v & 1) == 0:
                raise ValidationError(
                    f"explicit core edge ({u}, {v}) is not a pair of distinct support vertices"
                )
            connect(pos[u], pos[v])
        for i in range(a_size):
            for s, e in zip(local_sets, family.edges):
                if adj[i] & s == 0:
                    raise ValidationError(
                        f"explicit core edges leave vertex {ground_vertices[i]} with no neighbor in {set(mask_members(e))}"
                    )

    for t_index, t in enumerate(t_sets):
        fresh = a_size + t_index
        for v in mask_members(t):
            connect(fresh, pos[v])

    if extension is not None:
        base = a_size + len(t_sets)
        for u, v in extension.edges():
            connect(base + u, base + v)
        for w in range(ext_n):
            for s in local_sets:
                if adj[base + w] & s == 0:
                    connect(base + w, (s & -s).bit_length() - 1)

    graph_labels: tuple[str, ...] | None = None
    if labels is not None:
        named = [labels[v] for v in ground_vertices]
        for t in t_sets:
            named.append("v{" + ",".join(labels[v] for v in mask_members(t)) + "}")
        for w in range(ext_n):
            if extension is not None and extension.labels is not None:
                named.append(extension.labels[w])
            else:
                named.append(f"u{w}")
        if len(set(named)) != n:
            raise ValidationError(_name_collision(named, a_size, a_size + len(t_sets)))
        graph_labels = tuple(named)

    return RealizedGraph(
        graph=Graph(n, tuple(adj), graph_labels),
        ground_vertices=ground_vertices,
        transversal_sets=t_sets,
    )
