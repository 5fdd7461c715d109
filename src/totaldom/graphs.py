"""Bitmask graph core: the Graph value type and structural primitives.

Vertices are the integers 0..n-1 and every vertex set is a plain Python int
used as a bitmask, so neighborhood algebra (union, intersection, containment)
is single-word arithmetic for the n <= 64 graphs this library targets.
Two primitives carry every traversal that needs no per-vertex state:
neighbors(adj, mask) is the union of the neighborhoods of a mask, and
component(adj, start, within) grows the vertices reachable from a mask.
Planarity runs on the same masks: after a series reduction, each
biconnected block is tested on its own, first against Euler's bound and
then by path addition, with no dependency beyond the standard library.
The search behind canonical keys also yields generators of the
automorphism group (canonical_key's generators list), which the exhaustive
search uses to try one neighbourhood per orbit of a parent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapabilityError

MAX_VERTICES = 64

# Ceiling for canonical_form (and therefore for atlas-style enumeration).
# Refinement plus pruned backtracking stays fast well past 12 on typical
# graphs, and vertex-transitive ones at 12 (C12, the icosahedron, the
# hexagonal prism) take under 0.1 s, because the search descends only
# through least rows and prunes against every new best code; the bound
# exists so larger symmetric inputs, where the number of best leaves grows
# with the automorphism group, fail loudly instead of burning CPU (C16's
# key plus generators, with _min_code called directly past the bound, took
# 6.1-8.8 s of process time over six runs, Python 3.11 on a 2-vCPU VM).
CANONICAL_BOUND = 12

VertexSet = int  # bitmask over vertex ids
Edge = tuple[int, int]


def vertex_mask(vertices: Iterable[int]) -> int:
    """Bitmask of a collection of vertex ids."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_members(mask: int) -> tuple[int, ...]:
    """Ascending vertex ids of a bitmask."""
    members = []
    while mask:
        low = mask & -mask
        members.append(low.bit_length() - 1)
        mask ^= low
    return tuple(members)


def neighbors(adj: Sequence[int], mask: int) -> int:
    """Union of adj[v] over the vertices v of mask."""
    reach = 0
    while mask:
        low = mask & -mask
        reach |= adj[low.bit_length() - 1]
        mask ^= low
    return reach


def component(adj: Sequence[int], start: int, within: int) -> int:
    """The vertices reachable from the mask start through the mask within
    (start itself included)."""
    seen = frontier = start
    while frontier:
        frontier = neighbors(adj, frontier) & within & ~seen
        seen |= frontier
    return seen


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the open neighborhood N(v) as a bitmask.  ``labels`` are
    optional display names; they never affect structure or identity of the
    algorithms, only presentation.
    """

    n: int
    adj: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside 0..{MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency length does not match vertex count")
        full = (1 << self.n) - 1
        for v, nb in enumerate(self.adj):
            if nb & ~full:
                raise ValueError(f"neighborhood of {v} mentions out-of-range vertices")
            if nb >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
        adj = self.adj
        for v, nb in enumerate(adj):
            while nb:
                low = nb & -nb
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric between {u} and {v}")
                nb ^= low
        if self.labels is not None:
            if len(self.labels) != self.n:
                raise ValueError("label count does not match vertex count")
            if len(set(self.labels)) != self.n:
                raise ValueError("labels must be distinct")

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[Edge],
        labels: Sequence[str] | None = None,
    ) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj), tuple(labels) if labels is not None else None)

    def __repr__(self) -> str:  # keep huge bitmask tuples out of tracebacks
        return f"Graph(n={self.n}, m={self.m})"

    @property
    def m(self) -> int:
        return sum(nb.bit_count() for nb in self.adj) // 2

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def edges(self) -> tuple[Edge, ...]:
        out = []
        for u, nb in enumerate(self.adj):
            rest = nb >> (u + 1) << (u + 1)
            while rest:
                low = rest & -rest
                out.append((u, low.bit_length() - 1))
                rest ^= low
        return tuple(out)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            return 0
        return min(nb.bit_count() for nb in self.adj)

    def has_isolated_vertex(self) -> bool:
        return any(nb == 0 for nb in self.adj)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def label(self, v: int):
        """Display name of v: its label when labeled, else the id itself."""
        return self.labels[v] if self.labels is not None else v

    def closed_neighborhood(self, v: int) -> int:
        return self.adj[v] | (1 << v)


def induced_subgraph(g: Graph, keep: int) -> tuple[Graph, tuple[int, ...]]:
    """Subgraph induced on the bitmask ``keep``; also returns new->old ids."""
    old_ids = mask_members(keep)
    pos = {old: new for new, old in enumerate(old_ids)}
    adj = []
    for old in old_ids:
        nb = 0
        for u in mask_members(g.adj[old] & keep):
            nb |= 1 << pos[u]
        adj.append(nb)
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[old] for old in old_ids)
    return Graph(len(old_ids), tuple(adj), labels), old_ids


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or component(g.adj, 1, g.full_mask) == g.full_mask


def is_triangle_free(g: Graph) -> bool:
    adj = g.adj
    for u, row in enumerate(adj):
        upper = row >> (u + 1) << (u + 1)
        while upper:
            low = upper & -upper
            if row & adj[low.bit_length() - 1]:
                return False
            upper ^= low
    return True


def diameter(g: Graph) -> int | None:
    """Largest pairwise distance; None when g is disconnected (or empty).

    One layered bitmask BFS per source: the eccentricity is the number of
    layers after the source.  A source stops once it has reached every
    vertex, and the whole call returns None at the first layer that comes
    up empty before that.
    """
    if g.n == 0:
        return None
    adj = g.adj
    full = g.full_mask
    best = 0
    for s in range(g.n):
        seen = frontier = 1 << s
        depth = 0
        while seen != full:
            frontier = neighbors(adj, frontier) & ~seen
            if not frontier:
                return None
            seen |= frontier
            depth += 1
        if depth > best:
            best = depth
    return best


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle; None when g is acyclic.

    Layered bitmask BFS from every vertex s.  An edge inside layer d closes
    a walk of length 2d + 1 through s, and a vertex of layer d + 1 with two
    neighbours in layer d one of length 2d + 2; either walk contains a cycle
    no longer than itself.  For s on a shortest cycle the first such witness
    has exactly its length, so the minimum over sources is exact.  A source
    stops at its first witness, or once 2d + 1 cannot beat the best so far.
    """
    adj = g.adj
    best: int | None = None
    for s in range(g.n):
        seen = frontier = 1 << s
        d = 0
        while frontier and (best is None or 2 * d + 1 < best):
            inside = reach = twice = 0
            x = frontier
            while x:
                low = x & -x
                nb = adj[low.bit_length() - 1]
                inside |= nb & frontier
                fresh = nb & ~seen
                twice |= reach & fresh
                reach |= fresh
                x ^= low
            if inside:
                best = 2 * d + 1
                break
            if twice:
                best = 2 * d + 2
                break
            seen |= reach
            frontier = reach
            d += 1
    return best


def bipartition(g: Graph) -> tuple[int, int] | None:
    """Two-coloring (X, Y) as bitmasks, or None when an odd cycle exists.

    BFS layers by mask from each component's lowest vertex: even layers go
    to X and odd ones to Y.  An edge inside a layer closes an odd cycle.
    """
    adj = g.adj
    x = y = 0
    rest = g.full_mask
    while rest:
        seen = layer = rest & -rest
        odd = False
        while layer:
            reach = neighbors(adj, layer)
            if reach & layer:
                return None
            if odd:
                y |= layer
            else:
                x |= layer
            odd = not odd
            layer = reach & ~seen
            seen |= layer
        rest &= ~seen
    return x, y


def is_planar(g: Graph) -> bool:
    """Exact planarity, on bitmasks.

    Vertices of degree at most 1 are deleted and each vertex of degree 2 is
    replaced by an edge between its two neighbours (or just deleted when
    they are already adjacent), until every vertex left has degree at least
    3; both steps preserve planarity.  At most five vertices are then
    non-planar only as K5.  A larger graph is planar exactly when each of
    its biconnected blocks is, so each block is tested on its own: one of
    at most four vertices is planar, one with more than 3n - 6 edges is not
    (Euler's bound), and path addition (_embeds) decides the rest.
    """
    n = g.n
    adj = list(g.adj)
    stack = [v for v in range(n) if adj[v].bit_count() <= 2]
    while stack:
        v = stack.pop()  # still of degree <= 2: no step raises a degree
        nb = adj[v]
        adj[v] = 0
        x = nb
        while x:
            low = x & -x
            u = low.bit_length() - 1
            adj[u] ^= 1 << v
            if nb != low:
                adj[u] |= nb ^ low  # the other neighbour, when there are two
            if adj[u].bit_count() <= 2:
                stack.append(u)
            x ^= low
    degrees = [a.bit_count() for a in adj if a]
    if len(degrees) <= 5:
        return sum(degrees) < 20
    for block in _blocks(adj):
        order = block.bit_count()
        if order <= 4:
            continue
        twice_size = 0
        x = block
        while x:
            low = x & -x
            twice_size += (adj[low.bit_length() - 1] & block).bit_count()
            x ^= low
        if twice_size > 6 * order - 12 or not _embeds(adj, block):
            return False
    return True


def _blocks(adj: Sequence[int]) -> list[int]:
    """Vertex masks of the biconnected blocks of adj (lowpoint DFS).

    Two blocks share at most one vertex, so the edges of a block are
    exactly those of the subgraph its mask induces.
    """
    disc = [-1] * len(adj)
    low = [0] * len(adj)
    stack: list[int] = []
    blocks: list[int] = []
    clock = 0
    for v, a in enumerate(adj):
        if a and disc[v] < 0:
            clock = _lowpoint(adj, disc, low, stack, blocks, clock, v, -1)
    return blocks


def _lowpoint(
    adj: Sequence[int],
    disc: list[int],
    low: list[int],
    stack: list[int],
    blocks: list[int],
    clock: int,
    v: int,
    parent: int,
) -> int:
    """Visit v from parent in _blocks' DFS, the next discovery time being
    clock; return the one after the subtree.

    The DFS state comes in as arguments and the clock goes out as the
    result, not through a closure over a nested function, so a call leaves
    no function-cell reference cycle behind.
    """
    disc[v] = low[v] = clock
    clock += 1
    stack.append(v)
    x = adj[v]
    while x:
        bit = x & -x
        w = bit.bit_length() - 1
        x ^= bit
        if disc[w] < 0:
            clock = _lowpoint(adj, disc, low, stack, blocks, clock, w, v)
            low[v] = min(low[v], low[w])
            if low[w] >= disc[v]:  # v separates w's subtree: a block
                mask = 1 << v
                u = -1
                while u != w:
                    u = stack.pop()
                    mask |= 1 << u
                blocks.append(mask)
        elif w != parent:
            low[v] = min(low[v], disc[w])
    return clock


def _embeds(adj: Sequence[int], block: int) -> bool:
    """Whether the biconnected block (a vertex mask of adj) is planar.

    Path addition of Demoucron, Malgrange and Pertuiset (Gibbons,
    Algorithmic Graph Theory, 7.4).  A plane subgraph H grows from a cycle;
    each face is kept as its boundary cycle, a vertex list, plus its vertex
    mask.  The fragments of H are its chords (edges of the block outside H
    between vertices of H) and the components of the block minus H with
    the edges joining them to H; a fragment's attachments are its vertices
    in H.  A face is admissible for a fragment when its mask holds every
    attachment.  Each round: a fragment with no admissible face means
    non-planar; else a path of a fragment with exactly one admissible face,
    or of any fragment when there is none such, joins two attachments
    across an admissible face and splits it in two.  H is then the whole
    block.
    """
    s = (block & -block).bit_length() - 1
    first = adj[s] & block
    t = (first & -first).bit_length() - 1
    cycle = _path(adj, t, block & ~(1 << s), 1 << s)  # closed by the edge s-t
    placed = vertex_mask(cycle)
    faces = [(cycle, placed), (cycle, placed)]
    embedded = [0] * len(adj)  # adjacency of H
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        embedded[u] |= 1 << v
        embedded[v] |= 1 << u
    while True:
        fragments = []  # (attachments, component mask or 0 for a chord)
        x = placed
        while x:
            bit = x & -x
            u = bit.bit_length() - 1
            x ^= bit
            chords = adj[u] & placed & ~embedded[u] & ~(2 * bit - 1)
            while chords:
                low = chords & -chords
                fragments.append((bit | low, 0))
                chords ^= low
        rest = block & ~placed
        while rest:
            part = component(adj, rest & -rest, rest)
            fragments.append((neighbors(adj, part) & placed, part))
            rest &= ~part
        if not fragments:
            return True
        choice = None
        for attachments, part in fragments:
            fits = [i for i, (_, mask) in enumerate(faces) if not attachments & ~mask]
            if not fits:
                return False
            if len(fits) == 1 or choice is None:
                choice = fits[0], attachments, part
                if len(fits) == 1:
                    break
        face, attachments, part = choice
        u = (attachments & -attachments).bit_length() - 1
        if part:
            path = _path(adj, u, part, attachments & ~(1 << u))
        else:
            path = [u, attachments.bit_length() - 1]  # a chord: its two ends
        v = path[-1]
        inner = path[1:-1]
        boundary = faces[face][0]
        i, j = boundary.index(u), boundary.index(v)
        if i < j:
            one, other = boundary[i : j + 1], boundary[j:] + boundary[: i + 1]
        else:
            one, other = boundary[i:] + boundary[: j + 1], boundary[j : i + 1]
        one += inner[::-1]  # u .. v along the face, then back along the path
        other += inner  # v .. u along the face, then on to v along the path
        faces[face] = one, vertex_mask(one)
        faces.append((other, vertex_mask(other)))
        placed |= vertex_mask(inner)
        for a, b in zip(path, path[1:]):
            embedded[a] |= 1 << b
            embedded[b] |= 1 << a


def _path(adj: Sequence[int], u: int, inside: int, targets: int) -> list[int]:
    """A shortest path u, w1, .., wk, v with k >= 1, every w in the mask
    inside and v in targets (a mask disjoint from inside).

    Layered BFS from u through inside; the path is read back one layer at
    a time.  u may lie in inside (the first cycle's does) and counts as
    visited, so no w repeats it.
    """
    layers = [adj[u] & inside]
    seen = layers[0] | 1 << u
    while layers[-1]:
        x = layers[-1]
        reach = 0
        while x:
            low = x & -x
            w = low.bit_length() - 1
            hit = adj[w] & targets
            if hit:
                path = [(hit & -hit).bit_length() - 1, w]
                for layer in reversed(layers[:-1]):
                    back = adj[w] & layer
                    w = (back & -back).bit_length() - 1
                    path.append(w)
                path.append(u)
                return path[::-1]
            reach |= adj[w]
            x ^= low
        layers.append(reach & inside & ~seen)
        seen |= layers[-1]
    raise AssertionError("no path through the given mask")


def delete_closed_neighborhood(g: Graph, a: int) -> tuple[Graph, tuple[int, ...]]:
    """Remove N[a] for a nonempty vertex-set bitmask ``a``.

    Returns the remaining induced subgraph plus the new->old relabeling map.
    """
    if a == 0:
        raise ValueError("vertex set a must be nonempty")
    if a & ~g.full_mask:
        raise ValueError("vertex set a mentions out-of-range vertices")
    return induced_subgraph(g, g.full_mask & ~(a | neighbors(g.adj, a)))


def matching_number(g: Graph) -> int:
    """Size of a maximum matching (memoized bitmask recursion, exact)."""
    return max_matching_of_edges(g.edges())


def max_matching_of_edges(edges: Iterable[Edge]) -> int:
    """Size of a maximum matching of an edge list.

    The least available vertex is skipped when no available vertex is its
    neighbour, and otherwise matched: some maximum matching covers a vertex
    with a neighbour (if none does, its neighbour's partner can be swapped
    for it).  Its partners are tried until the matching covers all but at
    most one available vertex.
    """
    edges = tuple(edges)
    if not edges:
        return 0
    verts = sorted({v for e in edges for v in e})
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v in edges:
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]
    return _matching(adj, {}, (1 << len(verts)) - 1)


def _matching(adj: list[int], memo: dict[int, int], avail: int) -> int:
    """Size of a maximum matching among the vertices of avail, memoized in
    memo by the available mask.

    adj and memo come in as arguments rather than through a closure over a
    nested function, so a call leaves no function-cell reference cycle
    behind.
    """
    while avail:
        low = avail & -avail
        avail ^= low
        partners = adj[low.bit_length() - 1] & avail
        if partners:
            break
    else:
        return 0
    key = avail | low
    cached = memo.get(key)
    if cached is not None:
        return cached
    enough = (avail.bit_count() + 1) // 2
    best = 0
    while partners:
        bit = partners & -partners
        size = 1 + _matching(adj, memo, avail ^ bit)
        if size > best:
            best = size
            if best == enough:
                break
        partners ^= bit
    memo[key] = best
    return best


# ---------------------------------------------------------------------------
# Canonical forms


def _refined_cells(n: int, adj: Sequence[int]) -> list[int]:
    """Equitable-style refinement: an ordered partition into vertex masks.

    Cells start as the degree classes in ascending degree.  Each round
    splits every cell by a signature packed into one int, n - |N(v) & cell|
    over the current cells in order; the pieces replace the cell in
    ascending signature order.  Rounds repeat until no cell splits.  The
    partition and its order are isomorphism-invariant.

    Vertices of one cell have one degree, so ascending signatures order them
    as their sorted tuples of neighbour cell indices would: the first
    differing cell decides, and more neighbours there sort first.  Cell
    indices therefore equal the ranks a tuple-based refinement gives, and
    canonical keys keep their bytes.
    """
    by_degree: dict[int, int] = {}
    for v, a in enumerate(adj):
        d = a.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    width = n.bit_length()
    while True:
        finer = []
        for cell in cells:
            if cell & (cell - 1) == 0:
                finer.append(cell)
                continue
            sigs = []
            while cell:
                low = cell & -cell
                a = adj[low.bit_length() - 1]
                sig = 0
                for other in cells:
                    sig = sig << width | n - (a & other).bit_count()
                sigs.append((sig, low))
                cell ^= low
            sigs.sort()
            prev = -1
            for sig, low in sigs:
                if sig == prev:
                    finer[-1] |= low
                else:
                    finer.append(low)
                    prev = sig
        if len(finer) == len(cells):
            return cells
        cells = finer


def _min_code(
    n: int, adj: Sequence[int], cells: Sequence[int]
) -> tuple[list[int], list[int], list[list[int]]]:
    """Lexicographically least adjacency code over cell-respecting orders,
    with what generates the automorphism group: (code, twin, leaves).

    Positions are filled cell by cell (the refined order, an isomorphism
    invariant, so the restriction preserves canonicity).  The leading run
    of singleton cells is the forced prefix: every order starts with those
    vertices, so their rows are computed once against the growing prefix,
    and the search starts at the first cell with more than one member.
    When every cell is a singleton no search runs, and the group is
    trivial: twin and leaves come back empty.

    Twin vertices -- N(u) - v = N(v) - u, interchangeable by a
    transposition automorphism -- are branched only once per node:
    twinhood is an equivalence, so each node keeps a mask of the twin
    classes it has tried.  twin[v] is the least vertex of v's class.  Twins
    are automorphic, so they share a cell, and only the members of cells
    with more than one are looked up.

    Least-row descent: a node computes the row of every candidate against
    its prefix first and descends only into the candidates with the least
    row.  Every child has a leaf below it, so a sibling with a larger row
    heads a subtree whose every code is above one reachable through a
    least-row sibling: no leaf of that subtree is a least code, and
    skipping it loses no best leaf.  A node is tight while its prefix
    equals the best code's prefix; a tight node whose least row is above
    the best's row at its position is cut, and one whose least row is below
    it makes its children loose.  A loose child reaches a leaf that becomes
    the new best with the node's prefix and least row, and a tight child
    keeps that prefix, so the node's later children are tight.  Only
    prefixes strictly above some code are cut, so every leaf equal to the
    final best is still visited, in the order of a plain depth-first walk
    over the slots.

    leaves holds the vertex order of each best leaf, in visiting order (it
    restarts whenever the best strictly improves).  The automorphisms are
    exactly the maps from the first best leaf to the best leaves.  No best
    leaf is skipped by the row comparisons, and a best leaf skipped as a
    twin branch is the image of one in the tried sibling's subtree under
    that twin transposition, so every best leaf is a visited one moved by
    twin transpositions: the twin transpositions and the maps onto the
    later leaves generate the whole group (_generators).
    """
    rows = [0] * n
    placed: list[int] = []
    start = 0
    for cell in cells:
        if cell & (cell - 1):
            break
        v = cell.bit_length() - 1
        av = adj[v]
        row = 0
        for u in placed:
            row = (row << 1) | (av >> u & 1)
        rows[start] = row
        placed.append(v)
        start += 1
    if start == n:
        return rows, [], []

    # slots[i] lists the candidates for position i, the members of its cell
    slots: list[list[int]] = [[]] * start  # the forced positions are never read
    spread = 0  # the members of cells with more than one
    for cell in cells[start:]:
        members = []
        x = cell
        while x:
            low = x & -x
            members.append(low.bit_length() - 1)
            x ^= low
        if len(members) > 1:
            spread |= cell
        slots += [members] * len(members)

    # twin class representative: the least vertex with the same open
    # neighbourhood (false twins) or the same closed one (true twins); an
    # open and a closed neighbourhood are never equal, so one dict serves
    twin = list(range(n))
    first: dict[int, int] = {}
    while spread:
        low = spread & -spread
        v = low.bit_length() - 1
        u = first.setdefault(adj[v], v)
        twin[v] = u if u != v else first.setdefault(adj[v] | low, v)
        spread ^= low

    best: list[int] = []  # filled at the first leaf
    leaves: list[list[int]] = []
    _descend(n, adj, slots, twin, rows, placed, 0, best, leaves, start, True)
    return best, twin, leaves


def _descend(
    n: int,
    adj: Sequence[int],
    slots: list[list[int]],
    twin: list[int],
    rows: list[int],
    placed: list[int],
    placed_mask: int,
    best: list[int],
    leaves: list[list[int]],
    i: int,
    tight: bool,
) -> None:
    """_min_code's labelling search at position i, below the prefix placed
    with its rows in rows.  placed_mask holds the prefix's searched
    vertices only: no slot holds a forced one.

    best (empty until the first leaf) and leaves are updated in place.  The
    search's state comes in as arguments rather than through a closure over
    a nested function, so a call leaves no function-cell reference cycle
    behind.
    """
    if i == n:
        if not best or not tight:  # a loose leaf is below the best
            best[:] = rows
            leaves[:] = [placed.copy()]
        else:
            leaves.append(placed.copy())
        return
    least = -1
    chosen: list[int] = []
    tried = 0
    for v in slots[i]:
        if placed_mask >> v & 1 or tried >> twin[v] & 1:
            continue  # placed, or a twin of an already-tried sibling
        tried |= 1 << twin[v]
        row = 0
        av = adj[v]
        for u in placed:
            row = (row << 1) | (av >> u & 1)
        if row == least:
            chosen.append(v)
        elif least < 0 or row < least:
            least = row
            chosen = [v]
    if tight and best:
        if least > best[i]:
            return
        tight = least == best[i]
    rows[i] = least
    for v in chosen:
        placed.append(v)
        _descend(
            n, adj, slots, twin, rows, placed, placed_mask | 1 << v, best, leaves, i + 1, tight
        )
        placed.pop()
        # the best now has this node's prefix and least row: a tight child
        # kept it, a loose one reached a leaf that became the best
        tight = True


def _generators(n: int, twin: list[int], leaves: list[list[int]]) -> list[tuple[int, ...]]:
    """Generators of Aut(G) from _min_code's twin and leaves, as image tuples
    (p[v] is the image of v): one transposition per vertex and the least
    vertex of its twin class, in ascending vertex order, then one map from
    the first best leaf onto each later one.
    """
    gens = []
    for v, u in enumerate(twin):
        if u != v:
            perm = list(range(n))
            perm[u], perm[v] = v, u
            gens.append(tuple(perm))
    for order in leaves[1:]:
        perm = [0] * n
        for u, v in zip(leaves[0], order):
            perm[u] = v
        gens.append(tuple(perm))
    return gens


def canonical_key(
    n: int, adj: Sequence[int], generators: list[tuple[int, ...]] | None = None
) -> bytes:
    """Canonical key of the graph on vertices 0..n-1 with adjacency masks adj.

    The key is the least adjacency code over the vertex orders that respect
    the refined partition (_min_code).  Its leading singleton cells, the
    forced prefix, are placed directly; the labelling search branches only
    from the first cell with more than one member, and none runs when the
    refinement is discrete.

    When a list is given as generators, the generators of Aut(G) that the
    same search found are appended to it, as image tuples (p[v] is the
    image of v); none are appended when the group is trivial or n <= 1.
    The tuples are built only then.
    """
    if n > CANONICAL_BOUND:
        raise CapabilityError(f"canonical form limited to {CANONICAL_BOUND} vertices, got {n}")
    if n <= 1:
        return bytes([n])
    rows, twin, leaves = _min_code(n, adj, _refined_cells(n, adj))
    if generators is not None:
        generators += _generators(n, twin, leaves)
    acc = 0
    for i in range(1, n):
        acc = (acc << i) | rows[i]
    total = n * (n - 1) // 2
    pad = (-total) % 8
    acc <<= pad
    return bytes([n]) + acc.to_bytes((total + pad) // 8, "big")


def canonical_form(g: Graph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic (n <= CANONICAL_BOUND)."""
    return canonical_key(g.n, g.adj)


def graph_from_triangle(n: int, bits: int) -> Graph:
    """Graph whose upper triangle is ``bits``, unpadded.

    The pairs run (0,1), (0,2), (1,2), (0,3), ... column by column, the
    first pair most significant: the layout canonical keys and graph6 share.
    """
    adj = [0] * n
    pos = n * (n - 1) // 2
    for v in range(1, n):
        pos -= v
        row = bits >> pos & ((1 << v) - 1)  # pair (u, v) at significance v-1-u
        while row:
            low = row & -row
            u = v - low.bit_length()
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            row ^= low
    return Graph(n, tuple(adj))


def key_triangle(key: bytes) -> tuple[int, int]:
    """The order and unpadded upper triangle a canonical key stores."""
    n = key[0]
    total = n * (n - 1) // 2
    return n, int.from_bytes(key[1:], "big") >> ((-total) % 8)


def graph_from_canonical(key: bytes) -> Graph:
    """Rebuild the canonical representative encoded by ``canonical_form``."""
    return graph_from_triangle(*key_triangle(key))
