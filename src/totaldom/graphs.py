"""Bitmask graph core: the Graph value type and structural primitives.

Vertices are the integers 0..n-1 and every vertex set is a plain Python int
used as a bitmask, so neighborhood algebra (union, intersection, containment)
is single-word arithmetic for the n <= 64 graphs this library targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapabilityError

MAX_VERTICES = 64

# Ceiling for canonical_form (and therefore for atlas-style enumeration).
# Refinement plus pruned backtracking stays fast well past 12 on typical
# graphs; the bound exists so pathological symmetric inputs fail loudly
# instead of burning CPU.
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
    return tuple(iter_bits(mask))


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
        for u in iter_bits(g.adj[old] & keep):
            nb |= 1 << pos[u]
        adj.append(nb)
    labels = None
    if g.labels is not None:
        labels = tuple(g.labels[old] for old in old_ids)
    return Graph(len(old_ids), tuple(adj), labels), old_ids


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in iter_bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == g.full_mask


def is_triangle_free(g: Graph) -> bool:
    for u, v in g.edges():
        if g.adj[u] & g.adj[v]:
            return False
    return True


def diameter(g: Graph) -> int | None:
    """Largest pairwise distance; None when g is disconnected (or empty).

    One layered bitmask BFS per source: the eccentricity is the number of
    nonempty layers after the source.
    """
    if g.n == 0:
        return None
    adj = g.adj
    full = g.full_mask
    best = 0
    for s in range(g.n):
        seen = frontier = 1 << s
        depth = -1
        while frontier:
            depth += 1
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        if seen != full:
            return None
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

    Deterministic: components are scanned in ascending root order and each
    root lands on the X side.
    """
    color = [-1] * g.n
    x_mask = 0
    y_mask = 0
    for root in range(g.n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = [root]
        for v in queue:
            for u in iter_bits(g.adj[v]):
                if color[u] < 0:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    for v in range(g.n):
        if color[v] == 0:
            x_mask |= 1 << v
        else:
            y_mask |= 1 << v
    return x_mask, y_mask


def is_planar(g: Graph) -> bool:
    """Exact planarity.

    Vertices of degree at most 1 are deleted and each vertex of degree 2 is
    replaced by an edge between its two neighbours (or just deleted when
    they are already adjacent), until every vertex left has degree at least
    3; both steps preserve planarity.  At most five vertices are then
    non-planar only as K5.  networkx (imported on first use) runs the
    left-right test on whatever larger graph remains.
    """
    n = g.n
    adj = list(g.adj)
    stack = [v for v in range(n) if adj[v].bit_count() <= 2]
    while stack:
        v = stack.pop()
        nb = adj[v]
        if nb.bit_count() > 2:
            continue
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
    import networkx as nx

    edges = [(u, w) for u in range(n) for w in range(u + 1, n) if adj[u] >> w & 1]
    ok, _ = nx.check_planarity(nx.Graph(edges), counterexample=False)
    return ok


def delete_closed_neighborhood(g: Graph, a: int) -> tuple[Graph, tuple[int, ...]]:
    """Remove N[a] for a nonempty vertex-set bitmask ``a``.

    Returns the remaining induced subgraph plus the new->old relabeling map.
    """
    if a == 0:
        raise ValueError("vertex set a must be nonempty")
    if a & ~g.full_mask:
        raise ValueError("vertex set a mentions out-of-range vertices")
    closed = a
    for v in iter_bits(a):
        closed |= g.adj[v]
    return induced_subgraph(g, g.full_mask & ~closed)


def matching_number(g: Graph) -> int:
    """Size of a maximum matching (memoized bitmask recursion, exact)."""
    return max_matching_of_edges(g.edges())


def max_matching_of_edges(edges: Iterable[Edge]) -> int:
    edges = tuple(edges)
    if not edges:
        return 0
    verts = sorted({v for e in edges for v in e})
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for u, v in edges:
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]
    memo: dict[int, int] = {}

    def rec(avail: int) -> int:
        if avail == 0:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        low = avail & -avail
        v = low.bit_length() - 1
        rest = avail ^ low
        best = rec(rest)  # v left unmatched
        for u in iter_bits(adj[v] & rest):
            best = max(best, 1 + rec(rest ^ (1 << u)))
        memo[avail] = best
        return best

    return rec((1 << len(verts)) - 1)


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


def _min_code(n: int, adj: Sequence[int], cells: Sequence[int]) -> list[int]:
    """Lexicographically least adjacency code over cell-respecting orders.

    Positions are filled cell by cell (the refined order, an isomorphism
    invariant, so the restriction preserves canonicity).  Twin vertices --
    interchangeable by a transposition automorphism -- are branched only
    once per node.
    """
    slots: list[tuple[int, ...]] = []
    for cell in cells:
        members = mask_members(cell)
        slots += [members] * len(members)

    placed: list[int] = []
    placed_mask = 0
    rows = [0] * n
    best: list[int] | None = None

    def dfs(i: int, tight: bool) -> None:
        nonlocal best, placed_mask
        if i == n:
            if best is None or rows < best:
                best = rows.copy()
            return
        tried: list[int] = []
        for v in slots[i]:
            if placed_mask >> v & 1:
                continue
            vb = 1 << v
            if any(
                (adj[u] ^ adj[v]) & ~((1 << u) | vb) == 0 for u in tried
            ):
                continue  # twin of an already-tried sibling
            tried.append(v)
            row = 0
            av = adj[v]
            for u in placed:
                row = (row << 1) | (av >> u & 1)
            if tight and best is not None:
                if row > best[i]:
                    continue
                child_tight = row == best[i]
            else:
                child_tight = False
            rows[i] = row
            placed.append(v)
            placed_mask |= vb
            dfs(i + 1, child_tight if best is not None else tight)
            placed.pop()
            placed_mask ^= vb
        rows[i] = 0

    dfs(0, True)
    assert best is not None
    return best


def canonical_key(n: int, adj: Sequence[int]) -> bytes:
    if n > CANONICAL_BOUND:
        raise CapabilityError(f"canonical form limited to {CANONICAL_BOUND} vertices, got {n}")
    if n <= 1:
        return bytes([n])
    rows = _min_code(n, adj, _refined_cells(n, adj))
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
