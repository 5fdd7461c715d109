"""Slow, definition-level reference implementations used to check the package.

Everything here is written straight from the definitions (subset sweeps,
permutation backtracking, Kuratowski subdivision search) with no shared code or
shared ideas with the library's algorithms, so agreement is meaningful.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from totaldom import Graph, canonical_form


# ---------------------------------------------------------------------------
# builders


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


# ---------------------------------------------------------------------------
# subset-sweep oracles


def brute_total_dominating_sets(g: Graph) -> list[int]:
    """Every TDS of g as a bitmask, by scanning all 2^n subsets."""
    out = []
    for s in range(1 << g.n):
        if all(g.adj[v] & s for v in range(g.n)):
            out.append(s)
    return out


def brute_minimal_tds(g: Graph) -> list[int]:
    """Minimal TDSs via pairwise proper-subset filtering (no shortcuts)."""
    tds = brute_total_dominating_sets(g)
    minimal = []
    for s in tds:
        if not any(t != s and t & s == t for t in tds):
            minimal.append(s)
    return sorted(minimal)


def brute_minimal_tds_monotone(g: Graph) -> list[int]:
    """Minimal TDSs via single-vertex removal tests.

    Domination survives adding vertices, so a TDS is minimal exactly when no
    one-vertex removal is still a TDS.  Quadratic in the subset count instead
    of the pairwise filter's square, which keeps n around 12 affordable.
    """
    tds = set(brute_total_dominating_sets(g))
    out = []
    for s in sorted(tds):
        rest = s
        minimal = True
        while rest:
            bit = rest & -rest
            if s ^ bit in tds:
                minimal = False
                break
            rest ^= bit
        if minimal:
            out.append(s)
    return out


def brute_minimal_transversals(ground: int, edges) -> list[int]:
    """Minimal hitting sets of a set family by full subset sweep."""
    edges = list(edges)
    hitting = [
        s for s in range(1 << ground) if all(e & s for e in edges)
    ]
    minimal = []
    for s in hitting:
        if not any(t != s and t & s == t for t in hitting):
            minimal.append(s)
    return sorted(minimal)


def pairwise_containment(edges) -> tuple[int, int] | None:
    """The first pair (e, f) of distinct sets with e inside f, scanning e in
    order and then f in order; None for an antichain."""
    for e in edges:
        for f in edges:
            if e != f and e & f == e:
                return e, f
    return None


def brute_packing_number(g: Graph) -> int:
    closed = [g.adj[v] | (1 << v) for v in range(g.n)]
    best = 0
    for s in range(1 << g.n):
        members = [v for v in range(g.n) if s >> v & 1]
        ok = all(
            closed[u] & closed[v] == 0
            for i, u in enumerate(members)
            for v in members[i + 1 :]
        )
        if ok:
            best = max(best, len(members))
    return best


def brute_matching_number(g: Graph) -> int:
    """Size of a maximum matching, by growing every matching edge by edge."""
    edges = g.edges()

    def grow(start: int, used: int) -> int:
        best = 0
        for i in range(start, len(edges)):
            u, v = edges[i]
            if not (used >> u & 1 or used >> v & 1):
                best = max(best, 1 + grow(i + 1, used | (1 << u) | (1 << v)))
        return best

    return grow(0, 0)


def brute_diameter(g: Graph) -> int | None:
    """Floyd-Warshall all-pairs longest shortest path."""
    if g.n == 0:
        return None
    inf = float("inf")
    dist = [[0 if i == j else inf for j in range(g.n)] for i in range(g.n)]
    for u, v in g.edges():
        dist[u][v] = dist[v][u] = 1
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                alt = dist[i][k] + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    worst = max(dist[i][j] for i in range(g.n) for j in range(g.n))
    return None if worst == inf else int(worst)


def brute_girth(g: Graph) -> int | None:
    """Shortest cycle: for each edge, its removal distance plus one."""
    best = None
    for u, v in g.edges():
        dist = {u: 0}
        frontier = [u]
        while frontier:
            nxt = []
            for a in frontier:
                for b in range(g.n):
                    if a == u and b == v:
                        continue  # the deleted edge, both directions
                    if a == v and b == u:
                        continue
                    if g.adj[a] >> b & 1 and b not in dist:
                        dist[b] = dist[a] + 1
                        nxt.append(b)
            frontier = nxt
        if v in dist:
            cand = dist[v] + 1
            if best is None or cand < best:
                best = cand
    return best


# ---------------------------------------------------------------------------
# isomorphism


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Backtracking vertex mapping with degree pruning."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    n = g1.n
    deg1 = [g1.adj[v].bit_count() for v in range(n)]
    deg2 = [g2.adj[v].bit_count() for v in range(n)]
    if sorted(deg1) != sorted(deg2):
        return False
    mapping = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for c in range(n):
            if used[c] or deg1[i] != deg2[c]:
                continue
            ok = True
            for j in range(i):
                if (g1.adj[i] >> j & 1) != (g2.adj[c] >> mapping[j] & 1):
                    ok = False
                    break
            if ok:
                mapping[i] = c
                used[c] = True
                if extend(i + 1):
                    return True
                used[c] = False
                mapping[i] = -1
        return False

    return extend(0)


def brute_automorphisms(g: Graph):
    """Yield every automorphism of g as a tuple p (p[v] is the image of v),
    by backtracking over vertex images with adjacency checks."""
    n = g.n
    image = [-1] * n
    used = [False] * n

    def extend(i: int):
        if i == n:
            yield tuple(image)
            return
        for c in range(n):
            if used[c]:
                continue
            if all((g.adj[i] >> j & 1) == (g.adj[c] >> image[j] & 1) for j in range(i)):
                image[i] = c
                used[c] = True
                yield from extend(i + 1)
                used[c] = False
        image[i] = -1

    yield from extend(0)


def all_graphs_up_to_iso(n: int, connected_only: bool = False) -> list[Graph]:
    """Every isomorphism class on n vertices by 2^(n choose 2) sweep.

    Quadratic-with-iso-checks dedup; fine for n <= 6.
    """
    pairs = list(combinations(range(n), 2))
    found: list[Graph] = []
    buckets: dict[tuple, list[Graph]] = {}
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = Graph.from_edges(n, edges)
        if connected_only and not _connected(g):
            continue
        key = (g.m, tuple(sorted(g.adj[v].bit_count() for v in range(n))))
        bucket = buckets.setdefault(key, [])
        if not any(are_isomorphic(g, h) for h in bucket):
            bucket.append(g)
            found.append(g)
    return found


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in range(g.n):
            if g.adj[v] >> u & 1 and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def relabel(g: Graph, perm) -> Graph:
    """Apply the permutation new_id = perm[old_id]."""
    edges = [(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()]
    return Graph.from_edges(g.n, edges)


def random_relabel(g: Graph, rng) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


# ---------------------------------------------------------------------------
# planarity by Kuratowski subdivision search (n <= 10)


def brute_planar(g: Graph) -> bool:
    """Planarity for n <= 10 by Kuratowski's theorem.

    g is non-planar exactly when some subgraph is a subdivision of K5 or
    K3,3: branch vertices whose required pairs are joined by paths that
    share no inner vertex and run through non-branch vertices.  Every
    choice of branch vertices is tried, and every system of such paths.
    """
    if g.n > 10:
        raise ValueError("this oracle only covers n <= 10")
    if g.n < 5:
        return True
    verts = range(g.n)
    # a branch vertex keeps its degree in the subdivision: 4 in K5, 3 in K3,3
    deg4 = [v for v in verts if g.adj[v].bit_count() >= 4]
    deg3 = [v for v in verts if g.adj[v].bit_count() >= 3]
    for branch in combinations(deg4, 5):
        if _linked(g, list(combinations(branch, 2)), set(verts) - set(branch)):
            return False
    for six in combinations(deg3, 6):
        first, rest = six[0], six[1:]
        for mates in combinations(rest, 2):
            side_a = (first, *mates)
            side_b = [v for v in rest if v not in mates]
            pairs = [(a, b) for a in side_a for b in side_b]
            if _linked(g, pairs, set(verts) - set(six)):
                return False
    return True


def _linked(g: Graph, pairs, free: set) -> bool:
    """Whether every pair (u, v) can get its own u-v path with inner vertices
    from free, no inner vertex used twice; an edge uv is its own path."""
    missing = [(u, v) for u, v in pairs if not g.adj[u] >> v & 1]
    if len(missing) > len(free):
        return False  # each missing pair needs an inner vertex of its own
    if not missing:
        return True
    (u, v), rest = missing[0], missing[1:]

    def walk(x: int, left: set) -> bool:
        for y in left:
            if g.adj[x] >> y & 1:
                after = left - {y}
                if g.adj[y] >> v & 1 and _linked(g, rest, after):
                    return True
                if walk(y, after):
                    return True
        return False

    return walk(u, free)


# ---------------------------------------------------------------------------
# the four-step W2 recipe, built from its steps alone


def _bipartite_without_isolated(k: int) -> list[Graph]:
    """One graph per class of the bipartite graphs on k vertices without an
    isolated vertex: every edge set between parts 0..a-1 and a..k-1."""
    found: dict[bytes, Graph] = {}
    for a in range(1, k // 2 + 1):
        pairs = [(u, v) for u in range(a) for v in range(a, k)]
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(k, [p for i, p in enumerate(pairs) if mask >> i & 1])
            if 0 not in g.adj:
                found.setdefault(canonical_form(g), g)
    return list(found.values())


def w2_recipe_graphs(n_max: int):
    """Yield every graph of the four-step recipe with at most n_max vertices,
    some classes more than once, with vertices h, covers, then h'.

    1. h is bipartite without isolated vertices, one per class.  Each of its
       (at least two) minimal vertex covers costs a vertex, so it has at
       most n_max - 2 vertices.
    2. One fresh vertex per minimal vertex cover of h, joined to exactly
       that cover.
    3. Every set of non-edges inside V(h) after which each h-vertex is
       adjacent to an endpoint of every h-edge.
    4. Every h' (one per class, the empty graph included) whose vertices
       each get a vertex cover of h, of any size, as their neighbourhood
       in V(h).
    """
    h_primes = {m: all_graphs_up_to_iso(m) for m in range(max(n_max - 3, 0))}
    for k in range(2, n_max - 1):
        full = (1 << k) - 1
        for h in _bipartite_without_isolated(k):
            h_edges = [(1 << u) | (1 << v) for u, v in h.edges()]
            minimal = brute_minimal_transversals(k, h_edges)
            base = k + len(minimal)
            if base > n_max:
                continue
            covers = [s for s in range(1, full + 1) if all(s & e for e in h_edges)]
            adj = list(h.adj) + minimal
            for i, cover in enumerate(minimal):
                for v in range(k):
                    if cover >> v & 1:
                        adj[v] |= 1 << (k + i)
            non_edges = [(u, v) for u, v in combinations(range(k), 2) if not h.adj[u] >> v & 1]
            for chosen in range(1 << len(non_edges)):
                core = list(adj)
                for i, (u, v) in enumerate(non_edges):
                    if chosen >> i & 1:
                        core[u] |= 1 << v
                        core[v] |= 1 << u
                if any((core[u] | core[v]) & full != full for u, v in h.edges()):
                    continue
                for m, graphs in h_primes.items():
                    if base + m > n_max:
                        break
                    for hp in graphs:
                        for touched in product(covers, repeat=m):
                            g_adj = core + [0] * m
                            for w, cover in enumerate(touched):
                                g_adj[base + w] = hp.adj[w] << base | cover
                                for v in range(k):
                                    if cover >> v & 1:
                                        g_adj[v] |= 1 << (base + w)
                            yield Graph(base + m, tuple(g_adj))
