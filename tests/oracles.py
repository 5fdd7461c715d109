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


def complete_multipartite(*parts: int) -> Graph:
    """Every pair of vertices in different parts joined; parts in order."""
    part_of = [p for p, size in enumerate(parts) for _ in range(size)]
    n = len(part_of)
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if part_of[i] != part_of[j]]
    )


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def random_graph_of_kind(rng, n: int, kind: str) -> Graph:
    """A random graph on n >= 2 vertices with no isolated vertex: a random
    tree ("tree"), a tree with about n / 2 more random edges ("sparse"), or
    each pair joined with probability 0.7 ("dense"), then each isolated
    vertex joined to the next one."""
    if kind == "dense":
        edges = {(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.7}
    else:
        edges = {(rng.randrange(v), v) for v in range(1, n)}
        if kind == "sparse":
            for _ in range(n // 2):
                edges.add(tuple(sorted(rng.sample(range(n), 2))))
    for v in range(n):
        if not any(v in e for e in edges):
            edges.add(tuple(sorted((v, (v + 1) % n))))
    return Graph.from_edges(n, sorted(edges))


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


# ---------------------------------------------------------------------------
# catalog lines


def _graph6_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The order and edges (u, v), u < v, of a graph6 string of order at
    most 62: one character n + 63, then the upper triangle column by column,
    6 bits per character + 63."""
    n = ord(text[0]) - 63
    bits = "".join(f"{ord(c) - 63:06b}" for c in text[1:])
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit == "1"]


def catalog_fields_from_graph6(text: str) -> dict:
    """Every field of a catalog line but canonical_key and graph6,
    recomputed from the line's graph6 string with no totaldom code.

    The string (order at most 62) is decoded here.  One sweep of the subset
    lattice, each set built from the set without its lowest vertex, gives
    gamma_t, Gamma_t, is_wtd and rho; networkx (the test extra) gives the
    rest.  Raises AssertionError when the graph has a dominating edge but
    the sweep's gamma_t is not 2, or the other way round.
    """
    import networkx as nx

    n, edges = _graph6_edges(text)
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    opened = [0] * (1 << n)  # N(S): the vertices with a neighbour in S
    closed = [0] * (1 << n)  # N[S]
    packing = [True] * (1 << n)  # the N[v] of S pairwise disjoint
    rho = 0
    for s in range(1, 1 << n):
        rest, low = s & (s - 1), (s & -s).bit_length() - 1
        ball = adj[low] | 1 << low
        opened[s] = opened[rest] | adj[low]
        closed[s] = closed[rest] | ball
        packing[s] = packing[rest] and not closed[rest] & ball
        if packing[s]:
            rho = max(rho, s.bit_count())
    sizes = [
        s.bit_count()
        for s in range(1, 1 << n)
        if opened[s] == full and all(opened[s & ~(1 << v)] != full for v in range(n) if s >> v & 1)
    ]
    gamma_t, big_gamma_t = min(sizes), max(sizes)

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    dominating = [(u, v) for u, v in g.edges() if set(g[u]) | set(g[v]) == set(g)]
    if bool(dominating) != (gamma_t == 2):
        raise AssertionError(
            f"{text}: {len(dominating)} dominating edges, but the sweep's gamma_t is {gamma_t}"
        )
    girth = nx.girth(g)
    return {
        "n": n,
        "m": g.number_of_edges(),
        "min_degree": min(d for _, d in g.degree()),
        "gamma_t": gamma_t,
        "Gamma_t": big_gamma_t,
        "is_wtd": gamma_t == big_gamma_t,
        "rho": rho,
        "diameter": nx.diameter(g) if nx.is_connected(g) else None,
        "girth": None if girth == float("inf") else girth,
        "nu_gde": (
            len(nx.max_weight_matching(nx.Graph(dominating), maxcardinality=True))
            if dominating
            else None
        ),
        "planar": nx.check_planarity(g)[0],
        "triangle_free": not any(nx.triangles(g).values()),
    }


def catalog_class_counts(
    graph6s, triangle_free: bool = False, planar: bool = False
) -> dict[int, int]:
    """The number of graph6 strings per order, after checking with no
    totaldom code that each is connected (with triangle_free, that it holds
    no triangle by networkx's triangle count, and with planar, that
    networkx's check_planarity finds it planar) and no two are isomorphic.

    Each graph is bucketed by (n, m, degree sequence, networkx's
    Weisfeiler-Lehman hash with 3 iterations), which isomorphic graphs
    share, and networkx's is_isomorphic runs on every pair inside a bucket.
    A bucket keeps only its graph6 strings, and the graphs of a bucket of
    two or more are built again when its pairs are compared: a networkx
    graph per line held to the end peaks at about 1.5 GB of RSS on the
    n <= 9 catalog, the strings at about 160 MB.  With the counts equal to
    OEIS A001349 (A024607 with triangle_free, A003094 with planar), that
    shows each connected (triangle-free, planar) class is there exactly
    once.  Raises AssertionError naming a disconnected graph, a graph with
    a triangle, a non-planar graph, or the first isomorphic pair.
    """
    import warnings

    import networkx as nx

    def graph(text):
        n, edges = _graph6_edges(text)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        return g

    buckets: dict[tuple, list[str]] = {}
    counts: dict[int, int] = {}
    for text in graph6s:
        g = graph(text)
        n = g.number_of_nodes()
        if not nx.is_connected(g):
            raise AssertionError(f"{text}: disconnected")
        if triangle_free and any(nx.triangles(g).values()):
            raise AssertionError(f"{text}: has a triangle")
        if planar and not nx.check_planarity(g)[0]:
            raise AssertionError(f"{text}: not planar")
        with warnings.catch_warnings():
            # networkx 3.5 changed its hashes and says so; isomorphic graphs
            # still hash alike, which is all the bucketing needs
            warnings.simplefilter("ignore")
            wl = nx.weisfeiler_lehman_graph_hash(g, iterations=3)
        degrees = tuple(sorted(d for _, d in g.degree()))
        buckets.setdefault((n, g.number_of_edges(), degrees, wl), []).append(text)
        counts[n] = counts.get(n, 0) + 1
    for bucket in buckets.values():
        if len(bucket) > 1:
            graphs = list(map(graph, bucket))
            for (a, ga), (b, gb) in combinations(zip(bucket, graphs), 2):
                if nx.is_isomorphic(ga, gb):
                    raise AssertionError(f"{a} and {b} are isomorphic")
    return counts
