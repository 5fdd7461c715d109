"""Seeded inputs for the profile-mid workload, and the reference checks
that judge its outputs.

Nothing here imports totaldom: the inputs are generated, and the outputs
checked, from the definitions alone (a graph is a vertex count plus an edge
list; a vertex set is a bitmask).
"""

from __future__ import annotations

import random
from itertools import combinations

# Query kinds in one block of the closed loop: half analyze, the rest split
# between recognize, w2-check and realize.  A w2-check that accepts is
# followed by a construct-w2 of the recipe it printed (see profile_loop.py).
BLOCK = ("analyze", "recognize", "analyze", "w2-check",
         "analyze", "realize", "analyze", "recognize",
         "analyze", "w2-check", "analyze", "realize")

# Random connected graphs: orders 12..18 and average degrees 2.5..5 in a
# fixed grid, so every seed draws the same number of graphs per cell.
ORDERS = (12, 14, 16, 18)
DEGREES = (2.5, 3.0, 3.5, 4.0, 4.5, 5.0)

# The disjoint k-set realizer ladders: m pairwise disjoint k-sets.
LADDERS = tuple((2, m) for m in range(1, 6)) + tuple((3, m) for m in range(1, 4))


class Graph:
    """Vertex count, sorted edge list and adjacency bitmasks."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = sorted((min(u, v), max(u, v)) for u, v in edges)
        self.adj = [0] * n
        for u, v in self.edges:
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u

    def edge_list(self) -> str:
        return "".join([f"n {self.n}\n"] + [f"{u} {v}\n" for u, v in self.edges])

    def degrees(self) -> list[int]:
        return sorted(nb.bit_count() for nb in self.adj)


def _relabel(rng: random.Random, n: int, edges) -> Graph:
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _connected(n: int, edges) -> bool:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(n):
            if frontier >> v & 1:
                reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def random_connected_graph(rng: random.Random, n: int, avg_degree: float) -> Graph:
    """A connected random graph whose degrees are all floor or ceil of d.

    Stubs are paired at random, never into a loop or a repeated edge, and
    the draw restarts on a dead end or a disconnected result.  Near-regular
    degrees keep the minimal-TDS family size of a cell within a factor of
    about two, where a random tree plus random edges spreads it over two
    orders of magnitude.
    """
    m = round(n * avg_degree / 2)
    base, extra = divmod(2 * m, n)
    while True:
        degrees = [base + 1] * extra + [base] * (n - extra)
        rng.shuffle(degrees)
        stubs = [v for v in range(n) for _ in range(degrees[v])]
        edges = set()
        while stubs:
            u = stubs.pop(rng.randrange(len(stubs)))
            choices = [i for i, v in enumerate(stubs) if v != u and (min(u, v), max(u, v)) not in edges]
            if not choices:
                break
            v = stubs.pop(rng.choice(choices))
            edges.add((min(u, v), max(u, v)))
        if not stubs and _connected(n, edges):
            return Graph(n, edges)


def minimal_vertex_covers(n: int, edges) -> list[int]:
    """Inclusion-minimal vertex covers by a subset sweep (h has at most six vertices)."""
    covers = [s for s in range(1 << n) if all(s >> u & 1 or s >> v & 1 for u, v in edges)]
    return [s for s in covers if not any(t != s and t & s == t for t in covers)]


def random_recipe_graph(rng: random.Random) -> Graph:
    """A graph built by the four-step recipe, with random choices per step.

    Step 1 draws a bipartite h without isolated vertices, step 2 adds one
    fresh vertex per minimal vertex cover of h joined to exactly that cover,
    step 3 adds random edges inside V(h) and then repairs every h-edge uv so
    each other h-vertex touches u or v, and step 4 may attach a small h'
    whose vertices each see a vertex cover of h.
    """
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    h_edges = set()
    for x in range(a):
        h_edges.add((x, a + rng.randrange(b)))
    for y in range(b):
        h_edges.add((rng.randrange(a), a + y))
    for x in range(a):
        for y in range(b):
            if rng.random() < 0.3:
                h_edges.add((x, a + y))
    hn = a + b
    covers = minimal_vertex_covers(hn, h_edges)
    edges = set(h_edges)
    for u, v in combinations(range(hn), 2):
        if (u, v) not in h_edges and rng.random() < 0.2:
            edges.add((u, v))

    def adjacent(u, v):
        return (min(u, v), max(u, v)) in edges

    for u, v in sorted(h_edges):
        for w in range(hn):
            if w not in (u, v) and not adjacent(w, u) and not adjacent(w, v):
                z = rng.choice((u, v))
                edges.add((min(w, z), max(w, z)))
    n = hn
    for cover in covers:
        edges.update((v, n) for v in range(hn) if cover >> v & 1)
        n += 1
    k = rng.choice((0, 0, 1, 2, 3))
    base = n
    for w in range(k):
        seen = rng.choice(covers)
        for v in range(hn):
            if seen >> v & 1 or rng.random() < 0.2:
                edges.add((v, base + w))
    for w1, w2 in combinations(range(k), 2):
        if rng.random() < 0.5:
            edges.add((base + w1, base + w2))
    return _relabel(rng, n + k, edges)


def random_sperner_family(rng: random.Random) -> list[frozenset]:
    """An antichain of 1..6 sets of size >= 2 over a ground set of at most 8."""
    ground = [chr(ord("a") + i) for i in range(rng.randint(3, 8))]
    want = rng.randint(1, 6)
    family: list[frozenset] = []
    for _ in range(200):
        if len(family) == want:
            break
        s = frozenset(rng.sample(ground, rng.randint(2, len(ground) - 1)))
        if all(not (s <= t or t <= s) for t in family):
            family.append(s)
    return family


def ladder_family(k: int, m: int) -> list[frozenset]:
    return [frozenset(f"x{i}y{j}" for j in range(k)) for i in range(m)]


def family_arg(family) -> str:
    return ";".join("{" + ",".join(sorted(s)) + "}" for s in family)


class Corpus:
    """Every input one seed generates, plus the loop's base sequence.

    ``queries`` holds one entry per slot of the base sequence: the CLI
    arguments (with graph paths relative to the work directory) and what
    the checks need to judge the answer.
    """

    def __init__(self, seed: int, slots: int):
        rng = random.Random(seed)
        self.graphs: list[Graph] = []
        self.queries: list[dict] = []
        pools = {"analyze": self._analyze, "recognize": self._recognize,
                 "w2-check": self._w2_check, "realize": self._realize}
        counts = dict.fromkeys(pools, 0)
        for i in range(slots):
            kind = BLOCK[i % len(BLOCK)]
            self.queries.append(pools[kind](rng, counts[kind]))
            counts[kind] += 1

    def _add_graph(self, g: Graph) -> int:
        self.graphs.append(g)
        return len(self.graphs) - 1

    def _grid_graph(self, rng, i: int) -> Graph:
        cell = i % (len(ORDERS) * len(DEGREES))
        return random_connected_graph(rng, ORDERS[cell // len(DEGREES)], DEGREES[cell % len(DEGREES)])

    def _analyze(self, rng, i: int) -> dict:
        # every sixth analyze input is a recipe graph, the rest random
        recipe = i % 6 == 5
        g = random_recipe_graph(rng) if recipe else self._grid_graph(rng, i - i // 6)
        gid = self._add_graph(g)
        return {"graph": gid, "recipe": recipe,
                "argv": ["analyze", f"g{gid}.txt"]}

    def _recognize(self, rng, i: int) -> dict:
        recipe = i % 3 == 2
        g = random_recipe_graph(rng) if recipe else self._grid_graph(rng, 7 * i)
        k = 2 if recipe else rng.choice((2, 3, 4))
        gid = self._add_graph(g)
        return {"graph": gid, "recipe": recipe, "k": k,
                "argv": ["recognize", f"g{gid}.txt", "--k", str(k), "--witness"]}

    def _w2_check(self, rng, i: int) -> dict:
        recipe = i % 2 == 0
        g = random_recipe_graph(rng) if recipe else self._grid_graph(rng, 5 * i)
        gid = self._add_graph(g)
        return {"graph": gid, "recipe": recipe,
                "argv": ["w2-check", f"g{gid}.txt", "--witness"]}

    def _realize(self, rng, i: int) -> dict:
        if i % 2 == 0:
            k, m = LADDERS[(i // 2) % len(LADDERS)]
            family = ladder_family(k, m)
        else:
            family = random_sperner_family(rng)
        return {"family": sorted(sorted(s) for s in family),
                "argv": ["realize", "--family", family_arg(family)]}


# ---------------------------------------------------------------------------
# reference checks


def is_minimal_tds(adj: list[int], s: int) -> bool:
    """Every vertex has a neighbor in s, and no member of s can be dropped."""
    if not all(nb & s for nb in adj):
        return False
    rest = s
    while rest:
        low = rest & -rest
        rest ^= low
        if all(nb & (s ^ low) for nb in adj):
            return False
    return True


def parse_edge_list(text: str) -> Graph:
    """Edge-list text as the CLI prints it (comments, labels included, skipped)."""
    n = None
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            parts = line.split()
            if n is None:
                n = int(parts[1])
            else:
                edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


def check_analyze(g: Graph, out: dict, recipe: bool) -> str | None:
    """None when the analyze payload is consistent with g, else the reason."""
    if out["n"] != g.n or out["m"] != len(g.edges):
        return "order or size differs from the input"
    sizes = []
    for members in out["mtds"]:
        s = 0
        for v in members:
            s |= 1 << v
        if not is_minimal_tds(g.adj, s):
            return f"reported set {members} is not a minimal total dominating set"
        sizes.append(len(members))
    if not sizes:
        return "no minimal total dominating sets reported"
    if (out["gamma_t"], out["Gamma_t"], out["is_wtd"]) != (min(sizes), max(sizes), min(sizes) == max(sizes)):
        return "gamma_t, Gamma_t or is_wtd disagree with the reported sets"
    if recipe and (out["gamma_t"], out["Gamma_t"]) != (2, 2):
        return "recipe graph does not have every minimal TDS of size 2"
    return None


def check_recognize(g: Graph, q: dict, rc: int, out: dict) -> str | None:
    members = out.get("witness")
    if members is None:
        return "no witness"
    s = 0
    for v in members:
        s |= 1 << v
    if not is_minimal_tds(g.adj, s):
        return f"witness {members} is not a minimal total dominating set"
    k = q["k"]
    if rc == 0:
        return None if out["wtd_k"] is True and len(members) == k else "accepted witness has the wrong size"
    if q["recipe"]:
        return "recipe graph rejected for k = 2"
    reason = out.get("reason")
    if reason == "smaller-witness" and len(members) < k:
        return None
    if reason == "larger-witness" and len(members) > k:
        return None
    return f"rejection reason {reason!r} disagrees with witness size {len(members)}"


def check_realize(q: dict, out: dict) -> str | None:
    got = sorted(sorted(s) for s in out["self_check"]["mtds"])
    return None if got == q["family"] else "self-check family differs from the requested family"


def check_rebuild(g: Graph, out: dict) -> str | None:
    """The graph construct-w2 rebuilt from a w2-check recipe matches g."""
    rebuilt = parse_edge_list(out["graph"])
    if (rebuilt.n, len(rebuilt.edges), rebuilt.degrees()) != (g.n, len(g.edges), g.degrees()):
        return "recipe rebuilds a graph with another order, size or degree sequence"
    return None
