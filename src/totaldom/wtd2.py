"""Uniform-size-2 graphs with packing number 2: recipes and recognizers.

Every graph in this class arises from a four-step build: start from a
bipartite graph h with no isolated vertices (step 1), attach one fresh
vertex per minimal vertex cover of h, joined to exactly that cover (step 2),
add edges inside V(h) until, for every h-edge uv, each other h-vertex is
adjacent to u or v (step 3), and optionally attach a disjoint graph h' whose
vertices each touch at least one endpoint of every h-edge (step 4).  The
result's dominating edges are exactly the edges of h, every minimal total
dominating set has size 2, and the packing number is 2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapabilityError, ParseError, RecipeValidationError
from .graphs import (
    MAX_VERTICES,
    Edge,
    Graph,
    bipartition,
    induced_subgraph,
    is_connected,
    mask_members,
    neighbors,
    vertex_mask,
)
from .graphio import EDGE_LIST, parse_graph, serialize_graph
from .domination import (
    dominating_edge_subgraph,
    minimal_vertex_covers,
    packing_number,
    recognize_wtd_k,
)


@dataclass(frozen=True)
class W2Recipe:
    """The data of the four-step build.

    ``mvc_vertices`` maps each minimal vertex cover of h (bitmask over h
    ids, ascending) to its fresh vertex id; fresh ids must be exactly
    h.n .. h.n + (#covers) - 1.  ``step3_edges`` live inside V(h).
    ``step4_edges`` are (h'-local id, h id) pairs.  Assembled graphs number
    vertices h first, then cover vertices, then h'.
    """

    h: Graph
    mvc_vertices: tuple[tuple[int, int], ...]
    step3_edges: tuple[Edge, ...] = ()
    h_prime: Graph | None = None
    step4_edges: tuple[tuple[int, int], ...] = ()


def construct_w2(recipe: W2Recipe) -> Graph:
    """Validate all four steps and assemble the graph."""
    h = recipe.h
    if h.n == 0:
        raise RecipeValidationError(1, "h must be a nonempty bipartite graph")
    if h.has_isolated_vertex():
        isolated = next(v for v in range(h.n) if h.adj[v] == 0)
        raise RecipeValidationError(1, f"h has an isolated vertex ({isolated})", (isolated,))
    if bipartition(h) is None:
        raise RecipeValidationError(1, "h is not bipartite")

    hp = recipe.h_prime
    hp_n = hp.n if hp is not None else 0
    try:
        # every cover costs a fresh vertex, so stop counting once they cannot fit
        covers = minimal_vertex_covers(h, max_count=MAX_VERTICES - h.n - hp_n)
    except CapabilityError:
        raise CapabilityError(
            f"the built graph would exceed the {MAX_VERTICES}-vertex limit: {h.n} h "
            f"and {hp_n} h' vertices plus one per minimal vertex cover of h"
        ) from None
    assigned = dict(recipe.mvc_vertices)
    if len(assigned) != len(recipe.mvc_vertices):
        raise RecipeValidationError(2, "duplicate cover in mvc_vertices")
    for cover in covers.edges:
        if cover not in assigned:
            raise RecipeValidationError(
                2,
                f"no fresh vertex assigned to minimal vertex cover {set(mask_members(cover))}",
                (cover,),
            )
    cover_set = set(covers.edges)
    for cover in assigned:
        if cover not in cover_set:
            raise RecipeValidationError(
                2,
                f"{set(mask_members(cover))} is not a minimal vertex cover of h",
                (cover,),
            )
    k = len(covers.edges)
    expected_ids = list(range(h.n, h.n + k))
    if sorted(assigned.values()) != expected_ids:
        raise RecipeValidationError(
            2, f"fresh vertex ids must be exactly {expected_ids[0]}..{expected_ids[-1]}"
        )

    if hp is None and recipe.step4_edges:
        raise RecipeValidationError(4, "step4 edges given without an h'")
    n = h.n + k + hp_n
    adj = [0] * n

    def connect(a: int, b: int) -> None:
        if a == b:
            raise RecipeValidationError(3, f"self-loop at {a}")
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    for u, v in h.edges():
        connect(u, v)
    for u, v in recipe.step3_edges:
        if not (0 <= u < h.n and 0 <= v < h.n):
            raise RecipeValidationError(3, f"step3 edge ({u}, {v}) leaves V(h)")
        connect(u, v)
    for u, v in h.edges():
        missing = h.full_mask & ~(adj[u] | adj[v])  # never u or v: they are adjacent
        if missing:
            w = (missing & -missing).bit_length() - 1
            raise RecipeValidationError(
                3, f"vertex {w} is adjacent to neither endpoint of h-edge ({u}, {v})", (w, u, v)
            )

    for cover, fresh in sorted(assigned.items()):
        for v in mask_members(cover):
            connect(fresh, v)

    if hp is not None:
        base = h.n + k
        for u, v in hp.edges():
            connect(base + u, base + v)
        for w, u in recipe.step4_edges:
            if not (0 <= w < hp_n and 0 <= u < h.n):
                raise RecipeValidationError(
                    4, f"step4 edge ({w}, {u}) must join an h' vertex to an h vertex"
                )
            connect(base + w, u)
        for u, v in h.edges():
            missing = (hp.full_mask << base) & ~(adj[u] | adj[v])
            if missing:
                w = (missing & -missing).bit_length() - 1 - base
                raise RecipeValidationError(
                    4, f"h' vertex {w} is adjacent to neither endpoint of h-edge ({u}, {v})", (w, u, v)
                )

    return Graph(n, tuple(adj))


@dataclass(frozen=True)
class W2Membership:
    member: bool
    recipe: W2Recipe | None
    reason: str


def w2_membership(g: Graph) -> W2Membership:
    """Decide uniform-minimal-TDS-size 2 together with packing number 2.

    On acceptance, emit a recipe that rebuilds g up to isomorphism: h is the
    dominating-edge subgraph, each minimal vertex cover S of h is realized by
    the lowest-id vertex outside h whose whole neighborhood is S, and
    everything left over lands in steps 3 and 4.
    """
    if not recognize_wtd_k(g, 2).accepted:
        return W2Membership(False, None, "not every minimal total dominating set has size 2")
    if packing_number(g) != 2:
        return W2Membership(False, None, "packing number is 1")

    dom_edges = dominating_edge_subgraph(g)
    h_mask = vertex_mask(v for e in dom_edges for v in e)
    h_ids = mask_members(h_mask)
    pos = {old: new for new, old in enumerate(h_ids)}
    h = Graph.from_edges(len(h_ids), tuple((pos[u], pos[v]) for u, v in dom_edges))

    # the lowest-id vertex outside h per open neighborhood: a core vertex may
    # share a cover's neighborhood, but the recipe needs an outside realizer,
    # which always exists here
    realizer: dict[int, int] = {}
    for v in mask_members(g.full_mask & ~h_mask):
        realizer.setdefault(g.adj[v], v)
    covers = minimal_vertex_covers(h)
    mvc_pairs = []
    used = 0
    for i, cover in enumerate(covers.edges):
        cover_global = vertex_mask(h_ids[v] for v in mask_members(cover))
        v_s = realizer.get(cover_global)
        if v_s is None:
            raise AssertionError(
                f"no vertex realizes minimal vertex cover {set(mask_members(cover_global))}"
            )
        used |= 1 << v_s
        mvc_pairs.append((cover, h.n + i))

    step3 = []
    for u, v in g.edges():
        if (h_mask >> u & 1) and (h_mask >> v & 1) and not h.has_edge(pos[u], pos[v]):
            step3.append((pos[u], pos[v]))

    rest_mask = g.full_mask & ~h_mask & ~used
    h_prime = None
    step4: list[tuple[int, int]] = []
    if rest_mask:
        if neighbors(g.adj, rest_mask) & used:
            raise AssertionError("leftover vertex adjacent to a cover vertex")
        h_prime, rest_ids = induced_subgraph(g, rest_mask)
        for i, old in enumerate(rest_ids):
            step4 += [(i, pos[u]) for u in mask_members(g.adj[old] & h_mask)]

    recipe = W2Recipe(
        h=h,
        mvc_vertices=tuple(mvc_pairs),
        step3_edges=tuple(step3),
        h_prime=h_prime,
        step4_edges=tuple(sorted(step4)),
    )
    return W2Membership(True, recipe, "member")


def recognize_triangle_free_wtd2(g: Graph) -> bool:
    """Linear-time uniform-size-2 test for triangle-free inputs.

    True iff g is triangle-free and every minimal total dominating set has
    size 2.  Such graphs are connected and bipartite with parts (X, Y);
    writing X_u for the X-vertices adjacent to all of Y (and Y_u dually), g
    qualifies iff it is complete bipartite, or X_u and Y_u are nonempty and
    some a in X \\ X_u has N(a) = Y_u while some b in Y \\ Y_u has N(b) = X_u.
    """
    if g.n < 2 or not is_connected(g):
        return False
    parts = bipartition(g)
    if parts is None:
        return False
    x, y = parts
    adj = g.adj
    xu = vertex_mask(v for v in mask_members(x) if adj[v] == y)
    yu = vertex_mask(v for v in mask_members(y) if adj[v] == x)
    if xu == x and yu == y:
        return True  # complete bipartite
    return (
        xu != 0
        and yu != 0
        and any(adj[a] == yu for a in mask_members(x & ~xu))
        and any(adj[b] == xu for b in mask_members(y & ~yu))
    )


# ---------------------------------------------------------------------------
# Recipe text format
#
#   H:
#   n 2
#   0 1
#   MVC:
#   0 -> 2
#   1 -> 3
#   STEP3:
#   HPRIME:
#   n 1
#   STEP4:
#   0 0
#
# Sections appear in the order H, MVC, STEP3, HPRIME, STEP4; STEP3 may be
# empty or omitted and HPRIME/STEP4 may be omitted together.  Blank lines and
# '#' comments are ignored, but for the '# labels:' line of H or HPRIME,
# which parse_graph reads as serialize_graph writes it.  MVC lines map a
# comma-separated h vertex set, with no empty member, to its fresh id; STEP4
# lines are `<h'-local id> <h id>`.

_SECTIONS = ("H:", "MVC:", "STEP3:", "HPRIME:", "STEP4:")


def parse_recipe(text: str) -> W2Recipe:
    """Read a recipe in the text format above.  Raises ParseError naming the
    recipe's line for every error within a section."""
    sections: dict[str, list[tuple[int, str]]] = {}  # (line number, text) per line
    heads: dict[str, int] = {}  # the line number of each section's heading
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            # parse_graph reads a graph section's comments (a labels line)
            if current in ("H:", "HPRIME:"):
                sections[current].append((lineno, line))
            continue
        if line in _SECTIONS:
            if line in sections:
                raise ParseError(f"line {lineno}: duplicate section {line}")
            if current is not None and _SECTIONS.index(line) < _SECTIONS.index(current):
                raise ParseError(
                    f"line {lineno}: section {line} after {current}; "
                    f"sections go in the order {' '.join(_SECTIONS)}"
                )
            current = line
            sections[current] = []
            heads[current] = lineno
            continue
        if current is None:
            raise ParseError(f"line {lineno}: content before the H: section")
        sections[current].append((lineno, line))

    if "H:" not in sections:
        raise ParseError("missing H: section")
    if "MVC:" not in sections:
        raise ParseError("missing MVC: section")
    h = _parse_section_graph(heads["H:"], sections["H:"])

    mvc_pairs = []
    for lineno, line in sections["MVC:"]:
        where = f"line {lineno}: malformed MVC line {line!r}"
        if "->" not in line:
            raise ParseError(f"{where}; expected '<ids> -> <fresh id>'")
        left, _, right = line.partition("->")
        if not left.strip():
            raise ParseError(f"{where}: empty cover")
        tokens = left.split(",")
        if not all(tok.strip() for tok in tokens):
            raise ParseError(f"{where}: empty vertex id")
        try:
            cover = vertex_mask(int(tok) for tok in tokens)
            fresh = int(right.strip())
        except ValueError:
            raise ParseError(where) from None
        mvc_pairs.append((cover, fresh))
    mvc_pairs.sort()

    step3 = [_parse_pair(lineno, line, "STEP3") for lineno, line in sections.get("STEP3:", [])]
    h_prime = None
    if "HPRIME:" in sections:
        h_prime = _parse_section_graph(heads["HPRIME:"], sections["HPRIME:"])
        if h_prime.n == 0:
            h_prime = None
    step4 = [_parse_pair(lineno, line, "STEP4") for lineno, line in sections.get("STEP4:", [])]
    if h_prime is None and step4:
        raise ParseError("STEP4 edges given without an HPRIME section")

    return W2Recipe(
        h=h,
        mvc_vertices=tuple(mvc_pairs),
        step3_edges=tuple(step3),
        h_prime=h_prime,
        step4_edges=tuple(step4),
    )


def _parse_section_graph(head: int, body: list[tuple[int, str]]) -> Graph:
    """parse_graph on a section's lines, each at its line number in the
    recipe and blank lines elsewhere, so that its errors name the recipe's
    lines; an empty section's missing header names its heading line."""
    rows = [""] * (body[-1][0] if body else head)
    for lineno, line in body:
        rows[lineno - 1] = line
    return parse_graph("".join(row + "\n" for row in rows), EDGE_LIST)


def _parse_pair(lineno: int, line: str, section: str) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"line {lineno}: malformed {section} line {line!r}; expected '<u> <v>'")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"line {lineno}: malformed {section} line {line!r}") from None


def serialize_recipe(recipe: W2Recipe) -> str:
    out = ["H:", serialize_graph(recipe.h, EDGE_LIST).rstrip("\n")]
    out.append("MVC:")
    for cover, fresh in sorted(recipe.mvc_vertices):
        out.append(",".join(str(v) for v in mask_members(cover)) + f" -> {fresh}")
    out.append("STEP3:")
    out.extend(f"{u} {v}" for u, v in recipe.step3_edges)
    if recipe.h_prime is not None:
        out.append("HPRIME:")
        out.append(serialize_graph(recipe.h_prime, EDGE_LIST).rstrip("\n"))
        out.append("STEP4:")
        out.extend(f"{w} {u}" for w, u in recipe.step4_edges)
    return "\n".join(out) + "\n"
