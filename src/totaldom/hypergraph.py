"""Sperner families and minimal-transversal machinery.

A hypergraph here is always an antichain of nonempty vertex sets (bitmasks)
over a ground set 0..ground-1.  Minimal transversals (inclusion-minimal
hitting sets) are the workhorse: total domination reduces to them via the
open-neighborhood hypergraph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DominationUndefinedError
from .graphs import Graph, iter_bits, mask_members

MAX_GROUND = 64


@dataclass(frozen=True)
class SpernerFamily:
    """An antichain of nonempty edges (bitmasks), sorted ascending.

    A zero-edge family is representable only so that bounded enumeration can
    report "nothing within the size bound"; the constructors that model
    graphs (`minimize_family`, `neighborhood_hypergraph`) and all transversal
    consumers reject it.
    """

    ground: int
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.ground <= MAX_GROUND:
            raise ValueError(f"ground size {self.ground} outside 0..{MAX_GROUND}")
        full = (1 << self.ground) - 1
        prev = -1
        for e in self.edges:
            if e == 0:
                raise ValueError("hyperedges must be nonempty")
            if e & ~full:
                raise ValueError("hyperedge mentions elements outside the ground set")
            if e <= prev:
                raise ValueError("edges must be strictly ascending bitmasks (no duplicates)")
            prev = e
        for e in self.edges:
            for f in self.edges:
                if e != f and e & f == e:
                    raise ValueError(
                        f"not an antichain: {set(mask_members(e))} is contained in {set(mask_members(f))}"
                    )

    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Edges as ascending id tuples, for display and tests."""
        return tuple(mask_members(e) for e in self.edges)


def minimize_family(ground: int, raw: Iterable[int]) -> SpernerFamily:
    """Inclusion-minimal members of a nonempty collection of nonempty sets."""
    sets = list(raw)
    if not sets:
        raise ValueError("cannot minimize an empty collection")
    if any(e == 0 for e in sets):
        raise ValueError("an empty hyperedge admits no transversal")
    uniq = sorted(set(sets), key=lambda e: (e.bit_count(), e))
    kept: list[int] = []
    for e in uniq:
        if not any(k & e == k for k in kept):
            kept.append(e)
    return SpernerFamily(ground, tuple(sorted(kept)))


def require_total_domination(g: Graph) -> None:
    """Raise DominationUndefinedError unless g has vertices and none is isolated."""
    if g.n == 0:
        raise DominationUndefinedError("total domination undefined: graph has no vertices")
    for v in range(g.n):
        if g.adj[v] == 0:
            raise DominationUndefinedError(
                f"total domination undefined: vertex {g.label(v)} is isolated"
            )


def neighborhood_hypergraph(g: Graph) -> SpernerFamily:
    """Minimized family of open neighborhoods {N(v) : v in V(g)}.

    Total dominating sets of g are exactly the transversals of this family,
    and minimizing preserves the minimal ones.
    """
    require_total_domination(g)
    return minimize_family(g.n, g.adj)


def is_transversal(mask: int, edges: Sequence[int]) -> bool:
    return all(mask & e for e in edges)


def _is_minimal_transversal(mask: int, edges: Sequence[int]) -> bool:
    if not is_transversal(mask, edges):
        return False
    for v in iter_bits(mask):
        if is_transversal(mask ^ (1 << v), edges):
            return False
    return True


def greedy_minimize_transversal(mask: int, edges: Sequence[int]) -> int:
    """Strip removable elements in ascending id order; result is minimal."""
    if not is_transversal(mask, edges):
        raise ValueError("not a transversal")
    for v in mask_members(mask):
        without = mask ^ (1 << v)
        if is_transversal(without, edges):
            mask = without
    return mask


def _mmcs(edges: Sequence[int]) -> list[int]:
    """All minimal transversals, each exactly once (MMCS-style search).

    A branch keeps, for every chosen vertex, the set of edges it hits alone
    ("critical" edges); a branch dies as soon as a chosen vertex loses its
    last critical edge, so every completed leaf is inclusion-minimal.
    Candidates consumed by earlier siblings are re-admitted afterwards, which
    makes each minimal transversal appear in exactly one branch.
    """
    m = len(edges)
    containing = [0] * MAX_GROUND
    cand0 = 0
    for i, e in enumerate(edges):
        cand0 |= e
        for v in iter_bits(e):
            containing[v] |= 1 << i
    out: list[int] = []

    def rec(chosen: int, cand: int, crit: tuple[tuple[int, int], ...], uncov: int) -> None:
        if uncov == 0:
            out.append(chosen)
            return
        pick = -1
        pick_width = MAX_GROUND + 1
        rest = uncov
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            width = (edges[i] & cand).bit_count()
            if width == 0:
                return  # some uncovered edge can no longer be hit
            if width < pick_width:
                pick_width = width
                pick = i
        branch = edges[pick] & cand
        cand &= ~branch
        for v in iter_bits(branch):
            cont = containing[v]
            ok = True
            new_crit = []
            for vb, cm in crit:
                cm &= ~cont
                if cm == 0:
                    ok = False
                    break
                new_crit.append((vb, cm))
            if ok:
                vb = 1 << v
                new_crit.append((vb, uncov & cont))
                rec(chosen | vb, cand, tuple(new_crit), uncov & ~cont)
            cand |= 1 << v
        return

    rec(0, cand0, (), (1 << m) - 1)
    return sorted(out)


def enumerate_minimal_transversals(h: SpernerFamily) -> SpernerFamily:
    """Exactly the inclusion-minimal hitting sets of h, ascending by bitmask."""
    if not h.edges:
        raise ValueError("transversals of an empty family are not defined here")
    return SpernerFamily(h.ground, tuple(_mmcs(h.edges)))


def enumerate_bounded_minimal_transversals(h: SpernerFamily, k: int) -> SpernerFamily:
    """All minimal transversals of size <= k.

    Depth-<=k branching: each node picks the first edge disjoint from the
    partial set and branches on its vertices, so the leaf count is bounded by
    (largest edge size)**k; leaves are filtered to inclusion-minimal hitting
    sets and deduplicated.  The result may be empty.
    """
    if not h.edges:
        raise ValueError("transversals of an empty family are not defined here")
    if k < 1:
        raise ValueError(f"size bound must be at least 1, got {k}")
    edges = h.edges
    found: set[int] = set()

    def rec(partial: int, depth: int) -> None:
        for e in edges:
            if e & partial == 0:
                if depth == k:
                    return
                for v in iter_bits(e):
                    rec(partial | (1 << v), depth + 1)
                return
        found.add(partial)

    rec(0, 0)
    minimal = [t for t in found if _is_minimal_transversal(t, edges)]
    return SpernerFamily(h.ground, tuple(sorted(minimal)))


@dataclass(frozen=True)
class SizeKDecision:
    """Outcome of the all-minimal-transversals-have-size-k test.

    ``witness`` is always a minimal transversal: a size-k exemplar when
    ``uniform``, otherwise one whose size differs from k.  ``reason`` is
    "uniform", "smaller-witness", or "larger-witness".
    """

    uniform: bool
    witness: int
    reason: str


def all_minimal_transversals_have_size_k(h: SpernerFamily, k: int) -> SizeKDecision:
    """Decide whether every minimal transversal of h has size exactly k.

    Bounded enumeration collects the minimal transversals of size <= k as a
    family g; completeness is certified by dualizing twice: g equals the full
    transversal family iff Tr(g) = h.  When that fails, some member B of
    Tr(g) is not an edge of h; no edge of h fits inside B (h is an antichain
    and every edge of h is itself a transversal of g), so the complement of B
    is a transversal of h, and greedily minimizing it yields a minimal
    transversal disjoint from B -- hence missed by g, hence of size > k.
    """
    bounded = enumerate_bounded_minimal_transversals(h, k)
    union = 0
    for e in h.edges:
        union |= e
    small = [t for t in bounded.edges if t.bit_count() < k]
    if small:
        return SizeKDecision(False, min(small), "smaller-witness")
    if not bounded.edges:
        witness = greedy_minimize_transversal(union, h.edges)
        return SizeKDecision(False, witness, "larger-witness")
    full = enumerate_minimal_transversals(bounded)
    if set(full.edges) == set(h.edges):
        return SizeKDecision(True, bounded.edges[0], "uniform")
    h_set = set(h.edges)
    b = next(e for e in full.edges if e not in h_set)
    witness = greedy_minimize_transversal(union & ~b, h.edges)
    if witness.bit_count() <= k:
        raise AssertionError("dualization discrepancy produced an in-bound witness")
    return SizeKDecision(False, witness, "larger-witness")
