"""Sperner families and minimal-transversal machinery.

A hypergraph here is always an antichain of nonempty vertex sets (bitmasks)
over a ground set 0..ground-1.  Minimal transversals (inclusion-minimal
hitting sets) are the workhorse: total domination reduces to them via the
open-neighborhood hypergraph, which `domination` builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapabilityError, NotAntichainError
from .graphs import MAX_VERTICES, mask_members

# all_minimal_transversals_have_size_k dualizes its whole depth-k family, and
# that family grows exponentially with k (6 disjoint copies of K4 have 6**6 =
# 46,656 minimal total dominating sets of size 12, whose dualization alone ran
# for about a minute); past this many sets it raises CapabilityError instead,
# within a few hundredths of a second.  It is above C(64, 2) = 2,016, so a
# depth-2 search on 64 vertices (w2-check) is never refused.  Families near it
# dualized in 2.6-3.5 s (5,298 to 5,660 sets from dense random graphs on 48
# and 64 vertices, k = 3 and 4; Python 3.11 on a 2-vCPU VM, process time) and
# the 1,296 of 4 disjoint K4s at k = 8 in 0.034 s.  The dualization's own
# output is held to the same limit, since a small family can dualize to a far
# larger one (522 pairs from a dense 64-vertex graph to 19,462 sets, 3.8 s).
SIZE_K_LIMIT = 5_000

# _BYTE_MEMBERS[b] lists the set bits of the byte b, ascending
_BYTE_MEMBERS = tuple(tuple(v for v in range(8) if b >> v & 1) for b in range(256))


@dataclass(frozen=True)
class SpernerFamily:
    """An antichain of nonempty edges (bitmasks), sorted ascending.

    A zero-edge family is representable only so that enumeration with a
    size bound can report "nothing within the bound"; `minimize_family`
    (and so `domination.neighborhood_hypergraph`) and all transversal
    consumers reject it.

    Every construction checks the whole family: ground size, nonempty and
    ascending in-ground edges, and the antichain property, in time
    proportional to the total edge size.  A contained edge raises
    NotAntichainError naming the smallest such edge and its lowest
    superset.
    """

    ground: int
    edges: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 0 <= self.ground <= MAX_VERTICES:
            raise ValueError(f"ground size {self.ground} outside 0..{MAX_VERTICES}")
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
        # holding[v] has bit j set when edges[j] contains v, so the AND of
        # holding over the members of e marks the edges containing e.  A
        # proper superset is a larger mask, so edges are indexed from the
        # largest down and each is tested against the larger ones only:
        # sum(|e|) steps instead of F**2 pairs.  Members are read a byte of
        # the mask at a time from _BYTE_MEMBERS, so holding is kept in rows
        # of 8 vertices.  The smallest contained edge and its lowest superset
        # are reported.
        holding = [[0] * 8 for _ in range((self.ground + 7) >> 3)]
        contained = None
        for i in range(len(self.edges) - 1, -1, -1):
            bit = 1 << i
            within = -1
            rest = self.edges[i]
            for row in holding:
                for v in _BYTE_MEMBERS[rest & 255]:
                    within &= row[v]
                    row[v] |= bit
                rest >>= 8
                if not rest:
                    break
            if within:
                contained = (i, within)
        if contained is not None:
            i, within = contained
            e = self.edges[i]
            f = self.edges[(within & -within).bit_length() - 1]
            raise NotAntichainError(
                f"not an antichain: {set(mask_members(e))} is contained in {set(mask_members(f))}",
                e,
                f,
            )

    def sets(self) -> tuple[tuple[int, ...], ...]:
        """Edges as ascending id tuples, for display and tests."""
        return tuple(mask_members(e) for e in self.edges)


def minimize_family(ground: int, raw: Iterable[int]) -> SpernerFamily:
    """Inclusion-minimal members of a nonempty collection of nonempty sets.

    A proper subset is a smaller mask, so one pass over the distinct masks in
    ascending order compares each only with the smaller ones already kept.
    """
    uniq = sorted(set(raw))
    if not uniq:
        raise ValueError("cannot minimize an empty collection")
    if 0 in uniq:
        raise ValueError("an empty hyperedge admits no transversal")
    kept: list[int] = []
    for e in uniq:
        for k in kept:
            if k & e == k:
                break
        else:
            kept.append(e)
    return SpernerFamily(ground, tuple(kept))


def is_transversal(mask: int, edges: Sequence[int]) -> bool:
    return all(mask & e for e in edges)


def greedy_minimize_transversal(mask: int, edges: Sequence[int]) -> int:
    """Strip removable elements in ascending id order; result is minimal."""
    if not is_transversal(mask, edges):
        raise ValueError("not a transversal")
    for v in mask_members(mask):
        without = mask ^ (1 << v)
        if is_transversal(without, edges):
            mask = without
    return mask


def _mmcs_branch(
    edges: Sequence[int],
    containing: list[int],
    max_size: int,
    max_count: int | None,
    out: list[int],
    chosen: int,
    cand: int,
    crit: list[int],
    uncov: int,
) -> None:
    """One MMCS branch: the vertices in chosen, the edges in uncov left.

    The branch picks an uncovered edge with the fewest candidates, stopping
    at the first with a single one (MMCS is correct under any pick), and
    tries each of its candidates as the next vertex.  crit[j] holds the
    edges that the j-th chosen vertex hits alone; a candidate whose edges
    cont include all of some crit[j] (``cm & cont == cm``) would make the
    j-th vertex redundant, so its child dies.  The branch loop settles two
    kinds of child without a call: one that covers every edge (a leaf,
    tested against crit directly and appended to out) and one that would
    hold max_size vertices with edges still uncovered (skipped).  The
    search's state comes in as arguments rather than through a closure over
    a nested function, so a call leaves no function-cell reference cycle
    behind.
    """
    # No uncovered edge is ever left without candidates (width 0), so the
    # pick stops at the first of width 1.  By induction: at the root every
    # edge's members are candidates, and the child for v has its parent's
    # candidates less some of the picked branch, so an uncovered edge e dies
    # there only if e & cand lies in the branch without v.  A width-1 pick
    # leaves nothing beside v, and a narrowest pick of width w <= |e & cand|
    # makes e & cand the whole branch, so v is in e and covers it.
    pick = -1
    pick_width = MAX_VERTICES + 1
    rest = uncov
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        rest ^= low
        width = (edges[i] & cand).bit_count()
        if width < pick_width:
            pick = i
            if width <= 1:
                break
            pick_width = width
    branch = edges[pick] & cand
    cand &= ~branch
    deeper = len(crit) + 1 < max_size
    while branch:
        bit = branch & -branch
        branch ^= bit
        cont = containing[bit.bit_length() - 1]
        left = uncov & ~cont
        if not left:
            for cm in crit:
                if cm & cont == cm:
                    break
            else:
                if max_count is not None and len(out) >= max_count:
                    raise CapabilityError(f"more than {max_count} minimal transversals")
                out.append(chosen | bit)
        elif deeper:
            new_crit = []
            for cm in crit:
                cm &= ~cont
                if not cm:
                    break
                new_crit.append(cm)
            else:
                new_crit.append(uncov & cont)
                _mmcs_branch(
                    edges, containing, max_size, max_count, out,
                    chosen | bit, cand, new_crit, left,
                )
        cand |= bit


def enumerate_minimal_transversals(
    h: SpernerFamily, max_count: int | None = None, max_size: int | None = None
) -> SpernerFamily:
    """Exactly the inclusion-minimal hitting sets of h, ascending by bitmask,
    each found once by an MMCS search.

    A branch keeps, for every chosen vertex, the set of edges it hits alone
    ("critical" edges); a branch dies as soon as a chosen vertex loses its
    last critical edge, so every completed leaf is inclusion-minimal.
    Candidates consumed by earlier siblings are re-admitted afterwards, which
    makes each minimal transversal appear in exactly one branch.

    With ``max_size``, only those of at most that many members.  A branch
    only ever adds members of the transversal it ends in, so cutting
    branches that hold max_size vertices with edges still uncovered loses
    exactly the larger transversals; the cut search has at most (largest
    edge size)**max_size leaves, and the result may be empty.  With
    ``max_count``, raise CapabilityError once more than that many turn up,
    before enumerating the rest.
    """
    edges = h.edges
    if not edges:
        raise ValueError("transversals of an empty family are not defined here")
    if max_size is not None and max_size < 1:
        raise ValueError(f"size bound must be at least 1, got {max_size}")
    containing = [0] * MAX_VERTICES
    cand = 0
    for i, e in enumerate(edges):
        cand |= e
        bit = 1 << i
        while e:
            low = e & -e
            containing[low.bit_length() - 1] |= bit
            e ^= low
    out: list[int] = []
    _mmcs_branch(
        edges, containing, max_size or MAX_VERTICES, max_count, out,
        0, cand, [], (1 << len(edges)) - 1,
    )
    out.sort()
    return SpernerFamily(h.ground, tuple(out))


@dataclass(frozen=True)
class SizeKDecision:
    """Outcome of the all-minimal-transversals-have-size-k test.

    ``accepted`` says every minimal transversal has size k.  ``witness`` is
    always a minimal transversal: a size-k exemplar when accepted, otherwise
    one whose size differs from k.  ``reason`` is "uniform",
    "smaller-witness", or "larger-witness".
    """

    accepted: bool
    witness: int
    reason: str


def all_minimal_transversals_have_size_k(h: SpernerFamily, k: int) -> SizeKDecision:
    """Decide whether every minimal transversal of h has size exactly k.

    The search cut at depth k collects the minimal transversals of size <= k as
    a family g; completeness is certified by dualizing twice: g equals the full
    transversal family iff Tr(g) = h.  When that fails, some member B of Tr(g)
    is not an edge of h; no edge of h fits inside B (h is an antichain and
    every edge of h is itself a transversal of g), so the complement of B is a
    transversal of h, and greedily minimizing it yields a minimal transversal
    disjoint from B -- hence missed by g, hence of size > k.

    Raises CapabilityError, naming SIZE_K_LIMIT, when g has more members
    than that, or when Tr(g) does: a small g can still dualize to a family
    exponentially larger than itself.
    """
    try:
        bounded = enumerate_minimal_transversals(h, max_count=SIZE_K_LIMIT, max_size=k)
    except CapabilityError:
        raise CapabilityError(
            f"more than SIZE_K_LIMIT = {SIZE_K_LIMIT} minimal transversals of size at "
            f"most {k}; the size-k certificate dualizes all of them, so it stops there"
        ) from None
    union = 0
    for e in h.edges:
        union |= e
    small = [t for t in bounded.edges if t.bit_count() < k]
    if small:
        return SizeKDecision(False, min(small), "smaller-witness")
    if not bounded.edges:
        witness = greedy_minimize_transversal(union, h.edges)
        return SizeKDecision(False, witness, "larger-witness")
    try:
        full = enumerate_minimal_transversals(bounded, SIZE_K_LIMIT)
    except CapabilityError:
        raise CapabilityError(
            f"the {len(bounded.edges)} minimal transversals of size at most {k} dualize to "
            f"more than SIZE_K_LIMIT = {SIZE_K_LIMIT} sets; the size-k certificate lists "
            "all of them, so it stops there"
        ) from None
    if full.edges == h.edges:
        return SizeKDecision(True, bounded.edges[0], "uniform")
    h_set = set(h.edges)
    b = next(e for e in full.edges if e not in h_set)
    witness = greedy_minimize_transversal(union & ~b, h.edges)
    if witness.bit_count() <= k:
        raise AssertionError("dualization discrepancy produced an in-bound witness")
    return SizeKDecision(False, witness, "larger-witness")
