"""Shrinking a graph by deleting the closed neighborhood of a matching.

The selected edges must form an induced matching: pairwise disjoint, with no
edge of the host running between two selected pairs.  Deleting N[A] for such
a selection drops the total domination number by exactly 2|A| whenever every
minimal total dominating set of the host has one size, and that property is
preserved by the deletion (when the remainder still has it defined).
"""

from __future__ import annotations

from typing import Sequence

from .domination import require_total_domination
from .errors import ValidationError
from .graphs import Edge, Graph, delete_closed_neighborhood


def reduce_by_matching(
    g: Graph, edges: Sequence[Edge]
) -> tuple[Graph, tuple[int, ...]]:
    """Delete the closed neighborhood of an induced matching, given as
    (u, v) pairs; return the remainder and its new-to-old vertex ids.

    The remainder may be empty or have isolated vertices, where total
    domination is undefined; read that off it (n == 0,
    has_isolated_vertex()).  Raises DominationUndefinedError, as mtds does,
    when g has no vertex or an isolated one, and ValidationError unless the
    selection is nonempty, each pair is an edge of g, the pairs are
    vertex-disjoint, and no g-edge joins two different pairs.
    """
    require_total_domination(g)
    if not edges:
        raise ValidationError("selection must contain at least one edge")

    seen = 0
    for u, v in edges:
        if not (0 <= u < g.n and 0 <= v < g.n and u != v and g.has_edge(u, v)):
            raise ValidationError(f"({u}, {v}) is not an edge of the graph")
        pair = (1 << u) | (1 << v)
        if seen & pair:
            raise ValidationError(f"selected edges are not vertex-disjoint at ({u}, {v})")
        seen |= pair

    for u, v in edges:
        for a, b in edges:
            if (u, v) >= (a, b):
                continue
            cross = (g.adj[u] | g.adj[v]) & ((1 << a) | (1 << b))
            if cross:
                raise ValidationError(
                    f"selection is not induced: an edge joins pair ({u}, {v}) "
                    f"to pair ({a}, {b})"
                )

    return delete_closed_neighborhood(g, seen)
