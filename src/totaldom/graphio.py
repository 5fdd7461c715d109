"""Graph text formats.

Two formats are supported:

* ``edge-list``: first non-comment line ``n <count>``, then one edge per
  line as ``<u> <v>`` with 0 <= u < v < n.  ``#`` lines are comments and are
  ignored for structure; a ``# labels: a b c`` comment optionally attaches
  display names.  UTF-8, LF.
* ``graph6``: the standard printable ASCII encoding, one graph per input
  (blank lines aside), with the optional ``>>graph6<<`` header tolerated.
  Counts 63..64 use the '~'-prefixed long size form.  The bits that pad
  the upper triangle to whole characters must be zero.
"""

from __future__ import annotations

from .errors import ParseError
from .graphs import MAX_VERTICES, Graph, graph_from_triangle, key_triangle

EDGE_LIST = "edge-list"
GRAPH6 = "graph6"
FORMATS = (EDGE_LIST, GRAPH6)


def parse_graph(text: str, fmt: str = EDGE_LIST) -> Graph:
    if fmt == EDGE_LIST:
        return _parse_edge_list(text)
    if fmt == GRAPH6:
        return _parse_graph6(text)
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def serialize_graph(g: Graph, fmt: str = EDGE_LIST) -> str:
    if fmt == EDGE_LIST:
        return _serialize_edge_list(g)
    if fmt == GRAPH6:
        return _serialize_graph6(g) + "\n"
    raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _parse_edge_list(text: str) -> Graph:
    n: int | None = None
    labels: tuple[str, ...] | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("labels:"):
                if labels is not None:
                    raise ParseError(f"line {lineno}: duplicate labels directive")
                labels = tuple(body[len("labels:"):].split())
                labels_line = lineno
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ParseError(f"line {lineno}: expected header 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: vertex count {parts[1]!r} is not an integer") from None
            if not 0 <= n <= MAX_VERTICES:
                raise ParseError(f"line {lineno}: vertex count {n} outside 0..{MAX_VERTICES}")
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected edge '<u> <v>'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: edge endpoints must be integers") from None
        if u == v:
            raise ParseError(f"line {lineno}: self-loop {u} {v}")
        for x in (u, v):
            if not 0 <= x < n:
                raise ParseError(f"line {lineno}: vertex {x} out of range for n={n}")
        if u > v:
            raise ParseError(f"line {lineno}: edge endpoints must satisfy u < v")
        if (u, v) in seen:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add((u, v))
        edges.append((u, v))
    if n is None:
        raise ParseError(f"line {last_line or 1}: missing header 'n <count>'")
    if labels is not None:
        if len(labels) != n:
            raise ParseError(
                f"line {labels_line}: labels directive names {len(labels)} vertices, expected {n}"
            )
        if len(set(labels)) != n:
            raise ParseError(f"line {labels_line}: labels directive contains duplicates")
    return Graph.from_edges(n, edges, labels=labels)


def _serialize_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    if g.labels is not None:
        lines.append("# labels: " + " ".join(g.labels))
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _parse_graph6(text: str) -> Graph:
    lines = [
        (lineno, raw.strip())
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if raw.strip()
    ]
    if not lines:
        raise ParseError("line 1: no graph6 data found")
    lineno, line = lines[0]
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    if not line:
        raise ParseError(f"line {lineno}: no graph6 data found")
    data = [ord(c) - 63 for c in line]
    if any(x < 0 or x > 63 for x in data):
        raise ParseError(f"line {lineno}: graph6 characters must lie in ASCII 63..126")
    if data[0] == 63:  # '~': long size form
        if len(data) < 4:
            raise ParseError(f"line {lineno}: truncated graph6 size")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        idx = 4
    else:
        n = data[0]
        idx = 1
    if n > MAX_VERTICES:
        raise ParseError(f"line {lineno}: vertex count {n} outside 0..{MAX_VERTICES}")
    need_bits = n * (n - 1) // 2
    need_chars = (need_bits + 5) // 6
    if len(data) - idx != need_chars:
        raise ParseError(
            f"line {lineno}: expected {need_chars} payload characters for n={n}, "
            f"got {len(data) - idx}"
        )
    if len(lines) > 1:
        raise ParseError(
            f"line {lines[1][0]}: a second graph; graph6 input holds one graph per input"
        )
    bits = 0
    for x in data[idx:]:
        bits = (bits << 6) | x
    pad = 6 * need_chars - need_bits
    if bits & ((1 << pad) - 1):
        raise ParseError(f"line {lineno}: graph6 padding bits must be zero")
    return graph_from_triangle(n, bits >> pad)


def _serialize_graph6(g: Graph) -> str:
    bits = 0
    for v in range(1, g.n):
        for u in range(v):
            bits = (bits << 1) | (g.adj[u] >> v & 1)
    return _graph6(g.n, bits)


def graph6_from_key(key: bytes) -> str:
    """graph6 of the graph a canonical key encodes, without building it.

    The key's bytes after the order hold the graph6 triangle padded to 8
    bits instead of 6, so the string is those bits regrouped.  ValueError
    for a key that key_triangle refuses.
    """
    return _graph6(*key_triangle(key))


def _graph6(n: int, bits: int) -> str:
    """graph6 text of order n and the unpadded upper triangle ``bits``."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12 & 63) + 63) + chr((n >> 6 & 63) + 63) + chr((n & 63) + 63)
    total = n * (n - 1) // 2
    pad = (-total) % 6
    bits <<= pad
    return head + "".join(
        chr((bits >> shift & 63) + 63) for shift in range(total + pad - 6, -1, -6)
    )
