"""Recompute every field of a search catalog's lines from their graph6 strings.

    PYTHONPATH=src:tests python tests/fields.py PATH COUNT [--order N] [--half 0|1]

Each line of the catalog at PATH (of order N only, with --order) is checked
against tests/oracles.catalog_fields_from_graph6, a subset sweep and
networkx with no totaldom code, and its canonical_key and graph6 string are
decoded here, with no totaldom code either: each must be exactly the bytes
or characters its order fixes, zero-padded, and both must hold the same
upper triangle.  With --half, only the lines of that order whose number has
that parity are checked (1 for the first, third, ...), so two runs split
the work.  Exits 0 when the catalog holds exactly COUNT such lines (of that
order) and no checked line disagrees, else 1, printing each disagreement.
"""

import argparse
import json
import sys

from oracles import catalog_fields_from_graph6


def key_triangle(key: bytes) -> tuple[int, str]:
    """Order and upper-triangle bit string of a canonical key: byte 0 is n,
    then the pairs (0,1), (0,2), (1,2), (0,3), ..., the first pair most
    significant, zero-padded to whole bytes."""
    n = key[0]
    total = n * (n - 1) // 2
    bits = "".join(f"{byte:08b}" for byte in key[1:])
    if len(key) != 1 + (total + 7) // 8 or "1" in bits[total:]:
        raise ValueError("not a key of its order")
    return n, bits[:total]


def graph6_triangle(text: str) -> tuple[int, str]:
    """Order and upper-triangle bit string of a graph6 string of order at
    most 62: one character n + 63, then 6 bits per character + 63, in the
    key's pair order, zero-padded."""
    n = ord(text[0]) - 63
    total = n * (n - 1) // 2
    bits = "".join(f"{ord(c) - 63:06b}" for c in text[1:])
    if len(bits) != total + (-total) % 6 or "1" in bits[total:]:
        raise ValueError("not a graph6 string of its order")
    return n, bits[:total]


def same_graph(hexkey: str, graph6: str) -> bool:
    """Whether the key and the graph6 string both decode, to one order and
    one upper triangle."""
    try:
        return key_triangle(bytes.fromhex(hexkey)) == graph6_triangle(graph6)
    except (ValueError, IndexError):
        return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path")
    parser.add_argument("count", type=int, help="the lines the catalog must hold (of --order)")
    parser.add_argument("--order", type=int, help="check only the lines of this order")
    parser.add_argument("--half", type=int, choices=(0, 1), help="check only this parity")
    args = parser.parse_args(argv)
    seen = lines = bad = 0
    with open(args.path) as f:
        for lineno, line in enumerate(f, start=1):
            r = json.loads(line)
            if args.order is not None and r["n"] != args.order:
                continue
            seen += 1
            if args.half is not None and seen % 2 != args.half:
                continue
            lines += 1
            fields = catalog_fields_from_graph6(r["graph6"])
            if not same_graph(r["canonical_key"], r["graph6"]):
                bad += 1
                print(f"{args.path}:{lineno}: the key and the graph6 string disagree")
            elif fields != {name: r[name] for name in fields}:
                bad += 1
                print(f"{args.path}:{lineno}: recomputed {fields}")
    which = "" if args.order is None else f" order-{args.order}"
    print(f"{lines} of {seen}{which} lines, {bad} disagree with the recomputation")
    want = args.count if args.half is None else (args.count + args.half) // 2
    return int(seen != args.count or lines != want or bad != 0)


if __name__ == "__main__":
    sys.exit(main())
