"""Recompute every field of a search catalog's lines from their graph6 strings.

    PYTHONPATH=src:tests python tests/fields.py PATH COUNT [--order N] [--half 0|1]

Each line of the catalog at PATH (of order N only, with --order) is checked
against tests/oracles.catalog_fields_from_graph6, a subset sweep and
networkx with no totaldom code.  With --half, only the lines of that order
whose number has that parity are recomputed (1 for the first, third, ...),
so two runs split the work.  Exits 0 when the catalog holds exactly COUNT
such lines (of that order) and no recomputed field disagrees, else 1,
printing each disagreement.
"""

import argparse
import json
import sys

from oracles import catalog_fields_from_graph6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path")
    parser.add_argument("count", type=int, help="the lines the catalog must hold (of --order)")
    parser.add_argument("--order", type=int, help="check only the lines of this order")
    parser.add_argument("--half", type=int, choices=(0, 1), help="recompute only this parity")
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
            if fields != {name: r[name] for name in fields}:
                bad += 1
                print(f"{args.path}:{lineno}: recomputed {fields}")
    which = "" if args.order is None else f" order-{args.order}"
    print(f"{lines} of {seen}{which} lines, {bad} disagree with the recomputation")
    want = args.count if args.half is None else (args.count + args.half) // 2
    return int(seen != args.count or lines != want or bad != 0)


if __name__ == "__main__":
    sys.exit(main())
