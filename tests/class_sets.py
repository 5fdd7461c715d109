"""Check that a search catalog holds each connected class of its orders once.

    PYTHONPATH=src:tests python tests/class_sets.py PATH {A001349,A003094,A024607} N_MAX

tests/oracles.catalog_class_counts, networkx with no totaldom code, checks
that every line of the catalog at PATH is connected and that no two lines
are isomorphic; with A024607 it also checks that no line has a triangle,
and with A003094 that every line is planar.  The number of lines of each
order must then be the table's, OEIS A001349 (connected graphs), A003094
(connected planar graphs) or A024607 (connected triangle-free graphs), for
every order from 2 to N_MAX and no other.  Exits 0 when all of that holds,
else 1, printing what failed.
"""

import argparse
import json
import sys

from oracles import catalog_class_counts

# connected graphs, connected planar graphs, and connected triangle-free
# graphs, on n vertices (OEIS)
TABLES = {
    "A001349": {2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080},
    "A003094": {2: 1, 3: 2, 4: 6, 5: 20, 6: 99, 7: 646, 8: 5974, 9: 71885},
    "A024607": {2: 1, 3: 1, 4: 3, 5: 6, 6: 19, 7: 59, 8: 267, 9: 1380, 10: 9832, 11: 90842},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path")
    parser.add_argument("table", choices=sorted(TABLES))
    parser.add_argument("n_max", type=int, help="the largest order the catalog holds")
    args = parser.parse_args(argv)
    table = TABLES[args.table]
    if args.n_max not in table:
        parser.error(f"{args.table} is tabled here for orders 2 to {max(table)}")
    expected = {n: c for n, c in table.items() if n <= args.n_max}
    try:
        with open(args.path) as f:
            graph6s = (json.loads(line)["graph6"] for line in f)
            counts = catalog_class_counts(
                graph6s, triangle_free=args.table == "A024607", planar=args.table == "A003094"
            )
    except AssertionError as exc:
        print(f"{args.path}: {exc}")
        return 1
    print(f"{args.path}: {sum(counts.values())} classes, per order {counts}")
    if counts != expected:
        print(f"{args.path}: {args.table} has {expected}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
