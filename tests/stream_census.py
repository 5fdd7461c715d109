"""The enumeration stream's digest at one order, and a catalog's W2 census.

    PYTHONPATH=src:tests python tests/stream_census.py stream ORDER COUNT SHA256
    PYTHONPATH=src:tests python tests/stream_census.py census PATH ORDER

stream enumerates the classes of order ORDER alone, without classifying
them, and exits 0 when there are COUNT of them, their keys strictly ascend
and stream_digest is SHA256; it also prints the digest of the stream
without its planar facts.  census exits 0 when the order-ORDER graphs of
the four-step W2 recipe (tests/oracles.w2_recipe_graphs, built from its
steps alone) are exactly the order-ORDER classes of the catalog at PATH that
are WTD with gamma_t 2 and packing number 2.  Each prints its counts, and
exits 1 otherwise.
"""

import argparse
import hashlib
import json
import sys

import totaldom as td
from oracles import w2_recipe_graphs


def stream_digest(filt: td.SearchFilter) -> tuple[int, str, str]:
    """The number of classes enumerate_graphs(filt) yields, the sha256 of
    repr((key, adjacency, planar)) over them, which also pins which
    labelled child each key keeps, and the sha256 of repr((key, adjacency))
    alone, which a change that decides more planar facts during the
    enumeration must keep.  Raises AssertionError unless the keys strictly
    ascend: run_search sorts its violation lists and picks its frontier on
    that order."""
    h = hashlib.sha256()
    keyed = hashlib.sha256()
    count = 0
    last = b""
    for item in td.enumerate_graphs(filt):
        assert item[0] > last, f"key {item[0].hex()} does not ascend"
        last = item[0]
        h.update(repr(item).encode())
        keyed.update(repr(item[:2]).encode())
        count += 1
    return count, h.hexdigest(), keyed.hexdigest()


def w2_census(path: str, order: int) -> tuple[set[str], set[str]]:
    """The canonical keys, in hex, of the order-`order` recipe graphs, and
    of the catalog's order-`order` lines with is_wtd, gamma_t 2 and rho 2,
    read as JSON."""
    built = {td.canonical_form(g).hex() for g in w2_recipe_graphs(order) if g.n == order}
    catalog = set()
    with open(path) as f:
        for line in f:
            r = json.loads(line)
            if r["n"] == order and r["is_wtd"] and r["gamma_t"] == 2 and r["rho"] == 2:
                catalog.add(r["canonical_key"])
    return built, catalog


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    stream = commands.add_parser("stream")
    stream.add_argument("order", type=int)
    stream.add_argument("count", type=int)
    stream.add_argument("sha256")
    census = commands.add_parser("census")
    census.add_argument("path")
    census.add_argument("order", type=int)
    args = parser.parse_args(argv)
    if args.command == "stream":
        count, digest, keyed = stream_digest(td.SearchFilter(n_max=args.order, n_min=args.order))
        print(f"order {args.order}: {count} classes, stream sha256 {digest}, "
              f"(key, adjacency) sha256 {keyed}")
        return int((count, digest) != (args.count, args.sha256))
    built, catalog = w2_census(args.path, args.order)
    print(f"order {args.order}: {len(built)} recipe classes, {len(catalog)} catalog classes")
    return int(built != catalog)


if __name__ == "__main__":
    sys.exit(main())
