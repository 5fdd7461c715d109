"""Three checks on whole searches, one subcommand each.

    PYTHONPATH=src:tests python tests/search_checks.py mtds ORDER COUNT
    PYTHONPATH=src:tests python tests/search_checks.py gc N_MAX
    PYTHONPATH=src:tests python tests/search_checks.py rss LIMIT_MB SEARCH_ARGS...

mtds enumerates the classes of order ORDER and compares td.mtds on each
with tests/oracles.brute_minimal_tds_monotone, a subset sweep; it exits 0
when they agree on every class and there are COUNT of them.

gc runs `search --n-max N_MAX` through cli.main in this process with the
cyclic collector disabled, so the report goes to stdout; no kernel call
may leave a reference cycle behind, so it exits 0 when the search does and
the collector then finds 0 unreachable objects.

rss runs `python -m totaldom search SEARCH_ARGS...` as a child process,
its report going to stdout, and exits 0 when the search does and the peak
RSS of the child and its own children (a --jobs pool's workers) is at most
LIMIT_MB.

Each prints what it measured to stderr (mtds: to stdout), and exits 1
otherwise.
"""

import argparse
import gc
import resource
import subprocess
import sys

import totaldom as td
from totaldom import cli
from oracles import brute_minimal_tds_monotone


def mtds_sweep(order: int) -> int:
    """How many classes of the order there are, after checking mtds on
    each against the subset sweep; raises AssertionError naming the first
    class where they differ."""
    count = 0
    for key, adj, _ in td.enumerate_graphs(td.SearchFilter(n_max=order, n_min=order)):
        g = td.Graph(order, adj)
        if list(td.mtds(g).edges) != brute_minimal_tds_monotone(g):
            raise AssertionError(f"mtds differs from the subset sweep on {key.hex()}")
        count += 1
    return count


def unreachable_after_search(n_max: int) -> tuple[int, int]:
    """The exit code of `search --n-max n_max` run through cli.main with the
    collector disabled, and the unreachable objects the collector then finds."""
    cli.build_parser()
    gc.collect()
    gc.disable()
    try:
        code = cli.main(["search", "--n-max", str(n_max)])
        return code, gc.collect()
    finally:
        gc.enable()


def peak_rss_of_search(args: list[str]) -> tuple[int, float]:
    """The exit code of `python -m totaldom search *args` in a child process,
    and the peak RSS in MB of the children this process has waited for, a
    worker pool's included (ru_maxrss is in KiB on Linux)."""
    code = subprocess.call([sys.executable, "-m", "totaldom", "search", *args])
    return code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    mtds = commands.add_parser("mtds")
    mtds.add_argument("order", type=int)
    mtds.add_argument("count", type=int)
    collector = commands.add_parser("gc")
    collector.add_argument("n_max", type=int)
    rss = commands.add_parser("rss")
    rss.add_argument("limit_mb", type=float)
    rss.add_argument("search_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.command == "mtds":
        try:
            count = mtds_sweep(args.order)
        except AssertionError as exc:
            print(exc)
            return 1
        print(f"order {args.order}: mtds equals the subset sweep on {count} classes")
        return int(count != args.count)
    if args.command == "gc":
        code, left = unreachable_after_search(args.n_max)
        print(f"unreachable objects after the search: {left}", file=sys.stderr)
        return int(code != 0 or left != 0)
    code, peak = peak_rss_of_search(args.search_args)
    print(
        f"peak RSS of search {' '.join(args.search_args)}: {peak:.1f} MB "
        f"(at most {args.limit_mb:g} MB)",
        file=sys.stderr,
    )
    return int(code != 0 or peak > args.limit_mb)


if __name__ == "__main__":
    sys.exit(main())
