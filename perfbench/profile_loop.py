"""Closed-loop query client for the profile-mid workload.

One client calls ``totaldom.cli.main`` in this process, sending the next
query only after the previous one returned.  Queries come from the
``queries.json`` that run.py wrote into the work directory, in order,
starting over at the end.  A w2-check that accepts is followed by a
construct-w2 of the recipe it printed, as a user rebuilding the graph would.

The loop runs until --seconds have passed and at least --min-queries were
answered, or for exactly --count queries.  Each answer is appended to --out
as one JSON line (start time, wall and CPU seconds, exit code, captured
stdout and stderr); run.py checks them after this process exits, so
checking costs neither query time nor memory here.

    python3 perfbench/profile_loop.py --work DIR --out FILE
        (--seconds S --min-queries N | --count N) [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import time


def _call(cli, argv: list[str]) -> tuple[int, str, str, float, float, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 2
        t1, c1 = time.perf_counter(), time.process_time()
    return rc, out.getvalue(), err.getvalue(), t0, t1 - t0, c1 - c0


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-queries", type=int, default=0)
    parser.add_argument("--count", type=int, default=None)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    tracer = None
    if args.spans is not None:
        import tracer as tracing

        tracer = tracing.Tracer.install()
    from totaldom import cli

    out_path = os.path.abspath(args.out)
    spans_path = None if args.spans is None else os.path.abspath(args.spans)
    os.chdir(args.work)
    with open("queries.json", encoding="utf-8") as fh:
        queries = json.load(fh)

    done = 0
    slot = 0
    follow_up = None
    start = time.perf_counter()
    with open(out_path, "w", encoding="utf-8") as sink:
        while True:
            if args.count is not None:
                if done >= args.count:
                    break
            elif done >= args.min_queries and time.perf_counter() - start >= args.seconds:
                break
            if follow_up is not None:
                base, argv = follow_up
                follow_up = None
            else:
                base = slot % len(queries)
                argv = queries[base]["argv"]
                slot += 1
            rc, out, err, t0, wall, cpu = _call(cli, argv)
            sink.write(json.dumps({"slot": base, "argv": argv, "rc": rc, "t0": t0, "wall": wall,
                                   "cpu": cpu, "out": out, "err": err}) + "\n")
            done += 1
            if argv[0] == "w2-check" and rc == 0:
                recipe = f"recipe{base}.txt"
                with open(recipe, "w", encoding="utf-8") as fh:
                    fh.write(json.loads(out)["recipe"])
                follow_up = (base, ["construct-w2", recipe])
    if tracer is not None:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main()
