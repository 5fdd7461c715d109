"""Freeze the profile-mid stdout digests of seeds 0..255 into digests.json.

Run from the root of a checkout whose answers are known to be right (every
output check passes; the script stops at the first that does not):

    python3 perfbench/freeze_digests.py

A change that alters CLI output on purpose refreezes them, and says so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import speed

FROZEN_SEEDS = 256


def main() -> int:
    ctx = run.Context(os.getcwd(), speed.SpeedProbe())
    seeds = {}
    try:
        for seed in range(FROZEN_SEEDS):
            work = run.write_corpus(ctx, seed, 2 * run.DIGEST_QUERIES)
            records, _ = run.profile_pass(ctx, "freeze", ["--count", str(run.DIGEST_QUERIES)], None)
            problems = run.check_records(work, records)
            if problems:
                print(f"seed {seed}: {problems[0]}", file=sys.stderr)
                return 1
            seeds[str(seed)] = run.stdout_digest(records)
    finally:
        ctx.probe.stop()
        shutil.rmtree(ctx.work, ignore_errors=True)
    with open(os.path.join(run.HERE, "digests.json"), "w", encoding="utf-8") as fh:
        json.dump({"queries": run.DIGEST_QUERIES, "seeds": seeds}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
