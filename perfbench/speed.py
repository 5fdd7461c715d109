"""Machine-speed probe: scales measured times to the machine's nominal speed.

On a shared machine other tenants slow a CPU by up to half, for stretches
of seconds to minutes, and a whole benchmark run can fall inside one.  The
probe runs a fixed pure-Python block every PERIOD_S on the CPU the benchmark
is pinned to, while the measured process runs there too.  The block is
benchmark code, independent of totaldom, written in the program's style
(bitmask loops, small tuples, a dict, a sort), so it slows with the program
when the CPU slows and not when the program changes.  A time measured over
an interval is multiplied by the mean speed the probe saw during it,
NOMINAL_BLOCK_S / block time, raised to SLOWDOWN_EXPONENT, so it reads as
seconds at nominal speed.

The exponent is there because a contended CPU slows the program more than
the block, most likely because the block's small working set stays in the
core's caches and the program's does not.  Fitting log raw time against
log probe speed over repeated runs on the baseline machine gave 1.1 to 1.3
for the searches and 1.2 to 1.4 for profile-mid (perfbench/README.md has
the spreads with and without it).

NOMINAL_BLOCK_S is a fixed constant, about the block's time on the 2-vCPU
machine the baseline was measured on when its CPU was lightly contended;
changing it rescales every time metric.
"""

from __future__ import annotations

import bisect
import random
import statistics
import threading
import time

import corpus

NOMINAL_BLOCK_S = 2.0e-4
PERIOD_S = 0.05
SLOWDOWN_EXPONENT = 1.2
MIN_WINDOW_S = 2.0  # single samples are noisy; a 2 s window holds about 40

_rng = random.Random(5)
_GRAPH = corpus.random_connected_graph(_rng, 16, 4.0)
_MASKS = [_rng.getrandbits(16) | 0x0F0F for _ in range(40)]


def block() -> None:
    seen = {}
    for mask in _MASKS:
        seen[(mask, mask.bit_count())] = corpus.is_minimal_tds(_GRAPH.adj, mask)
    sorted(seen.items())


class SpeedProbe:
    """Samples the block's time on a thread until ``stop``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, speed), ascending
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.wait(PERIOD_S):
            t0 = clock()
            block()
            t1 = clock()
            self.samples.append(((t0 + t1) / 2, NOMINAL_BLOCK_S / (t1 - t0)))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed over [t0, t1], widened to at least MIN_WINDOW_S of
        samples, raised to SLOWDOWN_EXPONENT: the factor that scales a time
        to nominal.

        The plain mean tracks the program best: on a 20 s search it cut the
        run-to-run spread to a third, where trimmed means and the median,
        which drop the slow samples, kept more of it.
        """
        pad = max(0.0, MIN_WINDOW_S - (t1 - t0)) / 2
        lo = bisect.bisect_left(self.samples, t0 - pad, key=_midpoint)
        hi = bisect.bisect_right(self.samples, t1 + pad, key=_midpoint)
        if lo == hi:
            raise RuntimeError("the speed probe took no samples during a measurement")
        return statistics.fmean(speed for _, speed in self.samples[lo:hi]) ** SLOWDOWN_EXPONENT

    def summary(self) -> dict:
        speeds = [speed for _, speed in self.samples]
        return {"samples": len(speeds), "median_speed": statistics.median(speeds) if speeds else None,
                "nominal_block_s": NOMINAL_BLOCK_S, "period_s": PERIOD_S,
                "slowdown_exponent": SLOWDOWN_EXPONENT, "min_window_s": MIN_WINDOW_S}


def _midpoint(sample: tuple[float, float]) -> float:
    return sample[0]
