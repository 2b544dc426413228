"""Host-speed calibration of the timed loop.

The benchmark runs on shared machines whose speed drifts: other tenants'
load makes the same pure-Python work up to 1.8x slower, in swings that last
from under a second to tens of seconds. On a 2-vCPU VM, one fixed request
repeated for 90 s spread 0.22-0.28 (interquartile range over median). A
fixed job, the reference, is therefore timed between requests. It is exact arithmetic in
pure Python like nilgeo's own (fraction-free elimination of a constant 9x9
integer matrix and a Fraction sum), takes about 1 ms, and never touches
nilgeo, so a change to nilgeo cannot change it.

A time measured from t0 to t1 is rescaled by REFERENCE_MS over the median
reference time taken within WINDOW_NS of that interval: timings are
reported in milliseconds of a host on which the reference takes exactly
REFERENCE_MS. Where the host is steady this is the measured time times a
constant; where it drifts, the drift divides out.
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter_ns

REFERENCE_MS = 1.0
# The host's speed changes within a second, so only reference samples taken
# right before and after a timed interval set its speed.
WINDOW_NS = 100_000_000
EVERY_NS = 50_000_000  # tick() samples the reference at most this often
PER_PROBE = 3  # reference runs per probe
WARMUP = 10

_MATRIX = tuple(
    tuple((7 * i * i + 3 * j * j + 5 * i * j + 11) % 19 - 9 for j in range(9)) for i in range(9)
)


def reference() -> int:
    """The fixed job: Bareiss rank of _MATRIX and the harmonic sum H_299."""
    rows = [list(r) for r in _MATRIX]
    n = len(rows)
    prev, rk = 1, 0
    for col in range(n):
        piv = next((i for i in range(rk, n) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        p = rows[rk][col]
        for i in range(rk + 1, n):
            fi, ri, rp = rows[i][col], rows[i], rows[rk]
            for j in range(col, n):
                ri[j] = (p * ri[j] - fi * rp[j]) // prev
        prev = p
        rk += 1
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(1, i)
    return rk


class HostClock:
    """Reference samples over time, and the speed factor they give an interval."""

    def __init__(self):
        for _ in range(WARMUP):
            reference()
        self.times: list[int] = []  # end of each reference run, perf_counter_ns
        self.ns: list[int] = []  # its duration
        self.probe()

    def probe(self, runs: int = PER_PROBE) -> None:
        for _ in range(runs):
            t0 = perf_counter_ns()
            reference()
            t1 = perf_counter_ns()
            self.times.append(t1)
            self.ns.append(t1 - t0)

    def tick(self) -> None:
        """Probe unless the last probe is more recent than EVERY_NS."""
        if perf_counter_ns() - self.times[-1] >= EVERY_NS:
            self.probe()

    def factor(self, t0: int, t1: int) -> float:
        """REFERENCE_MS over the median reference time near [t0, t1], in ms.

        tick() after every request keeps a sample within EVERY_NS of its end,
        so the window is never empty.
        """
        lo = bisect.bisect_left(self.times, t0 - WINDOW_NS)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_NS)
        return REFERENCE_MS * 1e6 / statistics.median(self.ns[lo:hi])

    def summary(self) -> dict:
        ms = [x / 1e6 for x in self.ns]
        deciles = statistics.quantiles(ms, n=10)
        return {
            "reference_ms": REFERENCE_MS,
            "samples": len(ms),
            "median_ms": statistics.median(ms),
            "p10_ms": deciles[0],
            "p90_ms": deciles[8],
        }
