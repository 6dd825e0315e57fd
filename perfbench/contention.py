"""Host-contention probe: times measured as if the host were quiet.

On a shared host, other tenants slow the benchmark by up to about two
times, in stretches from milliseconds to minutes.  A run that falls in
a busy stretch is slower throughout, so neither the fastest repeat of an
item nor a median over a run's passes can take that out.  The probe
measures the slowdown while it happens instead:

- every `INTERVAL_S` of real time a timer signal runs `reference`, a
  fixed piece of pure Python that resembles the package's hot loops (a
  down-set walk on a bitmask grid, and frozensets of (color, vertex)
  pairs kept in a dict), twice, and records when it started, how long
  it took, and how long the second run took.  The first run refills the caches the measured
  code evicted, so the probe's time follows the host's load and not the
  measured code's memory footprint;
- a probe's speed is `QUIET_PROBE_S` over its second run's time, 1 when the host is
  as quiet as it was when that constant was measured, lower when busy;
- an interval's *quiet time* is its own time (its wall time minus the
  probes that ran inside it) times the mean probe speed over the
  interval, widened by `WINDOW_S` on each side.  Probes come evenly
  spaced in real time, so the mean weights each stretch by its length.

The same slowdown hits the probe and the measured code, so quiet time
is steady from one run to the next whatever the load.  It is in
seconds on a host where `reference` takes `QUIET_PROBE_S`; a faster or
slower machine scales the probe and the code alike.  Comparing two
commits on one machine needs only the ratio.
"""

from __future__ import annotations

import signal
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.005
WINDOW_S = 0.02
# Time of a warm `reference` on a quiet 2-vCPU Intel Xeon (model 143)
# virtual machine with Python 3.11.7: the 2nd percentile of the probes
# in runs of each workload, which agree within 8%.
QUIET_PROBE_S = 38e-6

# A 4x4 grid poset: point 4r+c follows (r-1, c) and (r, c-1).
_GRID = [
    (1 << (4 * (r - 1) + c) if r else 0) | (1 << (4 * r + c - 1) if c else 0)
    for r in range(4)
    for c in range(4)
]


def reference() -> int:
    """Fixed work, about 40 microseconds on a quiet host."""
    preds, npoints = _GRID, len(_GRID)
    found = nodes = 0
    stack = [(0, 0, 0)]
    while stack and nodes < 120:
        i, chosen, count = stack.pop()
        nodes += 1
        if count == 6:
            found += 1
            continue
        if i == npoints:
            continue
        stack.append((i + 1, chosen, count))
        if preds[i] & ~chosen == 0:
            stack.append((i + 1, chosen | 1 << i, count + 1))
    seen = {}
    for i in range(24):
        pair = (1 + (i & 1), i >> 1)
        face = frozenset((pair, (2, i & 3), (1, i & 5)))
        seen[face] = len(face | {pair})
    return found + len(seen)


class Probe:
    """Runs `reference` on a timer while active; a context manager.

    Records each probe's start (`starts`) and, as running sums, its
    duration (both runs) and its speed, so that any interval's own time
    and mean speed are two bisections away.
    """

    def __init__(self) -> None:
        self.starts = array("d")
        self._spent = array("d", [0.0])  # _spent[k]: durations of probes < k
        self._speed = array("d", [0.0])  # _speed[k]: speeds of probes < k
        self._previous = None

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        first = perf_counter()
        reference()
        start = perf_counter()
        reference()
        took = perf_counter() - start
        self.starts.append(first)
        self._spent.append(self._spent[-1] + perf_counter() - first)
        self._speed.append(self._speed[-1] + QUIET_PROBE_S / took)

    def quiet(self, start: float, end: float) -> float:
        """Quiet time of the interval [start, end] of perf_counter().

        A probe runs whole between two bytecodes, so it lies entirely
        inside the interval or entirely outside it.
        """
        starts = self.starts
        own = end - start
        i, j = bisect_left(starts, start), bisect_left(starts, end)
        own -= self._spent[j] - self._spent[i]
        lo, hi = bisect_left(starts, start - WINDOW_S), bisect_right(starts, end + WINDOW_S)
        if hi == lo:
            return own  # no probe has run near the interval yet
        return own * (self._speed[hi] - self._speed[lo]) / (hi - lo)

    def quiet_all(self, stamps) -> array:
        """Quiet times of the intervals stamps[0:2], stamps[2:4], ..."""
        quiet = self.quiet
        return array("d", (quiet(stamps[k], stamps[k + 1]) for k in range(0, len(stamps), 2)))

    def median_speed(self) -> float:
        """Median probe speed so far (1 on a host as quiet as the
        reference), for the context line."""
        total = self._speed
        speeds = sorted(total[k + 1] - total[k] for k in range(len(total) - 1))
        return speeds[len(speeds) // 2] if speeds else 0.0
