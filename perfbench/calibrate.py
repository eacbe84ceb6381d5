"""Host-speed reference: time program work against a fixed kernel.

A shared host changes speed by up to 2x for seconds at a time (CPU
frequency, neighbours on the same cores), and a 30-second run can sit
wholly in a fast or a slow state.  That moves every timing of a run
together, so run medians spread across runs far more than the program's
own variation.

``Clock`` runs a small fixed kernel between requests: about every
``INTERVAL_S`` of program time and after each pass.  The kernel does the
same kind of work as graphlab (a divisor graph as dicts and lists,
breadth-first search, ``Fraction`` sums) but does not call graphlab, so a
change to the program never changes it.  A request that took ``t`` seconds
while the median of the ``WINDOW`` kernel calls nearest in time took ``c``
seconds is reported as ``t * (REFERENCE_S / c) ** ELASTICITY``: seconds at
the host speed at which one kernel call takes ``REFERENCE_S``.  The kernel's
own time is never part of a request's time.

The kernel gains and loses speed more than graphlab does: between the
host's fast and slow states it changes about 1.8x where a Gamma_9 request
changes about 1.6x.  ``ELASTICITY`` is the share of the kernel's change
(on a log scale) that the program sees.  It was fitted on a 2-core shared
x86-64 Linux VM (Python 3.11.7) by re-normalising five 25-second runs per
workload with exponents 0.6 to 1.0: the run-to-run spread of ``wall_s`` was
lowest near 0.7-0.8 on gamma-indices, 0.8-0.9 on divisor-indices and
0.9-1.0 on cli-mix; 0.85 keeps all three within about 5% of the median.
A change to the program passes through unscaled: only the host factor is
divided out.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

#: Median seconds of one kernel() call on the host the baseline was recorded
#: on (2-core shared x86-64 Linux VM, Python 3.11.7).  Normalised times are
#: seconds at that speed; the value only sets the scale.
REFERENCE_S = 0.008
#: How much of the kernel's change of speed the program shares (see above).
ELASTICITY = 0.85
#: Program seconds between kernel calls.
INTERVAL_S = 0.05
#: Kernel calls whose median gives the speed at one moment.
WINDOW = 5

_DIVISORS = [a * b * c for a in (1, 2, 4, 8, 16) for b in (1, 3, 9, 27) for c in (1, 5, 25, 125)]


def kernel() -> Fraction:
    """Fixed work, about 10 ms: adjacency of the divisor graph of
    2^4 3^3 5^3, breadth-first search from 20 vertices, a Fraction sum."""
    adjacent = {u: [v for v in _DIVISORS if v != u and (u % v == 0 or v % u == 0)]
                for u in _DIVISORS}
    total = Fraction(0)
    for source in _DIVISORS[:20]:
        dist = {source: 0}
        queue = [source]
        for u in queue:
            for v in adjacent[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        total += sum(Fraction(1, d) for d in dist.values() if d)
    return total


class Clock:
    """Kernel timings of one run and the speed scale they give."""

    def __init__(self):
        self.times: list[float] = []    # midpoint of each kernel call
        self.seconds: list[float] = []  # its duration
        self.last = float("-inf")

    def tick(self) -> None:
        start = time.perf_counter()
        kernel()
        self.last = time.perf_counter()
        self.times.append((start + self.last) / 2)
        self.seconds.append(self.last - start)

    def tick_if_due(self) -> None:
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.tick()

    def scale(self, moment: float) -> float:
        """(REFERENCE_S over the median kernel time of the WINDOW calls
        nearest `moment`) ** ELASTICITY; it needs at least one call."""
        at = bisect.bisect(self.times, moment)
        lo = max(0, min(at - WINDOW // 2, len(self.times) - WINDOW))
        return (REFERENCE_S / statistics.median(self.seconds[lo:lo + WINDOW])) ** ELASTICITY

    def normalise(self, start: float, seconds: float) -> float:
        """`seconds` of program time that began at `start`, at reference speed."""
        return seconds * self.scale(start + seconds / 2)
