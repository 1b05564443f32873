"""Host-speed reference for timings on a shared host.

On a shared VM the speed of the CPU drifts by 30% or more over minutes,
with no steal time and no CPU pressure visible inside the container.  The
benchmark therefore times a fixed pure-Python loop, which runs no
plumbcalc code, between jobs.  It scales a batch of jobs (one pass, the
set-up samples, the probes) by ``NOMINAL_NS`` over the median loop time
around that batch.  The result is the time the work would take on a host
where the loop takes exactly ``NOMINAL_NS``.  A slower program still reads
slower; a slower host does not.  The raw times are printed too.
"""

import statistics
from time import perf_counter_ns

NOMINAL_NS = 4_000_000
LOOPS = 30_000


def reference_ns() -> int:
    """Wall time of the reference loop (about 4 ms on the reference host)."""
    t0 = perf_counter_ns()
    x = 0
    seen = {}
    for i in range(LOOPS):
        x += i * i % 7
        seen[i & 255] = x
    return perf_counter_ns() - t0


def factor(refs_ns) -> float:
    """Factor turning times measured among these reference loops into
    nominal-host time; the median damps the noise of single loops."""
    return NOMINAL_NS / statistics.median(refs_ns)
