"""Host-speed reference for the benchmark's times.

The benchmark runs on shared machines whose speed for one process can
change by a factor of two within a minute (another tenant's load on the
same cores).  Such a change slows the library's calls and a short fixed
pure-Python kernel by about the same factor, so each timed call is
bracketed by runs of the kernel, and the call's time is rescaled to the
speed at which one kernel run takes ``NOMINAL_S``.  A change to the
library leaves the kernel's time alone and so moves the rescaled times as
it moves the raw ones; the raw times go into each run's record beside
them.
"""

import math
import time

NOMINAL_S = 0.4e-3
_ITERATIONS = 2000
_REPEATS = 3


def _kernel():
    acc = 0.0
    table = {}
    for i in range(_ITERATIONS):
        x = (i * 2654435761) % 1000003
        acc += math.sqrt(x) * 1e-3
        table[i & 63] = acc
    return acc


def sample():
    """Seconds for one kernel run: the fastest of a few, so that an
    interrupt during one run does not count as a slow host."""
    best = math.inf
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def rescale(seconds, ref_before, ref_after):
    """``seconds`` measured between two reference samples, at nominal speed.
    Bracketing each call follows changes of host speed within a pass; a
    pass-wide median of the samples was measured to track them worse."""
    return seconds * NOMINAL_S / (0.5 * (ref_before + ref_after))
