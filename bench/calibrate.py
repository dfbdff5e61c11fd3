"""The reference the benchmark's times are scaled by.

On a shared host the speed of one core swings by a third or more, over
seconds and over minutes, as other tenants come and go; a fixed pure
Python loop shows it, and process CPU time swings with wall time, so the
swing is in the hardware, not in scheduling. A median over one 40 s
invocation smooths the fast part, but not the slow drift between
invocations, which moved run_s by more than a quarter between two sets
of the same code.

So every worker times a fixed reference kernel right before and right
after its timed call, and the runner reports each run's times at
reference speed:

    reported = measured * NOMINAL_S / mean of the two reference times

and then takes medians over the runs, as for raw times. The pairing
matters: the machine's speed changes within an invocation, and a run
is scaled by the speed measured around it.

NOMINAL_S is a constant, so reported times are comparable between
invocations and between versions of the program; the kernel does not
call the program, so a slower program still reports a larger time. The
raw wall medians are reported in the traced run as run.wall_s and
machine.reference_s.
"""

from __future__ import annotations

import copy
import time
from fractions import Fraction

# About the kernel's median time on the 2-core Linux VM the benchmark
# was written on. Only its constancy matters.
NOMINAL_S = 0.09


def _kernel() -> int:
    """Exact-fraction sums (pure Python calls, small objects, big
    integers) and deep copies of a dict shaped like a ledger's trust
    lines (object traversal and allocation). Of the kernels tried (dict
    and string work, integer lists, sha256, JSON encoding, slotted
    objects, fractions, deep copies, and mixes of them), this mix's time
    tracked the run times of all three workloads most closely. Each copy
    is dropped at once, so the kernel adds little to peak_rss_mib."""
    total = Fraction(0)
    for i in range(1, 5_500):
        total += Fraction(i % 97, i)
    state = {f"acct{i:04d}|peer{i * 7 % 1000:04d}|USD": [i, i * 3, 1000 - i,
                                                        False, True, i % 5]
             for i in range(2_500)}
    size = 0
    for _ in range(4):
        size += len(copy.deepcopy(state))
    return total.numerator % 7 + size


def reference_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
