"""Time, in a fresh process, importing mpshmm and building one workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the elapsed seconds.  The clock starts before any import, so the
figure includes the numpy import that dominates it.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(repr(time.perf_counter() - START))
