"""Set-up cost of one workload in a fresh interpreter: import zpsync, resolve
the preset into a spec and build the variance profile. Prints seconds.

Usage: python3 bench/setup_probe.py WORKLOAD
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402  (imports numpy and zpsync)

workloads.WORKLOADS[sys.argv[1]].set_up()
print(time.perf_counter() - t0)
