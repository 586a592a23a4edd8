"""Sweep-throughput benchmark of zpsync.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run uses fresh processes with BLAS and OpenMP pinned to one thread: a
few set-up probes, then one process for the workload, which discards a
warm-up call and times short serial harness calls for S seconds.
trials_per_s is the rate of the fastest call (on a shared machine,
contention only adds time) and setup_s the median of the probes. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it also runs
every call traced and prints the per-layer metrics instead, writing the
spans to bench/out/.
The last stdout line is one JSON object (correct, attempted, failed,
metrics). The exit code is non-zero when any trial failed or an output
disagreed with its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("aml_impulsive", "full_range", "energy_detectors", "moments")
SETUP_PROBES = 10  # half before the workload process, half after it
CHILD_TIMEOUT_S = 150
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def python(script: str, *args, timeout: float) -> str:
    env = dict(os.environ, **{var: "1" for var in PINNED})
    done = subprocess.run(
        [sys.executable, str(BENCH / script), *map(str, args)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{script} printed nothing")
    return lines[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "zpsync" / "__init__.py").is_file():
        print(f"bench: no zpsync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setup = [float(python("setup_probe.py", args.workload, timeout=30)) for _ in range(probes)]
        run = json.loads(
            python("child.py", args.workload, args.seed, args.seconds, args.trace, BENCH / "out",
                   timeout=CHILD_TIMEOUT_S)
        )
        setup += [float(python("setup_probe.py", args.workload, timeout=30)) for _ in range(probes)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1

    facts = " ".join(f"{k}={v}" for k, v in run["machine"].items())
    print(f"machine: {facts}")
    print(
        f"workload {args.workload} seed {args.seed}: {run['attempted']} trials in {run['calls']} calls "
        f"of {run['call_trials']}, digest {run['digest']} (call 0)"
    )
    print(f"median call {run['trials_per_s_median']:.6g} 1/s, fastest call {run['trials_per_s']:.6g} 1/s")
    for problem in run["problems"]:
        print(f"FAILED: {problem}")
    failed_frac = run["failed"] / max(1, run["attempted"])
    if args.trace:
        metrics = run["per_layer"]
        shares = run["shares"]
        print("self-time share by module: " + ", ".join(f"{k} {v:.1%}" for k, v in shares["modules"].items()))
        print("largest self times: " + ", ".join(f"{k} {v:.1%}" for k, v in list(shares["spans"].items())[:4]))
        print(f"spans written to {Path(run['trace_file']).relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "trials_per_s": {"value": run["trials_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac {failed_frac:.6g} frac")
    correct = run["failed"] == 0 and not run["problems"]
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
