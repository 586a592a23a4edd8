"""Run the benchmark on several seeds per workload and record the result.

Usage, from the root of a checkout:

    python3 bench/baseline.py --seeds 0-9 --seconds 25 --out bench/BENCH_1.json

For each workload: one untraced run per seed (end-to-end metrics with their
median, quartiles and quartile spread as a share of the median, plus the
decision digest of each seed), then one traced run on the first seed (the
per-layer split and the self-time shares by module and by span). The record
ends with the workload where each module's and span's self-time share is
largest.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH, ROOT, WORKLOADS

DIGEST = re.compile(r"digest (\w+) \(call 0\)")
MACHINE = re.compile(r"^machine: (.*)$", re.M)


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stdout}")
    return result, done.stdout


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def layer_homes(entries: dict) -> dict:
    """For each module and span, the workload where its self-time share is largest."""
    homes = {}
    for kind in ("modules", "spans"):
        shares = {w: e["self_time_share"][kind] for w, e in entries.items()}
        names = sorted({n for s in shares.values() for n in s})
        homes[kind] = {n: max(shares, key=lambda w: shares[w].get(n, 0.0)) for n in names}
    return homes


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seeds = seed_list(args.seeds)
    record = {"seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        digests = {}
        for seed in seeds:
            result, text = run(workload, seed, args.seconds, trace=0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            digests[seed] = DIGEST.search(text).group(1)
            record["machine"] = MACHINE.search(text).group(1)
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        traced, text = run(workload, seeds[0], args.seconds, trace=1)
        trace_file = json.loads((ROOT / re.search(r"spans written to (\S+)", text).group(1)).read_text())
        entry = {
            "end_to_end": {name: summary(v) for name, v in values.items()},
            "digests": digests,
            "traced_digest": DIGEST.search(text).group(1),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "self_time_share": trace_file["shares"],
        }
        record["workloads"][workload] = entry
        spreads = ", ".join(f"{k} {s['spread']:.3f}" for k, s in entry["end_to_end"].items())
        if entry["traced_digest"] != digests[seeds[0]]:
            raise SystemExit(f"{workload}: traced run digest differs from the untraced run of seed {seeds[0]}")
        print(f"{workload}: spread {spreads}", flush=True)
    record["layer_home"] = layer_homes(record["workloads"])
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
