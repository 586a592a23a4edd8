"""Print every sweep preset's per-trial decisions, to prove two trees
decision-identical with one ``diff``.

Runs ``harness.run_sweep`` on each named preset (all sweep presets by
default) with the given master seed, trial count and worker count. Prints
one JSON line per sweep point: the preset, the sweep's ``config_hash``, the
axis value, the successes per estimator and the point's
``[trial_index, d_true, d_hat]`` list. A last line gives the SHA-256 digest
of all lines before it.

Usage: python tools/decisions.py [PRESET ...] [--seed N] [--trials N] [--workers N]

Example, two trees compared:

    python tools/decisions.py --trials 150 --seed 5 > a.txt   # in one tree
    python tools/decisions.py --trials 150 --seed 5 > b.txt   # in the other
    diff a.txt b.txt
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from zpsync import harness, presets  # noqa: E402

SWEEP_PRESETS = tuple(name for name in presets.PRESET_NAMES if name != "table1")


def decision_lines(preset: str, seed: int, trials: int, workers: int) -> list[str]:
    """One JSON line per sweep point of ``preset``."""
    settings = presets.merge_settings(presets.load_preset(preset), {"trials": trials})
    spec = presets.spec_from_settings(settings, master_seed=seed, workers=workers)
    report = harness.run_sweep(spec, keep_outcomes=True)
    lines = []
    for value, outcomes in report.outcomes.items():
        successes = {row.estimator: row.successes for row in report.rows if row.axis_value == value}
        decisions = [[o.trial_index, o.d_true, o.d_hat] for o in outcomes]
        line = {"preset": preset, "config_hash": report.config_hash, "value": value,
                "successes": successes, "decisions": decisions}
        lines.append(json.dumps(line, sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Per-trial decisions of the sweep presets.")
    parser.add_argument("presets", nargs="*", metavar="PRESET",
                        help=f"presets to run (default all: {', '.join(SWEEP_PRESETS)})")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--trials", type=int, default=150, help="trials per point (default 150)")
    parser.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.presets if name not in SWEEP_PRESETS]
    if unknown:
        parser.error(f"not sweep presets: {', '.join(unknown)}")
    digest = hashlib.sha256()
    for preset in args.presets or SWEEP_PRESETS:
        for line in decision_lines(preset, args.seed, args.trials, args.workers):
            print(line)
            digest.update(line.encode() + b"\n")
    print(f"digest {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
