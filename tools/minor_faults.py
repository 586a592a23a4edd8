"""Time a preset sweep call by call and count the page faults each call takes.

Runs ``harness.run_sweep`` in this process on a preset merged with the
given overrides, CALLS times with master seeds 0, 1, ..., and prints one
line per call: its wall time in milliseconds and the minor page faults the
process took during it, read with ``resource.getrusage(RUSAGE_SELF)``
(this process only). A warm-up call runs first and is not printed. The
sweep runs serially, so the counts are this process's alone.

Usage: python tools/minor_faults.py PRESET [--set KEY=JSON ...] [--calls N]

Example, the fig5 A-ML point set at 5 dB:

    python tools/minor_faults.py fig5 --set 'values=["1x1","2x2"]' \\
        --set snr_db=5 --set trials=10 --calls 20
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from zpsync import harness, presets  # noqa: E402


def _override(text: str) -> tuple[str, object]:
    key, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=JSON, got {text!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value  # a bare string such as noise=gaussian


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure(spec: harness.ExperimentSpec, calls: int) -> list[tuple[float, int]]:
    """``(wall ms, minor faults)`` of each of ``calls`` sweep calls of
    ``spec``, master seeds 0, 1, ..., after one warm-up call."""
    harness.run_sweep(dataclasses.replace(spec, master_seed=calls))
    rows = []
    for seed in range(calls):
        run = dataclasses.replace(spec, master_seed=seed)
        faults, t0 = _minor_faults(), time.perf_counter()
        harness.run_sweep(run)
        rows.append(((time.perf_counter() - t0) * 1e3, _minor_faults() - faults))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Wall time and minor faults per sweep call.")
    parser.add_argument("preset", choices=presets.PRESET_NAMES)
    parser.add_argument("--set", dest="overrides", type=_override, action="append", default=[],
                        metavar="KEY=JSON", help="override one preset key (JSON value)")
    parser.add_argument("--calls", type=int, default=10, help="timed calls (default 10)")
    args = parser.parse_args(argv)
    settings = presets.merge_settings(presets.load_preset(args.preset), dict(args.overrides))
    rows = measure(presets.spec_from_settings(settings, master_seed=0), args.calls)
    print("call  wall_ms  minor_faults")
    for call, (ms, faults) in enumerate(rows):
        print(f"{call:4d}  {ms:7.1f}  {faults:12d}")
    print(f"median  {statistics.median(r[0] for r in rows):5.1f}  "
          f"{statistics.median(r[1] for r in rows):12.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
