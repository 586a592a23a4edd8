"""Command-line experiment runner.

Subcommands: ``simulate`` (lock-in sweeps), ``validate-pdf`` (moment
validation), ``sensitivity`` (the ``pdp_alpha`` sweep over delay-profile
errors) and ``profile`` (runtime scaling). ``sensitivity`` is ``simulate``
with 1000 trials by default, on the ``pdp_alpha`` axis only: ``--alphas``
gives its values, as ``--snr`` gives SNR points, or the config says
``axis = "pdp_alpha"`` with ``values``. Every run whose settings pass their
checks creates an output directory; a rejected run creates none. This
module writes every file in it, from the reports that
:mod:`zpsync.harness` returns:

- ``manifest.json``: command, seed, version and the Python and numpy
  versions, core count and platform, with ``status: running`` before any
  computation. On exit it is rewritten with the end time and elapsed
  seconds, as ``ok``, or as ``failed`` with the error and the exit code;
  an interrupt counts as failed;
- ``sweep.csv`` and ``spec.json`` (simulate, sensitivity): lock-in per point
  and estimator, and the full resolved experiment with its ``config_hash``,
  so a sweep is reproducible from its directory alone;
- ``moments.csv`` and one ``hist_k<k>.csv`` per block position
  (validate-pdf);
- ``scaling.csv`` (profile).

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import datetime
import json
import os
import platform
import secrets
import signal
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .channel import scale_mixture_to_snr
from .harness import (
    MomentRow,
    _to_json,
    check_moment_run,
    check_scaling_run,
    run_moment_validation,
    run_runtime_scaling,
    run_sweep,
    spec_hash,
)
from .presets import (
    ConfigFileError,
    config_from_settings,
    load_config_file,
    load_preset,
    merge_settings,
    mixture_from_settings,
    profile_from_settings,
    spec_from_settings,
)
from .waveform import ConfigError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _comma_list(text: str, convert, flag: str) -> list:
    """The items of a comma list, blank ones skipped."""
    try:
        return [convert(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"{flag} needs a comma list of numbers, got {text!r}") from None


def _delay_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise ConfigError(f"--delay-range must look like MIN:MAX, got {text!r}") from None


def _add_common(parser: argparse.ArgumentParser, trials_help: str) -> None:
    parser.add_argument("--config", help="flat key/value config file")
    parser.add_argument("--preset", help="named preset (fig2..fig7, table1)")
    parser.add_argument("--trials", type=int, help=trials_help)
    parser.add_argument("--seed", type=int, help="master seed (random if omitted)")
    parser.add_argument("--out", help="output directory (default runs/<command>)")


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workers", type=int, default=1, help="trial worker processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpsync", description="ZP-OFDM timing-offset estimation experiments"
    )
    parser.add_argument("--version", action="version", version=f"zpsync {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="lock-in probability sweep")
    _add_common(sim, "trials per sweep point")
    _add_workers(sim)
    sim.add_argument("--estimators", help="comma list from aml,wed,ed")
    sim.add_argument("--noise", choices=["gaussian", "impulsive"])
    sim.add_argument("--snr", help="comma list of SNR points in dB (axis snr_db)")
    sim.add_argument("--blocks", help="comma list of observation counts (axis n_blocks)")
    sim.add_argument("--antennas", help="comma list like 1x1,2x2 (axis antennas)")
    sim.add_argument("--delay-range", help="offset range MIN:MAX, e.g. --delay-range=-30:30")

    val = sub.add_parser("validate-pdf", help="moment validation of the sample model")
    _add_common(val, "independent block draws")
    val.add_argument("--k", help="comma list of block positions to validate")
    val.add_argument("--noise", choices=["gaussian", "impulsive"])

    sens = sub.add_parser("sensitivity", help="delay-profile error sensitivity")
    _add_common(sens, "trials per sweep point")
    _add_workers(sens)
    sens.add_argument("--alphas", help="comma list of per-tap error magnitudes in [0,1)")
    sens.add_argument("--noise", choices=["gaussian", "impulsive"])
    sens.add_argument("--delay-range", help="offset range MIN:MAX, e.g. --delay-range=-30:30")

    prof = sub.add_parser("profile", help="estimator runtime scaling")
    _add_common(prof, "timed A-ML and ED estimates per window size")
    prof.add_argument("--sizes", help="comma list of block-length multipliers")

    return parser


# each list flag: the setting it gives, its item type, and the sweep axis it
# selects (None for a list that is not a sweep axis)
_LIST_FLAGS = {
    "snr": ("values", float, "snr_db"),
    "blocks": ("values", int, "n_blocks"),
    "antennas": ("values", str, "antennas"),
    "estimators": ("estimators", str, None),
    "k": ("ks", int, None),
    "alphas": ("values", float, "pdp_alpha"),
    "sizes": ("sizes", int, None),
}

# the list setting each of these commands cannot run without, and its flag
_REQUIRED_LISTS = {
    "validate-pdf": ("ks", "--k"),
    "profile": ("sizes", "--sizes"),
}


def _resolve_settings(args: argparse.Namespace) -> dict:
    layers = []
    if args.preset:
        layers.append(load_preset(args.preset))
    if args.config:
        layers.append(load_config_file(args.config))
    overrides: dict = {}
    if args.trials is not None:
        overrides["trials"] = args.trials
    if getattr(args, "noise", None):
        overrides["noise"] = args.noise
    if getattr(args, "delay_range", None):
        overrides["d_min"], overrides["d_max"] = _delay_range(args.delay_range)
    given = [flag for flag in _LIST_FLAGS if getattr(args, flag, None)]
    axis_flags = [f"--{flag}" for flag in given if _LIST_FLAGS[flag][2]]
    if len(axis_flags) > 1:
        raise ConfigError(f"a run sweeps one axis: give one of {', '.join(axis_flags)}")
    for flag in given:
        key, item, axis = _LIST_FLAGS[flag]
        overrides[key] = _comma_list(getattr(args, flag), item, f"--{flag}")
        if axis:
            overrides["axis"] = axis
    settings = merge_settings(*layers, overrides)
    if args.command in _REQUIRED_LISTS:
        key, flag = _REQUIRED_LISTS[args.command]
        if not settings.get(key):
            raise ConfigFileError(f"{args.command} needs {flag} or '{key}' in the config")
    if args.command == "sensitivity":
        if settings.get("axis") != "pdp_alpha":
            raise ConfigFileError("sensitivity needs --alphas or axis = 'pdp_alpha' in the config")
        settings.setdefault("trials", 1000)
    return settings


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    """Indented, with sorted keys and numpy arrays written as lists."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_to_json)


def _value_label(value) -> str:
    """A sweep value as ``sweep.csv`` and the printed table show it: antenna
    pairs as '2x2'."""
    if isinstance(value, tuple):
        return "x".join(map(str, value))
    return str(value)


def _write_sweep(report, out_dir: Path) -> None:
    _write_csv(
        out_dir / "sweep.csv",
        ["axis", "value", "estimator", "trials", "successes", "lock_in", "ci_lo", "ci_hi", "mean_ns"],
        (
            [
                report.spec.axis,
                _value_label(row.axis_value),
                row.estimator,
                row.trials,
                row.successes,
                f"{row.lock_in:.6f}",
                f"{row.ci_lo:.6f}",
                f"{row.ci_hi:.6f}",
                f"{row.mean_ns:.1f}",
            ]
            for row in report.rows
        ),
    )
    sidecar = {
        "version": __version__,
        "master_seed": report.spec.master_seed,
        "config_hash": report.config_hash,
        "spec": dataclasses.asdict(report.spec),
    }
    _write_json(out_dir / "spec.json", sidecar)


def _write_moments(report, out_dir: Path) -> None:
    _write_csv(
        out_dir / "moments.csv",
        [f.name for f in dataclasses.fields(MomentRow)],
        map(dataclasses.astuple, report.rows),
    )
    for k, hist in report.histograms.items():
        edges = hist["edges"]
        _write_csv(
            out_dir / f"hist_k{k}.csv",
            ["bin_lo", "bin_hi", "count", "analytic_pdf"],
            zip(edges[:-1], edges[1:], map(int, hist["counts"]), hist["analytic_pdf"]),
        )


def _write_scaling(report, out_dir: Path) -> None:
    _write_csv(
        out_dir / "scaling.csv",
        ["multiplier", "window_len", "aml_mean_ns", "ed_mean_ns", "aml_min_ns", "ed_min_ns"],
        (
            [r.multiplier, r.window_len]
            + [f"{ns:.1f}" for ns in (r.aml_mean_ns, r.ed_mean_ns, r.aml_min_ns, r.ed_min_ns)]
            for r in report.rows
        ),
    )


def _exit_code(exc: BaseException) -> int:
    """The exit code of a run that ``exc`` ends: a configuration error exits
    2, an interrupt 130 (as a process that SIGINT ends), anything else 1."""
    if isinstance(exc, (ConfigError, ConfigFileError)):
        return EXIT_CONFIG
    return 128 + signal.SIGINT if isinstance(exc, KeyboardInterrupt) else EXIT_RUNTIME


@contextlib.contextmanager
def _run_dir(args: argparse.Namespace, seed: int):
    """Create the output directory and write its manifest as running, then
    rewrite the manifest with the run's status when the ``with`` block
    ends. Each command enters this once its settings have passed every
    check, so a rejected run leaves no directory behind."""
    out_dir = Path(args.out) if args.out else Path("runs") / args.command
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": args.command,
        "config": args.config,
        "preset": args.preset,
        "out_dir": str(out_dir),
        "master_seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cores": os.cpu_count(),
        "platform": platform.platform(),
        "status": "running",
    }
    _write_json(out_dir / "manifest.json", manifest)
    start = time.perf_counter()
    try:
        yield out_dir
        manifest.update(status="ok", exit_code=EXIT_OK)
    except BaseException as exc:
        error = traceback.format_exception_only(exc)[-1].strip()
        manifest.update(status="failed", error=error, exit_code=_exit_code(exc))
        raise
    finally:
        end = datetime.datetime.now(datetime.timezone.utc)
        manifest.update(end_time=end.isoformat(), elapsed_s=round(time.perf_counter() - start, 3))
        _write_json(out_dir / "manifest.json", manifest)


def _cmd_simulate(args: argparse.Namespace, settings: dict, seed: int) -> int:
    spec = spec_from_settings(settings, master_seed=seed, workers=args.workers)
    with _run_dir(args, seed) as out_dir:
        report = run_sweep(spec)
        _write_sweep(report, out_dir)
    print(f"config_hash={spec_hash(spec)} seed={seed}")
    print(f"{'value':>12} {'estimator':>9} {'lock_in':>8} {'ci_lo':>7} {'ci_hi':>7}")
    for row in report.rows:
        print(
            f"{_value_label(row.axis_value):>12} {row.estimator:>9} {row.lock_in:8.4f}"
            f" {row.ci_lo:7.4f} {row.ci_hi:7.4f}"
        )
    print(f"wrote {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _link(settings: dict) -> tuple:
    """The link of a ``validate-pdf`` or ``profile`` run, checked to have a
    finite positive noise power at its SNR."""
    config = config_from_settings(settings)
    mixture = mixture_from_settings(settings)
    scale_mixture_to_snr(mixture, config.signal_power, config.snr_db)
    return config, profile_from_settings(settings, config.n_taps), mixture


def _cmd_validate_pdf(args: argparse.Namespace, settings: dict, seed: int) -> int:
    config, profile, mixture = _link(settings)
    trials = settings.get("trials", 100000)
    check_moment_run(config, settings["ks"], trials, seed)
    with _run_dir(args, seed) as out_dir:
        report = run_moment_validation(
            config=config,
            profile=profile,
            mixture=mixture,
            snr_db=config.snr_db,
            sample_indices=settings["ks"],
            trials=trials,
            master_seed=seed,
        )
        _write_moments(report, out_dir)
    print(f"{'k':>5} {'variance':>10} {'analytic':>10} {'skewness':>9} {'kurtosis':>9}")
    for row in report.rows:
        print(
            f"{row.k:>5} {row.variance:10.4f} {row.analytic_variance:10.4f}"
            f" {row.skewness:9.4f} {row.kurtosis:9.4f}"
        )
    print(f"wrote {out_dir / 'moments.csv'}")
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace, settings: dict, seed: int) -> int:
    config, profile, mixture = _link(settings)
    trials = settings.get("trials", 10)
    check_scaling_run(config, settings["sizes"], trials, seed)
    with _run_dir(args, seed) as out_dir:
        report = run_runtime_scaling(
            config=config,
            multipliers=settings["sizes"],
            trials=trials,
            master_seed=seed,
            profile=profile,
            mixture=mixture,
        )
        _write_scaling(report, out_dir)
    for row in report.rows:
        print(
            f"window_len={row.window_len:<8} aml={row.aml_mean_ns / 1e6:8.3f} ms"
            f"  ed={row.ed_mean_ns / 1e6:8.3f} ms"
        )
    print(f"log-log slope = {report.loglog_slope:.3f}")
    print(f"wrote {out_dir / 'scaling.csv'}")
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "validate-pdf": _cmd_validate_pdf,
    "sensitivity": _cmd_simulate,
    "profile": _cmd_profile,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        settings = _resolve_settings(args)
        seed = args.seed if args.seed is not None else secrets.randbits(32)
        return _COMMANDS[args.command](args, settings, seed)
    except (ConfigError, ConfigFileError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
