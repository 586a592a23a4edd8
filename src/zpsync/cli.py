"""Command-line experiment runner.

Subcommands: ``simulate`` (lock-in sweeps), ``validate-pdf`` (moment
validation), ``sensitivity`` (delay-profile error sweeps) and ``profile``
(runtime scaling). Every run creates an output directory containing a
manifest (written before any computation), result CSVs and a JSON sidecar
with the full resolved experiment, so runs are reproducible from the output
directory alone.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import secrets
import sys
from pathlib import Path

from . import __version__
from .harness import (
    histogram_to_csv,
    moments_to_csv,
    run_moment_validation,
    run_pdp_sensitivity,
    run_runtime_scaling,
    run_sweep,
    scaling_to_csv,
    spec_hash,
    sweep_to_csv,
    sweep_to_json,
)
from .presets import (
    ConfigFileError,
    config_from_settings,
    load_config_file,
    load_preset,
    merge_settings,
    mixture_from_settings,
    parse_antennas,
    profile_from_settings,
    spec_from_settings,
)
from .waveform import ConfigError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _number_list(text: str, convert, flag: str) -> list:
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key/value config file")
    parser.add_argument("--preset", help="named preset (fig2..fig7, table1)")
    parser.add_argument("--trials", type=int, help="trials per sweep point")
    parser.add_argument("--seed", type=int, help="master seed (random if omitted)")
    parser.add_argument("--workers", type=int, default=1, help="trial worker processes")
    parser.add_argument("--out", help="output directory (default runs/<command>)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zpsync", description="ZP-OFDM timing-offset estimation experiments"
    )
    parser.add_argument("--version", action="version", version=f"zpsync {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="lock-in probability sweep")
    _add_common(sim)
    sim.add_argument("--estimators", help="comma list from aml,wed,ed")
    sim.add_argument("--noise", choices=["gaussian", "impulsive"])
    sim.add_argument("--snr", help="comma list of SNR points in dB (axis snr_db)")
    sim.add_argument("--blocks", help="comma list of observation counts (axis n_blocks)")
    sim.add_argument("--antennas", help="comma list like 1x1,2x2 (axis antennas)")
    sim.add_argument("--delay-range", help="offset range MIN:MAX, e.g. -30:30")

    val = sub.add_parser("validate-pdf", help="moment validation of the sample model")
    _add_common(val)
    val.add_argument("--k", help="comma list of block positions to validate")
    val.add_argument("--noise", choices=["gaussian", "impulsive"])

    sens = sub.add_parser("sensitivity", help="delay-profile error sensitivity")
    _add_common(sens)
    sens.add_argument("--alphas", help="comma list of per-tap error magnitudes in [0,1)")
    sens.add_argument("--noise", choices=["gaussian", "impulsive"])
    sens.add_argument("--delay-range", help="offset range MIN:MAX")

    prof = sub.add_parser("profile", help="estimator runtime scaling")
    _add_common(prof)
    prof.add_argument("--sizes", help="comma list of block-length multipliers")

    return parser


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
    if getattr(args, "estimators", None):
        overrides["estimators"] = args.estimators.split(",")
    if getattr(args, "snr", None):
        overrides["axis"] = "snr_db"
        overrides["values"] = _number_list(args.snr, float, "--snr")
    if getattr(args, "blocks", None):
        overrides["axis"] = "n_blocks"
        overrides["values"] = _number_list(args.blocks, int, "--blocks")
    if getattr(args, "antennas", None):
        overrides["axis"] = "antennas"
        overrides["values"] = [parse_antennas(t) for t in args.antennas.split(",")]
    if getattr(args, "delay_range", None):
        overrides["d_min"], overrides["d_max"] = _delay_range(args.delay_range)
    if getattr(args, "k", None):
        overrides["ks"] = _number_list(args.k, int, "--k")
    if getattr(args, "alphas", None):
        overrides["alphas"] = _number_list(args.alphas, float, "--alphas")
    if getattr(args, "sizes", None):
        overrides["sizes"] = _number_list(args.sizes, int, "--sizes")
    return merge_settings(*layers, overrides)


def _write_manifest(out_dir: Path, args: argparse.Namespace, seed: int) -> None:
    manifest = {
        "command": args.command,
        "config": args.config,
        "preset": args.preset,
        "out_dir": str(out_dir),
        "master_seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "version": __version__,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def _cmd_simulate(args: argparse.Namespace, settings: dict, seed: int, out_dir: Path) -> int:
    spec = spec_from_settings(settings, master_seed=seed, workers=args.workers)
    report = run_sweep(spec)
    sweep_to_csv(report, out_dir / "sweep.csv")
    sweep_to_json(report, out_dir / "spec.json")
    print(f"config_hash={spec_hash(spec)} seed={seed}")
    print(f"{'value':>12} {'estimator':>9} {'lock_in':>8} {'ci_lo':>7} {'ci_hi':>7}")
    for row in report.rows:
        value = "x".join(map(str, row.axis_value)) if isinstance(row.axis_value, tuple) else row.axis_value
        print(
            f"{value!s:>12} {row.estimator:>9} {row.lock_in:8.4f} {row.ci_lo:7.4f} {row.ci_hi:7.4f}"
        )
    print(f"wrote {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _cmd_validate_pdf(args: argparse.Namespace, settings: dict, seed: int, out_dir: Path) -> int:
    config = config_from_settings(settings)
    ks = settings.get("ks")
    if not ks:
        raise ConfigFileError("validate-pdf needs --k or 'ks' in the config")
    report = run_moment_validation(
        config=config,
        profile=profile_from_settings(settings, config.n_taps),
        mixture=mixture_from_settings(settings),
        snr_db=float(settings.get("snr_db", config.snr_db)),
        sample_indices=ks,
        trials=int(settings.get("trials", 100000)),
        master_seed=seed,
    )
    moments_to_csv(report, out_dir / "moments.csv")
    for k in report.histograms:
        histogram_to_csv(report, k, out_dir / f"hist_k{k}.csv")
    print(f"{'k':>5} {'variance':>10} {'analytic':>10} {'skewness':>9} {'kurtosis':>9}")
    for row in report.rows:
        print(
            f"{row.k:>5} {row.variance:10.4f} {row.analytic_variance:10.4f}"
            f" {row.skewness:9.4f} {row.kurtosis:9.4f}"
        )
    print(f"wrote {out_dir / 'moments.csv'}")
    return EXIT_OK


def _cmd_sensitivity(args: argparse.Namespace, settings: dict, seed: int, out_dir: Path) -> int:
    config = config_from_settings(settings)
    alphas = settings.get("alphas")
    if not alphas:
        raise ConfigFileError("sensitivity needs --alphas or 'alphas' in the config")
    report = run_pdp_sensitivity(
        config=config,
        profile=profile_from_settings(settings, config.n_taps),
        mixture=mixture_from_settings(settings),
        alpha_list=alphas,
        trials=int(settings.get("trials", 1000)),
        master_seed=seed,
        d_min=int(settings.get("d_min", -30)),
        d_max=int(settings.get("d_max", 30)),
        workers=args.workers,
    )
    sweep_to_csv(report, out_dir / "sweep.csv")
    sweep_to_json(report, out_dir / "spec.json")
    for row in report.rows:
        print(f"alpha={row.axis_value:<6} lock_in={row.lock_in:.4f} [{row.ci_lo:.4f}, {row.ci_hi:.4f}]")
    print(f"wrote {out_dir / 'sweep.csv'}")
    return EXIT_OK


def _cmd_profile(args: argparse.Namespace, settings: dict, seed: int, out_dir: Path) -> int:
    config = config_from_settings(settings)
    sizes = settings.get("sizes")
    if not sizes:
        raise ConfigFileError("profile needs --sizes or 'sizes' in the config")
    report = run_runtime_scaling(
        config=config,
        multipliers=sizes,
        trials=int(settings.get("trials", 10)),
        master_seed=seed,
        profile=profile_from_settings(settings, config.n_taps),
        mixture=mixture_from_settings(settings),
    )
    scaling_to_csv(report, out_dir / "scaling.csv")
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
    "sensitivity": _cmd_sensitivity,
    "profile": _cmd_profile,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve_settings(args)
        seed = args.seed if args.seed is not None else secrets.randbits(32)
        out_dir = Path(args.out) if args.out else Path("runs") / args.command
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_manifest(out_dir, args, seed)
        return _COMMANDS[args.command](args, settings, seed, out_dir)
    except (ConfigError, ConfigFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
