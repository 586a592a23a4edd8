"""Monte-Carlo experiment engine: lock-in sweeps (delay-profile-error
sensitivity is the ``pdp_alpha`` axis), moment validation, and runtime
scaling.

Every random draw is derived from (master_seed, trial_index, purpose), so
reports are bit-identical across reruns and worker scheduling. Within a
sweep, trial indices are shared across points: where the axis permits, the
same signal/channel/noise realizations are reused point to point (common
random numbers), which sharpens trend comparisons.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .channel import (
    STREAM_DELAY,
    STREAM_PDP_ERROR,
    DelayProfile,
    NoiseMixture,
    assemble_window,
    draw_channel,
    draw_noise,
    scale_mixture_to_snr,
    substream,
    window_seeds,
)
from .estimators import (
    HypothesisSet,
    aml_estimate,
    aml_plan,
    check_finite,
    ed_estimate,
    ed_plan,
    energy_prefix,
    energy_scores,
    wed_plan,
)
from .likelihood import b_function, variance_profile_h0
from .waveform import ConfigError, SystemConfig, draw_block_data


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# what a value of each sweep axis must be: (check, description)
_AXIS_VALUES = {
    "snr_db": (lambda v: _is_real(v) and math.isfinite(v), "finite reals"),
    "n_blocks": (lambda v: _is_int(v) and v >= 1, "ints >= 1"),
    "antennas": (
        lambda v: isinstance(v, (tuple, list))
        and len(v) == 2
        and all(_is_int(n) and n >= 1 for n in v),
        "pairs of ints >= 1",
    ),
    "p0": (lambda v: _is_real(v) and 0 < v < 1, "reals in (0, 1)"),
    "pdp_alpha": (lambda v: _is_real(v) and 0 <= v < 1, "reals in [0, 1)"),
}
SWEEP_AXES = tuple(_AXIS_VALUES)
ESTIMATOR_IDS = ("aml", "wed", "ed")

Z_95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep: a base link configuration plus the axis being varied."""

    config: SystemConfig
    profile: DelayProfile
    mixture: NoiseMixture
    axis: str
    values: tuple
    trials: int
    master_seed: int = 0
    estimators: tuple[str, ...] = ("aml",)
    d_min: int = -30
    d_max: int = 30
    workers: int = 1

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; one of {SWEEP_AXES}")
        if len(self.values) == 0:
            raise ConfigError("sweep axis needs at least one value")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be non-negative")
        if not self.estimators or any(e not in ESTIMATOR_IDS for e in self.estimators):
            raise ConfigError(f"estimators must be drawn from {ESTIMATOR_IDS}")
        if any(e in ("wed", "ed") for e in self.estimators) and self.d_min < 0:
            raise ConfigError("wed/ed support only non-negative offsets: set d_min >= 0")
        if "wed" in self.estimators and (
            self.mixture.n_components > 1 or self.axis == "p0"
        ):
            raise ConfigError("wed requires single-component Gaussian noise")
        if self.axis == "p0" and self.mixture.n_components != 2:
            raise ConfigError("p0 sweep needs a two-component base mixture")
        check, wanted = _AXIS_VALUES[self.axis]
        for value in self.values:
            if not check(value):
                raise ConfigError(f"{self.axis} values must be {wanted}, got {value!r}")
        HypothesisSet(self.d_min, self.d_max).validate_against(self.config.block_len)


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's true and estimated offsets.

    ``elapsed_ns`` is shared by every trial of a group of ``_SEED_GROUP``
    trials: it holds the group's mean time per estimator, since WED and ED
    score the whole group at once. WED and ED split the energy prefix they
    share evenly. The mean over a point's trials is its total over its trial
    count, up to integer rounding.
    """

    trial_index: int
    d_true: int
    d_hat: dict[str, int]
    elapsed_ns: dict[str, int]


@dataclass(frozen=True)
class PointResult:
    axis_value: object
    estimator: str
    trials: int
    successes: int
    lock_in: float
    ci_lo: float
    ci_hi: float
    mean_ns: float

    @property
    def value_label(self) -> str:
        """The axis value as written to ``sweep.csv``: antenna pairs as '2x2'."""
        if isinstance(self.axis_value, tuple):
            return "x".join(map(str, self.axis_value))
        return str(self.axis_value)


@dataclass(frozen=True)
class SweepReport:
    spec: ExperimentSpec
    rows: tuple[PointResult, ...]
    outcomes: dict | None = None  # axis value -> list[TrialOutcome], if kept

    @property
    def config_hash(self) -> str:
        return spec_hash(self.spec)

    def lock_in(self, axis_value, estimator: str = "aml") -> float:
        for row in self.rows:
            if row.axis_value == axis_value and row.estimator == estimator:
                return row.lock_in
        raise KeyError((axis_value, estimator))


def spec_to_dict(spec: ExperimentSpec) -> dict:
    def clean(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.integer, np.floating)):
            return obj.item()
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return obj

    return clean(dataclasses.asdict(spec))


def spec_hash(spec: ExperimentSpec) -> str:
    """Hash of what determines the results: serial and parallel runs of one
    spec give identical reports, so ``workers`` is left out."""
    fields = spec_to_dict(spec)
    del fields["workers"]
    blob = json.dumps(fields, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _apply_axis(spec: ExperimentSpec, value):
    """Configuration actually used for one sweep point."""
    config, profile, mixture = spec.config, spec.profile, spec.mixture
    if spec.axis == "snr_db":
        config = dataclasses.replace(config, snr_db=float(value))
    elif spec.axis == "n_blocks":
        config = dataclasses.replace(config, n_blocks=int(value))
    elif spec.axis == "antennas":
        n_tx, n_rx = value
        config = dataclasses.replace(config, n_tx=int(n_tx), n_rx=int(n_rx))
    elif spec.axis == "p0":
        p0 = float(value)
        mixture = NoiseMixture(np.array([p0, 1.0 - p0]), mixture.variances)
    # pdp_alpha perturbs only the profile assumed by the estimator (each tap
    # by 1 +/- alpha, signs drawn per trial); the true channel is unchanged
    return config, profile, mixture


def _scale_for_point(spec: ExperimentSpec, config: SystemConfig, mixture: NoiseMixture) -> NoiseMixture:
    """SNR scaling for one sweep point.

    The impulsiveness sweep anchors the nominal component to the SNR instead
    of the mixture average, so changing p0 changes only how often impulses
    occur; average-power anchoring would make growing impulsiveness *lower*
    the nominal noise floor and invert the trend under study.
    """
    if spec.axis == "p0":
        target = config.signal_power * 10.0 ** (-config.snr_db / 10.0)
        return NoiseMixture(
            mixture.probs, mixture.variances * (target / float(mixture.variances[0]))
        )
    return scale_mixture_to_snr(mixture, config.signal_power, config.snr_db)


# trials whose window seeds are derived, and whose WED and ED scores are
# computed, in one pass: bounds that pass's arrays whatever the trial count
_SEED_GROUP = 64


def _run_trials(spec: ExperimentSpec, value, trial_indices) -> list[TrialOutcome]:
    """Outcomes of the given trials at one sweep point, ``_SEED_GROUP``
    trials at a time.

    Each estimator scores from a plan built once per point, or once per
    trial on the ``pdp_alpha`` axis, where the assumed profile changes per
    trial. A-ML scores each window as it is built. WED and ED keep only each
    window's energy prefix and score the whole group at its end.
    """
    config, profile, mixture = _apply_axis(spec, value)
    scaled = _scale_for_point(spec, config, mixture)
    hyp = HypothesisSet(spec.d_min, spec.d_max)
    d_pad = max(0, -spec.d_min)
    m = config.window_len
    build = {
        "aml": lambda vp: aml_plan(vp, scaled, hyp, m),
        "wed": lambda vp: wed_plan(vp, float(scaled.variances[0]), hyp, m),
        "ed": lambda vp: ed_plan(config, hyp, m),
    }

    def plans(vp):
        return {est: build[est](vp) for est in spec.estimators}

    point_plans = plans(variance_profile_h0(config, profile))
    energy = [est for est in spec.estimators if est != "aml"]
    prefix = np.empty((min(_SEED_GROUP, len(trial_indices)), m + 1))

    outcomes = []
    for start in range(0, len(trial_indices), _SEED_GROUP):
        group = trial_indices[start : start + _SEED_GROUP]
        seeds = window_seeds(config, d_pad, (spec.master_seed,), group)
        elapsed = dict.fromkeys(spec.estimators, 0)
        d_true, d_hat, group_plans = [], {est: [] for est in spec.estimators}, []
        for k, t in enumerate(group):
            delay = substream(spec.master_seed, t, STREAM_DELAY)
            d_true.append(int(delay.integers(spec.d_min, spec.d_max + 1)))
            trial_plans = point_plans
            if spec.axis == "pdp_alpha" and value > 0:
                rng = substream(spec.master_seed, t, STREAM_PDP_ERROR)
                signs = rng.integers(0, 2, size=config.n_taps) * 2 - 1
                vp = variance_profile_h0(config, profile.perturbed(float(value), signs))
                trial_plans = plans(vp)
            group_plans.append(trial_plans)
            samples = assemble_window(
                config, profile, scaled, d_true[-1], seed=(spec.master_seed, t), d_pad=d_pad,
                seeds=seeds[k],
            ).samples
            check_finite(samples)
            if "aml" in trial_plans:
                t0 = time.perf_counter_ns()
                plan = trial_plans["aml"]
                d_hat["aml"].append(plan.decide(plan.scores(samples)))
                elapsed["aml"] += time.perf_counter_ns() - t0
            if energy:
                t0 = time.perf_counter_ns()
                energy_prefix(samples, out=prefix[k])
                shared_ns = (time.perf_counter_ns() - t0) // len(energy)
                for est in energy:
                    elapsed[est] += shared_ns
        for est in energy:
            t0 = time.perf_counter_ns()
            est_plans = [p[est] for p in group_plans]
            d_hat[est] = est_plans[0].decide(energy_scores(est_plans, prefix[: len(group)]))
            elapsed[est] += time.perf_counter_ns() - t0
        # one mapping per group: each trial carries the group's mean times
        mean_ns = {est: round(ns / len(group)) for est, ns in elapsed.items()}
        outcomes += [
            TrialOutcome(t, d, {est: int(d_hat[est][k]) for est in spec.estimators}, mean_ns)
            for k, (t, d) in enumerate(zip(group, d_true))
        ]
    return outcomes


def _chunks(n: int, pieces: int) -> list[range]:
    pieces = max(1, min(pieces, n))
    bounds = np.linspace(0, n, pieces + 1).astype(int)
    return [range(bounds[i], bounds[i + 1]) for i in range(pieces) if bounds[i] < bounds[i + 1]]


def run_sweep(spec: ExperimentSpec, keep_outcomes: bool = False) -> SweepReport:
    """Run every sweep point and aggregate lock-in statistics.

    All selected estimators see the identical window in each trial, so a
    difference between their columns is purely an estimator effect. With
    ``workers > 1`` one process pool serves every point of the sweep.
    """
    rows: list[PointResult] = []
    all_outcomes: dict = {}
    pool_context = (
        ProcessPoolExecutor(max_workers=spec.workers)
        if spec.workers > 1
        else contextlib.nullcontext()
    )
    with pool_context as pool:
        for value in spec.values:
            if pool is not None:
                parts = _chunks(spec.trials, spec.workers * 4)
                futures = [pool.submit(_run_trials, spec, value, part) for part in parts]
                outcomes = [o for f in futures for o in f.result()]
            else:
                outcomes = _run_trials(spec, value, range(spec.trials))
            for est in spec.estimators:
                successes = sum(1 for o in outcomes if o.d_hat[est] == o.d_true)
                ci_lo, ci_hi = wilson_interval(successes, spec.trials)
                mean_ns = float(np.mean([o.elapsed_ns[est] for o in outcomes]))
                rows.append(
                    PointResult(
                        axis_value=value,
                        estimator=est,
                        trials=spec.trials,
                        successes=successes,
                        lock_in=successes / spec.trials,
                        ci_lo=ci_lo,
                        ci_hi=ci_hi,
                        mean_ns=mean_ns,
                    )
                )
            if keep_outcomes:
                all_outcomes[value] = outcomes
    return SweepReport(spec=spec, rows=tuple(rows), outcomes=all_outcomes if keep_outcomes else None)


@dataclass(frozen=True)
class MomentRow:
    k: int
    n_samples: int
    mean: float
    variance: float
    skewness: float
    kurtosis: float
    analytic_mean: float
    analytic_variance: float


@dataclass(frozen=True)
class MomentReport:
    rows: tuple[MomentRow, ...]
    histograms: dict  # k -> dict(edges, counts, centers, analytic_pdf)
    trials: int
    snr_db: float
    master_seed: int

    def row(self, k: int) -> MomentRow:
        for r in self.rows:
            if r.k == k:
                return r
        raise KeyError(k)


def _batch_received_samples(
    config: SystemConfig,
    profile: DelayProfile,
    scaled: NoiseMixture,
    ks: np.ndarray,
    batch: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Received samples at the requested block positions, one row per trial
    (fresh data, channel and noise per trial, drawn from ``rng`` in that order
    by the window generator's helpers; no timing offset)."""
    s = np.empty((batch, config.n_data), dtype=np.complex128)
    draw_block_data(dataclasses.replace(config, n_tx=1), [rng], s)
    taps = draw_channel(profile, 1, batch, rng).taps[:, 0]
    out = np.empty((batch, ks.size), dtype=np.complex128)
    for col, k in enumerate(ks):
        acc = np.zeros(batch, dtype=np.complex128)
        for u in range(config.n_taps):
            pos = k - u
            if 0 <= pos < config.n_data:
                acc += taps[:, u] * s[:, pos]
        out[:, col] = acc
    out += draw_noise(scaled, out.size, rng).reshape(out.shape)
    return out


def run_moment_validation(
    config: SystemConfig,
    profile: DelayProfile,
    mixture: NoiseMixture,
    snr_db: float,
    sample_indices,
    trials: int,
    master_seed: int = 0,
    batch: int = 20000,
) -> MomentReport:
    """Empirical moments and histograms of the received in-phase samples at
    selected block positions, against the analytic Gaussian-mixture model.

    Uses the true QAM + inverse-DFT waveform (or the Gaussian oracle source
    if the config requests it), one independent block per trial at zero
    offset, drawn with the window generator's own helpers
    (``draw_block_data``, ``draw_channel``, ``draw_noise``) from one
    generator, ``batch`` trials at a time. Each trial models one transmit
    antenna at full ``signal_power`` whatever ``config.n_tx`` is (the
    analytic variance profile is the same for any n_tx). Histogram bins
    follow the Freedman-Diaconis rule and are recorded so plots can be
    rebuilt from the data alone.
    """
    if trials < 2:
        raise ConfigError("moment validation needs at least 2 trials: one sample has no spread")
    if batch < 1:
        raise ConfigError("batch must be >= 1")
    ks = np.asarray(list(sample_indices), dtype=int)
    if ks.size == 0:
        raise ConfigError("need at least one sample index")
    if np.any(ks < 0) or np.any(ks >= config.block_len):
        raise ConfigError(f"sample indices must lie in [0, {config.block_len - 1}]")
    scaled = scale_mixture_to_snr(mixture, config.signal_power, snr_db)
    vp = variance_profile_h0(config, profile)

    rng = substream(master_seed, 0, 0)
    collected = np.empty((trials, ks.size))
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        collected[done : done + b] = _batch_received_samples(
            config, profile, scaled, ks, b, rng
        ).real
        done += b

    rows = []
    histograms = {}
    for col, k in enumerate(ks):
        y = collected[:, col]
        mu = float(np.mean(y))
        centered = y - mu
        m2 = float(np.mean(centered**2))
        m3 = float(np.mean(centered**3))
        m4 = float(np.mean(centered**4))
        if m2 == 0.0:
            raise ConfigError(
                f"received samples at k={int(k)} have zero variance: "
                "skewness and kurtosis are undefined"
            )
        analytic_var = float(
            np.dot(scaled.probs, vp.body[k] + scaled.variances / 2.0)
        )
        rows.append(
            MomentRow(
                k=int(k),
                n_samples=trials,
                mean=mu,
                variance=m2,
                skewness=m3 / m2,
                kurtosis=m4 / (m2 * m2),
                analytic_mean=0.0,
                analytic_variance=analytic_var,
            )
        )
        counts, edges = np.histogram(y, bins="fd")
        centers = 0.5 * (edges[:-1] + edges[1:])
        histograms[int(k)] = {
            "edges": edges,
            "counts": counts,
            "centers": centers,
            "analytic_pdf": b_function(centers, float(vp.body[k]), scaled),
        }
    return MomentReport(
        rows=tuple(rows),
        histograms=histograms,
        trials=trials,
        snr_db=float(snr_db),
        master_seed=master_seed,
    )


@dataclass(frozen=True)
class RuntimeScalingRow:
    multiplier: int
    window_len: int
    aml_mean_ns: float
    ed_mean_ns: float
    aml_min_ns: float
    ed_min_ns: float


@dataclass(frozen=True)
class RuntimeScalingReport:
    rows: tuple[RuntimeScalingRow, ...]
    loglog_slope: float  # fitted on per-size minima: scheduler noise only adds time


def run_runtime_scaling(
    config: SystemConfig,
    multipliers,
    trials: int = 10,
    master_seed: int = 0,
    profile: DelayProfile | None = None,
    mixture: NoiseMixture | None = None,
) -> RuntimeScalingReport:
    """Wall time of one estimate as the window grows (block length scaled by
    each multiplier, offsets fixed at [0, 30]), with the least-squares slope of
    log(time) against log(window length).

    ``profile`` and ``mixture`` describe the link (the tap count does not
    scale); they default to a normalized exponential profile and Gaussian
    noise. The mixture is scaled to ``config.snr_db``. The sizes take turns
    within each trial; each size keeps its own window seeds."""
    multipliers = [int(s) for s in multipliers]
    if len(set(multipliers)) < 3 or min(multipliers) < 1:
        raise ConfigError(f"need at least 3 distinct sizes >= 1 for a scaling fit: {multipliers}")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    hyp = HypothesisSet(0, 30)
    if profile is None:
        profile = DelayProfile.exponential(1.0, 0.05, config.n_taps, normalized=True)
    if mixture is None:
        mixture = NoiseMixture.gaussian()
    scaled = scale_mixture_to_snr(mixture, config.signal_power, config.snr_db)
    configs = [
        dataclasses.replace(config, n_data=config.n_data * s, n_zero=config.n_zero * s)
        for s in multipliers
    ]
    profiles = [variance_profile_h0(cfg, profile) for cfg in configs]
    aml_ns = [[] for _ in multipliers]
    ed_ns = [[] for _ in multipliers]
    warmup = 3
    # every trial times each size in turn, so a burst of host load or a
    # warm-up effect falls on all sizes alike instead of on one size's run
    for t in range(trials + warmup):
        for i, (s, cfg, vp) in enumerate(zip(multipliers, configs, profiles)):
            window = assemble_window(
                cfg, profile, scaled, d_true=0, seed=(master_seed, s, t), d_pad=0
            )
            t0 = time.perf_counter_ns()
            aml_estimate(window, vp, scaled, hyp)
            t1 = time.perf_counter_ns()
            ed_estimate(window, hyp)
            t2 = time.perf_counter_ns()
            if t >= warmup:  # early calls warm caches and are discarded
                aml_ns[i].append(t1 - t0)
                ed_ns[i].append(t2 - t1)
    rows = [
        RuntimeScalingRow(
            multiplier=s,
            window_len=cfg.window_len,
            aml_mean_ns=float(np.mean(aml)),
            ed_mean_ns=float(np.mean(ed)),
            aml_min_ns=float(np.min(aml)),
            ed_min_ns=float(np.min(ed)),
        )
        for s, cfg, aml, ed in zip(multipliers, configs, aml_ns, ed_ns)
    ]
    x = np.log([r.window_len for r in rows])
    y = np.log([r.aml_min_ns for r in rows])
    slope = float(np.polyfit(x, y, 1)[0])
    return RuntimeScalingReport(rows=tuple(rows), loglog_slope=slope)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def sweep_to_csv(report: SweepReport, path) -> None:
    _write_csv(
        path,
        ["axis", "value", "estimator", "trials", "successes", "lock_in", "ci_lo", "ci_hi", "mean_ns"],
        (
            [
                report.spec.axis,
                row.value_label,
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


def sweep_to_json(report: SweepReport, path) -> None:
    payload = {
        "version": __version__,
        "master_seed": report.spec.master_seed,
        "config_hash": report.config_hash,
        "spec": spec_to_dict(report.spec),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def moments_to_csv(report: MomentReport, path) -> None:
    _write_csv(
        path, [f.name for f in dataclasses.fields(MomentRow)], map(dataclasses.astuple, report.rows)
    )


def histogram_to_csv(report: MomentReport, k: int, path) -> None:
    hist = report.histograms[k]
    _write_csv(
        path,
        ["bin_lo", "bin_hi", "count", "analytic_pdf"],
        zip(hist["edges"][:-1], hist["edges"][1:], map(int, hist["counts"]), hist["analytic_pdf"]),
    )


def scaling_to_csv(report: RuntimeScalingReport, path) -> None:
    _write_csv(
        path,
        ["multiplier", "window_len", "aml_mean_ns", "ed_mean_ns", "aml_min_ns", "ed_min_ns"],
        (
            [r.multiplier, r.window_len]
            + [f"{ns:.1f}" for ns in (r.aml_mean_ns, r.ed_mean_ns, r.aml_min_ns, r.ed_min_ns)]
            for r in report.rows
        ),
    )
