"""Monte-Carlo experiment engine: lock-in sweeps, moment validation,
delay-profile-error sensitivity, and runtime scaling.

Every random draw is derived from (master_seed, trial_index, purpose), so
reports are bit-identical across reruns and worker scheduling. Within a
sweep, trial indices are shared across points: where the axis permits, the
same signal/channel/noise realizations are reused point to point (common
random numbers), which sharpens trend comparisons.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
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
    scale_mixture_to_snr,
    substream,
)
from .estimators import HypothesisSet, aml_estimate, ed_estimate, wed_estimate
from .likelihood import b_function, variance_profile_h0
from .waveform import ConfigError, SystemConfig, qam_constellation

SWEEP_AXES = ("snr_db", "n_blocks", "antennas", "p0", "pdp_alpha")
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
        if self.d_min > self.d_max:
            raise ConfigError("d_min must not exceed d_max")
        if any(e in ("wed", "ed") for e in self.estimators) and self.d_min < 0:
            raise ConfigError("wed/ed support only non-negative offsets: set d_min >= 0")
        if "wed" in self.estimators and (
            self.mixture.n_components > 1 or self.axis == "p0"
        ):
            raise ConfigError("wed requires single-component Gaussian noise")
        if self.axis == "p0" and self.mixture.n_components != 2:
            raise ConfigError("p0 sweep needs a two-component base mixture")
        if self.axis == "pdp_alpha" and any(not 0 <= a < 1 for a in self.values):
            raise ConfigError("pdp_alpha values must lie in [0, 1)")
        HypothesisSet(self.d_min, self.d_max).validate_against(self.config.block_len)


@dataclass(frozen=True)
class TrialOutcome:
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

    def interval(self, axis_value, estimator: str = "aml") -> tuple[float, float]:
        for row in self.rows:
            if row.axis_value == axis_value and row.estimator == estimator:
                return row.ci_lo, row.ci_hi
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
    # pdp_alpha perturbs only the profile assumed by the estimator, per trial
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


def _run_trials(spec: ExperimentSpec, value, trial_indices) -> list[TrialOutcome]:
    config, profile, mixture = _apply_axis(spec, value)
    scaled = _scale_for_point(spec, config, mixture)
    hyp = HypothesisSet(spec.d_min, spec.d_max)
    d_pad = max(0, -spec.d_min)
    vp_true = variance_profile_h0(config, profile)
    noise_var = float(scaled.variances[0]) if scaled.n_components == 1 else None

    outcomes = []
    for t in trial_indices:
        d_true = int(
            substream(spec.master_seed, t, STREAM_DELAY).integers(spec.d_min, spec.d_max + 1)
        )
        if spec.axis == "pdp_alpha" and value > 0:
            signs = (
                substream(spec.master_seed, t, STREAM_PDP_ERROR).integers(
                    0, 2, size=config.n_taps
                )
                * 2
                - 1
            )
            vp = variance_profile_h0(config, profile.perturbed(float(value), signs))
        else:
            vp = vp_true
        window = assemble_window(
            config, profile, scaled, d_true, seed=(spec.master_seed, t), d_pad=d_pad
        )
        d_hat: dict[str, int] = {}
        elapsed: dict[str, int] = {}
        for est in spec.estimators:
            t0 = time.perf_counter_ns()
            if est == "aml":
                result = aml_estimate(window, vp, scaled, hyp)
            elif est == "wed":
                result = wed_estimate(window, vp, noise_var, hyp)
            else:
                result = ed_estimate(window, hyp)
            elapsed[est] = time.perf_counter_ns() - t0
            d_hat[est] = result.d_hat
        outcomes.append(TrialOutcome(t, d_true, d_hat, elapsed))
    return outcomes


def _chunks(n: int, pieces: int) -> list[range]:
    pieces = max(1, min(pieces, n))
    bounds = np.linspace(0, n, pieces + 1).astype(int)
    return [range(bounds[i], bounds[i + 1]) for i in range(pieces) if bounds[i] < bounds[i + 1]]


def run_sweep(spec: ExperimentSpec, keep_outcomes: bool = False) -> SweepReport:
    """Run every sweep point and aggregate lock-in statistics.

    All selected estimators see the identical window in each trial, so a
    difference between their columns is purely an estimator effect.
    """
    rows: list[PointResult] = []
    all_outcomes: dict = {}
    for value in spec.values:
        if spec.workers > 1:
            parts = _chunks(spec.trials, spec.workers * 4)
            with ProcessPoolExecutor(max_workers=spec.workers) as pool:
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


def run_pdp_sensitivity(
    config: SystemConfig,
    profile: DelayProfile,
    mixture: NoiseMixture,
    alpha_list,
    trials: int,
    master_seed: int = 0,
    d_min: int = -30,
    d_max: int = 30,
    workers: int = 1,
) -> SweepReport:
    """Lock-in of the approximate ML estimator when the delay profile it is
    given has per-tap errors (1 + sign * alpha); the true channel is unchanged.

    Trial randomness is shared across alpha values, so curves differ only
    through the perturbation.
    """
    spec = ExperimentSpec(
        config=config,
        profile=profile,
        mixture=mixture,
        axis="pdp_alpha",
        values=tuple(float(a) for a in alpha_list),
        trials=trials,
        master_seed=master_seed,
        estimators=("aml",),
        d_min=d_min,
        d_max=d_max,
        workers=workers,
    )
    return run_sweep(spec)


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
    """Received in-phase samples at the requested block positions, one row per
    trial (fresh channel, data and noise per trial; no timing offset)."""
    n_x = config.n_data
    if config.gaussian_source:
        s = rng.standard_normal((batch, 2 * n_x)).view(np.complex128)
        s *= np.sqrt(config.signal_power / 2.0)
    else:
        points = qam_constellation(config.mod_order)
        symbols = points[rng.integers(0, config.mod_order, size=(batch, n_x))]
        s = np.fft.ifft(symbols, axis=1) * np.sqrt(n_x * config.signal_power)
    taps = rng.standard_normal((batch, config.n_taps, 2)) @ np.array([1.0, 1.0j])
    taps *= np.sqrt(profile.powers / 2.0)
    out = np.empty((batch, ks.size), dtype=np.complex128)
    for col, k in enumerate(ks):
        acc = np.zeros(batch, dtype=np.complex128)
        for u in range(config.n_taps):
            pos = k - u
            if 0 <= pos < n_x:
                acc += taps[:, u] * s[:, pos]
        out[:, col] = acc
    comp = np.searchsorted(np.cumsum(scaled.probs), rng.random((batch, ks.size)), side="right")
    comp = np.minimum(comp, scaled.n_components - 1)
    draw = rng.standard_normal((batch, ks.size, 2)) @ np.array([1.0, 1.0j])
    out += draw * np.sqrt(scaled.variances[comp] / 2.0)
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
    offset. Histogram bins follow the Freedman-Diaconis rule and are recorded
    so plots can be rebuilt from the data alone.
    """
    if trials < 1:
        raise ConfigError("trials must be >= 1")
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
    d_min: int = 0,
    d_max: int = 30,
    profile: DelayProfile | None = None,
    mixture: NoiseMixture | None = None,
) -> RuntimeScalingReport:
    """Wall time of one estimate as the window grows (block length scaled by
    each multiplier, hypothesis count fixed), with the least-squares slope of
    log(time) against log(window length).

    ``profile`` and ``mixture`` describe the link (the tap count does not
    scale); they default to a normalized exponential profile and Gaussian
    noise. The mixture is scaled to ``config.snr_db``."""
    multipliers = [int(s) for s in multipliers]
    if len(multipliers) < 3:
        raise ConfigError("need at least 3 sizes for a scaling fit")
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    hyp = HypothesisSet(d_min, d_max)
    if profile is None:
        profile = DelayProfile.exponential(1.0, 0.05, config.n_taps, normalized=True)
    if mixture is None:
        mixture = NoiseMixture.gaussian()
    scaled = scale_mixture_to_snr(mixture, config.signal_power, config.snr_db)
    rows = []
    for s in multipliers:
        cfg = dataclasses.replace(config, n_data=config.n_data * s, n_zero=config.n_zero * s)
        vp = variance_profile_h0(cfg, profile)
        aml_ns = []
        ed_ns = []
        warmup = 3
        for t in range(trials + warmup):
            window = assemble_window(
                cfg, profile, scaled, d_true=0, seed=(master_seed, s, t), d_pad=0
            )
            t0 = time.perf_counter_ns()
            aml_estimate(window, vp, scaled, hyp)
            t1 = time.perf_counter_ns()
            ed_estimate(window, hyp)
            t2 = time.perf_counter_ns()
            if t >= warmup:  # early calls warm caches and are discarded
                aml_ns.append(t1 - t0)
                ed_ns.append(t2 - t1)
        rows.append(
            RuntimeScalingRow(
                multiplier=s,
                window_len=cfg.window_len,
                aml_mean_ns=float(np.mean(aml_ns)),
                ed_mean_ns=float(np.mean(ed_ns)),
                aml_min_ns=float(np.min(aml_ns)),
                ed_min_ns=float(np.min(ed_ns)),
            )
        )
    x = np.log([r.window_len for r in rows])
    y = np.log([r.aml_min_ns for r in rows])
    slope = float(np.polyfit(x, y, 1)[0])
    return RuntimeScalingReport(rows=tuple(rows), loglog_slope=slope)


def sweep_to_csv(report: SweepReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["axis", "value", "estimator", "trials", "successes", "lock_in", "ci_lo", "ci_hi", "mean_ns"]
        )
        for row in report.rows:
            value = "x".join(str(v) for v in row.axis_value) if isinstance(
                row.axis_value, tuple
            ) else row.axis_value
            writer.writerow(
                [
                    report.spec.axis,
                    value,
                    row.estimator,
                    row.trials,
                    row.successes,
                    f"{row.lock_in:.6f}",
                    f"{row.ci_lo:.6f}",
                    f"{row.ci_hi:.6f}",
                    f"{row.mean_ns:.1f}",
                ]
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "n_samples", "mean", "variance", "skewness", "kurtosis", "analytic_mean", "analytic_variance"]
        )
        for r in report.rows:
            writer.writerow(
                [r.k, r.n_samples, r.mean, r.variance, r.skewness, r.kurtosis, r.analytic_mean, r.analytic_variance]
            )


def histogram_to_csv(report: MomentReport, k: int, path) -> None:
    hist = report.histograms[k]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count", "analytic_pdf"])
        for lo, hi, count, pdf in zip(
            hist["edges"][:-1], hist["edges"][1:], hist["counts"], hist["analytic_pdf"]
        ):
            writer.writerow([lo, hi, int(count), pdf])


def scaling_to_csv(report: RuntimeScalingReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["multiplier", "window_len", "aml_mean_ns", "ed_mean_ns", "aml_min_ns", "ed_min_ns"]
        )
        for r in report.rows:
            writer.writerow(
                [
                    r.multiplier,
                    r.window_len,
                    f"{r.aml_mean_ns:.1f}",
                    f"{r.ed_mean_ns:.1f}",
                    f"{r.aml_min_ns:.1f}",
                    f"{r.ed_min_ns:.1f}",
                ]
            )
