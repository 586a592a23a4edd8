"""Monte-Carlo experiment engine: lock-in sweeps (delay-profile-error
sensitivity is the ``pdp_alpha`` axis), moment validation, and runtime
scaling. Each run returns a report and writes no file: :mod:`zpsync.cli`
writes the run directory.

Every random draw is derived from (master_seed, trial_index, purpose), so
reports are bit-identical across reruns and worker scheduling. Within a
sweep, trial indices are shared across points, so the same
signal/channel/noise realizations are reused point to point (common random
numbers), which sharpens trend comparisons. On every axis they also share
the computation: a trial is drawn once per sweep, for its largest link, and
each point's window is finished from those draws, since a link with fewer
antennas or blocks reads a prefix of them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import numbers
import os
import time
from concurrent import futures
from dataclasses import dataclass

import numpy as np

from .channel import (
    STREAM_DELAY,
    STREAM_PDP_ERROR,
    DelayProfile,
    NoiseMixture,
    assemble_window,
    draw_channel,
    draw_noise,
    draw_stream,
    finish_stream,
    noise_power,
    scale_mixture_to_snr,
    stream_signal,
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
    energy_terms,
    energy_scores,
    wed_plan,
)
from .likelihood import b_function, scratch, variance_profile_h0
from .waveform import (
    ConfigError, SystemConfig, _check_ints, _is_int, block_scale, draw_unscaled_blocks
)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_run(trials: int, master_seed: int) -> None:
    """Check the trial count and master seed that every run takes (a sweep,
    a moment validation, a runtime scaling): both ints, the seed
    non-negative; raises :class:`ConfigError`."""
    for name, value in (("trials", trials), ("master_seed", master_seed)):
        if not _is_int(value):
            raise ConfigError(f"{name} must be an int, got {value!r}")
    if master_seed < 0:
        raise ConfigError("master_seed must be non-negative")


def _ints(what: str, items) -> list:
    """``items`` as a list, checked to hold only ints (no bools)."""
    items = list(items)
    if not all(map(_is_int, items)):
        raise ConfigError(f"{what} must be ints, got {items!r}")
    return items


def _reject_repeats(what: str, items) -> None:
    seen = set()
    for item in items:
        if item in seen:
            raise ConfigError(f"{what} must not repeat, got {item!r} twice")
        seen.add(item)


# each sweep axis: the check its values pass, their description in error
# messages, and the base (part, field) pairs that its points replace
_AXES = {
    "snr_db": (
        lambda v: _is_real(v) and math.isfinite(v), "finite reals", (("config", "snr_db"),)
    ),
    "n_blocks": (lambda v: _is_int(v) and v >= 1, "ints >= 1", (("config", "n_blocks"),)),
    "antennas": (
        lambda v: isinstance(v, tuple) and len(v) == 2 and all(_is_int(n) and n >= 1 for n in v),
        "pairs of ints >= 1",
        (("config", "n_tx"), ("config", "n_rx")),
    ),
    "p0": (lambda v: _is_real(v) and 0 < v < 1, "reals in (0, 1)", (("mixture", "probs"),)),
    "pdp_alpha": (lambda v: _is_real(v) and 0 <= v < 1, "reals in [0, 1)", ()),
}
SWEEP_AXES = tuple(_AXES)
ESTIMATOR_IDS = ("aml", "wed", "ed")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    z = 1.959963984540054  # the normal distribution's 97.5% quantile
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
        # antenna pairs given as lists are stored as tuples, so that every
        # point is a hashable key labelled like '2x2'
        values = tuple(tuple(v) if isinstance(v, list) else v for v in self.values)
        object.__setattr__(self, "values", values)
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; one of {SWEEP_AXES}")
        _check_run(self.trials, self.master_seed)
        _check_ints(self, ("workers", "d_min", "d_max"))
        if len(self.values) == 0:
            raise ConfigError("sweep axis needs at least one value")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
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
        check, wanted, _ = _AXES[self.axis]
        for value in self.values:
            if not check(value):
                raise ConfigError(f"{self.axis} values must be {wanted}, got {value!r}")
        # a repeat would run twice under one outcomes key: 10 equals 10.0
        _reject_repeats("estimators", self.estimators)
        _reject_repeats(f"{self.axis} values", self.values)
        HypothesisSet(self.d_min, self.d_max).validate_against(self.config.block_len)
        # every point's noise power must be finite and positive
        for value in self.values:
            _point_link(self, value)


@dataclass(frozen=True)
class TrialOutcome:
    """One trial's true and estimated offsets, built only for a sweep run
    with ``keep_outcomes``.

    ``elapsed_ns`` is shared by every trial of a chunk of at most
    ``_SEED_GROUP`` trials: it holds the chunk's mean time per estimator,
    rounded to an int, since WED and ED score the whole chunk at once. WED
    and ED split the time of the per-sample energies they share evenly.
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


def _to_json(obj):
    """json's ``default=`` hook for the numpy arrays and scalars of a spec."""
    return obj.tolist()


def spec_hash(spec: ExperimentSpec) -> str:
    """Hash of what determines the results. Serial and parallel runs of one
    spec give identical reports, so ``workers`` is left out, as are the base
    fields that the sweep axis replaces at every point."""
    fields = dataclasses.asdict(spec)
    del fields["workers"]
    for part, name in _AXES[spec.axis][2]:
        del fields[part][name]
    blob = json.dumps(fields, sort_keys=True, default=_to_json).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _point_link(spec: ExperimentSpec, value) -> tuple[SystemConfig, NoiseMixture]:
    """The link configuration and SNR-scaled noise mixture of one sweep point.

    A config axis sets the base config fields its ``_AXES`` row names to the
    point's value (a pair of ints sets both antenna counts); the mixture is
    then scaled to the point's SNR. The row's check has validated the value.

    The impulsiveness sweep anchors the nominal component to the SNR instead
    of the mixture average, so changing p0 changes only how often impulses
    occur; average-power anchoring would make growing impulsiveness *lower*
    the nominal noise floor and invert the trend under study.

    The ``pdp_alpha`` axis changes neither: it perturbs only the profile the
    estimators assume (each tap by 1 +/- alpha, signs drawn per trial in
    ``_run_trials``); the true channel is unchanged.
    """
    config, mixture = spec.config, spec.mixture
    if spec.axis == "p0":
        p0 = float(value)
        target = noise_power(config.signal_power, config.snr_db)
        variances = mixture.variances * (target / float(mixture.variances[0]))
        return config, NoiseMixture(np.array([p0, 1.0 - p0]), variances)
    fields = [name for _, name in _AXES[spec.axis][2]]
    values = value if len(fields) > 1 else (value,)
    config = dataclasses.replace(config, **dict(zip(fields, values)))
    return config, scale_mixture_to_snr(mixture, config.signal_power, config.snr_db)


# the most trials one ``_run_trials`` call runs: their window seeds are
# derived, and their WED and ED scores computed, in one pass, so this bounds
# that pass's arrays whatever the trial count
_SEED_GROUP = 64


class _PointTrials:
    """One sweep point's share of a chunk of trials: its link, its scoring
    plans and the chunk's A-ML scores and per-sample energies so far, from
    which every estimator decides the chunk at its end."""

    def __init__(
        self, spec: ExperimentSpec, p: int, hyp: HypothesisSet, n_trials: int, work: dict
    ) -> None:
        self.spec, self.value, self.work = spec, spec.values[p], work
        self.config, self.mixture = config, scaled = _point_link(spec, self.value)
        m = config.window_len
        # the builders read locals, not self: a cycle through self would
        # leave each point, with its plans, to the cyclic garbage collector
        self.build = {
            "aml": lambda vp: aml_plan(vp, scaled, hyp, m),
            "wed": lambda vp: wed_plan(vp, float(scaled.variances[0]), hyp, m),
            "ed": lambda vp: ed_plan(config, hyp, m),
        }
        vp = variance_profile_h0(config, spec.profile)
        self.plans = {est: self.build[est](vp) for est in spec.estimators}
        # each energy detector's plan per trial, read when the chunk is scored
        self.energy = {est: [] for est in spec.estimators if est != "aml"}
        if self.energy:
            # every period some energy plan folds; ED folds fewer than WED
            n_periods = max(self.plans[est].n_periods for est in self.energy)
            self.energies = scratch(work, f"energy{p}", (n_trials, n_periods + 1, config.block_len))
        # A-ML's scores, one row per trial, kept until the chunk is decided
        self.aml = scratch(work, f"aml{p}", (n_trials, hyp.size)) if "aml" in self.plans else None
        self.elapsed = dict.fromkeys(spec.estimators, 0)

    def score(self, k: int, samples: np.ndarray, signs: np.ndarray | None) -> None:
        """Score the window of the chunk's trial ``k``; ``signs`` are the
        trial's profile-error signs on the ``pdp_alpha`` axis."""
        plans = self.plans
        if signs is not None and self.value > 0:
            perturbed = self.spec.profile.perturbed(float(self.value), signs)
            vp = variance_profile_h0(self.config, perturbed)
            # ED's plan reads no profile, so it stays the point's
            plans = {
                est: self.build[est](vp) if est != "ed" else plan
                for est, plan in self.plans.items()
            }
        for est, kept in self.energy.items():
            kept.append(plans[est])
        check_finite(samples)
        if "aml" in plans:
            t0 = time.perf_counter_ns()
            self.aml[k] = plans["aml"].scores(samples, self.work)
            self.elapsed["aml"] += time.perf_counter_ns() - t0
        if self.energy:
            t0 = time.perf_counter_ns()
            energy_terms(samples, self.energies[k])
            shared_ns = (time.perf_counter_ns() - t0) // len(self.energy)
            for est in self.energy:
                self.elapsed[est] += shared_ns

    def decisions(self) -> tuple[np.ndarray, list[int]]:
        """Score WED and ED over the chunk, then decide every estimator from
        its score rows. Return the chunk's decisions, one row per estimator
        of the spec, and its total ns of scoring per estimator."""
        scores = {"aml": self.aml}
        for est, plans in self.energy.items():
            t0 = time.perf_counter_ns()
            scores[est] = energy_scores(plans, self.energies, self.work)
            self.elapsed[est] += time.perf_counter_ns() - t0
        d_hat = [self.plans[est].decide(scores[est]) for est in self.spec.estimators]
        return np.array(d_hat), list(self.elapsed.values())


def _run_trials(spec: ExperimentSpec, work: dict, trials: range) -> tuple[np.ndarray, ...]:
    """Decisions of a chunk of at most ``_SEED_GROUP`` trials at every sweep
    point, scored into the scratch workspace ``work``: the true offsets,
    shaped ``(trials,)``; the estimates, ``(points, estimators, trials)``;
    and the total ns per point and estimator, ``(points, estimators)``, in
    the order of ``spec.values`` and ``spec.estimators``.

    The run is trial-major. The window seeds of the whole chunk are derived
    at once. Each trial's substreams are drawn once, for the sweep's largest
    link (the most tx antennas, rx antennas and blocks of any point), up
    to the end of its longest window, and every point's window is finished
    from those draws: a smaller link's draws are a prefix of them (see
    :func:`~zpsync.channel.draw_stream`).
    Points with the same antennas share one convolved signal. Each
    estimator scores from a plan built once per point and chunk. On the
    ``pdp_alpha`` axis, where the assumed profile changes per trial, the
    plans that read it (A-ML's and WED's) are built once per trial and
    point; only WED's is kept until the chunk is scored. A-ML scores each
    window as it is built, every point into the workspace: its buffers grow
    to the largest point's and are then reused, where fresh ones would be
    faulted in again on every window. It keeps each window's scores in a
    row of one workspace buffer per point. WED and ED keep only each
    window's per-sample energies, in one workspace buffer per point that
    runs them, and score the whole chunk at its end, gathering a tile of
    windows at a time into two more workspace buffers. Every estimator is
    then decided once per chunk, from its score rows. A serial sweep hands
    every chunk the same workspace, so no chunk after the first faults
    these buffers in.
    """
    hyp = HypothesisSet(spec.d_min, spec.d_max)
    d_pad = max(0, -spec.d_min)
    points = [_PointTrials(spec, p, hyp, len(trials), work) for p in range(len(spec.values))]
    sizes = {f: max(getattr(p.config, f) for p in points) for f in ("n_tx", "n_rx", "n_blocks")}
    drawn = dataclasses.replace(spec.config, **sizes)
    seeds = window_seeds(drawn, d_pad, (spec.master_seed,), trials)
    d_true = []
    for k, t in enumerate(trials):
        delay = substream(spec.master_seed, t, STREAM_DELAY)
        d_true.append(int(delay.integers(spec.d_min, spec.d_max + 1)))
        signs = None
        if spec.axis == "pdp_alpha":
            rng = substream(spec.master_seed, t, STREAM_PDP_ERROR)
            signs = rng.integers(0, 2, size=spec.config.n_taps) * 2 - 1
        # free the last trial's signals before this trial draws: a higher
        # peak let the allocator hand the heap top back to the system
        # and fault it in again on every call
        signals = {}
        lo = d_pad + d_true[-1]
        # the draws end where the longest window does
        stop = lo + drawn.window_len
        draws = draw_stream(drawn, spec.profile, spec.mixture, d_pad, seeds[k], stop)
        for point in points:
            link = (point.config.n_tx, point.config.n_rx)
            if link not in signals:
                signals[link] = stream_signal(draws, point.config, spec.profile)[0]
            hi = lo + point.config.window_len
            point.score(k, finish_stream(draws, point.mixture, signals[link], lo, hi), signs)
    d_hat, ns = zip(*(point.decisions() for point in points))
    return np.array(d_true), np.array(d_hat), np.array(ns)


def _chunks(n: int, size: int) -> list[range]:
    return [range(start, min(start + size, n)) for start in range(0, n, size)]


def run_sweep(spec: ExperimentSpec, keep_outcomes: bool = False) -> SweepReport:
    """Run every sweep point and aggregate lock-in statistics.

    All selected estimators see the identical window in each trial, so a
    difference between their columns is purely an estimator effect. One
    process pool serves every point of the sweep when ``workers``, the
    trials and the cores all allow two or more processes, and it starts no
    more than the least of them; otherwise the sweep runs in this process.

    Each chunk returns its decisions and times as arrays. The sweep adds up
    the successes and ns per point and estimator as the chunks arrive, so a
    row's ``mean_ns`` is its total ns over its trials. It builds a
    :class:`TrialOutcome` per trial and point only with ``keep_outcomes``;
    without it, the sweep's memory does not grow with its trials.
    """
    shape = len(spec.values), len(spec.estimators)
    successes, total_ns = np.zeros(shape, dtype=np.int64), np.zeros(shape, dtype=np.int64)
    outcomes = {value: [] for value in spec.values} if keep_outcomes else None
    processes = min(spec.workers, spec.trials, os.cpu_count() or 1)
    pool_context = (
        futures.ProcessPoolExecutor(processes) if processes > 1 else contextlib.nullcontext()
    )
    with pool_context as pool:
        size = min(_SEED_GROUP, math.ceil(spec.trials / (4 * processes))) if pool else _SEED_GROUP
        # one workspace for every chunk; a pool task gets its own copy
        run = functools.partial(_run_trials, spec, {})
        chunks = _chunks(spec.trials, size)
        for trials, (d_true, d_hat, ns) in zip(chunks, (pool.map if pool else map)(run, chunks)):
            successes += np.count_nonzero(d_hat == d_true, axis=-1)
            total_ns += ns
            if keep_outcomes:
                for value, hats, point_ns in zip(spec.values, d_hat, ns.tolist()):
                    # one mapping per chunk: each trial carries the chunk's mean times
                    mean_ns = {e: round(n / len(trials)) for e, n in zip(spec.estimators, point_ns)}
                    outcomes[value] += [
                        TrialOutcome(t, d, dict(zip(spec.estimators, h)), mean_ns)
                        for t, d, h in zip(trials, d_true.tolist(), hats.T.tolist())
                    ]
    rows = tuple(
        PointResult(value, est, spec.trials, s, s / spec.trials,
                    *wilson_interval(s, spec.trials), ns / spec.trials)
        for value, point_s, point_ns in zip(spec.values, successes.tolist(), total_ns.tolist())
        for est, s, ns in zip(spec.estimators, point_s, point_ns)
    )
    return SweepReport(spec=spec, rows=rows, outcomes=outcomes)


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
    histograms: dict  # k -> dict(edges, counts, analytic_pdf)
    trials: int

    def row(self, k: int) -> MomentRow:
        for r in self.rows:
            if r.k == k:
                return r
        raise KeyError(k)


# trials the moment sampler draws at a time: a batch's data blocks, then its
# taps, then its noise, so the samples depend on it
_BATCH = 20000
# data blocks the moment sampler draws and transforms at a time: bounds its
# working set whatever the batch (larger chunks only cost page faults)
_DATA_ROWS = 1024


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
    by the window generator's helpers; no timing offset).

    The batch's data blocks are drawn ``_DATA_ROWS`` at a time into one row
    buffer, and only the data positions ``k - u`` that the tap sums read are
    kept; they are scaled once the batch is drawn. Rows drawn in chunks
    equal rows drawn in one call, so the samples do not depend on the chunk
    size; every block is drawn even when no position is kept, so the taps
    and noise come from the same draws."""
    positions = ks[:, None] - np.arange(config.n_taps)
    cols = np.unique(positions[(positions >= 0) & (positions < config.n_data)])
    data = np.empty((batch, cols.size), dtype=np.complex128)
    rows = np.empty((min(batch, _DATA_ROWS), config.n_data), dtype=np.complex128)
    one_tx = dataclasses.replace(config, n_tx=1)
    for start in range(0, batch, len(rows)):
        chunk = rows[: batch - start]
        draw_unscaled_blocks(one_tx, [rng], chunk)
        np.take(chunk, cols, axis=1, out=data[start : start + len(chunk)])
    data *= block_scale(one_tx)
    taps = draw_channel(profile, 1, batch, rng)[:, 0]
    out = np.empty((batch, ks.size), dtype=np.complex128)
    for col, k in enumerate(ks):
        acc = np.zeros(batch, dtype=np.complex128)
        for u in range(config.n_taps):
            pos = k - u
            if 0 <= pos < config.n_data:
                acc += taps[:, u] * data[:, np.searchsorted(cols, pos)]
        out[:, col] = acc
    out += draw_noise(scaled, out.size, rng).reshape(out.shape)
    return out


def check_moment_run(
    config: SystemConfig, sample_indices, trials: int, master_seed: int
) -> np.ndarray:
    """The block positions of a moment validation run as an int array, after
    checking them, the trial count and the master seed; raises
    :class:`ConfigError`."""
    _check_run(trials, master_seed)
    if trials < 2:
        raise ConfigError("moment validation needs at least 2 trials: one sample has no spread")
    ks = np.asarray(_ints("sample indices", sample_indices), dtype=int)
    if ks.size == 0:
        raise ConfigError("need at least one sample index")
    if np.any(ks < 0) or np.any(ks >= config.block_len):
        raise ConfigError(f"sample indices must lie in [0, {config.block_len - 1}]")
    _reject_repeats("sample indices", ks.tolist())
    return ks


def run_moment_validation(
    config: SystemConfig,
    profile: DelayProfile,
    mixture: NoiseMixture,
    snr_db: float,
    sample_indices,
    trials: int,
    master_seed: int = 0,
) -> MomentReport:
    """Empirical moments and histograms of the received in-phase samples at
    selected block positions, against the analytic Gaussian-mixture model.

    Uses the true QAM + inverse-DFT waveform (or the Gaussian oracle source
    if the config requests it), one independent block per trial at zero
    offset, drawn with the window generator's own helpers
    (``draw_unscaled_blocks``, ``draw_channel``, ``draw_noise``) from one
    generator, ``_BATCH`` trials at a time. ``_BATCH`` fixes the draw order
    (a batch's data blocks, then its taps, then its noise), so the results
    depend on it; the memory hardly does, since the blocks go through a
    fixed row buffer and only the positions the tap sums read are kept.
    Each trial models one transmit antenna at full ``signal_power``
    whatever ``config.n_tx`` is (the analytic variance profile is the same
    for any n_tx). Histogram bins follow the Freedman-Diaconis rule and are
    recorded so plots can be rebuilt from the data alone.
    """
    ks = check_moment_run(config, sample_indices, trials, master_seed)
    scaled = scale_mixture_to_snr(mixture, config.signal_power, snr_db)
    vp = variance_profile_h0(config, profile)

    rng = substream(master_seed, 0, 0)
    collected = np.empty((trials, ks.size))
    for batch in _chunks(trials, _BATCH):
        collected[batch.start : batch.stop] = _batch_received_samples(
            config, profile, scaled, ks, len(batch), rng
        ).real

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
            "analytic_pdf": b_function(centers, float(vp.body[k]), scaled),
        }
    return MomentReport(rows=tuple(rows), histograms=histograms, trials=trials)


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


def check_scaling_run(multipliers, trials: int, master_seed: int) -> list[int]:
    """The block-length multipliers of a runtime scaling run as a list, after
    checking them, the trial count and the master seed; raises
    :class:`ConfigError`."""
    multipliers = _ints("sizes", multipliers)
    if len(multipliers) < 3 or min(multipliers) < 1:
        raise ConfigError(f"need at least 3 sizes >= 1 for a scaling fit: {multipliers}")
    _reject_repeats("sizes", multipliers)
    _check_run(trials, master_seed)
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    return multipliers


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
    multipliers = check_scaling_run(multipliers, trials, master_seed)
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
