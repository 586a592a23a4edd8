"""The benchmark's workloads: how each builds its experiment from a preset,
runs one timed harness call, and checks that call's outputs.

Sweep trials are re-scored on a fixed sample against references that share
no scoring code with the estimators: ``window_loglik`` for A-ML (the oracle
acceptance criterion C11 uses) and plain per-hypothesis numpy sums for WED
and ED. Moment validation is checked against criterion C1's analytic bands.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import zpsync  # noqa: E402
from zpsync import harness, presets  # noqa: E402
from zpsync.channel import assemble_window, scale_mixture_to_snr  # noqa: E402
from zpsync.estimators import HypothesisSet, aml_estimate, ed_estimate, wed_estimate  # noqa: E402
from zpsync.likelihood import variance_profile_h0, window_loglik  # noqa: E402

if Path(zpsync.__file__).resolve().parent != SRC / "zpsync":
    raise ImportError(f"zpsync imported from {zpsync.__file__}, not from {SRC}")

SCORE_RTOL = 1e-9


def master_seed(seed: int, call: int) -> int:
    """Master seed of timed call ``call`` in a run started with ``seed``."""
    state = np.random.SeedSequence([seed % 2**64, call]).generate_state(1, np.uint32)
    return int(state[0])


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepWorkload:
    """A sweep point set run serially through ``harness.run_sweep``."""

    name: str
    preset: str
    overrides: dict
    trials: int  # per sweep value and timed call
    sample: tuple[int, ...]  # trials re-scored per sweep value, in call 0
    min_calls = 4

    def resolve(self, seed: int = 0) -> harness.ExperimentSpec:
        """Preset -> spec, the part of set-up a user pays before any trial."""
        settings = presets.merge_settings(presets.load_preset(self.preset), self.overrides)
        return presets.spec_from_settings(settings, master_seed=seed)

    def set_up(self):
        spec = self.resolve()
        config, _ = point_link(spec, spec.values[0])
        return variance_profile_h0(config, spec.profile)

    def run(self, seed: int, trials: int | None = None):
        spec = replace(self.resolve(seed), trials=trials or self.trials)
        return harness.run_sweep(spec, keep_outcomes=True)

    def trials_per_call(self) -> int:
        return self.trials * len(self.resolve().values)

    @staticmethod
    def trials_of(report) -> int:
        return report.spec.trials * len(report.spec.values)

    @staticmethod
    def digest(report) -> str:
        return digest(
            [
                [repr(value), est, [o.d_hat[est] for o in outcomes]]
                for value, outcomes in report.outcomes.items()
                for est in report.spec.estimators
            ]
        )

    def check(self, report, rescore: bool) -> tuple[int, list[str]]:
        """(failed trials, messages): a decision outside the hypothesis set,
        or (on the sample, when ``rescore``) a score that disagrees with the
        reference or a decision the reference does not support."""
        spec = report.spec
        failed: dict = {}
        for value, outcomes in report.outcomes.items():
            for o in outcomes:
                bad = [e for e in spec.estimators if not spec.d_min <= o.d_hat[e] <= spec.d_max]
                if bad:
                    failed[(value, o.trial_index)] = f"{value!r} trial {o.trial_index}: {bad} out of range"
            if rescore:
                for o in (outcomes[t] for t in self.sample):
                    why = self._rescore(spec, value, o)
                    if why:
                        failed[(value, o.trial_index)] = f"{value!r} trial {o.trial_index} {why}"
        return len(failed), list(failed.values())

    @staticmethod
    def _rescore(spec, value, o) -> str:
        config, mixture = point_link(spec, value)
        vp = variance_profile_h0(config, spec.profile)
        hyp = HypothesisSet(spec.d_min, spec.d_max)
        window = assemble_window(
            config, spec.profile, mixture, o.d_true,
            seed=(spec.master_seed, o.trial_index), d_pad=max(0, -spec.d_min),
        )
        problems = []
        for est in spec.estimators:
            result = ESTIMATORS[est](window, vp, mixture, hyp)
            ref = REFERENCES[est](window, vp, mixture, hyp)
            why = compare(result, ref, o.d_hat[est], hyp, maximize=est == "aml")
            if why:
                problems.append(f"{est}: {why}")
        return "; ".join(problems)


def point_link(spec, value):
    """Link configuration and SNR-scaled mixture of one sweep value, rebuilt
    from the public API rather than the harness's private helpers."""
    config = spec.config
    if spec.axis == "snr_db":
        config = replace(config, snr_db=float(value))
    elif spec.axis == "antennas":
        config = replace(config, n_tx=int(value[0]), n_rx=int(value[1]))
    else:
        raise ValueError(f"no rebuild for sweep axis {spec.axis!r}")
    return config, scale_mixture_to_snr(spec.mixture, config.signal_power, config.snr_db)


ESTIMATORS = {
    "aml": aml_estimate,
    "wed": lambda w, vp, mix, hyp: wed_estimate(w, vp, float(mix.variances[0]), hyp),
    "ed": lambda w, vp, mix, hyp: ed_estimate(w, hyp),
}


def _energy(window) -> np.ndarray:
    return (np.abs(window.samples) ** 2).sum(axis=0)


def aml_reference(window, vp, mixture, hyp) -> np.ndarray:
    return np.array([window_loglik(window.samples, int(d), vp, mixture).loglik for d in hyp.values])


def wed_reference(window, vp, mixture, hyp) -> np.ndarray:
    energy = _energy(window)
    half_noise = float(mixture.variances[0]) / 2.0
    return np.array(
        [np.sum(energy / (vp.window(int(d), energy.size) + half_noise)) for d in hyp.values]
    )


def ed_reference(window, vp, mixture, hyp) -> np.ndarray:
    """Energy in each block's hypothesized zero tail, block by block."""
    cfg, energy = window.config, _energy(window)
    scores = []
    for d in hyp.values:
        total = 0.0
        for r in range(cfg.n_blocks):
            tail_start = r * cfg.block_len + cfg.n_data + cfg.n_taps - 1 - d
            tail_end = (r + 1) * cfg.block_len - d
            total += float(np.sum(energy[max(tail_start, 0) : min(tail_end, energy.size)]))
        scores.append(total)
    return np.array(scores)


REFERENCES = {"aml": aml_reference, "wed": wed_reference, "ed": ed_reference}


def compare(result, ref, harness_d_hat, hyp, maximize) -> str:
    if not np.all(np.isfinite(result.scores)):
        return "non-finite scores"
    if result.d_hat != harness_d_hat:
        return f"harness chose {harness_d_hat}, direct call {result.d_hat}"
    if not np.allclose(result.scores, ref, rtol=SCORE_RTOL, atol=0.0):
        worst = float(np.max(np.abs(result.scores - ref) / np.abs(ref)))
        return f"scores off the reference by up to {worst:.2e} (relative)"
    best = ref.max() if maximize else ref.min()
    if abs(ref[result.d_hat - hyp.d_min] - best) > SCORE_RTOL * abs(best):
        return f"d_hat {result.d_hat} is not optimal under the reference"
    return ""


# Criterion C1 of the acceptance suite: (k, statistic) -> closed band.
C1_BANDS = {
    (150, "variance_rel"): (0.0, 0.02),
    (150, "kurtosis"): (3.1, 3.5),
    (1, "kurtosis"): (4.0, 4.9),
    (1, "skewness"): (-0.05, 0.05),
    (150, "skewness"): (-0.05, 0.05),
}


@dataclass(frozen=True)
class MomentWorkload:
    """Moment validation through ``harness.run_moment_validation``."""

    name: str
    preset: str
    ks: tuple[int, ...]
    snr_db: float
    trials: int  # independent block draws per timed call
    min_pooled: int  # draws the C1 bands are checked on, pooled over calls

    @property
    def min_calls(self) -> int:
        return -(-self.min_pooled // self.trials)

    def resolve(self):
        settings = presets.load_preset(self.preset)
        config = presets.config_from_settings(settings)
        return (
            config,
            presets.profile_from_settings(settings, config.n_taps),
            presets.mixture_from_settings(settings),
        )

    def set_up(self):
        config, profile, _ = self.resolve()
        return variance_profile_h0(config, profile)

    def run(self, seed: int, trials: int | None = None):
        config, profile, mixture = self.resolve()
        return harness.run_moment_validation(
            config, profile, mixture, self.snr_db, self.ks, trials or self.trials, master_seed=seed
        )

    def trials_per_call(self) -> int:
        return self.trials

    @staticmethod
    def trials_of(report) -> int:
        return report.trials

    @staticmethod
    def digest(report) -> str:
        return digest([[r.k, r.mean, r.variance, r.skewness, r.kurtosis] for r in report.rows])

    def check(self, report, rescore: bool) -> tuple[int, list[str]]:
        values = [v for r in report.rows for v in (r.mean, r.variance, r.skewness, r.kurtosis)]
        if not all(np.isfinite(values)) or any(r.n_samples != report.trials for r in report.rows):
            return report.trials, [f"non-finite or short moment rows ({report.trials} draws)"]
        return 0, []

    def check_pooled(self, reports) -> list[str]:
        """C1's bands on the moments of all draws of a pass together: at
        100k draws the k=1 kurtosis sits about 2.4 standard errors above its
        lower band, so single calls would fail now and then by chance."""
        n = sum(r.trials for r in reports)
        if n < self.min_pooled:
            return [f"only {n} draws pooled, need {self.min_pooled}"]
        stats = {}
        for k in self.ks:
            rows = [r.row(k) for r in reports]
            weights = np.array([r.n_samples for r in rows], dtype=float) / n
            raw = np.zeros(5)
            for w, r in zip(weights, rows):
                raw += w * _raw_moments(r.mean, r.variance, r.skewness * r.variance,
                                        r.kurtosis * r.variance**2)
            _, m2, m3, m4 = _central_moments(raw)
            stats[(k, "variance_rel")] = abs(m2 - rows[0].analytic_variance) / rows[0].analytic_variance
            stats[(k, "skewness")] = m3 / m2  # the harness's definition
            stats[(k, "kurtosis")] = m4 / (m2 * m2)
        return [
            f"pooled {stat} at k={k} = {stats[(k, stat)]:.4f} outside [{lo}, {hi}] over {n} draws"
            for (k, stat), (lo, hi) in C1_BANDS.items()
            if not lo <= stats[(k, stat)] <= hi
        ]


def _raw_moments(mu, m2, m3, m4) -> np.ndarray:
    """E[y^j], j = 0..4, from the mean and central moments."""
    return np.array(
        [1.0, mu, m2 + mu**2, m3 + 3 * mu * m2 + mu**3, m4 + 4 * mu * m3 + 6 * mu**2 * m2 + mu**4]
    )


def _central_moments(raw) -> tuple[float, float, float, float]:
    _, e1, e2, e3, e4 = raw
    m2 = e2 - e1**2
    m3 = e3 - 3 * e1 * e2 + 2 * e1**3
    m4 = e4 - 4 * e1 * e3 + 6 * e1**2 * e2 - 3 * e1**4
    return float(e1), float(m2), float(m3), float(m4)


# Why each workload exists is recorded in BENCHMARK.json; in short, each
# puts a different layer on top of the trial time. Calls are short (0.15 to
# 0.5 s), so a run holds dozens to hundreds of them, yet long enough that
# the set-up the harness repeats per sweep point (variance profile, class
# matrix) stays a few percent of a call.
WORKLOADS = {
    w.name: w
    for w in (
        # likelihood table dominates; 2x2 adds the MIMO generator and table loops
        SweepWorkload(
            "aml_impulsive", "fig5", {"values": ["1x1", "2x2"], "snr_db": 5}, trials=10,
            sample=(0, 9),
        ),
        # the (532, m) class-matrix gather of A-ML and WED dominates
        SweepWorkload(
            "full_range", "fig2",
            {"values": [10], "noise": "gaussian", "d_min": 0, "d_max": 531,
             "estimators": ["aml", "wed", "ed"]},
            trials=12, sample=(0, 11),
        ),
        # window generation dominates; the likelihood table is never built
        SweepWorkload("energy_detectors", "fig4", {"values": [10]}, trials=50, sample=(0, 49)),
        # batched block draws of the harness's own sampler, large arrays
        MomentWorkload("moments", "table1", ks=(1, 150), snr_db=15.0, trials=20_000,
                       min_pooled=400_000),
    )
}
