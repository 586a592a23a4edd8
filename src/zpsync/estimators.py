"""Timing-offset estimators: approximate ML, weighted energy, plain energy.

All three search a contiguous integer hypothesis set. Scores for every
hypothesis are returned alongside the decision; ties break toward the
smallest offset. Scoring is pure, so per-hypothesis work may be reordered or
parallelized without changing the result.

Every score is a sum of per-sample terms over segments of the capture. The
hypothesized variance profile is piecewise constant and periodic, so A-ML
and WED score a hypothesis from prefix sums at the edges of its
constant-class runs. The prefix sums are added up over the stream's periods
once per call, after which each hypothesis costs O(runs per block) lookups.
ED sums prefix-sum differences over its zero-tail spans. A prefix sum
carries one non-finite sample into every later segment, so non-finite input
is rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ReceivedWindow
from .likelihood import NoiseMixture, VarianceProfile, loglik_class_table
from .waveform import ConfigError


@dataclass(frozen=True)
class HypothesisSet:
    """Contiguous search set of integer timing offsets [d_min, d_max]."""

    d_min: int
    d_max: int

    def __post_init__(self) -> None:
        if self.d_min > self.d_max:
            raise ConfigError(f"empty hypothesis set [{self.d_min}, {self.d_max}]")

    @property
    def values(self) -> np.ndarray:
        return np.arange(self.d_min, self.d_max + 1)

    @property
    def size(self) -> int:
        return self.d_max - self.d_min + 1

    def validate_against(self, block_len: int) -> None:
        if self.d_min <= -block_len or self.d_max >= block_len:
            raise ConfigError(
                f"hypotheses must lie within ({-block_len}, {block_len}), "
                f"got [{self.d_min}, {self.d_max}]"
            )


@dataclass(frozen=True, eq=False)
class EstimateResult:
    d_hat: int
    scores: np.ndarray
    d_values: np.ndarray
    estimator_id: str


def _check_finite(window: ReceivedWindow) -> None:
    if not np.all(np.isfinite(window.samples)):
        raise ConfigError("window holds non-finite samples")


def _run_offsets(vp: VarianceProfile, hyp: HypothesisSet) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the ``_fold_periods`` output that bound each run of one
    profile period under each hypothesis: ``(lo, hi)``, row ``i`` for
    ``d = d_min + i``, column ``j`` for run ``j`` of ``vp.run_class``."""
    offsets = (vp.run_edges + vp.block_len)[None, :] - hyp.values[:, None]
    return offsets[:, :-1], offsets[:, 1:]


def _fold_periods(prefix: np.ndarray, n_s: int, d_max: int) -> np.ndarray:
    """Window prefix sums added up over the periods of the stream.

    ``prefix[..., k]`` is the sum of the first ``k`` window samples and the
    stream has period ``n_s`` from index 0 on. Returns ``out`` with
    ``out[..., x + n_s]`` the sum over periods ``p`` of
    ``prefix[..., clip(p * n_s + x, 0, m)]`` for every ``x`` in
    ``[-n_s, 2 * n_s)``, counting every period that a hypothesis up to
    ``d_max`` reads. A body run from ``b`` to ``e`` then adds
    ``out[e - d + n_s] - out[b - d + n_s]`` to hypothesis ``d``: its segments
    in every period at once, clipped to the window.
    """
    m = prefix.shape[-1] - 1
    # periods past every hypothesis's last sample add nothing
    n_periods = max(1, -(-(d_max + m) // n_s))
    r = np.arange(n_s)
    buf = np.empty(prefix.shape[:-1] + (n_s,))

    def period(p):
        # mode="clip" maps indices past the window end to prefix[..., m]
        return np.take(prefix, p * n_s + r, axis=-1, out=buf, mode="clip")

    full = min((m + 1) // n_s, n_periods)  # periods that lie inside the window
    folded = prefix[..., : full * n_s].reshape(prefix.shape[:-1] + (full, n_s)).sum(axis=-2)
    for p in range(full, n_periods):
        folded += period(p)
    out = np.empty(prefix.shape[:-1] + (3, n_s))
    # at x - n_s the sum loses its last period and gains the one before
    # index 0, where prefix is 0; at x + n_s it loses its first period and
    # gains the one after its last
    np.subtract(folded, period(n_periods - 1), out=out[..., 0, :])
    out[..., 1, :] = folded
    np.subtract(folded, period(0), out=out[..., 2, :])
    out[..., 2, :] += period(n_periods)
    return out.reshape(prefix.shape[:-1] + (3 * n_s,))


def _decide(scores: np.ndarray, hyp: HypothesisSet, maximize: bool, tag: str) -> EstimateResult:
    if not np.all(np.isfinite(scores)):
        raise ConfigError(f"{tag} scores are not finite: sample magnitudes overflow")
    # argmax/argmin return the first optimum, i.e. the smallest d
    idx = int(np.argmax(scores) if maximize else np.argmin(scores))
    return EstimateResult(
        d_hat=hyp.d_min + idx, scores=scores, d_values=hyp.values, estimator_id=tag
    )


def aml_estimate(
    window: ReceivedWindow,
    vp: VarianceProfile,
    mixture: NoiseMixture,
    hyp: HypothesisSet,
) -> EstimateResult:
    """Approximate ML estimate: the offset whose shifted variance profile
    maximizes the window log-likelihood, summed over receive antennas."""
    hyp.validate_against(vp.block_len)
    _check_finite(window)
    m = window.length
    # prefix[:, k] is the log-likelihood of the first k samples per class. A
    # dummy leading sample with its column zeroed lets the cumulative sum run
    # in place: a second table-sized array per call makes long windows pay
    # page faults, which bends the linear runtime scaling (C10).
    padded = np.concatenate([np.zeros((window.samples.shape[0], 1)), window.samples], axis=1)
    prefix = loglik_class_table(padded, vp, mixture)
    prefix[:, 0] = 0.0
    np.cumsum(prefix, axis=1, out=prefix)
    folded = _fold_periods(prefix, vp.block_len, hyp.d_max)
    lo, hi = _run_offsets(vp, hyp)
    scores = (folded[vp.run_class, hi] - folded[vp.run_class, lo]).sum(axis=1)
    if hyp.d_min < 0:
        # stream indices below 0 are class 0: the first -d samples when d < 0
        scores += prefix[0, np.clip(-hyp.values, 0, m)]
    return _decide(scores, hyp, maximize=True, tag="aml")


def wed_estimate(
    window: ReceivedWindow,
    vp: VarianceProfile,
    noise_var: float,
    hyp: HypothesisSet,
) -> EstimateResult:
    """Weighted energy detector for Gaussian noise and non-negative offsets.

    Minimizes sample energy weighted by the inverse of the hypothesized total
    variance, so noise-only positions dominate the statistic. Valid only for
    single-component noise with d >= 0 (where it shares its decision with the
    approximate ML estimator).
    """
    if hyp.d_min < 0:
        raise ConfigError("weighted energy detector is defined only for d >= 0")
    if not noise_var > 0:
        raise ConfigError("noise_var must be positive")
    hyp.validate_against(vp.block_len)
    _check_finite(window)
    energy = (np.abs(window.samples) ** 2).sum(axis=0)
    csum = np.concatenate([[0.0], np.cumsum(energy)])
    inv_w = 1.0 / (vp.class_values + noise_var / 2.0)
    folded = _fold_periods(csum, vp.block_len, hyp.d_max)
    lo, hi = _run_offsets(vp, hyp)
    scores = (folded[hi] - folded[lo]) @ inv_w[vp.run_class]
    return _decide(scores, hyp, maximize=False, tag="wed")


def ed_estimate(
    window: ReceivedWindow,
    hyp: HypothesisSet,
) -> EstimateResult:
    """Energy detector: total energy over the hypothesized zero-tail regions.

    Per block r, the hypothesized noise-only span of the capture runs from
    n_data + n_taps - 1 + r*block_len - d through (r+1)*block_len - 1 - d.
    Spans that start before the capture are clipped at 0; blocks beyond the
    window are not used.
    """
    cfg = window.config
    if hyp.d_min < 0:
        raise ConfigError("energy detector is defined only for d >= 0")
    hyp.validate_against(cfg.block_len)
    m = window.length
    if m < cfg.window_len:
        raise ConfigError("window shorter than n_blocks * block_len")
    _check_finite(window)
    energy = (np.abs(window.samples) ** 2).sum(axis=0)
    csum = np.concatenate([[0.0], np.cumsum(energy)])
    d = hyp.values[:, None]
    r = np.arange(cfg.n_blocks)[None, :]
    lo = np.maximum(cfg.n_data + cfg.n_taps - 1 + r * cfg.block_len - d, 0)
    hi = np.minimum((r + 1) * cfg.block_len - d, m)
    scores = (csum[hi] - csum[lo]).sum(axis=1)
    return _decide(scores, hyp, maximize=False, tag="ed")
