"""Per-sample approximate likelihoods and the hypothesis-shifted variance profile.

Under the no-offset hypothesis the noiseless received signal has a known
per-sample I/Q variance pattern: a ramp while the channel fills (taps
accumulating), a plateau over the fully-overlapped data region, a decay ramp
as the block drains, and exact zeros over the remaining zero-pad tail. The
conceptual two-sided sequence is zero for negative indices (nothing
transmitted yet) and periodic with the block length for non-negative ones;
a timing-offset hypothesis is just a shift of the read position.

The sample density is the convolution of that zero-mean Gaussian signal part
with the mixture noise, which stays a Gaussian mixture with per-component
variance ``kappa + variances[l] / 2`` per I/Q part. ``b_function`` is that
scalar density, ``p_function`` the complex-sample product of its I and Q
factors. Window log-likelihoods accumulate in the log domain with a
max-shifted log-sum-exp over mixture components so that products over
thousands of samples cannot underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import DelayProfile, NoiseMixture
from .waveform import ConfigError, SystemConfig


@dataclass(frozen=True)
class HypothesisScore:
    d: int
    loglik: float


class VarianceProfile:
    """Per-sample I-component variances of the noiseless signal under no offset.

    ``body`` holds one period (block_len values); the conceptual sequence is 0
    below index 0 and ``body[k % block_len]`` above. Instances are immutable
    and shareable: hypothesis evaluation only indexes them. Internally each
    distinct variance value gets a small class id so likelihood tables can be
    computed once per window instead of once per sample.
    """

    def __init__(self, body: np.ndarray):
        body = np.asarray(body, dtype=float)
        if body.ndim != 1 or body.size == 0:
            raise ConfigError("variance profile body must be a non-empty vector")
        if np.any(body < 0):
            raise ConfigError("variances must be non-negative")
        body.setflags(write=False)
        self.body = body
        # class 0 is always variance 0 (negative stream indices map there too)
        values = np.unique(np.concatenate([[0.0], body]))
        values.setflags(write=False)
        self.class_values = values
        body_class = np.searchsorted(values, body).astype(np.int32)
        body_class.setflags(write=False)
        self.body_class = body_class
        # constant-class runs of one period: run j spans run_edges[j] up to
        # run_edges[j + 1] with class run_class[j]
        starts = np.concatenate([[0], np.flatnonzero(np.diff(body_class)) + 1])
        run_edges = np.append(starts, body.size)
        run_edges.setflags(write=False)
        self.run_edges = run_edges
        run_class = body_class[starts]
        run_class.setflags(write=False)
        self.run_class = run_class

    @property
    def block_len(self) -> int:
        return int(self.body.size)

    def window(self, d: int, m: int) -> np.ndarray:
        """Variances seen at stream indices d .. d+m-1."""
        return self.class_values[self.window_classes(d, m)]

    def window_classes(self, d: int, m: int) -> np.ndarray:
        if m < 1:
            raise ConfigError("window length must be >= 1")
        idx = np.arange(d, d + m)
        out = np.where(idx < 0, 0, self.body_class[idx % self.block_len])
        return out.astype(np.int32)


def variance_profile_h0(config: SystemConfig, profile: DelayProfile) -> VarianceProfile:
    """Variance profile of the noiseless received signal with no timing offset.

    Each tx antenna radiates signal_power / n_tx through an independent
    channel, so the summed variances match the single-antenna values for the
    same delay profile.
    """
    if profile.n_taps != config.n_taps:
        raise ConfigError(
            f"profile has {profile.n_taps} taps but config expects {config.n_taps}"
        )
    n_x, n_h, n_s = config.n_data, config.n_taps, config.block_len
    csum = np.concatenate([[0.0], np.cumsum(profile.powers)])  # csum[b+1]-csum[a] = sum a..b
    body = np.zeros(n_s)
    k_ramp = np.arange(0, min(n_h - 1, n_s))
    body[k_ramp] = csum[k_ramp + 1]
    if n_h - 1 <= n_x - 1:
        body[n_h - 1 : n_x] = csum[n_h]
    k_drain = np.arange(n_x, min(n_x + n_h - 1, n_s))
    body[k_drain] = csum[n_h] - csum[k_drain - n_x + 1]
    body *= config.signal_power / 2.0
    return VarianceProfile(body)


def profile_window(vp: VarianceProfile, d: int, m: int) -> np.ndarray:
    """Slice the conceptual variance sequence at indices d .. d+m-1."""
    return vp.window(d, m)


def log_b_function(z, t, mixture: NoiseMixture) -> np.ndarray:
    """log of the scalar mixture density at z with signal variance t (broadcasts).

    Components are folded in with pairwise ``logaddexp``, which is the
    max-shifted log-sum-exp: stable for tiny densities far in the tails.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ConfigError("shape parameter t must be >= 0")
    z2 = np.square(np.asarray(z, dtype=float))
    out = None
    for p, v in zip(mixture.probs, mixture.variances):
        var = t + v / 2.0
        term = np.log(p) - 0.5 * np.log(2.0 * np.pi * var) - z2 / (2.0 * var)
        out = term if out is None else np.logaddexp(out, term)
    return out


def b_function(z, t, mixture: NoiseMixture) -> np.ndarray:
    """Approximate density of one I or Q component: a Gaussian mixture whose
    component variances are t + variances[l] / 2."""
    return np.exp(log_b_function(z, t, mixture))


def log_p_function(c, kappa, mixture: NoiseMixture) -> np.ndarray:
    """log density of a complex sample: I and Q factors share the shape parameter."""
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa < 0):
        raise ConfigError("shape parameter kappa must be >= 0")
    c = np.asarray(c)
    return log_b_function(c.real, kappa, mixture) + log_b_function(c.imag, kappa, mixture)


def p_function(c, kappa, mixture: NoiseMixture) -> np.ndarray:
    return np.exp(log_p_function(c, kappa, mixture))


def window_loglik(
    y: np.ndarray, d: int, vp: VarianceProfile, mixture: NoiseMixture
) -> HypothesisScore:
    """Log-likelihood of the capture under timing-offset hypothesis d.

    ``y`` is (n_rx, m) or (m,); antennas contribute additively. Evaluation is
    a pure read of the shared variance profile.
    """
    y = np.atleast_2d(np.asarray(y))
    kappa = vp.window(d, y.shape[1])
    total = 0.0
    for row in y:
        total += float(np.sum(log_p_function(row, kappa, mixture)))
    return HypothesisScore(d=d, loglik=total)


def loglik_class_table(
    y: np.ndarray, vp: VarianceProfile, mixture: NoiseMixture
) -> np.ndarray:
    """Per-sample log densities against every distinct profile variance.

    Returns (n_classes, m): row c holds log p(y[k] | variance class c) summed
    over antennas. The estimator scores every hypothesis from per-class
    prefix sums of this table over the profile's constant-class runs, so the
    transcendentals are paid once per window, not once per hypothesis.

    Works class by class with in-place ufuncs on window-sized buffers: the
    only large allocation is the table itself, which keeps long-window timing
    free of allocator noise.

    Mixture components are folded in with the max-shifted log-sum-exp
    ``max(a, b) + log1p(exp(-|a - b|))``, the formula ``np.logaddexp``
    evaluates, written out in ufuncs. On numpy 2.4 (x86-64) ``np.logaddexp``
    is a scalar libm loop at about 40 ns per element, against 1.2 and 2.6 ns
    for the vectorised ``exp`` and ``log1p``, and it took most of the
    table's time under impulsive noise. ``log_b_function`` keeps
    ``np.logaddexp`` as the reference.
    """
    y = np.ascontiguousarray(np.atleast_2d(y), dtype=np.complex128)
    values = vp.class_values
    n_rx, m = y.shape
    # I and Q interleaved: one ufunc call covers both parts of every antenna
    z2 = np.square(y.view(np.float64))
    acc = np.empty_like(z2)
    if mixture.n_components > 1:
        term = np.empty_like(z2)
        gap = np.empty_like(z2)
    # the parts in the order their terms are summed: antenna by antenna, I then Q
    parts = [acc[r, k::2] for r in range(n_rx) for k in (0, 1)]
    table = np.empty((values.size, m))
    # per (class, component) constants, computed once as Python floats:
    # scalar numpy arithmetic inside the loop would add a fixed cost per call
    # that is a large share of a short window
    var = values[:, None] + mixture.variances / 2.0
    scales = (-0.5 / var).tolist()
    offsets = (np.log(mixture.probs) - 0.5 * np.log(2.0 * np.pi * var)).tolist()
    for t_row, scale, offset in zip(table, scales, offsets):
        np.multiply(z2, scale[0], out=acc)
        acc += offset[0]
        for s, o in zip(scale[1:], offset[1:]):
            np.multiply(z2, s, out=term)
            term += o
            # gap = min - max = -|acc - term|, exactly
            np.minimum(acc, term, out=gap)
            np.maximum(acc, term, out=acc)
            gap -= acc
            np.exp(gap, out=gap)
            np.log1p(gap, out=gap)
            acc += gap
        np.add(parts[0], parts[1], out=t_row)
        for part in parts[2:]:
            t_row += part
    return table
