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

import math
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


# scratch doubles per group of classes in a single-component table (512 KB)
_GROUP_ELEMENTS = 1 << 16


def scratch(work: dict | None, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """An uninitialised array of ``shape``: a fresh one when ``work`` is
    None, else a view of the workspace ``work``'s flat buffer ``name``,
    which grows to fit and is never shrunk. Callers that share a workspace
    use each name with one dtype, and a buffer is theirs only until the next
    call that reads it."""
    if work is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    if name not in work or work[name].size < size:
        work[name] = np.empty(size, dtype)
    return work[name][:size].reshape(shape)


def loglik_class_table(
    y: np.ndarray,
    vp: VarianceProfile,
    mixture: NoiseMixture,
    classes: np.ndarray | None = None,
    work: dict | None = None,
    table: np.ndarray | None = None,
) -> np.ndarray:
    """Per-sample log densities against distinct profile variances.

    Returns (n_classes, m): row c holds log p(y[k] | variance class c) summed
    over antennas. ``classes`` selects a subset of class ids, in the order
    given, and row i is then class ``classes[i]``; by default every class of
    ``vp`` gets a row. The A-ML estimator scores every hypothesis from
    this table's rows added up over the stream's periods along the
    profile's long constant-class runs, so the transcendentals are paid
    once per window, not once per hypothesis; classes whose runs reach few
    cells go through :func:`fold_cells` instead.

    Works with in-place ufuncs on small scratch buffers: the only large
    allocation is the table itself, which keeps long-window timing free of
    allocator noise. ``table``, an (n_classes, m) array or view, takes the
    rows in place of a new table. Given a workspace ``work`` (see
    :func:`scratch`), the squares, the mixture accumulators and, without
    ``table``, the table come from it; they are then valid until the
    workspace's next use. Mixtures go class by class on window-sized
    buffers; single-component noise groups classes on short windows (see
    :func:`_single_component_table`). A row's cells do not depend on which
    other classes are selected.

    Mixture components are folded in with the max-shifted log-sum-exp
    ``max(a, b) + log1p(exp(-|a - b|))``, the formula ``np.logaddexp``
    evaluates, written out in ufuncs (:func:`_fold_components`). On numpy
    2.4 (x86-64) ``np.logaddexp`` is a scalar libm loop at about 40 ns per
    element, against 1.2 and 2.6 ns for the vectorised ``exp`` and
    ``log1p``, and it took most of the table's time under impulsive noise.
    ``log_b_function`` keeps ``np.logaddexp`` as the reference.
    """
    y = np.ascontiguousarray(np.atleast_2d(y), dtype=np.complex128)
    values = vp.class_values if classes is None else vp.class_values[classes]
    n_rx, m = y.shape
    # I and Q interleaved: one ufunc call covers both parts of every antenna
    z2 = np.square(y.view(np.float64), out=scratch(work, "z2", (n_rx, 2 * m)))
    scales, offsets = _component_constants(values, mixture)
    if table is None:
        table = scratch(work, "table", (values.size, m))
    if mixture.n_components == 1:
        return _single_component_table(z2, scales, offsets, table)
    acc, term, gap = (scratch(work, name, z2.shape) for name in ("acc", "term", "gap"))
    parts = [acc[r, k::2] for r in range(n_rx) for k in (0, 1)]
    # per (class, component) constants as Python floats: scalar numpy
    # arithmetic inside the loop would add a fixed cost per call that is a
    # large share of a short window
    for t_row, scale, offset in zip(table, scales.tolist(), offsets.tolist()):
        _fold_components(z2, scale, offset, acc, term, gap)
        _sum_parts(parts, t_row)
    return table


def loglik_cells(
    y: np.ndarray,
    positions: np.ndarray,
    cell_class: np.ndarray,
    vp: VarianceProfile,
    mixture: NoiseMixture,
) -> np.ndarray:
    """Log densities at gathered window positions, one variance class per column.

    ``positions`` is (..., n_cells) of sample indices into ``y``'s last axis
    and ``cell_class`` (n_cells,) the class id of each column. Returns an
    array shaped like ``positions`` whose cell holds
    log p(y[:, positions[..., i]] | class cell_class[i]) summed over
    antennas: :func:`fold_cells` with the constants of :func:`cell_constants`.
    Positions outside ``[0, m)`` raise :class:`ConfigError`.
    """
    positions, m = np.asarray(positions), np.shape(y)[-1]
    if positions.size and not 0 <= positions.min() <= positions.max() < m:
        raise ConfigError(f"cell positions must lie in [0, {m})")
    return fold_cells(y, positions, *cell_constants(cell_class, vp, mixture))


def cell_constants(cell_class: np.ndarray, vp: VarianceProfile, mixture: NoiseMixture):
    """The constants :func:`fold_cells` reads for columns of the classes
    ``cell_class``: ``(scales, offsets)``, each (n_components, 2 * n_cells),
    every column's constants twice in a row, for I and Q. They depend on the
    classes alone, not on the window."""
    scales, offsets = _component_constants(vp.class_values, mixture)
    return np.repeat(scales[cell_class].T, 2, axis=1), np.repeat(offsets[cell_class].T, 2, axis=1)


def fold_cells(
    y: np.ndarray,
    positions: np.ndarray,
    scales: np.ndarray,
    offsets: np.ndarray,
    work: dict | None = None,
) -> np.ndarray:
    """The log densities of :func:`loglik_cells`, from the constants of
    :func:`cell_constants`. The components are folded as in
    :func:`loglik_class_table`, with each column's constants broadcast along
    the leading axes; the scratch buffers are the size of the gather, not of
    the window, and come from the workspace ``work`` when one is given (see
    :func:`scratch`). ``positions`` must lie in ``[0, m)``."""
    y = np.asarray(np.atleast_2d(y), dtype=np.complex128)
    n_rx = y.shape[0]
    # mode="clip" lets take write straight into the buffer: the default
    # "raise" gathers into a copy first
    gather = np.take(y, positions, axis=1, mode="clip",
                     out=scratch(work, "gather", (n_rx,) + positions.shape, np.complex128))
    # I and Q interleaved, (n_rx, ..., 2 * n_cells)
    z2 = gather.view(np.float64)
    np.square(z2, out=z2)
    acc = scratch(work, "acc", z2.shape)
    # the gather is private and the last term is its last reader, so with
    # two components that term overwrites it: one buffer fewer
    term = z2 if len(scales) == 2 else scratch(work, "term", z2.shape)
    _fold_components(z2, scales, offsets, acc, term, scratch(work, "gap", z2.shape))
    parts = [acc[r, ..., k::2] for r in range(n_rx) for k in (0, 1)]
    return _sum_parts(parts, scratch(work, "cells", positions.shape))


def _component_constants(values: np.ndarray, mixture: NoiseMixture):
    """Per (class, component) terms of the log density of one I/Q part:
    ``log N(z; 0, var) = scale * z**2 + offset`` with var the class value
    plus half the component's noise variance. Both (n_values, n_components)."""
    var = values[:, None] + mixture.variances / 2.0
    scales = -0.5 / var
    offsets = np.log(mixture.probs) - 0.5 * np.log(2.0 * np.pi * var)
    return scales, offsets


def _fold_components(z2, scales, offsets, acc, term, gap) -> None:
    """``acc = log sum_l exp(scales[l] * z2 + offsets[l])``, in place.

    ``scales[l]`` and ``offsets[l]`` are floats or arrays that broadcast
    against ``z2``; ``term`` and ``gap`` are scratch buffers shaped like
    ``z2``. With two components ``term`` may be ``z2`` itself, which the
    second term reads last.
    """
    np.multiply(z2, scales[0], out=acc)
    acc += offsets[0]
    for s, o in zip(scales[1:], offsets[1:]):
        np.multiply(z2, s, out=term)
        term += o
        # gap = min - max = -|acc - term|, exactly
        np.minimum(acc, term, out=gap)
        np.maximum(acc, term, out=acc)
        gap -= acc
        np.exp(gap, out=gap)
        np.log1p(gap, out=gap)
        acc += gap


def _sum_parts(parts: list, out: np.ndarray) -> np.ndarray:
    """``out = sum(parts)``, in place and in the order given.

    ``parts`` are the views of one sample's I/Q log-density terms, listed
    antenna by antenna, I then Q. Every table row and every gathered cell
    is summed through here in that one order, which keeps a cell of
    :func:`fold_cells` bit-equal to its entry in
    :func:`loglik_class_table`.
    """
    np.add(parts[0], parts[1], out=out)
    for part in parts[2:]:
        out += part
    return out


def _single_component_table(
    z2: np.ndarray, scales: np.ndarray, offsets: np.ndarray, table: np.ndarray
) -> np.ndarray:
    """Table rows for single-component noise, a few classes per ufunc call,
    written into ``table`` (n_classes, m).

    ``z2`` holds the squared I/Q parts, (n_rx, 2 * m) interleaved; ``scales``
    and ``offsets`` are (n_classes, 1) columns. Each row costs three cheap
    passes (scale, shift, add the parts), so on short windows the per-call
    overhead outweighs the arithmetic: classes go in groups as large as fit
    in a scratch buffer of ``_GROUP_ELEMENTS`` doubles (one class at a time
    for long windows). Every cell is computed with the same operations in
    the same order as one class at a time.
    """
    n_rx, width = z2.shape
    n_classes = scales.shape[0]
    flat = z2.reshape(1, -1)
    group = max(1, min(n_classes, _GROUP_ELEMENTS // flat.size))
    # fresh group scratch: holding it in the workspace as well made a
    # full_range sweep call fault about 1390 pages against 1270
    acc = np.empty((group, flat.size))
    for lo in range(0, n_classes, group):
        hi = min(lo + group, n_classes)
        block = acc[: hi - lo]
        np.multiply(flat, scales[lo:hi], out=block)
        block += offsets[lo:hi]
        antennas = block.reshape(hi - lo, n_rx, width)
        _sum_parts([antennas[:, r, k::2] for r in range(n_rx) for k in (0, 1)], table[lo:hi])
    return table
