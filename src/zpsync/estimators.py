"""Timing-offset estimators: approximate ML, weighted energy, plain energy.

All three search a contiguous integer hypothesis set. Scores for every
hypothesis are returned alongside the decision; ties break toward the
smallest offset. Scoring is pure, so per-hypothesis work may be reordered or
parallelized without changing the result.

Every score is a sum of per-sample terms over segments of the capture. The
hypothesized variance profile is piecewise constant and periodic, so each
estimator scores a hypothesis from prefix sums at the edges of its
constant-class runs. One fold (:func:`_fold`) serves all three: it reads the
terms laid out period by period, adds them up over the stream's periods
first and then takes cumulative sums over three periods' worth, not over the
window; each hypothesis then costs O(runs per block) lookups. A-ML and WED
read the runs of the variance profile and fold every period that some
hypothesis reads in the window. ED reads one run per period, the zero tail
taken from the config, and folds exactly n_blocks periods: it leaves out
block n_blocks even when the window reaches into it. A cumulative sum
carries one non-finite sample into every later segment, so non-finite input
is rejected up front.

A-ML splits the profile's variance classes by how many window cells their
runs can reach. Under n_d hypotheses a run of L samples reaches
L + n_d - 1 positions per period. A class that reaches at least a window's
worth (a long plateau, or every class once n_d nears the block length) is
dense: it gets a row of the per-sample likelihood table, which is folded
over the periods. Under mixture noise every other class is sparse: its log
densities are evaluated on the reachable cells alone and each hypothesis
takes a sliding sum over them. At the paper's sizes this leaves one dense
row of twenty. Single-component noise keeps every class dense.

What an estimator reads besides the window depends only on the sweep point,
so it is built once into a frozen plan (:func:`aml_plan`, :func:`wed_plan`,
:func:`ed_plan`): the run offsets and weights, and A-ML's class split with
its gather layout. The public ``*_estimate`` calls build a plan per call; the
harness builds one per point and chunk of trials. Each kernel has one entry
that public calls and sweeps share: ``AmlPlan.scores`` for A-ML, and
:func:`energy_scores` for WED and ED, which scores a group of windows'
per-sample energies at once, a public call being a group of one,
bit-identical to scoring each window on its own.

A-ML's per-window buffers (the table laid out by period, the squares, the
mixture accumulators, the sparse cells' gather and fold) are scratch:
given a workspace, ``AmlPlan.scores`` takes them from it (see
:func:`~zpsync.likelihood.scratch`). The harness keeps one workspace per
serial sweep, shared by every point and chunk, so the buffers grow to the
largest point's once and are reused every window; buffers freed after each
window would be handed back to the system and faulted in again by the
next. The public ``aml_estimate`` call allocates its buffers per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ReceivedWindow
from .likelihood import (
    NoiseMixture,
    VarianceProfile,
    cell_constants,
    fold_cells,
    loglik_class_table,
    scratch,
)
from .waveform import ConfigError, SystemConfig, _check_ints


@dataclass(frozen=True)
class HypothesisSet:
    """Contiguous search set of integer timing offsets [d_min, d_max]."""

    d_min: int
    d_max: int

    def __post_init__(self) -> None:
        _check_ints(self, ("d_min", "d_max"))
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
    scores: np.ndarray  # one per hypothesis, d_min first


def check_finite(samples: np.ndarray) -> None:
    """Refuse a window that holds a non-finite sample."""
    if not np.isfinite(samples).all():
        raise ConfigError("window holds non-finite samples")


def energy_terms(samples: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The window's per-sample energies summed over the receive antennas,
    laid out period by period in the C-contiguous ``out``
    (n_periods + 1, n_s) as :func:`_fold` reads them: zero past the
    window's end, and a window longer than ``out`` cut there, since no fold
    reads further.

    Each antenna's energies are its magnitudes squared, written into
    ``out`` for the first antenna and added to it for the others in
    antenna order: the sum over the antennas that ``np.sum`` takes, bit
    for bit, without its two window-sized temporaries."""
    flat = out.reshape(-1)
    n = min(samples.shape[-1], flat.size)
    total = flat[:n]
    np.abs(samples[0, :n], out=total)
    np.square(total, out=total)
    if len(samples) > 1:
        energy = np.empty(n)
        for antenna in samples[1:, :n]:
            np.abs(antenna, out=energy)
            np.square(energy, out=energy)
            total += energy
    flat[n:] = 0.0
    return out


def _run_offsets(edges: np.ndarray, n_s: int, hyp: HypothesisSet) -> tuple[np.ndarray, np.ndarray]:
    """Columns of the ``_fold`` output that bound each run of one period
    under each hypothesis.

    ``edges`` are the ascending run edges within a period of ``n_s``
    samples, run ``j`` spanning ``[edges[j], edges[j + 1])``. Returns
    ``(lo, hi)``, row ``i`` for ``d = d_min + i`` and column ``j`` for run
    ``j``.
    """
    offsets = (edges + n_s)[None, :] - hyp.values[:, None]
    return offsets[:, :-1], offsets[:, 1:]


def _period_count(m: int, n_s: int, d_max: int) -> int:
    """Periods of the stream that some hypothesis up to ``d_max`` reads in a
    window of ``m`` samples: later periods start past every last sample."""
    return max(1, -(-(d_max + m) // n_s))


def _fold(terms: np.ndarray, n_periods: int) -> np.ndarray:
    """Prefix sums of per-sample terms added up over the first
    ``n_periods`` periods of the stream.

    ``terms[..., p, j]`` is the term of window sample ``p * n_s + j``, zero
    past the window's end, for periods ``p <= n_periods``; later periods are
    not read. With ``S(k)`` the sum of the terms of the first ``k`` window
    samples (0 for ``k <= 0``), returns ``out`` (..., 3 * n_s) with
    ``out[..., x + n_s]`` the sum over periods ``p < n_periods`` of
    ``S(p * n_s + x)`` for every ``x`` in ``[-n_s, 2 * n_s)``. A run from
    ``b`` to ``e`` then adds ``out[e - d + n_s] - out[b - d + n_s]`` to
    hypothesis ``d``: its segments in those periods at once, clipped to the
    window. The caller picks the count: ``_period_count`` for every period
    some hypothesis reads, or fewer to leave the later periods out.

    The terms are added up over the periods first, so the only cumulative
    sums run over three periods' worth, not the window: at ``x - n_s`` the
    sum loses its last period and gains the one before index 0, where every
    term is 0; at ``x + n_s`` it loses its first period and gains the one
    after its last. Each of these three rows starts from a constant, the sum
    of ``S(p * n_s)`` over its periods, which the period totals give, so a
    row's cumulative sum adds up only its own terms. Every sum runs along
    one row of ``terms``, so a row of a group folds bit for bit as it folds
    alone.
    """
    n_s = terms.shape[-1]
    lead = terms.shape[:-2]
    # ufunc methods, not np.sum and np.cumsum, whose wrappers add a fixed
    # cost per call that short windows feel (C10 times the public call)
    # whole[..., i] = sum of S(p * n_s) over p < i, from two cumulative sums
    # of the period totals behind two leading zeros
    whole = np.zeros(lead + (n_periods + 2,))
    np.add.reduce(terms[..., :n_periods, :], axis=-1, out=whole[..., 2:])
    np.add.accumulate(whole, axis=-1, out=whole)
    np.add.accumulate(whole, axis=-1, out=whole)
    out = np.empty(lead + (3, n_s))
    # column 0 of each row holds its constant, column j + 1 its term at j
    out[..., 0] = whole[..., -3:]
    low, mid, high = out[..., 0, 1:], out[..., 1, 1:], out[..., 2, 1:]
    np.add.reduce(terms[..., : n_periods - 1, :-1], axis=-2, out=low)
    np.add(low, terms[..., n_periods - 1, :-1], out=mid)
    np.subtract(mid, terms[..., 0, :-1], out=high)
    high += terms[..., n_periods, :-1]
    np.add.accumulate(out, axis=-1, out=out)
    return out.reshape(lead + (3 * n_s,))


def _best(scores: np.ndarray, hyp: HypothesisSet, maximize: bool, tag: str) -> np.ndarray:
    """The offset with the best score along the last axis of ``scores``."""
    if not np.isfinite(scores).all():
        raise ConfigError(f"{tag} scores are not finite: sample magnitudes overflow")
    # argmax/argmin return the first optimum, i.e. the smallest d
    return hyp.d_min + (scores.argmax(axis=-1) if maximize else scores.argmin(axis=-1))


def _estimate(plan, scores: np.ndarray) -> EstimateResult:
    return EstimateResult(int(plan.decide(scores)), scores)


@dataclass(frozen=True, eq=False)
class AmlPlan:
    """What A-ML reads besides the window at one sweep point: the variance
    classes split into dense table rows and sparse cells, and the layout of
    each part. Built by :func:`aml_plan` for windows of one length."""

    hyp: HypothesisSet
    parts: tuple  # scorers of the dense rows and of the sparse cells, in this order
    tag = "aml"

    def scores(self, samples: np.ndarray, work: dict | None = None) -> np.ndarray:
        """Scores of one window. The parts' scratch buffers come from the
        workspace ``work`` when one is given (see
        :func:`~zpsync.likelihood.scratch`), else they are allocated per
        call; the scores are a new array either way."""
        # one part at a time: the parts share the workspace's buffers, or
        # without one, each part's buffers are freed before the next
        # allocates its own
        first, *rest = self.parts
        scores = first(samples, work)
        for part in rest:
            scores += part(samples, work)
        return scores

    def decide(self, scores: np.ndarray) -> np.ndarray:
        return _best(scores, self.hyp, maximize=True, tag=self.tag)


def aml_plan(vp: VarianceProfile, mixture: NoiseMixture, hyp: HypothesisSet, m: int) -> AmlPlan:
    """A-ML's scoring plan for windows of ``m`` samples."""
    hyp.validate_against(vp.block_len)
    n_periods = _period_count(m, vp.block_len, hyp.d_max)
    dense, sparse = _split_classes(vp, mixture, hyp, m, n_periods)
    parts = []
    if dense.any():
        parts.append(_dense_rows(vp, mixture, hyp, dense, n_periods, m))
    if sparse.any():
        parts.append(_sparse_cells(vp, mixture, hyp, sparse, n_periods, m))
    return AmlPlan(hyp, tuple(parts))


def aml_estimate(
    window: ReceivedWindow,
    vp: VarianceProfile,
    mixture: NoiseMixture,
    hyp: HypothesisSet,
) -> EstimateResult:
    """Approximate ML estimate: the offset whose shifted variance profile
    maximizes the window log-likelihood, summed over receive antennas."""
    plan = aml_plan(vp, mixture, hyp, window.length)
    check_finite(window.samples)
    return _estimate(plan, plan.scores(window.samples))


def _split_classes(
    vp: VarianceProfile, mixture: NoiseMixture, hyp: HypothesisSet, m: int, n_periods: int
) -> tuple[np.ndarray, np.ndarray]:
    """Which variance classes are scored from a dense table row and which
    from their reachable cells alone: ``(dense, sparse)``, boolean per class.

    A run of length L read by n_d hypotheses reaches L + n_d - 1 window
    positions per period. A class whose runs reach at least m cells in all,
    about a table row's worth, takes a row; a class that reaches fewer, but
    some, is sparse. Class 0 also counts the samples below stream index 0
    that hypotheses d < 0 read. Single-component noise keeps every row: its
    cells cost three flops, so the gather would not pay.
    """
    n_classes = vp.class_values.size
    if mixture.n_components == 1:
        return np.ones(n_classes, dtype=bool), np.zeros(n_classes, dtype=bool)
    cells = np.bincount(
        vp.run_class, weights=np.diff(vp.run_edges) + hyp.size - 1, minlength=n_classes
    ) * n_periods
    if hyp.d_min < 0:
        cells[0] += hyp.size - 1 - hyp.d_min
    dense = cells >= m
    return dense, ~dense & (cells > 0)


def _dense_rows(
    vp: VarianceProfile,
    mixture: NoiseMixture,
    hyp: HypothesisSet,
    dense: np.ndarray,
    n_periods: int,
    m: int,
):
    """Scorer of the runs of the ``dense`` classes, from their rows of the
    likelihood table folded over the periods."""
    classes = np.flatnonzero(dense)
    n_s = vp.block_len
    runs = dense[vp.run_class]
    # each dense run's bounds per hypothesis, as indices into the flattened
    # fold, whose row i holds class classes[i] from column 3 * i * n_s on,
    # at the columns _run_offsets gives within a row
    row = 3 * n_s * (dense.cumsum() - 1)[vp.run_class[runs]]
    lo, hi = (bound[:, runs] + row for bound in _run_offsets(vp.run_edges, n_s, hyp))
    # stream indices below 0 are class 0: the first -d samples when d < 0
    below = np.maximum(-hyp.values, 0) if hyp.d_min < 0 and dense[0] else None

    def scores(samples: np.ndarray, work: dict | None) -> np.ndarray:
        # the table lands period by period in a buffer of n_periods + 1
        # whole periods, zero past the window, which the fold reads as it is
        terms = scratch(work, "terms", (classes.size, n_periods + 1, n_s))
        flat = terms.reshape(classes.size, -1)
        loglik_class_table(samples, vp, mixture, classes, flat[:, :m], work)
        flat[:, m:] = 0.0
        folded = _fold(terms, n_periods).ravel()
        total = (folded[hi] - folded[lo]).sum(axis=1)
        if below is not None:
            # below 0 reads class 0's first -d samples; -d < n_s
            total += np.concatenate([[0.0], np.cumsum(terms[0, 0])])[below]
        return total

    return scores


def _sparse_cells(
    vp: VarianceProfile,
    mixture: NoiseMixture,
    hyp: HypothesisSet,
    sparse: np.ndarray,
    n_periods: int,
    m: int,
):
    """Scorer of the runs of the ``sparse`` classes, from their reachable
    cells alone.

    Run j spans ``[b_j, e_j)`` of a period, L_j = e_j - b_j samples. Cell i
    of the run stands for period position ``b_j - d_max + i``, for i below
    L_j + n_d - 1, and hypothesis d reads cells ``d_max - d`` up to
    ``d_max - d + L_j - 1``. The cells are gathered in every period in one
    call, zeroed outside the window and added up over the periods; a length-L_j
    sliding sum, as a difference of one prefix sum over every run's cells,
    then gives each hypothesis's term. Class 0's stretch below stream index
    0 is one more run, from ``d_min`` to 0, in the first period only.
    """
    runs = sparse[vp.run_class]
    b = vp.run_edges[:-1][runs]
    e = vp.run_edges[1:][runs]
    run_class = vp.run_class[runs]
    below_zero = hyp.d_min < 0 and sparse[0]
    if below_zero:
        b = np.append(b, hyp.d_min)
        e = np.append(e, 0)
        run_class = np.append(run_class, 0)
    lengths = e - b
    widths = lengths + hyp.size - 1
    starts = np.cumsum(widths) - widths
    base = np.repeat(b - hyp.d_max - starts, widths) + np.arange(widths.sum())
    positions = np.arange(n_periods)[:, None] * vp.block_len + base
    outside = (positions < 0) | (positions >= m)
    if below_zero:
        outside[1:, starts[-1] :] = True
    np.clip(positions, 0, m - 1, out=positions)
    constants = cell_constants(np.repeat(run_class, widths), vp, mixture)
    first = starts + (hyp.d_max - hyp.values)[:, None]
    last = first + lengths

    def scores(samples: np.ndarray, work: dict | None) -> np.ndarray:
        cells = fold_cells(samples, positions, *constants, work=work)
        np.copyto(cells, 0.0, where=outside)
        csum = np.concatenate([[0.0], np.cumsum(cells.sum(axis=0))])
        return (csum[last] - csum[first]).sum(axis=1)

    return scores


@dataclass(frozen=True, eq=False)
class EnergyPlan:
    """What WED or ED reads besides a window's per-sample energies at one
    sweep point: the fold's period count, the fold columns ``lo`` and ``hi``
    that bound each run per hypothesis, and each run's weight. Windows are
    scored through :func:`energy_scores`; ``gather`` reads the fold of their
    energies with any leading shape: one window, or a group of them, one
    per row."""

    tag: str
    hyp: HypothesisSet
    n_s: int
    n_periods: int
    lo: np.ndarray
    hi: np.ndarray
    weights: np.ndarray

    def terms(self, samples: np.ndarray) -> np.ndarray:
        """One window's energies, in a new array of the periods this plan folds."""
        return energy_terms(samples, np.empty((self.n_periods + 1, self.n_s)))

    def gather(self, folded: np.ndarray) -> np.ndarray:
        # over a group of rows the gathers come out with the row axis
        # innermost in memory; a matmul over that layout sums in another
        # order than over one window's, so copy to C order first
        return np.subtract(folded[..., self.hi], folded[..., self.lo], order="C") @ self.weights

    def decide(self, scores: np.ndarray) -> np.ndarray:
        return _best(scores, self.hyp, maximize=False, tag=self.tag)


def energy_scores(plans, terms: np.ndarray) -> np.ndarray:
    """Scores of a group of windows, row ``k`` from the energies
    ``terms[k]`` under ``plans[k]``, bit for bit the scores of that window
    alone: a group of one, as the public calls score.
    The plans differ only in their runs and weights (one sweep point,
    per-trial profiles), so the group shares one fold and, when all rows
    share a plan, one gather. ``terms`` may hold more periods than the
    plans fold."""
    plan = plans[0]
    folded = _fold(terms, plan.n_periods)
    if all(p is plan for p in plans):
        return plan.gather(folded)
    return np.stack([p.gather(row) for p, row in zip(plans, folded)])


def wed_plan(vp: VarianceProfile, noise_var: float, hyp: HypothesisSet, m: int) -> EnergyPlan:
    """WED's scoring plan for windows of ``m`` samples."""
    if hyp.d_min < 0:
        raise ConfigError("weighted energy detector is defined only for d >= 0")
    if not noise_var > 0:
        raise ConfigError("noise_var must be positive")
    hyp.validate_against(vp.block_len)
    inv_w = 1.0 / (vp.class_values + noise_var / 2.0)
    lo, hi = _run_offsets(vp.run_edges, vp.block_len, hyp)
    n_periods = _period_count(m, vp.block_len, hyp.d_max)
    return EnergyPlan("wed", hyp, vp.block_len, n_periods, lo, hi, inv_w[vp.run_class])


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
    plan = wed_plan(vp, noise_var, hyp, window.length)
    check_finite(window.samples)
    return _estimate(plan, energy_scores([plan], plan.terms(window.samples)))


def ed_plan(cfg: SystemConfig, hyp: HypothesisSet, m: int) -> EnergyPlan:
    """ED's scoring plan for windows of ``m`` samples: one run per period,
    the zero tail taken from the config (zero-power taps cannot move it),
    over exactly ``n_blocks`` periods."""
    if hyp.d_min < 0:
        raise ConfigError("energy detector is defined only for d >= 0")
    hyp.validate_against(cfg.block_len)
    if m < cfg.window_len:
        raise ConfigError("window shorter than n_blocks * block_len")
    tail = np.array([cfg.n_data + cfg.n_taps - 1, cfg.block_len])
    lo, hi = _run_offsets(tail, cfg.block_len, hyp)
    return EnergyPlan("ed", hyp, cfg.block_len, cfg.n_blocks, lo, hi, np.ones(1))


def ed_estimate(
    window: ReceivedWindow,
    hyp: HypothesisSet,
) -> EstimateResult:
    """Energy detector: total energy over the hypothesized zero-tail regions.

    Per block r < n_blocks, the hypothesized noise-only span of the capture
    runs from n_data + n_taps - 1 + r*block_len - d through
    (r+1)*block_len - 1 - d. Spans that start before the capture are clipped
    at 0; block n_blocks is not used, even when the window reaches into it.
    """
    plan = ed_plan(window.config, hyp, window.length)
    check_finite(window.samples)
    return _estimate(plan, energy_scores([plan], plan.terms(window.samples)))
