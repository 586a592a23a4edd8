import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from zpsync import (
    ConfigError,
    DelayProfile,
    HypothesisSet,
    NoiseMixture,
    SystemConfig,
    aml_estimate,
    assemble_window,
    ed_estimate,
    scale_mixture_to_snr,
    variance_profile_h0,
    wed_estimate,
    window_loglik,
)
from zpsync import estimators, presets
from zpsync.channel import ReceivedWindow, convolve_frame, draw_channel, substream
from zpsync.likelihood import VarianceProfile
from zpsync.waveform import generate_block

GAUSSIAN = NoiseMixture.gaussian(1.0)


def make_window(samples: np.ndarray, config: SystemConfig, d_true: int = 0) -> ReceivedWindow:
    """Wrap raw samples for estimator-level tests."""
    samples = np.atleast_2d(np.asarray(samples, dtype=np.complex128))
    return ReceivedWindow(
        samples=samples,
        d_true=d_true,
        config=config,
        channel=np.zeros((1, 1, config.n_taps), dtype=np.complex128),
    )


class TestHypothesisSet:
    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            HypothesisSet(3, 2)

    def test_bounds_checked_against_block(self):
        HypothesisSet(-531, 531).validate_against(532)
        with pytest.raises(ConfigError):
            HypothesisSet(-532, 0).validate_against(532)
        with pytest.raises(ConfigError):
            HypothesisSet(0, 532).validate_against(532)

    def test_values(self):
        np.testing.assert_array_equal(HypothesisSet(-2, 1).values, [-2, -1, 0, 1])

    @pytest.mark.parametrize("bounds", [(0.5, 3), (-30.0, 30), (True, 3)])
    def test_non_int_bounds_rejected(self, bounds):
        # (-30.0, 30) used to pass and fail in aml_estimate with an IndexError
        with pytest.raises(ConfigError, match="d_min must be an int"):
            HypothesisSet(*bounds)

    def test_numpy_int_bounds_accepted(self):
        assert HypothesisSet(np.int64(-2), np.int64(1)).size == 4


class TestAmlEstimate:
    def test_high_snr_recovers_offset(self, paper_config, sim_profile, impulsive_mixture):
        cfg = dataclasses.replace(paper_config, snr_db=40.0)
        scaled = scale_mixture_to_snr(impulsive_mixture, 1.0, 40.0)
        vp = variance_profile_h0(cfg, sim_profile)
        hyp = HypothesisSet(-30, 30)
        window = assemble_window(cfg, sim_profile, scaled, d_true=17, seed=(42, 0), d_pad=30)
        result = aml_estimate(window, vp, scaled, hyp)
        assert result.d_hat == 17
        assert result.scores.size == 61

    def test_tie_breaks_to_smallest_offset(self):
        # all-zero profile: every hypothesis sees the same variance class
        cfg = SystemConfig(n_data=8, n_zero=4, n_taps=2, n_blocks=1, mod_order=16)
        vp = VarianceProfile(np.zeros(12))
        window = make_window(np.array([0.3 + 0.1j]), cfg)
        result = aml_estimate(window, vp, GAUSSIAN, HypothesisSet(-5, 5))
        assert np.all(result.scores == result.scores[0])
        assert result.d_hat == -5

    def test_scores_match_public_loglik(self, sim_profile, impulsive_mixture, rng):
        cfg = SystemConfig(n_blocks=1)
        scaled = scale_mixture_to_snr(impulsive_mixture, 1.0, 5.0)
        vp = variance_profile_h0(cfg, sim_profile)
        window = assemble_window(cfg, sim_profile, scaled, 3, seed=(1, 2), d_pad=10)
        result = aml_estimate(window, vp, scaled, HypothesisSet(-10, 10))
        for i, d in enumerate(range(-10, 11)):
            direct = window_loglik(window.samples, d, vp, scaled).loglik
            assert result.scores[i] == pytest.approx(direct, rel=1e-12)

    def test_joint_scale_invariance(self, sim_profile, impulsive_mixture):
        # scaling samples with signal and noise power together moves every
        # log-likelihood by a constant, so the decision cannot change
        cfg = SystemConfig(n_blocks=2, snr_db=8.0)
        scaled = scale_mixture_to_snr(impulsive_mixture, 1.0, 8.0)
        vp = variance_profile_h0(cfg, sim_profile)
        hyp = HypothesisSet(-20, 20)
        window = assemble_window(cfg, sim_profile, scaled, -4, seed=(9, 1), d_pad=20)
        base = aml_estimate(window, vp, scaled, hyp)

        c = 7.3
        scaled_up = NoiseMixture(scaled.probs, scaled.variances * c)
        cfg_up = dataclasses.replace(cfg, signal_power=c)
        vp_up = variance_profile_h0(cfg_up, sim_profile)
        window_up = make_window(window.samples * np.sqrt(c), cfg_up, window.d_true)
        rescaled = aml_estimate(window_up, vp_up, scaled_up, hyp)
        assert rescaled.d_hat == base.d_hat
        np.testing.assert_allclose(
            np.diff(rescaled.scores - base.scores), 0.0, atol=1e-8
        )

    def test_empty_hypothesis_config_error(self, sim_profile, impulsive_mixture):
        cfg = SystemConfig(n_blocks=1)
        vp = variance_profile_h0(cfg, sim_profile)
        window = assemble_window(cfg, sim_profile, impulsive_mixture, 0, seed=1)
        with pytest.raises(ConfigError):
            aml_estimate(window, vp, impulsive_mixture, HypothesisSet(5, 4))


class TestWedEstimate:
    def test_requires_nonnegative_offsets(self, paper_config, sim_profile):
        vp = variance_profile_h0(paper_config, sim_profile)
        window = make_window(np.zeros(paper_config.window_len), paper_config)
        with pytest.raises(ConfigError):
            wed_estimate(window, vp, 1.0, HypothesisSet(-1, 30))

    def test_agrees_with_aml_under_gaussian_noise(self, paper_config, sim_profile):
        # the dropped normalization constant is hypothesis-independent because
        # every full-period window sees the same variance multiset
        scaled = scale_mixture_to_snr(NoiseMixture.gaussian(), 1.0, 10.0)
        vp = variance_profile_h0(paper_config, sim_profile)
        hyp = HypothesisSet(0, 531)
        for trial in range(5):
            d_true = int(substream(77, trial, 4).integers(0, 532))
            window = assemble_window(
                paper_config, sim_profile, scaled, d_true, seed=(77, trial), d_pad=0
            )
            a = aml_estimate(window, vp, scaled, hyp)
            w = wed_estimate(window, vp, float(scaled.variances[0]), hyp)
            assert w.d_hat == a.d_hat

    def test_high_snr_minimizes_at_true_offset(self, paper_config, sim_profile):
        scaled = scale_mixture_to_snr(NoiseMixture.gaussian(), 1.0, 40.0)
        vp = variance_profile_h0(paper_config, sim_profile)
        window = assemble_window(paper_config, sim_profile, scaled, 12, seed=(5, 5), d_pad=0)
        result = wed_estimate(window, vp, float(scaled.variances[0]), HypothesisSet(0, 30))
        assert result.d_hat == 12

    def test_constant_profile_degenerates_to_first_offset(self):
        cfg = SystemConfig(n_data=8, n_zero=4, n_taps=2, n_blocks=1, mod_order=16)
        vp = VarianceProfile(np.full(12, 0.25))
        window = make_window(np.arange(1, 13) + 0j, cfg)
        result = wed_estimate(window, vp, 0.5, HypothesisSet(0, 6))
        assert np.all(result.scores == result.scores[0])
        assert result.d_hat == 0


class TestEdEstimate:
    def test_tail_region_arithmetic(self, paper_config):
        # first hypothesized noise-only span for d=0 is [521, 531]: 11 samples
        energy = np.ones(paper_config.window_len)
        marks = np.zeros(paper_config.window_len)
        for r in range(paper_config.n_blocks):
            lo = 512 + 10 - 1 + r * 532
            hi = (r + 1) * 532 - 1
            assert hi - lo + 1 == 11
            marks[lo : hi + 1] = 1.0
        window = make_window(np.sqrt(energy), paper_config)
        result = ed_estimate(window, HypothesisSet(0, 30))
        assert result.scores[0] == pytest.approx(marks.sum())
        assert result.scores[0] == pytest.approx(11 * paper_config.n_blocks)

    def test_statistic_matches_hand_summation(self, paper_config, rng):
        # oracle: accumulate |y|^2 over explicitly enumerated index sets
        y = rng.standard_normal(paper_config.window_len) + 1j * rng.standard_normal(
            paper_config.window_len
        )
        window = make_window(y, paper_config)
        result = ed_estimate(window, HypothesisSet(0, 30))
        e = np.abs(y) ** 2
        for i, d in enumerate(range(0, 31)):
            expected = 0.0
            for r in range(paper_config.n_blocks):
                lo = 512 + 10 - 1 + r * 532 - d
                hi = (r + 1) * 532 - 1 - d
                expected += e[max(lo, 0) : hi + 1].sum()
            assert result.scores[i] == pytest.approx(expected, rel=1e-12)

    def test_noise_free_statistic_exactly_zero(self, paper_config, sim_profile):
        # channel tails die inside the zero pad, so the true-offset regions
        # carry no energy at all
        d_true = 9
        seed = (31, 0)
        taps = draw_channel(sim_profile, 1, 1, substream(*seed))[0, 0]
        n_gen = paper_config.n_blocks + 1
        frame = np.concatenate(
            [generate_block(paper_config, substream(*seed, 1, n)) for n in range(n_gen)]
        )
        clean = convolve_frame(frame, taps)
        window = make_window(
            clean[d_true : d_true + paper_config.window_len], paper_config, d_true
        )
        result = ed_estimate(window, HypothesisSet(0, 30))
        assert result.scores[d_true] == 0.0
        assert result.d_hat == d_true

    def test_region_permutation_insensitive(self, paper_config, rng):
        y = rng.standard_normal(paper_config.window_len) + 0j
        base = ed_estimate(make_window(y, paper_config), HypothesisSet(0, 0)).scores[0]
        shuffled = y.copy()
        region = slice(521, 532)
        shuffled[region] = shuffled[region][::-1]
        after = ed_estimate(make_window(shuffled, paper_config), HypothesisSet(0, 0)).scores[0]
        assert after == pytest.approx(base, rel=1e-14)

    def test_requires_nonnegative_offsets(self, paper_config):
        window = make_window(np.zeros(paper_config.window_len), paper_config)
        with pytest.raises(ConfigError):
            ed_estimate(window, HypothesisSet(-3, 3))

    def test_short_window_rejected(self, paper_config):
        window = make_window(np.zeros(100), paper_config)
        with pytest.raises(ConfigError):
            ed_estimate(window, HypothesisSet(0, 3))


class TestAllEstimatorsHighSnr:
    def test_all_recover_true_offset(self, paper_config, sim_profile):
        cfg = dataclasses.replace(paper_config, snr_db=40.0)
        scaled = scale_mixture_to_snr(NoiseMixture.gaussian(), 1.0, 40.0)
        vp = variance_profile_h0(cfg, sim_profile)
        hyp = HypothesisSet(0, 30)
        hits = {"aml": 0, "wed": 0, "ed": 0}
        trials = 50
        for t in range(trials):
            d_true = int(substream(55, t, 4).integers(0, 31))
            window = assemble_window(cfg, sim_profile, scaled, d_true, seed=(55, t), d_pad=0)
            hits["aml"] += aml_estimate(window, vp, scaled, hyp).d_hat == d_true
            hits["wed"] += (
                wed_estimate(window, vp, float(scaled.variances[0]), hyp).d_hat == d_true
            )
            hits["ed"] += ed_estimate(window, hyp).d_hat == d_true
        for name, count in hits.items():
            assert count >= trials - 1, name


def small_config(draw) -> SystemConfig:
    """A small link observed over up to 8 blocks by one or two antennas."""
    n_taps = draw(st.integers(1, 5))
    return SystemConfig(
        n_data=draw(st.integers(1, 24)),
        n_zero=draw(st.integers(n_taps, n_taps + 6)),
        n_taps=n_taps,
        n_blocks=draw(st.integers(1, 8)),
        n_rx=draw(st.sampled_from([1, 2])),
        mod_order=4,
        snr_db=draw(st.sampled_from([0.0, 10.0, 30.0])),
    )


@st.composite
def kernel_cases(draw):
    """A small link observed over up to 8 blocks under a mixture of 1-3
    components, a hypothesis set anywhere in (-block_len, block_len) and a
    window generated at an offset inside it, cut to any length."""
    cfg = small_config(draw)
    n_s = cfg.block_len
    d_min = draw(st.integers(-(n_s - 1), n_s - 1))
    # few hypotheses half of the time: short runs then reach few cells
    n_d = draw(st.one_of(st.integers(1, 3), st.integers(1, n_s - d_min)))
    d_max = min(d_min + n_d - 1, n_s - 1)
    d_true = draw(st.integers(d_min, d_max))
    n_components = draw(st.integers(1, 3))
    weights = np.array([draw(st.integers(1, 20)) for _ in range(n_components)], dtype=float)
    variances = np.array(
        [draw(st.sampled_from([0.5, 1.0, 10.0, 100.0])) for _ in range(n_components)]
    )
    mixture = scale_mixture_to_snr(
        NoiseMixture(weights / weights.sum(), variances), cfg.signal_power, cfg.snr_db
    )
    profile = DelayProfile.exponential(1.0, draw(st.sampled_from([0.05, 0.5])), cfg.n_taps)
    window = assemble_window(
        cfg, profile, mixture, d_true, seed=(draw(st.integers(0, 2**16)), 3),
        d_pad=max(0, -d_min),
    )
    window = dataclasses.replace(
        window, samples=window.samples[:, : draw(st.integers(1, window.length))]
    )
    return window, variance_profile_h0(cfg, profile), mixture, HypothesisSet(d_min, d_max)


@st.composite
def ed_cases(draw):
    """A small link observed over up to 8 blocks under Gaussian noise, a
    hypothesis set in [0, block_len) and the full window, followed by up to
    two blocks of loud samples that ED must not read."""
    cfg = small_config(draw)
    n_s = cfg.block_len
    d_min = draw(st.integers(0, n_s - 1))
    d_max = draw(st.integers(d_min, n_s - 1))
    mixture = scale_mixture_to_snr(NoiseMixture.gaussian(), cfg.signal_power, cfg.snr_db)
    profile = DelayProfile.exponential(1.0, draw(st.sampled_from([0.05, 0.5])), cfg.n_taps)
    window = assemble_window(
        cfg, profile, mixture, draw(st.integers(d_min, d_max)),
        seed=(draw(st.integers(0, 2**16)), 5), d_pad=0,
    )
    loud = np.full((cfg.n_rx, draw(st.integers(0, 2 * n_s))), 1e3 + 0j)
    samples = np.concatenate([window.samples, loud], axis=1)
    return dataclasses.replace(window, samples=samples), HypothesisSet(d_min, d_max)


class TestDenseRows:
    """Which classes the A-ML call builds dense table rows for."""

    @staticmethod
    def rows_built(monkeypatch, preset_overrides, d_min, d_max):
        settings_ = presets.merge_settings(presets.load_preset("fig5"), preset_overrides)
        cfg = presets.config_from_settings(settings_)
        profile = presets.profile_from_settings(settings_, cfg.n_taps)
        mixture = scale_mixture_to_snr(
            presets.mixture_from_settings(settings_), cfg.signal_power, 5.0
        )
        vp = variance_profile_h0(cfg, profile)
        window = assemble_window(cfg, profile, mixture, 0, seed=(3, 0), d_pad=max(0, -d_min))
        built = []

        def spy(*args, **kwargs):
            table = real(*args, **kwargs)
            built.append(table.shape[0])
            return table

        real = estimators.loglik_class_table
        monkeypatch.setattr(estimators, "loglik_class_table", spy)
        aml_estimate(window, vp, mixture, HypothesisSet(d_min, d_max))
        return sum(built), vp.class_values.size

    def test_fig5_impulsive_builds_fewer_rows_than_classes(self, monkeypatch):
        rows, n_classes = self.rows_built(monkeypatch, {}, -30, 30)
        # only the plateau's class reaches a window's worth of cells
        assert (rows, n_classes) == (1, 20)

    def test_full_range_builds_every_row(self, monkeypatch):
        rows, n_classes = self.rows_built(monkeypatch, {}, 0, 531)
        assert rows == n_classes

    def test_gaussian_noise_builds_every_row(self, monkeypatch):
        rows, n_classes = self.rows_built(monkeypatch, {"noise": "gaussian"}, -30, 30)
        assert rows == n_classes


class TestWorkspace:
    """A-ML scored into one reused scratch workspace, as a sweep scores
    every point of a trial chunk, equals the fresh public call bit for bit
    and allocates almost nothing once the workspace has grown."""

    @staticmethod
    def link(n_rx, n_blocks, noise, d_min, d_max):
        settings_ = presets.merge_settings(
            presets.load_preset("fig5"), {"n_blocks": n_blocks, "noise": noise}
        )
        cfg = dataclasses.replace(
            presets.config_from_settings(settings_), n_tx=n_rx, n_rx=n_rx, snr_db=5.0
        )
        profile = presets.profile_from_settings(settings_, cfg.n_taps)
        mixture = scale_mixture_to_snr(
            presets.mixture_from_settings(settings_), cfg.signal_power, cfg.snr_db
        )
        vp = variance_profile_h0(cfg, profile)
        hyp = HypothesisSet(d_min, d_max)
        return cfg, profile, mixture, vp, hyp, estimators.aml_plan(vp, mixture, hyp, cfg.window_len)

    def test_reused_workspace_scores_equal_public_call(self):
        work = {}
        # consecutive cases alternate antennas, then hypothesis sets, noise
        # and window lengths, so the buffers grow, shrink and grow again
        cases = itertools.product(
            [10, 1, 10], ["impulsive", "gaussian"], [(-30, 30), (0, 531)], [1, 2]
        )
        for t, (n_blocks, noise, (d_min, d_max), n_rx) in enumerate(cases):
            cfg, profile, mixture, vp, hyp, plan = self.link(n_rx, n_blocks, noise, d_min, d_max)
            window = assemble_window(
                cfg, profile, mixture, (7 * t) % (d_max + 1) + d_min, seed=(4, t),
                d_pad=max(0, -d_min),
            )
            np.testing.assert_array_equal(
                plan.scores(window.samples, work), aml_estimate(window, vp, mixture, hyp).scores
            )

    # (n_rx, noise, d_min, d_max, the offsets of two windows, bound on the
    # second window's traced peak in KiB)
    WARM_CASES = (
        # a fresh set of buffers for this window takes about 1.4 MB
        (2, "impulsive", -30, 30, (3, -12), 256),
        # the single-component table lands in the workspace's period buffer,
        # only its group scratch (about 0.5 MB) stays fresh; a fresh table
        # of the window, 20 x 5321 doubles, is 0.85 MB on its own
        (1, "gaussian", 0, 531, (3, 400), 768),
    )

    def test_warm_workspace_allocates_little(self):
        for n_rx, noise, d_min, d_max, offsets, bound_kib in self.WARM_CASES:
            cfg, profile, mixture, _, _, plan = self.link(n_rx, 10, noise, d_min, d_max)
            windows = [
                assemble_window(cfg, profile, mixture, d, seed=(5, k), d_pad=-d_min).samples
                for k, d in enumerate(offsets)
            ]
            work = {}
            plan.scores(windows[0], work)
            tracemalloc.start()
            try:
                plan.scores(windows[1], work)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound_kib * 1024, noise

    def test_public_call_frees_each_part_before_the_next(self):
        # aml_estimate scores without a workspace, so the dense rows'
        # buffers are freed before the sparse cells allocate theirs: a
        # traced peak of about 1580 KiB, against about 2070 KiB when one
        # workspace dict held both parts' buffers through the call
        cfg, profile, mixture, vp, hyp, _ = self.link(2, 10, "impulsive", -30, 30)
        window = assemble_window(cfg, profile, mixture, 3, seed=(6, 0), d_pad=30)
        for _ in range(2):
            aml_estimate(window, vp, mixture, hyp)
        tracemalloc.start()
        try:
            aml_estimate(window, vp, mixture, hyp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * 2**20, peak // 1024


# absolute floor for scores whose per-sample terms cancel to near zero
SCORE_ATOL = 1e-9


class TestSegmentKernel:
    """The run-based scores equal plain per-hypothesis sums over the window."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(kernel_cases())
    def test_aml_scores_equal_window_loglik(self, case):
        # long windows and few hypotheses send most classes of a mixture to
        # the sparse cells; n_d near block_len keeps them dense
        window, vp, mixture, hyp = case
        dense, sparse = estimators._split_classes(
            vp, mixture, hyp, window.length,
            estimators._period_count(window.length, vp.block_len, hyp.d_max),
        )
        event("sparse and dense" if sparse.any() and dense.any()
              else "sparse only" if sparse.any() else "dense only")
        result = aml_estimate(window, vp, mixture, hyp)
        ref = [window_loglik(window.samples, int(d), vp, mixture).loglik for d in hyp.values]
        np.testing.assert_allclose(result.scores, ref, rtol=1e-10, atol=SCORE_ATOL)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kernel_cases())
    def test_wed_scores_equal_weighted_energy(self, case):
        window, vp, mixture, hyp = case
        hyp = HypothesisSet(max(hyp.d_min, 0), max(hyp.d_max, 0))
        noise_var = float(mixture.variances[0])
        result = wed_estimate(window, vp, noise_var, hyp)
        energy = (np.abs(window.samples) ** 2).sum(axis=0)
        ref = [
            np.sum(energy / (vp.window(int(d), window.length) + noise_var / 2.0))
            for d in hyp.values
        ]
        np.testing.assert_allclose(result.scores, ref, rtol=1e-10, atol=SCORE_ATOL)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(ed_cases())
    def test_ed_scores_equal_tail_energy(self, case):
        # the zero tail of each of the n_blocks blocks, and nothing past them
        window, hyp = case
        cfg = window.config
        energy = (np.abs(window.samples) ** 2).sum(axis=0)
        tail = cfg.n_data + cfg.n_taps - 1
        ref = [
            sum(
                energy[max(r * cfg.block_len + tail - d, 0) : (r + 1) * cfg.block_len - d].sum()
                for r in range(cfg.n_blocks)
            )
            for d in hyp.values
        ]
        result = ed_estimate(window, hyp)
        np.testing.assert_allclose(result.scores, ref, rtol=1e-10, atol=SCORE_ATOL)

    def test_dense_rows_of_inner_classes(self, rng):
        # the runs of two inner classes reach a window's worth of cells and
        # take dense rows, the rest is sparse: each run must read its own
        # class's row
        body = np.array([0.5] + [2.0] * 40 + [1.0, 3.0] + [0.25] * 30 + [0.0] * 2)
        vp = VarianceProfile(body)
        mixture = NoiseMixture(np.array([0.7, 0.2, 0.1]), np.array([0.3, 3.0, 30.0]))
        y = (rng.standard_normal((2, 400)) + 1j * rng.standard_normal((2, 400))) * 1.3
        cfg = SystemConfig(n_data=60, n_zero=15, n_taps=2, n_blocks=5, n_rx=2, mod_order=4)
        hyp = HypothesisSet(-10, 29)
        dense, sparse = estimators._split_classes(
            vp, mixture, hyp, 400, estimators._period_count(400, vp.block_len, hyp.d_max)
        )
        np.testing.assert_array_equal(np.flatnonzero(dense), [1, 4])
        np.testing.assert_array_equal(np.flatnonzero(sparse), [0, 2, 3, 5])
        result = aml_estimate(make_window(y, cfg), vp, mixture, hyp)
        ref = [window_loglik(y, int(d), vp, mixture).loglik for d in hyp.values]
        np.testing.assert_allclose(result.scores, ref, rtol=1e-10, atol=SCORE_ATOL)

    def test_shift_consistency_at_high_snr(self, sim_profile):
        # windows one sample apart come from one stream, so the decisions
        # must move together
        cfg = SystemConfig(n_data=64, n_zero=12, n_taps=10, n_blocks=3, mod_order=16,
                           snr_db=35.0)
        mixture = scale_mixture_to_snr(NoiseMixture.gaussian(), 1.0, cfg.snr_db)
        vp = variance_profile_h0(cfg, sim_profile)
        hyp = HypothesisSet(0, 40)
        windows = [
            assemble_window(cfg, sim_profile, mixture, d, seed=(21, 4), d_pad=0)
            for d in (17, 18)
        ]
        for estimate in (
            lambda w: aml_estimate(w, vp, mixture, hyp),
            lambda w: wed_estimate(w, vp, float(mixture.variances[0]), hyp),
            lambda w: ed_estimate(w, hyp),
        ):
            first, second = (estimate(w).d_hat for w in windows)
            assert (first, second) == (17, 18)


class TestGroupScoring:
    """WED and ED scores of a group of windows, one fold and gather for all
    of them out of one energy buffer laid out as a sweep lays it out, equal
    each window's public call bit for bit."""

    # (preset, overrides, d_max, per-trial perturbed profiles)
    CASES = {
        "fig4-2-blocks": ("fig4", {"n_blocks": 2}, 30, False),
        "fig4-10-blocks": ("fig4", {}, 30, False),
        "fig2-full-range": ("fig2", {"noise": "gaussian"}, 531, False),
        "fig7-perturbed": ("fig7", {"noise": "gaussian"}, 30, True),
    }

    @pytest.fixture(scope="class", params=sorted(CASES))
    def group(self, request):
        preset, overrides, d_max, perturbed = self.CASES[request.param]
        settings_ = presets.merge_settings(presets.load_preset(preset), overrides)
        cfg = dataclasses.replace(presets.config_from_settings(settings_), snr_db=5.0)
        profile = presets.profile_from_settings(settings_, cfg.n_taps)
        mixture = scale_mixture_to_snr(NoiseMixture.gaussian(), cfg.signal_power, cfg.snr_db)
        noise_var = float(mixture.variances[0])
        hyp = HypothesisSet(0, d_max)
        windows, wed_plans = [], []
        vp = variance_profile_h0(cfg, profile)
        plan = estimators.wed_plan(vp, noise_var, hyp, cfg.window_len)
        for t in range(64):
            if perturbed:  # one plan per trial, as on the pdp_alpha axis
                signs = substream(9, t).integers(0, 2, size=cfg.n_taps) * 2 - 1
                vp = variance_profile_h0(cfg, profile.perturbed(0.3, signs))
                plan = estimators.wed_plan(vp, noise_var, hyp, cfg.window_len)
            windows.append((
                assemble_window(cfg, profile, mixture, (7 * t) % (d_max + 1), seed=(9, t), d_pad=0),
                vp,
            ))
            wed_plans.append(plan)
        ed_plans = [estimators.ed_plan(cfg, hyp, cfg.window_len)] * 64
        return windows, noise_var, hyp, wed_plans, ed_plans

    @pytest.mark.parametrize("size", [1, 5, 64])
    def test_scores_equal_public_calls(self, group, size):
        windows, noise_var, hyp, wed_plans, ed_plans = group
        # ED folds fewer periods than WED, out of the same buffer
        n_periods = max(wed_plans[0].n_periods, ed_plans[0].n_periods)
        assert ed_plans[0].n_periods < n_periods
        terms = np.empty((size, n_periods + 1, wed_plans[0].n_s))
        for k, (window, _) in enumerate(windows[:size]):
            estimators.energy_terms(window.samples, terms[k])
        wed = estimators.energy_scores(wed_plans[:size], terms)
        ed = estimators.energy_scores(ed_plans[:size], terms)
        for k, (window, vp) in enumerate(windows[:size]):
            np.testing.assert_array_equal(wed[k], wed_estimate(window, vp, noise_var, hyp).scores)
            np.testing.assert_array_equal(ed[k], ed_estimate(window, hyp).scores)


def reference_fold(window_terms: np.ndarray, n_s: int, n_periods: int) -> np.ndarray:
    """The fold from explicit prefix sums over the whole window:
    ``out[x + n_s]`` is the sum over periods ``p < n_periods`` of the prefix
    sum at ``clip(p * n_s + x, 0, m)``, for ``x`` in ``[-n_s, 2 * n_s)``."""
    m = window_terms.shape[-1]
    prefix = np.concatenate([[0.0], np.cumsum(window_terms)])
    x = np.arange(-n_s, 2 * n_s)
    return sum(prefix[np.clip(p * n_s + x, 0, m)] for p in range(n_periods))


class TestFold:
    """The period-first fold equals the fold of window-sized prefix sums,
    and a row of a group folds bit for bit as it folds alone."""

    @staticmethod
    def laid_out(window_terms: np.ndarray, n_s: int, n_periods: int) -> np.ndarray:
        """Terms period by period, zero past the window, cut after
        ``n_periods + 1`` periods."""
        lead, m = window_terms.shape[:-1], window_terms.shape[-1]
        flat = np.zeros(lead + ((n_periods + 1) * n_s,))
        n = min(m, flat.shape[-1])
        flat[..., :n] = window_terms[..., :n]
        return flat.reshape(lead + (n_periods + 1, n_s))

    # window lengths per period count: mid-period, at a period edge, and
    # past n_periods + 1 periods, as ED's appended loud tail
    @pytest.mark.parametrize("n_periods", [1, 2, 3, 11])
    @pytest.mark.parametrize("length", ["mid", "edge", "past"])
    def test_equals_window_prefix_sums(self, rng, n_periods, length):
        n_s = 7
        m = {"mid": n_periods * n_s - 3, "edge": n_periods * n_s, "past": (n_periods + 3) * n_s}
        window_terms = np.abs(rng.standard_normal((4, m[length]))) ** 0.5
        terms = self.laid_out(window_terms, n_s, n_periods)
        folded = estimators._fold(terms, n_periods)
        for row, window in zip(folded, window_terms):
            np.testing.assert_allclose(row, reference_fold(window, n_s, n_periods), rtol=1e-12)
        # every row of the batch is bit-equal to its fold alone
        for row, single in zip(folded, terms):
            np.testing.assert_array_equal(row, estimators._fold(single, n_periods))

    def test_reads_no_period_past_its_count(self, rng):
        # a buffer laid out for more periods than the fold reads (ED in a
        # sweep's energy buffer) folds as one laid out for its own count
        window_terms = rng.standard_normal(60)
        wide, narrow = (self.laid_out(window_terms, 8, p) for p in (6, 4))
        np.testing.assert_array_equal(estimators._fold(wide, 4), estimators._fold(narrow, 4))

    def test_dense_class_zero_below_stream_start(self):
        # Gaussian noise keeps class 0 dense, and hypotheses d < 0 read its
        # first -d samples below stream index 0
        settings_ = presets.merge_settings(presets.load_preset("fig5"), {"noise": "gaussian"})
        cfg = dataclasses.replace(presets.config_from_settings(settings_), snr_db=5.0)
        profile = presets.profile_from_settings(settings_, cfg.n_taps)
        mixture = scale_mixture_to_snr(NoiseMixture.gaussian(), cfg.signal_power, cfg.snr_db)
        vp = variance_profile_h0(cfg, profile)
        hyp = HypothesisSet(-40, 25)
        dense, _ = estimators._split_classes(
            vp, mixture, hyp, cfg.window_len,
            estimators._period_count(cfg.window_len, vp.block_len, hyp.d_max),
        )
        assert dense[0]
        window = assemble_window(cfg, profile, mixture, -17, seed=(6, 2), d_pad=40)
        result = aml_estimate(window, vp, mixture, hyp)
        ref = [window_loglik(window.samples, int(d), vp, mixture).loglik for d in hyp.values]
        np.testing.assert_allclose(result.scores, ref, rtol=1e-10)


class TestNonFiniteInput:
    """A prefix sum spreads one bad sample into every later segment, so the
    estimators refuse the window instead of returning d_min."""

    @pytest.fixture
    def link(self, paper_config, sim_profile):
        mixture = scale_mixture_to_snr(NoiseMixture.gaussian(), 1.0, 10.0)
        vp = variance_profile_h0(paper_config, sim_profile)
        window = assemble_window(paper_config, sim_profile, mixture, 5, seed=(8, 1), d_pad=0)
        return window, vp, mixture

    @staticmethod
    def estimators(vp, mixture):
        hyp = HypothesisSet(0, 30)
        return {
            "aml": lambda w: aml_estimate(w, vp, mixture, hyp),
            "wed": lambda w: wed_estimate(w, vp, float(mixture.variances[0]), hyp),
            "ed": lambda w: ed_estimate(w, hyp),
        }

    @pytest.mark.parametrize("est", ["aml", "wed", "ed"])
    def test_nan_sample_rejected(self, link, est):
        window, vp, mixture = link
        samples = window.samples.copy()
        samples[0, 1000] = np.nan
        with pytest.raises(ConfigError, match="non-finite samples"):
            self.estimators(vp, mixture)[est](make_window(samples, window.config))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("est", ["aml", "wed", "ed"])
    def test_overflowing_sample_rejected(self, link, est):
        window, vp, mixture = link
        samples = window.samples.copy()
        samples[0, 1000] = 1e200
        with pytest.raises(ConfigError, match="not finite"):
            self.estimators(vp, mixture)[est](make_window(samples, window.config))
