import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
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
from zpsync.channel import ChannelRealization, ReceivedWindow, convolve_frame, draw_channel, substream
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
        profile=DelayProfile(np.ones(config.n_taps) / config.n_taps),
        mixture=GAUSSIAN,
        seed=(0,),
        channel=ChannelRealization(np.zeros((1, 1, config.n_taps), dtype=np.complex128)),
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


class TestAmlEstimate:
    def test_high_snr_recovers_offset(self, paper_config, sim_profile, impulsive_mixture):
        cfg = dataclasses.replace(paper_config, snr_db=40.0)
        scaled = scale_mixture_to_snr(impulsive_mixture, 1.0, 40.0)
        vp = variance_profile_h0(cfg, sim_profile)
        hyp = HypothesisSet(-30, 30)
        window = assemble_window(cfg, sim_profile, scaled, d_true=17, seed=(42, 0), d_pad=30)
        result = aml_estimate(window, vp, scaled, hyp)
        assert result.d_hat == 17
        assert result.estimator_id == "aml"
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
        assert result.estimator_id == "wed"

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
        taps = draw_channel(sim_profile, 1, 1, substream(*seed)).taps[0, 0]
        n_gen = paper_config.n_blocks + 1
        frame = np.concatenate(
            [
                generate_block(paper_config, 0, n, substream(*seed, 1, n)).samples
                for n in range(n_gen)
            ]
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


@st.composite
def kernel_cases(draw):
    """A small link, a hypothesis set anywhere in (-block_len, block_len) and
    a window generated at an offset inside it, cut to any length."""
    n_taps = draw(st.integers(1, 5))
    cfg = SystemConfig(
        n_data=draw(st.integers(1, 24)),
        n_zero=draw(st.integers(n_taps, n_taps + 6)),
        n_taps=n_taps,
        n_blocks=draw(st.integers(1, 3)),
        n_rx=draw(st.sampled_from([1, 2])),
        mod_order=4,
        snr_db=draw(st.sampled_from([0.0, 10.0, 30.0])),
    )
    n_s = cfg.block_len
    d_min = draw(st.integers(-(n_s - 1), n_s - 1))
    d_max = draw(st.integers(d_min, n_s - 1))
    d_true = draw(st.integers(d_min, d_max))
    base = NoiseMixture.impulsive(0.9, 1.0, 100.0) if draw(st.booleans()) else GAUSSIAN
    mixture = scale_mixture_to_snr(base, cfg.signal_power, cfg.snr_db)
    profile = DelayProfile.exponential(1.0, draw(st.sampled_from([0.05, 0.5])), n_taps)
    window = assemble_window(
        cfg, profile, mixture, d_true, seed=(draw(st.integers(0, 2**16)), 3),
        d_pad=max(0, -d_min),
    )
    window = dataclasses.replace(
        window, samples=window.samples[:, : draw(st.integers(1, window.length))]
    )
    return window, variance_profile_h0(cfg, profile), mixture, HypothesisSet(d_min, d_max)


# absolute floor for scores whose per-sample terms cancel to near zero
SCORE_ATOL = 1e-9


class TestSegmentKernel:
    """The run-based scores equal plain per-hypothesis sums over the window."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(kernel_cases())
    def test_aml_scores_equal_window_loglik(self, case):
        window, vp, mixture, hyp = case
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
