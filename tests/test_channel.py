from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zpsync import (
    ConfigError,
    DelayProfile,
    NoiseMixture,
    SystemConfig,
    assemble_window,
    draw_channel,
    draw_noise,
    generate_block,
    scale_mixture_to_snr,
)
from zpsync import channel as channel_module
from zpsync.channel import (
    STREAM_CHANNEL,
    STREAM_NOISE,
    STREAM_SIGNAL,
    _pcg64_seeds,
    _scale_noise,
    _seeded,
    convolve_frame,
    draw_stream,
    finish_stream,
    noise_power,
    stream_signal,
    substream,
    window_seeds,
)
from zpsync.presets import config_from_settings, load_preset, mixture_from_settings
from zpsync.waveform import read_iq_f64


class TestDelayProfile:
    def test_all_zero_rejected(self):
        with pytest.raises(ConfigError):
            DelayProfile(np.zeros(4))

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            DelayProfile(np.array([0.5, -0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a NaN tap used to pass and surface as non-finite window samples
        with pytest.raises(ConfigError, match="tap powers must be finite"):
            DelayProfile(np.array([bad, 1.0, 1.0]))
        with pytest.raises(ConfigError, match="tap powers must be finite"):
            DelayProfile.exponential(bad, 0.05, 4)

    def test_exponential_sum_matches_geometric_series(self):
        # independent oracle: alpha * (1 - e^(-n b)) / (1 - e^(-b))
        alpha, beta, n = 0.396, 0.5, 10
        profile = DelayProfile.exponential(alpha, beta, n)
        expected = alpha * (1 - np.exp(-n * beta)) / (1 - np.exp(-beta))
        assert profile.total_power == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.9996503735, abs=1e-9)

    def test_normalized_sums_to_one(self):
        profile = DelayProfile.exponential(0.396, 0.5, 10, normalized=True)
        assert profile.total_power == pytest.approx(1.0, abs=1e-12)

    def test_perturbed_bounds(self, sim_profile):
        signs = np.array([1, -1] * 5)
        perturbed = sim_profile.perturbed(0.7, signs)
        np.testing.assert_allclose(
            perturbed.powers, sim_profile.powers * (1 + 0.7 * signs)
        )
        with pytest.raises(ConfigError):
            sim_profile.perturbed(1.0, signs)


class TestDrawChannel:
    def test_single_tap_power(self, rng):
        profile = DelayProfile(np.array([1.0]))
        taps = draw_channel(profile, 1, 1, rng).ravel()
        more = np.concatenate([draw_channel(profile, 10, 10, rng).ravel() for _ in range(1000)])
        power = np.mean(np.abs(np.concatenate([taps, more])) ** 2)
        assert power == pytest.approx(1.0, rel=0.02)

    def test_tap_power_profile(self, rng):
        profile = DelayProfile.exponential(1.0, 0.5, 4)
        taps = draw_channel(profile, 40, 50, rng).reshape(-1, 4)
        np.testing.assert_allclose(
            np.mean(np.abs(taps) ** 2, axis=0), profile.powers, rtol=0.1
        )

    def test_iq_parts_balanced(self, rng):
        profile = DelayProfile(np.array([2.0]))
        taps = draw_channel(profile, 100, 100, rng).ravel()
        assert np.var(taps.real) == pytest.approx(1.0, rel=0.05)
        assert np.var(taps.imag) == pytest.approx(1.0, rel=0.05)


    @pytest.mark.parametrize("n_rx", [1, 2, 3])
    @pytest.mark.parametrize("n_tx", [1, 2, 3])
    def test_taps_equal_the_matmul_of_their_normals(self, sim_profile, n_rx, n_tx):
        # the taps read their I/Q pairs as complex numbers; the formula
        # they replace multiplied the pairs by [1, 1j]
        taps = draw_channel(sim_profile, n_tx, n_rx, substream(4, n_tx, n_rx))
        normals = substream(4, n_tx, n_rx).standard_normal((n_rx, n_tx, sim_profile.n_taps, 2))
        ref = normals @ np.array([1.0, 1.0j])
        ref *= np.sqrt(sim_profile.powers / 2.0)
        assert taps.shape == (n_rx, n_tx, sim_profile.n_taps)
        np.testing.assert_array_equal(taps.view(np.float64), ref.view(np.float64))

    def test_stream_signal_leaves_the_normals_alone(self, sim_profile):
        # every link of a stream builds its taps from the same normals
        config = SystemConfig(n_tx=2, n_rx=2)
        mixture = scale_mixture_to_snr(NoiseMixture.impulsive(), 1.0, 5.0)
        seeds = window_seeds(config, 0, (3, 1))[0]
        draws = draw_stream(config, sim_profile, mixture, 0, seeds, config.window_len)
        before = draws.normals.copy()
        for link in (config, replace(config, n_tx=1, n_rx=1)):
            _, taps = stream_signal(draws, link, sim_profile)
            assert not np.shares_memory(taps, draws.normals)
            np.testing.assert_array_equal(draws.normals, before)


class TestNoiseMixture:
    def test_weights_must_normalize(self):
        with pytest.raises(ConfigError):
            NoiseMixture(np.array([0.5, 0.4]), np.array([1.0, 2.0]))

    def test_variances_strictly_positive(self):
        with pytest.raises(ConfigError):
            NoiseMixture(np.array([0.5, 0.5]), np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(p_nominal=np.nan), "probabilities must be positive and sum to 1"),
            (dict(var_impulse=np.nan), "variances must be finite and strictly positive"),
            (dict(var_impulse=np.inf), "variances must be finite and strictly positive"),
            (dict(var_nominal=np.nan), "variances must be finite and strictly positive"),
        ],
    )
    def test_non_finite_rejected(self, kwargs, message):
        # NaN used to pass every comparison and fail only in the first window
        with pytest.raises(ConfigError, match=message):
            NoiseMixture.impulsive(**kwargs)

    def test_single_component_collapses_to_gaussian(self, rng):
        mixture = NoiseMixture.gaussian(2.0)
        samples = draw_noise(mixture, 100_000, rng)
        assert np.var(samples.real) == pytest.approx(1.0, rel=0.02)
        assert np.var(samples.imag) == pytest.approx(1.0, rel=0.02)

    def test_two_component_total_power(self, rng):
        # p0 = 0.99 / p1 = 0.01 reference mixture: average power sums the
        # weighted component variances
        mixture = NoiseMixture.impulsive(0.99, 1.0, 100.0)
        assert mixture.avg_power == pytest.approx(1.99)
        samples = draw_noise(mixture, 300_000, rng)
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(1.99, rel=0.03)

    def test_impulsive_kurtosis(self, rng):
        # analytic mixture kurtosis of one I/Q part:
        #   3 * sum p_l (v_l/2)^2 / (sum p_l v_l/2)^2
        mixture = NoiseMixture.impulsive(0.99, 1.0, 100.0)
        halves = mixture.variances / 2
        analytic = 3 * np.dot(mixture.probs, halves**2) / np.dot(mixture.probs, halves) ** 2
        assert analytic == pytest.approx(76.51, abs=0.01)
        x = draw_noise(mixture, 2_000_000, rng).real
        empirical = np.mean(x**4) / np.mean(x**2) ** 2
        assert empirical == pytest.approx(analytic, rel=0.15)
        assert empirical > 3

    def test_component_occupancy(self, rng):
        mixture = NoiseMixture.impulsive(0.99, 1.0, 100.0)
        n = 100_000
        # a twin generator replays the unit normals that draw_noise scales,
        # so each sample's scale, sqrt(1/2) or sqrt(100/2), names its component
        twin = np.random.default_rng()
        twin.bit_generator.state = rng.bit_generator.state
        samples = draw_noise(mixture, n, rng)
        twin.random(n)
        scale = samples.real / twin.standard_normal((n, 2))[:, 0]
        count = np.sum(scale > 1.0)
        sigma = np.sqrt(n * 0.01 * 0.99)
        assert abs(count - n * 0.01) < 3 * sigma


THREE_COMPONENTS = NoiseMixture(np.array([0.6, 0.3, 0.1]), np.array([0.2, 1.0, 40.0]))
MIXTURES = (NoiseMixture.gaussian(0.7), NoiseMixture.impulsive(0.9, 1.0, 100.0), THREE_COMPONENTS)


@pytest.mark.parametrize("mixture", MIXTURES, ids=["gaussian", "impulsive", "three"])
def test_draw_noise_matches_explicit_draws(mixture):
    # the generator gives one uniform per sample, then the I/Q normals; a
    # single component draws the uniforms too and ignores them. Every
    # mixture's variances differ, so equal samples mean equal components
    count = 301
    rng = np.random.default_rng(2024)
    uniforms = rng.random(count)
    pairs = rng.standard_normal((count, 2))
    which = np.searchsorted(np.cumsum(mixture.probs), uniforms, side="right")
    which = np.minimum(which, mixture.n_components - 1)
    scale = np.sqrt(mixture.variances[which] / 2.0)
    expected = np.empty(count, dtype=np.complex128)
    expected.real = pairs[:, 0] * scale
    expected.imag = pairs[:, 1] * scale
    assert np.unique(mixture.variances).size == mixture.n_components
    samples = draw_noise(mixture, count, np.random.default_rng(2024))
    np.testing.assert_array_equal(samples, expected)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4), st.integers(0, 2**32 - 1))
def test_component_choice_matches_searchsorted(weights, seed):
    # uniforms at and just below every cumulative weight, where counting the
    # weights at or below a uniform and searchsorted(side="right") could part
    probs = np.array(weights) / sum(weights)
    mixture = NoiseMixture(probs, np.arange(1.0, probs.size + 1))
    cumprobs = np.cumsum(probs)
    uniforms = np.concatenate(
        [np.random.default_rng(seed).random(100), cumprobs, np.nextafter(cumprobs, 0), [0.0]]
    )
    samples = np.ones(uniforms.size, dtype=np.complex128)
    _scale_noise(mixture, samples, uniforms)
    which = np.minimum(np.searchsorted(cumprobs, uniforms, side="right"), probs.size - 1)
    np.testing.assert_array_equal(samples.real, np.sqrt(mixture.variances / 2.0)[which])


@pytest.mark.parametrize("mixture", MIXTURES, ids=["gaussian", "impulsive", "three"])
def test_draw_noise_keeps_held_back_integer_half(mixture):
    # an odd count of small integers leaves half of a 64-bit output held back
    # for the next integer draw; skipping the uniforms by advance would drop it
    explicit = np.random.default_rng(7)
    explicit.integers(0, 4, size=3)
    explicit.random(50)
    explicit.standard_normal(100)
    rng = np.random.default_rng(7)
    rng.integers(0, 4, size=3)
    draw_noise(mixture, 50, rng)
    np.testing.assert_array_equal(rng.integers(0, 4, size=5), explicit.integers(0, 4, size=5))


class TestSubstream:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**70)),
            min_size=1,
            max_size=6,
        )
    )
    @example([2**32 - 1, 0, 3])
    @example([2**32, 5])
    def test_state_matches_list_seed(self, path):
        expected = np.random.default_rng(np.random.SeedSequence(list(path)))
        assert substream(*path).bit_generator.state == expected.bit_generator.state

    def test_numpy_ints_match_plain_ints(self):
        path = (np.int64(7), np.uint64(2**40), 3)
        expected = np.random.default_rng(np.random.SeedSequence([7, 2**40, 3]))
        assert substream(*path).bit_generator.state == expected.bit_generator.state

    def test_negative_word_rejected(self):
        with pytest.raises(ValueError):
            substream(3, -1)


class TestScaleMixtureToSnr:
    def test_single_component_zero_db(self):
        mixture = NoiseMixture.gaussian(2.0)
        scaled = scale_mixture_to_snr(mixture, 1.0, 0.0)
        assert scaled.variances[0] == pytest.approx(1.0)

    def test_two_component_common_factor(self):
        # solve c * (0.99*1 + 0.01*100) = 0.1 for the 10 dB point
        mixture = NoiseMixture.impulsive(0.99, 1.0, 100.0)
        scaled = scale_mixture_to_snr(mixture, 1.0, 10.0)
        c = 0.1 / 1.99
        np.testing.assert_allclose(scaled.variances, [c, 100 * c], rtol=1e-12)
        np.testing.assert_array_equal(scaled.probs, mixture.probs)
        assert scaled.avg_power == pytest.approx(0.1)

    def test_rejects_non_finite_snr(self):
        with pytest.raises(ConfigError):
            scale_mixture_to_snr(NoiseMixture.gaussian(), 1.0, float("-inf"))

    @pytest.mark.parametrize(
        "signal_power, snr_db, power",
        [(1.0, -4000.0, "inf"), (1.0, 4000.0, "0.0"), (1e300, -100.0, "inf"), (1.0, np.nan, "nan")],
    )
    def test_rejects_snr_without_finite_positive_noise_power(self, signal_power, snr_db, power):
        # -4000 dB raised OverflowError; 4000 dB gave zero variances, caught
        # only as the mixture was built
        message = f"snr_db = {snr_db} gives noise power {power}, not finite and positive"
        with pytest.raises(ConfigError, match=message):
            noise_power(signal_power, snr_db)
        with pytest.raises(ConfigError, match=message):
            scale_mixture_to_snr(NoiseMixture.impulsive(), signal_power, snr_db)


class TestConvolveFrame:
    def test_blocks_never_interfere(self, rng):
        # zeroing one block's data changes only that block's span
        cfg = SystemConfig(n_data=32, n_zero=8, n_taps=8, n_blocks=3, mod_order=16)
        frame = np.concatenate([generate_block(cfg, rng) for _ in range(3)])
        taps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        modified = frame.copy()
        modified[40:72] = 0.0  # block 1 data region
        full = convolve_frame(frame, taps)
        partial = convolve_frame(modified, taps)
        span = slice(40, 80)
        assert np.any(full[span] != partial[span])
        outside = np.ones(frame.size, dtype=bool)
        outside[span] = False
        np.testing.assert_array_equal(full[outside], partial[outside])

    def test_matches_toeplitz_product(self, rng):
        cfg = SystemConfig(n_data=16, n_zero=6, n_taps=4, n_blocks=1, mod_order=16)
        block = generate_block(cfg, rng)
        taps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        n_s = block.size
        toeplitz = np.zeros((n_s, n_s), dtype=np.complex128)
        for i in range(n_s):
            for u in range(4):
                if i - u >= 0:
                    toeplitz[i, i - u] = taps[u]
        np.testing.assert_allclose(convolve_frame(block, taps), toeplitz @ block, atol=1e-12)


def build_stream(config, profile, mixture, seed, d_pad):
    """The whole receive stream and channel of a trial, drawn and finished
    in the harness's steps."""
    end = d_pad + (config.n_blocks + 1) * config.block_len
    draws = draw_stream(config, profile, mixture, d_pad, window_seeds(config, d_pad, seed)[0], end)
    signal, channel = stream_signal(draws, config, profile)
    return finish_stream(draws, mixture, signal, 0, end), channel


def per_block_stream(config, profile, mixture, seed, d_pad):
    """The receive stream drawn one block and one noise substream at a time,
    each tx convolution summed before the noise is added."""
    n_s = config.block_len
    n_gen = config.n_blocks + 1
    channel = draw_channel(profile, config.n_tx, config.n_rx, substream(*seed, STREAM_CHANNEL))
    frames = [
        np.concatenate(
            [
                generate_block(config, substream(*seed, STREAM_SIGNAL, i, n))
                for n in range(n_gen)
            ]
        )
        for i in range(config.n_tx)
    ]
    rows = []
    for j in range(config.n_rx):
        sig = np.zeros(n_gen * n_s, dtype=np.complex128)
        for i in range(config.n_tx):
            sig += convolve_frame(frames[i], channel[j, i])
        noise = [draw_noise(mixture, d_pad, substream(*seed, STREAM_NOISE, j, 0))]
        noise += [
            draw_noise(mixture, n_s, substream(*seed, STREAM_NOISE, j, n + 1))
            for n in range(n_gen)
        ]
        row = np.concatenate(noise)
        row[d_pad:] += sig
        rows.append(row)
    return np.array(rows), channel


@st.composite
def stream_cases(draw):
    """A small link with 1-2 antennas per side, QAM or Gaussian source, one
    to three noise components, any pre-pad and master seeds past 2**32."""
    n_taps = draw(st.integers(1, 4))
    config = SystemConfig(
        n_data=draw(st.integers(1, 40)),
        n_zero=draw(st.integers(n_taps, n_taps + 5)),
        n_taps=n_taps,
        n_blocks=draw(st.integers(1, 3)),
        n_tx=draw(st.sampled_from([1, 2])),
        n_rx=draw(st.sampled_from([1, 2])),
        mod_order=draw(st.sampled_from([4, 16, 128])),
        gaussian_source=draw(st.booleans()),
    )
    profile = DelayProfile.exponential(1.0, draw(st.sampled_from([0.05, 0.5])), n_taps)
    mixture = draw(st.sampled_from(MIXTURES))
    seed = (draw(st.sampled_from([0, 17, 2**32 - 1, 2**32, 2**45 + 3])), draw(st.integers(0, 99)))
    d_pad = draw(st.sampled_from([0, 0, 1, 7, 40]))
    return config, profile, mixture, seed, d_pad


class TestBuildStreamBitExact:
    """The batched generator keeps the per-block substream layout bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(stream_cases())
    def test_equals_per_block_draws(self, case):
        config, profile, mixture, seed, d_pad = case
        stream, channel = build_stream(config, profile, mixture, seed, d_pad)
        ref_stream, ref_channel = per_block_stream(config, profile, mixture, seed, d_pad)
        np.testing.assert_array_equal(channel, ref_channel)
        np.testing.assert_array_equal(stream, ref_stream)

    def test_equals_per_block_draws_at_paper_size(self, paper_config, sim_profile):
        mimo = SystemConfig(n_tx=2, n_rx=2)
        mixture = scale_mixture_to_snr(NoiseMixture.impulsive(), 1.0, 5.0)
        for config, d_pad in ((paper_config, 0), (mimo, 30)):
            stream, _ = build_stream(config, sim_profile, mixture, (2**33, 4), d_pad)
            ref, _ = per_block_stream(config, sim_profile, mixture, (2**33, 4), d_pad)
            np.testing.assert_array_equal(stream, ref)


class TestStreamDrawsPrefix:
    """A link with fewer antennas or blocks is finished from a larger link's
    draws, bit-identical to its own stream."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(stream_cases(), st.integers(0, 1), st.integers(0, 1), st.integers(0, 2))
    def test_smaller_link_equals_its_own_stream(self, case, fewer_tx, fewer_rx, fewer_blocks):
        config, profile, mixture, seed, d_pad = case
        link = replace(
            config,
            n_tx=max(1, config.n_tx - fewer_tx),
            n_rx=max(1, config.n_rx - fewer_rx),
            n_blocks=max(1, config.n_blocks - fewer_blocks),
        )
        seeds = window_seeds(config, d_pad, seed)[0]
        end = d_pad + (config.n_blocks + 1) * config.block_len
        draws = draw_stream(config, profile, mixture, d_pad, seeds, end)
        signal, channel = stream_signal(draws, link, profile)
        link_end = d_pad + (link.n_blocks + 1) * link.block_len
        stream = finish_stream(draws, mixture, signal, 0, link_end)
        ref_stream, ref_channel = build_stream(link, profile, mixture, seed, d_pad)
        np.testing.assert_array_equal(channel, ref_channel)
        np.testing.assert_array_equal(stream, ref_stream)

    @pytest.mark.parametrize(
        "antennas, n_blocks", [((1, 1), 10), ((1, 2), 10), ((2, 1), 10), ((1, 1), 4), ((2, 2), 7)]
    )
    def test_windows_at_paper_size(self, sim_profile, antennas, n_blocks):
        # fig5's 2x2 link drawn once, 10 blocks, impulsive noise, d_pad 30
        drawn = SystemConfig(n_tx=2, n_rx=2)
        link = replace(drawn, n_tx=antennas[0], n_rx=antennas[1], n_blocks=n_blocks)
        mixture = scale_mixture_to_snr(NoiseMixture.impulsive(), 1.0, 5.0)
        for t, d_true in ((0, -30), (1, 0), (2, 531)):
            seeds = window_seeds(drawn, 30, (2**33, t))[0]
            lo = 30 + d_true
            draws = draw_stream(drawn, sim_profile, mixture, 30, seeds, lo + drawn.window_len)
            signal, _ = stream_signal(draws, link, sim_profile)
            window = finish_stream(draws, mixture, signal, lo, lo + link.window_len)
            ref = assemble_window(link, sim_profile, mixture, d_true, seed=(2**33, t), d_pad=30)
            np.testing.assert_array_equal(window, ref.samples)


STOP_LINK = dict(n_data=12, n_zero=4, n_taps=3, n_blocks=3, mod_order=16)  # 16-sample blocks


def _stop_case(antennas, d_pad, cut):
    """A small link, the end of its stream and a stop ``cut`` past d_pad;
    a negative cut stops in the pre-pad."""
    config = SystemConfig(**STOP_LINK, n_tx=antennas[0], n_rx=antennas[1])
    end = d_pad + (config.n_blocks + 1) * config.block_len
    return config, end, d_pad + cut


# (d_pad, cut): cuts inside the first block, on the edge after it, inside a
# middle block and inside the last, and with a pre-pad one inside it; a cut
# at the stream's end draws it all
CUTS = [5, 16, 23, 57, 64]
PAD_CUTS = [(0, cut) for cut in CUTS] + [(7, cut) for cut in CUTS + [-4]]
ANTENNAS = [(1, 1), (2, 1), (1, 2), (2, 2)]


class TestStreamStop:
    """A stream drawn only up to ``stop`` equals the whole stream there."""

    @pytest.mark.parametrize("mixture", MIXTURES, ids=["gaussian", "impulsive", "three"])
    @pytest.mark.parametrize("antennas", ANTENNAS, ids=["1x1", "2x1", "1x2", "2x2"])
    @pytest.mark.parametrize("d_pad, cut", PAD_CUTS)
    def test_cut_draws_equal_full_draws(self, mixture, d_pad, antennas, cut):
        config, end, stop = _stop_case(antennas, d_pad, cut)
        profile = DelayProfile.exponential(1.0, 0.5, config.n_taps)
        seeds = window_seeds(config, d_pad, (3, 8))[0]
        full = draw_stream(config, profile, mixture, d_pad, seeds, end)
        cut_draws = draw_stream(config, profile, mixture, d_pad, seeds, stop)
        np.testing.assert_array_equal(cut_draws.noise, full.noise[:, :stop])
        if mixture.n_components > 1:
            np.testing.assert_array_equal(cut_draws.uniforms, full.uniforms[:, :stop])
        n_drawn = cut_draws.rows.shape[1]
        np.testing.assert_array_equal(cut_draws.rows, full.rows[:, :n_drawn])
        full_signal, channel = stream_signal(full, config, profile)
        signal, cut_channel = stream_signal(cut_draws, config, profile)
        np.testing.assert_array_equal(cut_channel, channel)
        np.testing.assert_array_equal(signal, full_signal[:, : max(0, stop - d_pad)])
        for lo in {0, max(0, stop - config.block_len), stop - 1}:
            window = finish_stream(cut_draws, mixture, signal, lo, stop)
            ref = finish_stream(full, mixture, full_signal, lo, stop)
            np.testing.assert_array_equal(window, ref)

    @pytest.mark.parametrize("antennas", ANTENNAS, ids=["1x1", "2x1", "1x2", "2x2"])
    @pytest.mark.parametrize("d_pad, cut", PAD_CUTS)
    def test_no_generator_past_stop(self, monkeypatch, d_pad, antennas, cut):
        # one generator for the channel, one per block that starts before
        # stop on each tx antenna, and one per noise span that starts before
        # it on each rx antenna: the pre-pad's and those under the blocks
        config, end, stop = _stop_case(antennas, d_pad, cut)
        built = []
        real_seeded = channel_module._seeded
        monkeypatch.setattr(channel_module, "_seeded", lambda s: built.append(s) or real_seeded(s))
        profile = DelayProfile.exponential(1.0, 0.5, config.n_taps)
        seeds = window_seeds(config, d_pad, (3, 8))[0]
        draw_stream(config, profile, THREE_COMPONENTS, d_pad, seeds, stop)
        starts = [d_pad + n * config.block_len for n in range(config.n_blocks + 1)]
        blocks = sum(start < stop for start in starts)
        spans = blocks + (0 < d_pad and 0 < stop)
        assert len(built) == 1 + config.n_tx * blocks + config.n_rx * spans

    def test_window_in_the_pre_pad(self):
        # a window that ends before index 0 reads no signal block; finishing
        # one failed with a broadcast error
        config = SystemConfig(n_data=12, n_zero=4, n_taps=3, n_blocks=1, mod_order=16)
        mixture = NoiseMixture.impulsive(0.9, 1.0, 100.0)
        profile = DelayProfile.exponential(1.0, 0.5, 3)
        stream, _ = build_stream(config, profile, mixture, (4, 1), 40)
        window = assemble_window(config, profile, mixture, -40, (4, 1), d_pad=40)
        np.testing.assert_array_equal(window.samples, stream[:, : config.window_len])

    def test_stop_past_the_stream_rejected(self):
        config, end, _ = _stop_case((1, 1), 0, 0)
        profile = DelayProfile.exponential(1.0, 0.5, config.n_taps)
        seeds = window_seeds(config, 0, (3, 8))[0]
        with pytest.raises(ValueError, match="outside the stream"):
            draw_stream(config, profile, MIXTURES[0], 0, seeds, end + 1)


def _same_generator(got, expected):
    assert got.bit_generator.state == expected.bit_generator.state
    assert got.random() == expected.random()


WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


class TestWindowSeeds:
    """The vectorised seed derivation reproduces numpy's SeedSequence."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.lists(WORD, min_size=1, max_size=8), min_size=1, max_size=4))
    def test_hash_matches_seed_sequence(self, rows):
        # rows of different lengths in one call, zero-padded to the longest
        words = np.zeros((len(rows), max(map(len, rows))), dtype=np.uint32)
        for k, row in enumerate(rows):
            words[k, : len(row)] = row
        seeds = _pcg64_seeds(words, np.array([len(row) for row in rows]))
        for row, state in zip(rows, seeds):
            expected = np.random.SeedSequence(np.array(row, dtype=np.uint32))
            np.testing.assert_array_equal(state, expected.generate_state(4, np.uint64))
            _same_generator(_seeded(state), np.random.default_rng(expected))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        master=st.sampled_from([0, 2**32, 2**45 + 3]),
        trials=st.one_of(st.none(), st.lists(WORD, min_size=1, max_size=3)),
        n_tx=st.sampled_from([1, 2]),
        n_rx=st.sampled_from([1, 2]),
        n_blocks=st.integers(1, 3),
        d_pad=st.sampled_from([0, 5]),
    )
    def test_rows_match_substreams(self, master, trials, n_tx, n_rx, n_blocks, d_pad):
        config = SystemConfig(
            n_data=8, n_zero=4, n_taps=2, n_blocks=n_blocks, n_tx=n_tx, n_rx=n_rx, mod_order=4
        )
        seeds = window_seeds(config, d_pad, (master,), trials)
        paths = [(master,)] if trials is None else [(master, t) for t in trials]
        n_gen = n_blocks + 1
        suffixes = [(STREAM_CHANNEL,)]
        suffixes += [(STREAM_SIGNAL, i, n) for i in range(n_tx) for n in range(n_gen)]
        first = 0 if d_pad > 0 else 1
        suffixes += [(STREAM_NOISE, j, b) for j in range(n_rx) for b in range(first, n_gen + 1)]
        assert seeds.shape == (len(paths), len(suffixes), 4)
        for path, row in zip(paths, seeds):
            for suffix, state in zip(suffixes, row):
                _same_generator(_seeded(state), substream(*path, *suffix))

    @pytest.mark.parametrize("preset, antennas", [("fig4", (1, 1)), ("fig5", (2, 2))])
    @pytest.mark.parametrize("d_pad", [0, 30])
    def test_assemble_window_with_seed_row(self, preset, antennas, d_pad):
        link = load_preset(preset)
        config = config_from_settings({**link, "n_tx": antennas[0], "n_rx": antennas[1]})
        profile = DelayProfile.exponential(1.0, 0.05, config.n_taps, normalized=True)
        mixture = scale_mixture_to_snr(mixture_from_settings(link), 1.0, 5.0)
        seeds = window_seeds(config, d_pad, (9,), [3, 4])
        for t, row in zip([3, 4], seeds):
            derived = assemble_window(config, profile, mixture, 7, (9, t), d_pad)
            lo = d_pad + 7
            draws = draw_stream(config, profile, mixture, d_pad, row, lo + config.window_len)
            signal, channel = stream_signal(draws, config, profile)
            handed = finish_stream(draws, mixture, signal, lo, lo + config.window_len)
            np.testing.assert_array_equal(handed, derived.samples)
            np.testing.assert_array_equal(channel, derived.channel)


class TestAssembleWindow:
    # a one-tap channel scales the frame by its tap: a one-tap np.convolve
    # is that product
    def test_identity_channel_reproduces_frame(self):
        cfg = SystemConfig(n_data=64, n_zero=8, n_taps=1, n_blocks=2, mod_order=16)
        profile = DelayProfile(np.array([1.0]))
        quiet = NoiseMixture.gaussian(1e-30)
        seed = (11, 0)
        window = assemble_window(cfg, profile, quiet, d_true=0, seed=seed)
        expected = np.concatenate(
            [
                generate_block(cfg, substream(*seed, STREAM_SIGNAL, 0, n))
                for n in range(2)
            ]
        )
        np.testing.assert_allclose(
            window.samples[0], window.channel[0, 0, 0] * expected, atol=1e-12
        )

    def test_negative_offset_prepends_noise(self):
        cfg = SystemConfig(n_data=64, n_zero=8, n_taps=1, n_blocks=2, mod_order=16)
        profile = DelayProfile(np.array([1.0]))
        quiet = NoiseMixture.gaussian(1e-30)
        seed = (12, 0)
        window = assemble_window(cfg, profile, quiet, d_true=-3, seed=seed)
        frame = np.concatenate(
            [
                generate_block(cfg, substream(*seed, STREAM_SIGNAL, 0, n))
                for n in range(2)
            ]
        )
        assert np.all(np.abs(window.samples[0][:3]) < 1e-12)
        np.testing.assert_allclose(
            window.samples[0][3:], window.channel[0, 0, 0] * frame[: window.length - 3], atol=1e-12
        )

    def test_shift_consistency_bit_exact(self, paper_config, sim_profile, impulsive_mixture):
        # one seed-aligned stream, sliced at two offsets
        scaled = scale_mixture_to_snr(impulsive_mixture, 1.0, 10.0)
        seed = (13, 4)
        d_pad = 31
        stream, _ = build_stream(paper_config, sim_profile, scaled, seed, d_pad)
        for d in (-7, 0, 5):
            window = assemble_window(
                paper_config, sim_profile, scaled, d, seed=seed, d_pad=d_pad
            )
            np.testing.assert_array_equal(
                window.samples, stream[:, d_pad + d : d_pad + d + paper_config.window_len]
            )

    def test_offset_out_of_range(self, paper_config, sim_profile, impulsive_mixture):
        with pytest.raises(ConfigError):
            assemble_window(
                paper_config, sim_profile, impulsive_mixture, d_true=-10, seed=1, d_pad=5
            )
        with pytest.raises(ConfigError):
            assemble_window(
                paper_config, sim_profile, impulsive_mixture, d_true=532, seed=1
            )

    def test_quasi_static_channel_shared_across_offsets(
        self, paper_config, sim_profile, impulsive_mixture
    ):
        scaled = scale_mixture_to_snr(impulsive_mixture, 1.0, 10.0)
        w0 = assemble_window(paper_config, sim_profile, scaled, 0, seed=(5, 9), d_pad=30)
        w1 = assemble_window(paper_config, sim_profile, scaled, 21, seed=(5, 9), d_pad=30)
        np.testing.assert_array_equal(w0.channel, w1.channel)

    def test_mimo_window_shape(self, sim_profile, impulsive_mixture):
        cfg = SystemConfig(n_tx=2, n_rx=3, n_blocks=2)
        window = assemble_window(cfg, sim_profile, impulsive_mixture, 0, seed=2)
        assert window.samples.shape == (3, 2 * 532)

    def test_dump_iq_round_trip(self, tmp_path, sim_profile, impulsive_mixture):
        cfg = SystemConfig(n_rx=2, n_blocks=1)
        window = assemble_window(cfg, sim_profile, impulsive_mixture, 0, seed=3)
        paths = window.dump_iq(tmp_path / "w")
        assert len(paths) == 2
        for j, path in enumerate(paths):
            np.testing.assert_array_equal(read_iq_f64(path), window.samples[j])
