import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from zpsync import (
    ConfigError,
    DelayProfile,
    NoiseMixture,
    SystemConfig,
    b_function,
    log_b_function,
    log_p_function,
    p_function,
    profile_window,
    variance_profile_h0,
    window_loglik,
)
from zpsync.channel import draw_channel, draw_noise
from zpsync.likelihood import VarianceProfile, loglik_cells, loglik_class_table
from zpsync.waveform import generate_block

GAUSS2 = NoiseMixture.gaussian(2.0)
IMPULSIVE = NoiseMixture(np.array([0.99, 0.01]), np.array([1.0, 100.0]))


def gaussian_pdf(x, var):
    return np.exp(-(x**2) / (2 * var)) / np.sqrt(2 * np.pi * var)


class TestVarianceProfileH0:
    def test_single_tap_is_flat(self):
        cfg = SystemConfig(n_data=6, n_zero=3, n_taps=1, mod_order=16)
        vp = variance_profile_h0(cfg, DelayProfile(np.array([1.0])))
        np.testing.assert_allclose(vp.body, [0.5] * 6 + [0.0] * 3)

    def test_two_tap_hand_computed(self):
        # ramp, plateau, drain and tail for powers [0.8, 0.2], n_data=4, n_zero=3
        cfg = SystemConfig(n_data=4, n_zero=3, n_taps=2, mod_order=16)
        vp = variance_profile_h0(cfg, DelayProfile(np.array([0.8, 0.2])))
        np.testing.assert_allclose(vp.body, [0.4, 0.5, 0.5, 0.5, 0.1, 0.0, 0.0])

    def test_brute_force_range_map(self):
        # independent oracle: sum tap powers over the overlap range per position
        cfg = SystemConfig(n_data=16, n_zero=7, n_taps=5, mod_order=16, signal_power=2.0)
        powers = np.array([0.5, 0.25, 0.12, 0.08, 0.05])
        vp = variance_profile_h0(cfg, DelayProfile(powers))
        for k in range(cfg.block_len):
            total = sum(powers[u] for u in range(5) if 0 <= k - u < 16)
            assert vp.body[k] == pytest.approx(cfg.signal_power * total / 2, abs=1e-15)

    def test_plateau_value_paper_setup(self, paper_config, validation_profile):
        vp = variance_profile_h0(paper_config, validation_profile)
        plateau = 0.5 * validation_profile.total_power
        assert vp.body[150] == pytest.approx(plateau)
        assert plateau == pytest.approx(0.49983, abs=1e-5)
        assert np.all(vp.body[521:] == 0.0)

    def test_plateau_invariant_to_antenna_count(self, sim_profile):
        # power split times independent channel sum restores the single-antenna value
        bodies = [
            variance_profile_h0(SystemConfig(n_tx=m), sim_profile).body for m in (1, 2, 4)
        ]
        np.testing.assert_allclose(bodies[1], bodies[0])
        np.testing.assert_allclose(bodies[2], bodies[0])

    def test_empirical_variance_matches_body(self, rng):
        cfg = SystemConfig(n_data=32, n_zero=8, n_taps=6, mod_order=16)
        profile = DelayProfile.exponential(1.0, 0.3, 6, normalized=True)
        vp = variance_profile_h0(cfg, profile)
        trials = 30_000
        acc = np.zeros(cfg.block_len)
        for _ in range(trials):
            taps = draw_channel(profile, 1, 1, rng)[0, 0]
            block = generate_block(cfg, rng)
            v = np.convolve(block, taps)[: cfg.block_len]
            acc += v.real**2
        emp = acc / trials
        mask = vp.body > 0
        np.testing.assert_allclose(emp[mask], vp.body[mask], rtol=0.06)
        assert np.all(emp[~mask] == 0)

    def test_tap_count_mismatch_rejected(self, sim_profile):
        with pytest.raises(ConfigError):
            variance_profile_h0(SystemConfig(n_taps=4), sim_profile)


@pytest.fixture(scope="module")
def vp():
    cfg = SystemConfig(n_data=8, n_zero=4, n_taps=3, mod_order=16)
    return variance_profile_h0(cfg, DelayProfile(np.array([0.6, 0.3, 0.1])))


class TestProfileWindow:
    def test_identity_shift(self, vp):
        np.testing.assert_array_equal(profile_window(vp, 0, vp.block_len), vp.body)

    def test_negative_shift_zero_fill(self, vp):
        window = profile_window(vp, -3, vp.block_len)
        np.testing.assert_array_equal(window[:3], 0.0)
        np.testing.assert_array_equal(window[3:], vp.body[: vp.block_len - 3])

    def test_matches_materialized_long_sequence(self, vp):
        # oracle: explicitly materialize the two-sided sequence and slice
        n_s = vp.block_len
        pad = 50
        long_seq = np.concatenate([np.zeros(pad), np.tile(vp.body, 6)])
        for d in (-50, -3, 0, 5, 17, n_s - 1):
            for m in (1, n_s, 2 * n_s + 3):
                np.testing.assert_array_equal(
                    profile_window(vp, d, m), long_seq[pad + d : pad + d + m]
                )

    def test_window_multiset_invariant_for_full_periods(self, paper_config, sim_profile):
        # m = n_blocks * block_len covers whole periods for every d >= 0
        vp = variance_profile_h0(paper_config, sim_profile)
        m = paper_config.window_len
        reference = np.sort(profile_window(vp, 0, m))
        for d in (1, 17, 333, 531):
            np.testing.assert_array_equal(np.sort(profile_window(vp, d, m)), reference)

    def test_rejects_empty_window(self, vp):
        with pytest.raises(ConfigError):
            profile_window(vp, 0, 0)


class TestBFunction:
    def test_standard_normal_peak(self):
        assert b_function(0.0, 0.0, GAUSS2) == pytest.approx(1 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_even_in_z(self, rng):
        z = rng.standard_normal(50) * 3
        t = np.abs(rng.standard_normal(50))
        np.testing.assert_allclose(
            b_function(z, t, IMPULSIVE), b_function(-z, t, IMPULSIVE), rtol=1e-14
        )

    def test_two_term_scalar_value(self):
        # direct two-component evaluation with an independent high-precision oracle
        import mpmath

        mpmath.mp.dps = 50
        z, t = 1.0, 0.5
        expected = mpmath.mpf(0)
        for p, v in [(0.99, 1.0), (0.01, 100.0)]:
            var = mpmath.mpf(t) + mpmath.mpf(v) / 2
            expected += (
                p * mpmath.exp(-mpmath.mpf(z) ** 2 / (2 * var)) / mpmath.sqrt(2 * mpmath.pi * var)
            )
        assert b_function(z, t, IMPULSIVE) == pytest.approx(float(expected), rel=1e-14)

    def test_matches_convolution_quadrature(self):
        # oracle: numerically convolve the signal Gaussian with the mixture
        def convolved(y, t, mixture):
            total = 0.0
            for p, v in zip(mixture.probs, mixture.variances):
                val, _ = integrate.quad(
                    lambda s: gaussian_pdf(y - s, v / 2) * gaussian_pdf(s, t),
                    -np.inf,
                    np.inf,
                )
                total += p * val
            return total

        for y in (-2.0, 0.3, 1.5, 4.0):
            for t in (0.2, 0.5, 3.0):
                closed = float(b_function(y, t, IMPULSIVE))
                assert closed == pytest.approx(convolved(y, t, IMPULSIVE), rel=1e-6)

    def test_zero_shape_collapses_to_mixture_density(self):
        # kappa = 0 means the signal part is exactly zero: density is pure noise
        z = np.linspace(-4, 4, 21)
        direct = sum(
            p * gaussian_pdf(z, v / 2) for p, v in zip(IMPULSIVE.probs, IMPULSIVE.variances)
        )
        np.testing.assert_allclose(b_function(z, 0.0, IMPULSIVE), direct, rtol=1e-12)

    def test_peak_strictly_decreasing_in_t(self):
        t = np.linspace(0, 10, 200)
        peaks = b_function(0.0, t, IMPULSIVE)
        assert np.all(np.diff(peaks) < 0)

    def test_negative_shape_rejected(self):
        with pytest.raises(ConfigError):
            b_function(0.0, -0.1, GAUSS2)

    def test_integrates_to_one(self):
        for t in (0.0, 0.7, 2.5):
            val, _ = integrate.quad(
                lambda z: float(b_function(z, t, IMPULSIVE)), -np.inf, np.inf
            )
            assert val == pytest.approx(1.0, abs=1e-4)

    def test_log_stable_far_in_tail(self):
        # direct density underflows; the log form must stay finite
        val = log_b_function(1e4, 0.5, GAUSS2)
        assert np.isfinite(val)
        assert val < -1e6


class TestPFunction:
    def test_double_peak(self):
        assert p_function(0j, 0.0, GAUSS2) == pytest.approx(1 / (2 * np.pi), abs=1e-12)

    def test_conjugation_invariant(self, rng):
        c = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        np.testing.assert_allclose(
            p_function(c, 0.8, IMPULSIVE), p_function(np.conj(c), 0.8, IMPULSIVE), rtol=1e-14
        )

    def test_product_of_b_factors(self):
        c = 0.7 - 1.2j
        expected = float(b_function(0.7, 0.4, IMPULSIVE)) * float(
            b_function(-1.2, 0.4, IMPULSIVE)
        )
        assert p_function(c, 0.4, IMPULSIVE) == pytest.approx(expected, rel=1e-14)

    def test_normalizes_over_complex_plane(self):
        # p factors over I and Q, so the 2-D integral is the square of a 1-D one
        one_d, _ = integrate.quad(
            lambda z: float(b_function(z, 1.3, IMPULSIVE)), -np.inf, np.inf
        )
        assert one_d**2 == pytest.approx(1.0, abs=1e-4)

    def test_kappa_negative_rejected(self):
        with pytest.raises(ConfigError):
            p_function(0j, -1e-9, GAUSS2)


class TestWindowLoglik:
    def test_single_sample_zero_variance(self):
        vp = VarianceProfile(np.zeros(4))
        score = window_loglik(np.array([[0j]]), 0, vp, GAUSS2)
        assert score.loglik == pytest.approx(np.log(1 / (2 * np.pi)), abs=1e-12)
        assert score.d == 0

    def test_matches_brute_force_product(self, rng):
        # oracle: direct product of per-sample densities on small windows
        cfg = SystemConfig(n_data=8, n_zero=4, n_taps=2, n_blocks=1, mod_order=16)
        vp = variance_profile_h0(cfg, DelayProfile(np.array([0.7, 0.3])))
        for m in (1, 5, 12, 20):
            y = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * 0.8
            for d in (-2, 0, 3):
                kappa = profile_window(vp, d, m)
                brute = np.prod(
                    [float(p_function(y[k], kappa[k], IMPULSIVE)) for k in range(m)]
                )
                loglik = window_loglik(y, d, vp, IMPULSIVE).loglik
                assert np.exp(loglik) == pytest.approx(brute, rel=1e-9)

    def test_antenna_order_irrelevant(self, rng):
        vp = VarianceProfile(np.array([0.0, 0.5, 0.5, 0.0]))
        y = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        a = window_loglik(y, 1, vp, IMPULSIVE).loglik
        b = window_loglik(y[::-1], 1, vp, IMPULSIVE).loglik
        assert a == pytest.approx(b, rel=1e-14)

    def test_finite_under_impulsive_noise(self, rng):
        # mixture variances > 0 keep every density strictly positive
        vp = VarianceProfile(np.concatenate([np.full(40, 0.5), np.zeros(10)]))
        y = draw_noise(IMPULSIVE, 200, rng) * 30
        assert np.isfinite(window_loglik(y.reshape(1, -1), -5, vp, IMPULSIVE).loglik)


class TestClassTable:
    def test_gather_equals_direct_loglik(self, paper_config, sim_profile, rng):
        vp = variance_profile_h0(paper_config, sim_profile)
        m = paper_config.window_len
        y = (rng.standard_normal((1, m)) + 1j * rng.standard_normal((1, m))) * 0.6
        table = loglik_class_table(y, vp, IMPULSIVE)
        for d in (-30, -1, 0, 17, 30):
            gathered = table[vp.window_classes(d, m), np.arange(m)].sum()
            direct = window_loglik(y, d, vp, IMPULSIVE).loglik
            assert gathered == pytest.approx(direct, rel=1e-12)


@st.composite
def mixture_cases(draw):
    """A mixture of 1-3 components (optionally with two identical ones, so the
    fold meets exactly equal terms), a profile with a zero class, and a
    window of 1-3 antennas (past the second, so the summation order is
    pinned beyond its first add) whose samples reach 1e6, where the smaller
    component's weight underflows."""
    n = draw(st.integers(1, 3))
    tie = draw(st.booleans()) and n < 3
    weights = [draw(st.floats(0.05, 1.0)) for _ in range(n)]
    variances = [draw(st.floats(1e-3, 1e3)) for _ in range(n)]
    if tie:
        weights.append(weights[-1])
        variances.append(variances[-1])
    probs = np.array(weights) / sum(weights)
    mixture = NoiseMixture(probs, np.array(variances))
    body = [draw(st.sampled_from([0.0, 0.25, 0.5, 3.0])) for _ in range(draw(st.integers(1, 6)))]
    n_rx = draw(st.integers(1, 3))
    m = draw(st.integers(1, 40))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0, 1e6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = (rng.standard_normal((n_rx, m)) + 1j * rng.standard_normal((n_rx, m))) * scale
    return VarianceProfile(np.array(body)), mixture, y


class TestClassTableMixture:
    """The table's written-out log-sum-exp against ``log_p_function``, which
    folds the components with ``np.logaddexp``."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(mixture_cases())
    def test_rows_equal_summed_log_p(self, case):
        vp, mixture, y = case
        table = loglik_class_table(y, vp, mixture)
        assert table.shape == (vp.class_values.size, y.shape[1])
        assert np.all(np.isfinite(table))
        for row, kappa in zip(table, vp.class_values):
            expected = sum(log_p_function(y_r, kappa, mixture) for y_r in y)
            # atol only for cells whose log density is near 0
            np.testing.assert_allclose(row, expected, rtol=1e-12, atol=1e-12)


class TestClassSubsetAndCells:
    """A table restricted to some classes and the gathered cells of
    ``loglik_cells`` both read the same bits as the full table."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(mixture_cases(), st.integers(0, 2**32 - 1))
    def test_subset_rows_and_cells_match_full_table(self, case, seed):
        vp, mixture, y = case
        rng = np.random.default_rng(seed)
        full = loglik_class_table(y, vp, mixture)
        classes = np.flatnonzero(rng.random(vp.class_values.size) < 0.5)
        np.testing.assert_array_equal(loglik_class_table(y, vp, mixture, classes), full[classes])
        n_cells = int(rng.integers(1, 30))
        positions = rng.integers(0, y.shape[1], size=(int(rng.integers(1, 4)), n_cells))
        cell_class = rng.integers(0, vp.class_values.size, size=n_cells)
        cells = loglik_cells(y, positions, cell_class, vp, mixture)
        assert cells.shape == positions.shape
        # bitwise, so dense and sparse A-ML read the same log densities
        np.testing.assert_array_equal(cells, full[cell_class[None, :], positions])

    @pytest.mark.parametrize("position", [-1, 40])
    def test_positions_outside_window_rejected(self, position):
        vp = VarianceProfile(np.array([0.0, 0.5, 1.0, 0.5]))
        y = np.ones((1, 40), dtype=np.complex128)
        with pytest.raises(ConfigError, match="cell positions"):
            loglik_cells(y, np.array([[0, position]]), np.array([1, 2]), vp, IMPULSIVE)


class TestSingleComponentTable:
    """Grouping classes per ufunc call changes no cell: every cell equals the
    class-by-class arithmetic (scale, shift, add the parts in antenna
    order, I before Q)."""

    @pytest.mark.parametrize("n_rx", [1, 3])
    @pytest.mark.parametrize("m", [7, 5000, 40000])  # all classes at once, groups, one at a time
    def test_cells_equal_per_class_arithmetic(self, n_rx, m):
        rng = np.random.default_rng(m + n_rx)
        y = (rng.standard_normal((n_rx, m)) + 1j * rng.standard_normal((n_rx, m))) * 2.0
        vp = VarianceProfile(np.linspace(0.0, 3.0, 19))
        mixture = NoiseMixture.gaussian(0.3)
        table = loglik_class_table(y, vp, mixture)
        var = vp.class_values[:, None] + mixture.variances / 2.0
        scales = (-0.5 / var)[:, 0]
        offsets = (np.log(mixture.probs) - 0.5 * np.log(2.0 * np.pi * var))[:, 0]
        z2 = np.square(y.view(np.float64))
        assert table.shape == (vp.class_values.size, m)
        for row, scale, offset in zip(table, scales, offsets):
            acc = z2 * scale + offset
            expected = acc[0, 0::2] + acc[0, 1::2]
            for r in range(1, n_rx):
                expected += acc[r, 0::2]
                expected += acc[r, 1::2]
            np.testing.assert_array_equal(row, expected)
