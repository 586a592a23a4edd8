import numpy as np
import pytest

from zpsync import ConfigError, SystemConfig, generate_block, generate_frame, qam_constellation
from zpsync.waveform import (
    _RAW_WORDS,
    draw_unscaled_blocks,
    qam_indices,
    read_iq_f64,
    write_iq_f64,
)


INT_FIELDS = ["n_data", "n_zero", "n_taps", "n_blocks", "n_tx", "n_rx", "mod_order"]


class TestSystemConfig:
    def test_derived_lengths(self):
        cfg = SystemConfig(n_data=512, n_zero=20)
        assert cfg.block_len == 532
        assert cfg.window_len == 10 * 532

    def test_zero_pad_must_cover_channel(self):
        with pytest.raises(ConfigError):
            SystemConfig(n_zero=5, n_taps=10)

    @pytest.mark.parametrize("kwargs", [
        dict(signal_power=0.0),
        dict(signal_power=-1.0),
        dict(mod_order=3),
        dict(mod_order=8),
        dict(n_tx=0),
        dict(n_blocks=0),
        dict(snr_db=float("inf")),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("mod_order", [2**17, 2**40])
    def test_mod_order_above_limit_rejected(self, mod_order):
        # accepted before, and the constellation table of 2**b points was
        # then built in full: 2**33 asked for two 72 GiB grids
        with pytest.raises(ConfigError, match="mod_order must be at most 65536"):
            SystemConfig(mod_order=mod_order)

    @pytest.mark.parametrize("power", [float("inf"), float("nan")])
    def test_non_finite_signal_power_rejected(self, power):
        # an infinite signal power used to pass and fail mid-run
        with pytest.raises(ConfigError, match="signal_power must be finite and positive"):
            SystemConfig(signal_power=power)

    @pytest.mark.parametrize("field", INT_FIELDS)
    @pytest.mark.parametrize("kind", [float, bool])
    def test_non_int_sizes_rejected(self, field, kind):
        # 512.0 used to pass and fail mid-run in assemble_window with a
        # TypeError, and n_blocks=True ran as one block
        value = kind(getattr(SystemConfig(), field))
        with pytest.raises(ConfigError, match=f"{field} must be an int"):
            SystemConfig(**{field: value})

    def test_numpy_ints_accepted(self):
        defaults = SystemConfig()
        cfg = SystemConfig(**{field: np.int64(getattr(defaults, field)) for field in INT_FIELDS})
        assert cfg.block_len == 532


class TestConstellation:
    @pytest.mark.parametrize("m", [4, 16, 32, 64, 128, 256])
    def test_size_energy_uniqueness(self, m):
        points = qam_constellation(m)
        assert points.size == m
        assert np.unique(points).size == m
        assert np.mean(np.abs(points) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [32, 128])
    def test_cross_shapes_have_symmetric_components(self, m):
        points = qam_constellation(m)
        assert np.mean(points.real**2) == pytest.approx(np.mean(points.imag**2))
        assert np.mean(points) == pytest.approx(0.0, abs=1e-12)


class TestGenerateBlock:
    def test_zero_pad_exact(self, paper_config, rng):
        block = generate_block(paper_config, rng)
        assert block.size == 532
        assert np.all(block[512:] == 0)
        assert np.any(block[:512] != 0)

    def test_power_calibration_siso(self, rng):
        # sample-moment oracle: mean |s|^2 over the data region -> signal_power
        cfg = SystemConfig(n_data=512, n_zero=20, signal_power=1.0)
        samples = np.concatenate([generate_block(cfg, rng)[:512] for _ in range(250)])
        assert samples.size >= 100_000
        power = np.mean(np.abs(samples) ** 2)
        assert power == pytest.approx(1.0, rel=0.01)

    def test_power_split_two_antennas(self, rng):
        # total transmit power is held fixed, so each antenna radiates half
        cfg = SystemConfig(n_data=512, n_zero=20, n_tx=2, signal_power=1.0)
        samples = np.concatenate([generate_block(cfg, rng)[:512] for _ in range(250)])
        assert np.mean(np.abs(samples) ** 2) == pytest.approx(0.5, rel=0.01)

    def test_gaussian_source_power(self, rng):
        cfg = SystemConfig(gaussian_source=True, signal_power=2.0)
        block = generate_block(cfg, rng)
        assert np.all(block[512:] == 0)
        data = np.concatenate([generate_block(cfg, rng)[:512] for _ in range(250)])
        assert np.mean(np.abs(data) ** 2) == pytest.approx(2.0, rel=0.02)

    @pytest.mark.parametrize("n_tx", [1, 2])
    def test_matches_explicit_draws(self, n_tx):
        # QAM indices -> constellation -> unitary IDFT -> per-antenna power
        cfg = SystemConfig(n_data=64, n_zero=8, n_taps=4, n_tx=n_tx, mod_order=16)
        rng = np.random.default_rng(31)
        symbols = qam_constellation(16)[rng.integers(0, 16, size=64)]
        data = np.fft.ifft(symbols) * np.sqrt(64 * cfg.signal_power / n_tx)
        block = generate_block(cfg, np.random.default_rng(31))
        np.testing.assert_array_equal(block, np.concatenate([data, np.zeros(8)]))

    def test_gaussian_source_matches_explicit_draws(self):
        cfg = SystemConfig(n_data=64, n_zero=8, n_taps=4, gaussian_source=True, signal_power=2.0)
        data = np.random.default_rng(32).standard_normal(128).view(np.complex128)
        data *= np.sqrt(cfg.signal_power / 2.0)
        block = generate_block(cfg, np.random.default_rng(32))
        np.testing.assert_array_equal(block, np.concatenate([data, np.zeros(8)]))

    def test_whiteness_lag1(self, paper_config, rng):
        data = generate_block(paper_config, rng)[:512]
        rho = np.abs(np.vdot(data[:-1], data[1:])) / np.vdot(data, data).real
        assert rho < 4 / np.sqrt(512)


class TestDrawUnscaledBlocks:
    """Rows are split evenly among the generators, each drawing its rows in turn."""

    @pytest.mark.parametrize("gaussian_source", [False, True])
    def test_rows_from_one_generator_equal_one_row_calls(self, gaussian_source):
        cfg = SystemConfig(
            n_data=37, n_zero=8, n_taps=4, mod_order=16, gaussian_source=gaussian_source
        )
        many = np.empty((5, 37), dtype=np.complex128)
        draw_unscaled_blocks(cfg, [np.random.default_rng(41)], many)
        rng = np.random.default_rng(41)
        one = np.empty_like(many)
        for row in one:
            draw_unscaled_blocks(cfg, [rng], row[None])
        np.testing.assert_array_equal(many, one)

    @pytest.mark.parametrize("gaussian_source", [False, True])
    def test_rows_split_evenly_among_generators(self, gaussian_source):
        cfg = SystemConfig(
            n_data=16, n_zero=4, n_taps=2, n_tx=2, mod_order=4, gaussian_source=gaussian_source
        )
        out = np.empty((6, 16), dtype=np.complex128)
        draw_unscaled_blocks(cfg, [np.random.default_rng(s) for s in (1, 2, 3)], out)
        for g, seed in enumerate((1, 2, 3)):
            alone = np.empty((2, 16), dtype=np.complex128)
            draw_unscaled_blocks(cfg, [np.random.default_rng(seed)], alone)
            np.testing.assert_array_equal(out[2 * g : 2 * g + 2], alone)

    @pytest.mark.parametrize("gaussian_source", [False, True])
    def test_uneven_split_rejected(self, gaussian_source):
        cfg = SystemConfig(
            n_data=8, n_zero=4, n_taps=2, mod_order=4, gaussian_source=gaussian_source
        )
        rngs = [np.random.default_rng(1), np.random.default_rng(2)]
        with pytest.raises(ValueError):
            draw_unscaled_blocks(cfg, rngs, np.empty((5, 8), dtype=np.complex128))


class TestGenerateFrame:
    def test_single_block_matches_generate_block(self, paper_config):
        a = generate_frame(paper_config, 1, np.random.default_rng(3))
        b = generate_block(paper_config, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_length_and_pad_positions(self, paper_config, rng):
        frame = generate_frame(paper_config, 3, rng)
        assert frame.size == 3 * 532
        for start in (512, 1044, 1576):
            assert np.all(frame[start : start + 20] == 0)

    def test_deterministic_under_seed(self, paper_config):
        a = generate_frame(paper_config, 2, np.random.default_rng(99))
        b = generate_frame(paper_config, 2, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_rejects_zero_blocks(self, paper_config, rng):
        with pytest.raises(ConfigError):
            generate_frame(paper_config, 0, rng)


def test_iq_dump_round_trip(tmp_path, rng):
    samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    path = tmp_path / "dump.iq"
    write_iq_f64(samples, path)
    assert path.stat().st_size == 64 * 16
    np.testing.assert_array_equal(read_iq_f64(path), samples)


@pytest.mark.parametrize("shape, step", [((64,), 1), ((3, 5), 1), ((40,), 3)])
def test_iq_dump_bytes_are_interleaved_float64(tmp_path, rng, shape, step):
    samples = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[..., ::step]
    path = tmp_path / "dump.iq"
    write_iq_f64(samples, path)
    flat = samples.ravel()
    interleaved = np.empty(2 * flat.size, dtype="<f8")
    interleaved[0::2] = flat.real
    interleaved[1::2] = flat.imag
    assert path.read_bytes() == interleaved.tobytes()


def test_iq_dump_round_trips_every_bit(tmp_path):
    inf, nan = np.inf, np.nan
    parts = [(3, inf), (2, -inf), (-0.0, 1), (1, -0.0), (-0.0, -0.0), (nan, 0), (-inf, nan)]
    samples = np.array([complex(re, im) for re, im in parts])
    path = tmp_path / "dump.iq"
    write_iq_f64(samples, path)
    back = read_iq_f64(path)
    assert back.dtype == np.complex128
    np.testing.assert_array_equal(back.view(np.uint64), samples.view(np.uint64))


@pytest.mark.parametrize("size", [8, 20, 24, 33])
def test_iq_dump_refuses_a_file_that_ends_inside_a_pair(tmp_path, size):
    path = tmp_path / "dump.iq"
    path.write_bytes(bytes(size))
    with pytest.raises(ValueError, match=f"{size} bytes, not whole pairs"):
        read_iq_f64(path)


def _indices(rngs, count, mod_order):
    """qam_indices' slices joined, each checked to stay small."""
    slices = list(qam_indices(rngs, count, mod_order))
    assert all(s.dtype == np.uint32 and s.size < 4 * _RAW_WORDS for s in slices)
    return np.concatenate(slices)


def _same_state(got, expected):
    """The LCG state and the held 32-bit half; numpy leaves a stale half
    behind once none is held, so that is compared only while one is."""
    got, expected = got.bit_generator.state, expected.bit_generator.state
    assert got["state"] == expected["state"]
    assert got["has_uint32"] == expected["has_uint32"]
    if expected["has_uint32"]:
        assert got["uinteger"] == expected["uinteger"]


# every power of two that fits a 32-bit half, b != 3: past the orders a
# config accepts (up to 2**16), up to the largest qam_indices handles
MOD_ORDERS = [1 << b for b in range(2, 33) if b != 3]


class TestQamIndices:
    """Indices from raw words equal ``Generator.integers(0, mod_order, size)``."""

    @pytest.mark.parametrize("mod_order", MOD_ORDERS)
    @pytest.mark.parametrize("held", [False, True], ids=["fresh", "held"])
    def test_equal_integers(self, mod_order, held):
        for seed, count in enumerate([1, 2, 7, 512, 513]):
            expected, got = np.random.default_rng(seed), np.random.default_rng(seed)
            if held:  # an odd count of integers holds back half a word
                expected.integers(0, 4, size=3)
                got.integers(0, 4, size=3)
            # twice in a row: the first draw may leave a half held
            for _ in range(2):
                want = expected.integers(0, mod_order, size=count)
                np.testing.assert_array_equal(_indices([got], count, mod_order), want)
                _same_state(got, expected)

    @pytest.mark.parametrize("count", [2 * _RAW_WORDS + 1, 6 * _RAW_WORDS])
    def test_large_counts_drawn_in_slices(self, count):
        # past _RAW_WORDS words the words are drawn and shifted a slice at a time
        rngs = [np.random.default_rng(5), np.random.default_rng(6)]
        rngs[1].integers(0, 4, size=1)
        expected = [np.random.default_rng(5), np.random.default_rng(6)]
        expected[1].integers(0, 4, size=1)
        want = np.concatenate([rng.integers(0, 128, size=count) for rng in expected])
        np.testing.assert_array_equal(_indices(rngs, count, 128), want)
        for got, exp in zip(rngs, expected):
            _same_state(got, exp)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64DXSM, np.random.Philox,
                                               np.random.SFC64])
    def test_other_64_bit_generators(self, bit_generator):
        for count in (5, 512):
            expected = np.random.Generator(bit_generator(9))
            got = np.random.Generator(bit_generator(9))
            for _ in range(2):
                want = expected.integers(0, 64, size=count)
                np.testing.assert_array_equal(_indices([got], count, 64), want)
            # the next draws read the held half, then fresh words
            np.testing.assert_array_equal(got.integers(0, 2**32, size=3),
                                          expected.integers(0, 2**32, size=3))
            assert got.random() == expected.random()

    def test_32_bit_generator_rejected(self):
        # MT19937 gives 32-bit outputs: its raw words hold no second half
        with pytest.raises(TypeError, match="MT19937"):
            _indices([np.random.Generator(np.random.MT19937(1))], 4, 16)
