"""ZP-OFDM transmit waveform generation.

Each OFDM block carries ``n_data`` QAM-modulated samples followed by
``n_zero`` exactly-zero guard samples. Time-domain data samples are produced
by an inverse DFT of the constellation points, so by the central limit
theorem they are approximately complex Gaussian; the estimators in this
package rely on that approximation and are validated against these true
waveforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class ConfigError(ValueError):
    """Raised for dimensionally or statistically invalid system parameters."""


@dataclass(frozen=True)
class SystemConfig:
    """Dimensional and statistical parameters of one ZP-OFDM link.

    n_data:       data samples per block
    n_zero:       zero-pad samples per block (must cover the channel: n_zero >= n_taps)
    n_taps:       multipath channel taps
    n_blocks:     observation blocks the estimator consumes
    n_tx, n_rx:   transmit / receive antenna counts
    mod_order:    QAM constellation size (power of two, >= 4)
    signal_power: total transmit sample power (linear), split evenly across tx antennas
    snr_db:       signal-to-noise ratio 10*log10(signal_power / avg noise power)
    gaussian_source: draw data samples directly as complex Gaussians instead of
                  QAM + inverse DFT (oracle mode for validating the CLT model)
    """

    n_data: int = 512
    n_zero: int = 20
    n_taps: int = 10
    n_blocks: int = 10
    n_tx: int = 1
    n_rx: int = 1
    mod_order: int = 128
    signal_power: float = 1.0
    snr_db: float = 10.0
    gaussian_source: bool = False

    def __post_init__(self) -> None:
        if self.n_data < 1 or self.n_zero < 0 or self.n_taps < 1:
            raise ConfigError("n_data, n_taps must be >= 1 and n_zero >= 0")
        if self.n_zero < self.n_taps:
            raise ConfigError(
                f"zero pad too short for the channel: n_zero={self.n_zero} < n_taps={self.n_taps}"
            )
        if self.n_blocks < 1:
            raise ConfigError("n_blocks must be >= 1")
        if self.n_tx < 1 or self.n_rx < 1:
            raise ConfigError("antenna counts must be >= 1")
        if not self.gaussian_source:
            _validate_mod_order(self.mod_order)
        if not 0 < self.signal_power < np.inf:
            raise ConfigError(f"signal_power must be finite and positive, got {self.signal_power}")
        if not np.isfinite(self.snr_db):
            raise ConfigError("snr_db must be finite")

    @property
    def block_len(self) -> int:
        """Samples per transmitted block (data + zero pad)."""
        return self.n_data + self.n_zero

    @property
    def window_len(self) -> int:
        """Samples in one observation window."""
        return self.n_blocks * self.block_len


def _validate_mod_order(m: int) -> None:
    b = int(m).bit_length() - 1
    if m < 4 or (1 << b) != m:
        raise ConfigError(f"mod_order must be a power of two >= 4, got {m}")
    if m == 8:
        raise ConfigError("mod_order 8 has no square or cross constellation; use 4 or 16")


@lru_cache(maxsize=8)
def qam_constellation(mod_order: int) -> np.ndarray:
    """Unit-average-energy QAM constellation of the given size.

    Even powers of two give square grids, odd powers (32, 128, 512, ...) give
    the usual cross shape with the grid corners removed. Mapping order is
    arbitrary: the estimators never demodulate.
    """
    _validate_mod_order(mod_order)
    b = mod_order.bit_length() - 1
    if b % 2 == 0:
        side = 1 << (b // 2)
        levels = np.arange(-side + 1, side, 2, dtype=float)
        points = (levels[:, None] + 1j * levels[None, :]).ravel()
    else:
        side = 3 << ((b - 3) // 2)
        corner = 1 << ((b - 5) // 2)
        levels = np.arange(-side + 1, side, 2, dtype=float)
        re, im = np.meshgrid(levels, levels)
        keep = ~((np.abs(re) > side - 2 * corner - 1) & (np.abs(im) > side - 2 * corner - 1))
        points = (re[keep] + 1j * im[keep]).ravel()
    assert points.size == mod_order
    points = points / np.sqrt(np.mean(np.abs(points) ** 2))
    points.setflags(write=False)
    return points


def draw_block_data(config: SystemConfig, rngs, out: np.ndarray) -> None:
    """Write the data samples of blocks into the rows of ``out``.

    ``out`` has one row of ``n_data`` samples per block (the last axis must
    be contiguous, e.g. the data columns of a zeroed frame). Its rows are
    split evenly among ``rngs`` in order, and each generator draws its rows
    one after another, so k rows from one generator equal k one-row calls
    on it. The rows are drawn by :func:`draw_unscaled_blocks` and then
    multiplied by :func:`block_scale`.
    """
    draw_unscaled_blocks(config, rngs, out)
    out *= block_scale(config)


def draw_unscaled_blocks(config: SystemConfig, rngs, out: np.ndarray) -> None:
    """:func:`draw_block_data` before its scaling pass: QAM rows are
    gathered from the constellation and sent through one inverse DFT over
    all rows; Gaussian-source rows draw unit normal I/Q pairs in place (one
    generator's rows must then be contiguous together)."""
    if config.gaussian_source:
        for rows, rng in zip(np.split(out, len(rngs)), rngs):
            rng.standard_normal(out=rows.view(np.float64))
    else:
        size = (len(out) // len(rngs), config.n_data)
        draws = [rng.integers(0, config.mod_order, size=size) for rng in rngs]
        # a lone generator's indices are gathered uncopied, and none outlive
        # the gather: at large batches either would cost time or peak memory
        symbols = qam_constellation(config.mod_order)[
            draws[0] if len(draws) == 1 else np.concatenate(draws)
        ]
        del draws
        np.fft.ifft(symbols, axis=-1, out=out)


def block_scale(config: SystemConfig) -> float:
    """The factor that gives every unscaled data sample expected power
    signal_power / n_tx (the total transmit power is held constant as
    antennas are added; pass ``n_tx=1`` for one antenna at full power). For
    QAM rows it makes the inverse DFT unitary: per-block time-domain energy
    equals symbol energy."""
    per_antenna = config.signal_power / config.n_tx
    if config.gaussian_source:
        return np.sqrt(per_antenna / 2.0)
    return np.sqrt(config.n_data * per_antenna)


def generate_block(config: SystemConfig, rng: np.random.Generator) -> np.ndarray:
    """Generate one transmitted block: ``block_len`` samples whose tail is
    exactly zero.

    Data samples are an inverse DFT of i.i.d. QAM points (see
    :func:`draw_block_data`); the zero pad is exact. Every transmit antenna
    draws its blocks alike, at power signal_power / n_tx.
    """
    samples = np.zeros(config.block_len, dtype=np.complex128)
    draw_block_data(config, [rng], samples[None, : config.n_data])
    return samples


def generate_frame(config: SystemConfig, n_blocks: int, rng: np.random.Generator) -> np.ndarray:
    """Concatenate ``n_blocks`` consecutive blocks into one sample vector."""
    if n_blocks < 1:
        raise ConfigError("n_blocks must be >= 1")
    return np.concatenate([generate_block(config, rng) for _ in range(n_blocks)])


def write_iq_f64(samples: np.ndarray, path) -> None:
    """Dump complex samples as interleaved little-endian float64 (I, Q) pairs."""
    flat = np.asarray(samples, dtype=np.complex128).ravel()
    out = np.empty(2 * flat.size, dtype="<f8")
    out[0::2] = flat.real
    out[1::2] = flat.imag
    out.tofile(path)


def read_iq_f64(path) -> np.ndarray:
    """Read back a dump produced by :func:`write_iq_f64`."""
    raw = np.fromfile(path, dtype="<f8")
    return raw[0::2] + 1j * raw[1::2]
