"""ZP-OFDM transmit waveform generation.

Each OFDM block carries ``n_data`` QAM-modulated samples followed by
``n_zero`` exactly-zero guard samples. Time-domain data samples are produced
by an inverse DFT of the constellation points, so by the central limit
theorem they are approximately complex Gaussian; the estimators in this
package rely on that approximation and are validated against these true
waveforms.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np


class ConfigError(ValueError):
    """Raised for dimensionally or statistically invalid system parameters."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_ints(obj, names) -> None:
    """Refuse any of the fields ``names`` of ``obj`` that is not an int (a
    bool included), with a :class:`ConfigError` that names it."""
    for name in names:
        if not _is_int(getattr(obj, name)):
            raise ConfigError(f"{name} must be an int, got {getattr(obj, name)!r}")


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
        # the fields annotated int, which the preset loader types alike
        _check_ints(self, [f.name for f in fields(self) if f.type == "int"])
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
    # qam_constellation builds the whole table, 16 bytes a point (1 MiB here)
    if m > 1 << 16:
        raise ConfigError(f"mod_order must be at most 65536, got {m}")
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


def draw_unscaled_blocks(config: SystemConfig, rngs, out: np.ndarray) -> None:
    """Write the data samples of blocks, before :func:`block_scale`, into
    the rows of ``out``.

    ``out`` has one row of ``n_data`` samples per block (the last axis must
    be contiguous, e.g. the data columns of a zeroed frame). Its rows are
    split evenly among ``rngs`` in order, and each generator draws its rows
    one after another, so k rows from one generator equal k one-row calls
    on it. QAM rows take their indices from :func:`qam_indices`, the values
    and generator states of ``rng.integers(0, mod_order, size)`` on each
    generator's rows, gather them from the constellation a slice at a time
    and send all rows through one inverse DFT; Gaussian-source rows draw
    unit normal I/Q pairs in place (one generator's rows must then be
    contiguous together)."""
    if config.gaussian_source:
        for rows, rng in zip(np.split(out, len(rngs)), rngs):
            rng.standard_normal(out=rows.view(np.float64))
    else:
        if len(out) % len(rngs):
            raise ValueError(f"{len(out)} rows do not split evenly among {len(rngs)} generators")
        points = qam_constellation(config.mod_order)
        # a contiguous out takes the symbols and is transformed in place
        symbols = out if out.flags.c_contiguous else np.empty(out.shape, dtype=np.complex128)
        flat, at = symbols.reshape(-1), 0
        for indices in qam_indices(rngs, out.size // len(rngs), config.mod_order):
            # every index is in range; mode="raise" would buffer the output
            np.take(points, indices, out=flat[at : at + indices.size], mode="clip")
            at += indices.size
        np.fft.ifft(symbols, axis=-1, out=out)


# raw words drawn and shifted at a time: a large draw's temporaries stay
# this small, where one batch of words and indices would cost page faults
# and peak memory
_RAW_WORDS = 1 << 13
# a word's uint32 view holds its low half first
_LOW_HALF_FIRST = np.array([1], dtype=np.uint64).view(np.uint32)[0] == 1


def qam_indices(rngs, count: int, mod_order: int):
    """``count`` QAM indices from each generator in turn: the values
    ``rng.integers(0, mod_order, count)`` gives, leaving each generator in
    the state that call leaves it in. Yields them as consecutive uint32
    slices. Every generator must be on a 64-bit bit generator that holds
    back the other half of a word for its next 32-bit draw, as PCG64 does.

    ``mod_order`` is 2**b with b <= 32, so ``integers`` takes each index
    by Lemire's bounded method from one 32-bit half of a 64-bit word, low
    half first, and its rejection threshold (2**32 - 2**b) % 2**b is 0: it
    never rejects, and the index is the top b bits of the half. A
    generator's indices are then a half it holds on entry, the halves of
    its raw words (``random_raw``), and for an odd rest one more word's low
    half, its high half held back. Those two lone halves are drawn with
    ``integers`` itself, so the held half ends as that call leaves it; the
    generator state is read once, for the half held on entry. The words of
    all generators are shifted together, up to ``_RAW_WORDS`` at a time.
    """
    shift = 32 - (mod_order.bit_length() - 1)
    if shift < 0:
        raise ValueError(f"mod_order {mod_order} needs more than one 32-bit half per index")
    if not _LOW_HALF_FIRST:
        raise NotImplementedError("raw words split into halves on little-endian hosts only")

    def halves(rng):
        bitgen = rng.bit_generator
        held = bitgen.state.get("has_uint32")
        if held is None:
            raise TypeError(f"{type(bitgen).__name__} gives no 64-bit words to split")
        held = min(held, count)
        n_words, odd = divmod(count - held, 2)
        # a lone half is drawn as its index, put back in the top bits
        if held:
            yield np.array([rng.integers(mod_order) << shift], dtype=np.uint32)
        for first in range(0, n_words, _RAW_WORDS):
            yield bitgen.random_raw(min(_RAW_WORDS, n_words - first)).view(np.uint32)
        if odd:
            yield np.array([rng.integers(mod_order) << shift], dtype=np.uint32)

    pending, n_pending = [], 0  # unshifted halves
    for rng in rngs:
        for half in halves(rng):
            pending.append(half)
            n_pending += half.size
            if n_pending >= 2 * _RAW_WORDS:
                yield _shifted(pending, shift)
                pending, n_pending = [], 0
    if pending:
        yield _shifted(pending, shift)


def _shifted(halves: list, shift: int) -> np.ndarray:
    """The halves joined and shifted down to their indices, in place."""
    merged = halves[0] if len(halves) == 1 else np.concatenate(halves)
    return np.right_shift(merged, shift, out=merged)


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
    :func:`draw_unscaled_blocks`), scaled by :func:`block_scale`; the zero
    pad is exact. Every transmit antenna draws its blocks alike, at power
    signal_power / n_tx.
    """
    samples = np.zeros(config.block_len, dtype=np.complex128)
    draw_unscaled_blocks(config, [rng], samples[None, : config.n_data])
    samples *= block_scale(config)  # the zero pad stays exactly zero
    return samples


def generate_frame(config: SystemConfig, n_blocks: int, rng: np.random.Generator) -> np.ndarray:
    """Concatenate ``n_blocks`` consecutive blocks into one sample vector."""
    if n_blocks < 1:
        raise ConfigError("n_blocks must be >= 1")
    return np.concatenate([generate_block(config, rng) for _ in range(n_blocks)])


def write_iq_f64(samples: np.ndarray, path) -> None:
    """Dump complex samples as interleaved little-endian float64 (I, Q)
    pairs: numpy's little-endian complex128, in C order."""
    np.asarray(samples, dtype="<c16").tofile(path)


def read_iq_f64(path) -> np.ndarray:
    """Read back a dump produced by :func:`write_iq_f64`, every bit as
    written; raises ValueError for a file that ends inside a pair (read as
    float64, a trailing part of a value would be dropped silently)."""
    raw = np.fromfile(path, dtype=np.uint8)
    if raw.size % 16:
        raise ValueError(f"{path}: {raw.size} bytes, not whole pairs of float64 (I, Q)")
    return raw.view("<c16")
