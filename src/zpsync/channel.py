"""Multipath Rayleigh channel, Gaussian-mixture noise, and receive-window assembly.

The receiver's capture is modelled as a slice of one conceptually infinite
stream: pure noise before the transmitter starts, then the superposition of
per-antenna tap convolutions plus noise. A timing offset ``d`` only moves the
slice start, so windows taken at different offsets from the same seed are
bit-exact shifts of each other.

Every draw comes from its own substream, keyed ``(seed, purpose, antenna,
block)``. A stream is built in two steps. :func:`draw_stream` takes a
trial's seeds to its raw draws in a few array passes: :func:`window_seeds`
derives the seeds of all its substreams (of a whole chunk of trials, in the
harness) in one numpy pass of ``SeedSequence``'s hash, all blocks' data go
through one inverse DFT, and each noise substream writes its unit normals
straight into one array. It draws the stream only up to the last sample
that its caller's windows read. :func:`stream_signal` and
:func:`finish_stream` then scale, convolve and add them for one link and
one noise mixture. A
smaller link's draws are a prefix of a larger link's (fewer antennas, fewer
blocks), so one draw serves every point of a sweep. The result is the same
bits as drawing block by block with :func:`~zpsync.waveform.generate_block`
and :func:`draw_noise`, which are thin wrappers over the same helpers.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .waveform import ConfigError, SystemConfig, block_scale, draw_unscaled_blocks

# purpose tags for deriving independent substreams from one trial seed
STREAM_SIGNAL = 1
STREAM_CHANNEL = 2
STREAM_NOISE = 3
STREAM_DELAY = 4
STREAM_PDP_ERROR = 5


def substream(*entropy: int) -> np.random.Generator:
    """Independent generator derived from an entropy path.

    Streams for distinct paths are statistically independent and do not
    depend on evaluation order, so parallel trial workers can derive their
    own draws from (master_seed, trial_index, purpose, ...) tuples. This is
    numpy's own derivation, the oracle that :func:`window_seeds` matches.
    """
    return np.random.default_rng(np.random.SeedSequence(list(entropy)))


# SeedSequence's hash constants; its entropy pool holds 4 uint32 words
_MASK = (1 << 32) - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(seed: tuple[int, ...]) -> list[int]:
    """The uint32 words ``SeedSequence`` reads from a path of non-negative
    ints: each int as its little-endian 32-bit words, 0 as one word."""
    words = []
    for w in map(operator.index, seed):
        if w < 0:
            raise ValueError("expected non-negative integer")
        words.append(w & _MASK)
        while w := w >> 32:
            words.append(w & _MASK)
    return words


@functools.cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a SeedSequence hash constant, as a
    (count, 1) uint32 column: ``init``, then each times ``mult``."""
    consts = [init]
    while len(consts) < count:
        consts.append(consts[-1] * mult & _MASK)
    column = np.array(consts, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


def _pcg64_seeds(words: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``SeedSequence(row[:length]).generate_state(4, np.uint64)`` for every
    row of the uint32 array ``words`` (shape (..., L)) and its length in
    ``lengths`` (broadcast to shape (...,)), as shape (..., 4). Words past a
    row's length must be 0.

    The hash is SeedSequence's, in wrapping uint32 arithmetic over all rows
    at once: hash the words into a pool of 4 (a row shorter than the pool
    reads as padded with zeros, which hash as SeedSequence's padding does),
    mix every pool word into the others, mix each word past the pool into
    every pool word of the rows that hold it, then hash the pool out into 8
    words read as 4 little-endian uint64s. The hash constant advances once
    per hash, the same for every row, so each step hashes all the pool words
    it touches in one array operation with a column of consecutive constants.
    """
    n_words = max(words.shape[-1], _POOL)
    entropy = np.zeros((n_words, words[..., 0].size), dtype=np.uint32)
    entropy[: words.shape[-1]] = words.reshape(-1, words.shape[-1]).T
    lengths = np.broadcast_to(lengths, words.shape[:-1]).ravel()
    # 4 * n_words hashes: one per word into the pool, per ordered pair of
    # pool words and per (word past the pool, pool word); hash k reads
    # constants k and k + 1
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * n_words + 1)
    used = 0

    def hashmix(value, count):
        nonlocal used
        value = value ^ consts[used : used + count]
        value *= consts[used + 1 : used + count + 1]
        value ^= value >> 16
        used += count
        return value

    def mix(x, y):
        result = x * _MIX_MULT_L
        result -= y * _MIX_MULT_R
        result ^= result >> 16
        return result

    pool = hashmix(entropy[:_POOL], _POOL)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL - 1))
    for i in range(_POOL, n_words):
        pool = np.where(lengths > i, mix(pool, hashmix(entropy[i], _POOL)), pool)

    out = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL + 1)
    state = np.concatenate([pool, pool]) ^ out[:-1]
    state *= out[1:]
    state ^= state >> 16
    seeds = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)
    return seeds.reshape(words.shape[:-1] + (_POOL,))


@functools.lru_cache(maxsize=16)
def _stream_suffixes(n_tx: int, n_rx: int, n_blocks: int, pre_pad: bool) -> tuple:
    """The path suffix of every substream of a window, in the order
    :func:`draw_stream` reads them, as (suffix words (n_streams, 3), suffix
    lengths): ``(STREAM_CHANNEL,)``, then ``(STREAM_SIGNAL, i, n)``, then
    ``(STREAM_NOISE, j, b)`` with b = 0 only under a pre-pad."""
    n_gen = n_blocks + 1
    rows = [(STREAM_CHANNEL, 0, 0)]
    rows += [(STREAM_SIGNAL, i, n) for i in range(n_tx) for n in range(n_gen)]
    rows += [
        (STREAM_NOISE, j, b) for j in range(n_rx) for b in range(0 if pre_pad else 1, n_gen + 1)
    ]
    lengths = np.full(len(rows), 3)
    lengths[0] = 1
    suffixes = np.array(rows, dtype=np.uint32)
    suffixes.setflags(write=False)
    lengths.setflags(write=False)
    return suffixes, lengths


def window_seeds(
    config: SystemConfig, d_pad: int, seed: tuple[int, ...], trials=None
) -> np.ndarray:
    """PCG64 seeds of every substream :func:`draw_stream` reads, for a
    group of trials at once.

    The trials are seeded ``seed + (t,)`` for each t in ``trials`` (each
    below 2**32), or ``seed`` alone when ``trials`` is None. Returns shape
    (n_trials, n_streams, 4) in the order draw_stream reads the streams:
    the channel, the signal blocks ``(i, n)``, then the noise substreams
    ``(j, b)``, with b = 0 only when d_pad > 0. Each seed is the state
    :func:`substream` gives the same path: the hash runs over numpy arrays
    of entropy words instead of one ``SeedSequence`` per substream.
    """
    suffixes, lengths = _stream_suffixes(config.n_tx, config.n_rx, config.n_blocks, d_pad > 0)
    prefix = np.array([_seed_words(seed)], dtype=np.uint32)
    if trials is not None:
        column = np.asarray(trials, dtype=np.uint32)[:, None]
        prefix = np.hstack([np.broadcast_to(prefix, (len(column), prefix.shape[1])), column])
    n_trials, n_prefix = prefix.shape
    n_streams, n_suffix = suffixes.shape
    words = np.empty((n_trials, n_streams, n_prefix + n_suffix), dtype=np.uint32)
    words[..., :n_prefix] = prefix[:, None, :]
    words[..., n_prefix:] = suffixes
    return _pcg64_seeds(words, n_prefix + lengths)


@functools.cache
def _row_seed_sequence():
    """An ``ISeedSequence`` that hands PCG64 one precomputed seed row.

    Defined on first use: the package does not load ``numpy.random`` at
    import, and a module-level subclass would.
    """

    class RowSeedSequence(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for 4 uint64 words

    return RowSeedSequence


def _seeded(state: np.ndarray) -> np.random.Generator:
    """The generator :func:`substream` builds, from its precomputed seed."""
    return np.random.Generator(np.random.PCG64(_row_seed_sequence()(state)))


@dataclass(frozen=True)
class DelayProfile:
    """Average tap powers of the multipath channel."""

    powers: np.ndarray

    def __post_init__(self) -> None:
        powers = np.asarray(self.powers, dtype=float)
        powers.setflags(write=False)
        object.__setattr__(self, "powers", powers)
        if powers.ndim != 1 or powers.size == 0:
            raise ConfigError("delay profile must be a non-empty 1-D vector")
        if not (np.all((powers >= 0) & (powers < np.inf)) and np.any(powers > 0)):
            raise ConfigError(f"tap powers must be finite, >= 0 and not all 0, got {powers}")

    @classmethod
    def exponential(
        cls, scale: float, decay: float, n_taps: int, normalized: bool = False
    ) -> "DelayProfile":
        """Exponentially decaying profile scale * exp(-decay * k).

        With ``normalized=True`` the powers are rescaled to sum to exactly 1.
        """
        if not math.isfinite(decay):
            raise ConfigError(f"profile decay must be finite, got {decay}")
        taps = np.arange(n_taps, dtype=float)
        if normalized and decay < 0:
            # count a rising profile's taps from its last, largest one, so
            # that no exponent is positive and the sum cannot overflow
            taps -= n_taps - 1
        with np.errstate(over="ignore"):  # an exponent of -inf gives power 0
            powers = scale * np.exp(-decay * taps)
        if normalized:
            powers = powers / powers.sum()
        return cls(powers)

    @property
    def n_taps(self) -> int:
        return int(self.powers.size)

    @property
    def total_power(self) -> float:
        return float(self.powers.sum())

    def perturbed(self, alpha: float, signs: np.ndarray) -> "DelayProfile":
        """Profile with per-tap power errors (1 + signs[k] * alpha) * powers[k]."""
        if not 0 <= alpha < 1:
            raise ConfigError("perturbation alpha must lie in [0, 1)")
        return DelayProfile(self.powers * (1.0 + alpha * np.asarray(signs, dtype=float)))


@dataclass(frozen=True)
class NoiseMixture:
    """Zero-mean complex Gaussian mixture (Class A style impulsive noise).

    ``probs[l]`` selects a component per sample; the selected sample is
    CN(0, variances[l]), i.e. each I/Q part has variance variances[l] / 2.
    """

    probs: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=float)
        variances = np.asarray(self.variances, dtype=float)
        probs.setflags(write=False)
        variances.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "variances", variances)
        if probs.shape != variances.shape or probs.ndim != 1 or probs.size == 0:
            raise ConfigError("mixture needs matching 1-D probs and variances")
        # written so that NaN fails each test
        if not (np.all(probs > 0) and abs(probs.sum() - 1.0) <= 1e-12):
            raise ConfigError(f"component probabilities must be positive and sum to 1, got {probs}")
        if not np.all((variances > 0) & (variances < np.inf)):
            raise ConfigError(
                f"component variances must be finite and strictly positive, got {variances}"
            )

    @classmethod
    def gaussian(cls, variance: float = 1.0) -> "NoiseMixture":
        return cls(np.array([1.0]), np.array([float(variance)]))

    @classmethod
    def impulsive(
        cls, p_nominal: float = 0.99, var_nominal: float = 1.0, var_impulse: float = 100.0
    ) -> "NoiseMixture":
        """Two-component mixture: nominal noise plus rare high-power impulses."""
        return cls(
            np.array([p_nominal, 1.0 - p_nominal]),
            np.array([float(var_nominal), float(var_impulse)]),
        )

    @property
    def n_components(self) -> int:
        return int(self.probs.size)

    @property
    def avg_power(self) -> float:
        return float(np.dot(self.probs, self.variances))


def noise_power(signal_power: float, snr_db: float) -> float:
    """The noise power signal_power * 10**(-snr_db / 10) of an SNR; raises
    :class:`ConfigError` unless it is finite and positive."""
    try:
        power = signal_power * 10.0 ** (-snr_db / 10.0)
    except OverflowError:  # 10.0 ** x past the largest float
        power = math.inf
    if not 0 < power < math.inf:
        raise ConfigError(f"snr_db = {snr_db} gives noise power {power}, not finite and positive")
    return power


def scale_mixture_to_snr(
    mixture: NoiseMixture, signal_power: float, snr_db: float
) -> NoiseMixture:
    """Rescale all component variances by one factor so the average noise
    power equals :func:`noise_power`; weights are unchanged."""
    target = noise_power(signal_power, snr_db)
    return NoiseMixture(mixture.probs, mixture.variances * (target / mixture.avg_power))


def draw_channel(
    profile: DelayProfile, n_tx: int, n_rx: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw one quasi-static channel: i.i.d. Rayleigh taps
    h[j, i, k] ~ CN(0, powers[k]) for every (receive, transmit) antenna
    pair, shape (n_rx, n_tx, n_taps)."""
    return _taps(profile, rng.standard_normal((n_rx, n_tx, profile.n_taps, 2)))


def _taps(profile: DelayProfile, normals: np.ndarray) -> np.ndarray:
    """Taps from their unit normal I/Q pairs, shape (n_rx, n_tx, n_taps, 2),
    read as complex numbers through a view: ``normals @ [1, 1j]`` bit for
    bit, without the matmul's complex copy. The scaled taps are a new
    array; ``normals`` is left as it is, since every link of a stream
    shares it."""
    pairs = np.ascontiguousarray(normals).view(np.complex128)[..., 0]
    return pairs * np.sqrt(profile.powers / 2.0)


def _draw_unit_noise(
    rng: np.random.Generator, out: np.ndarray, uniforms: np.ndarray | None, span: int
) -> None:
    """Draw the first ``out.size`` samples of a substream's ``span`` of
    noise before scaling, in place.

    The substream first gives one uniform per sample of the span (the
    component choice; those of the first samples written to ``uniforms``),
    then unit normal I/Q pairs written through the float64 view of the
    complex ``out``. The uniforms of the samples past ``out`` are skipped
    with ``advance``, as are all of them for a single-component mixture
    (``uniforms=None``), which needs no choice: PCG64's ``random()``
    consumes exactly one 64-bit output per double, so the normals that
    follow are the same as after drawing and discarding them. ``advance``
    also drops the half of a 64-bit output that the generator may hold back
    for its next 32-bit integer draw, so skip only on a generator that
    holds none, such as a fresh substream.
    """
    drawn = 0
    if uniforms is not None:
        rng.random(out=uniforms)
        drawn = uniforms.size
    if span > drawn:
        rng.bit_generator.advance(span - drawn)
    rng.standard_normal(out=out.view(np.float64))


def _scale_noise(
    mixture: NoiseMixture, samples: np.ndarray, uniforms: np.ndarray | None
) -> None:
    """Scale unit noise in place so each sample is CN(0, variances[l]) for
    its component l, chosen by ``uniforms`` (same shape as ``samples``, or
    None for a single component)."""
    if uniforms is None:
        scale = np.sqrt(mixture.variances[0] / 2.0)
    else:
        # the count of cumulative weights at or below each uniform, capped
        # at the last component: the weights are nondecreasing, so the
        # last one need not be compared
        cumprobs = np.cumsum(mixture.probs)
        which = np.zeros(uniforms.shape, dtype=np.intp)
        for edge in cumprobs[:-1]:
            which += uniforms >= edge
        scale = np.sqrt(mixture.variances / 2.0)[which]
    samples.real *= scale
    samples.imag *= scale


def draw_noise(mixture: NoiseMixture, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` mixture noise samples.

    Per sample a component l is selected with probability probs[l] and the
    sample is CN(0, variances[l]).
    """
    samples = np.empty(count, dtype=np.complex128)
    uniforms = np.empty(count)  # drawn even for one component: see _draw_unit_noise
    _draw_unit_noise(rng, samples, uniforms, count)
    _scale_noise(mixture, samples, uniforms if mixture.n_components > 1 else None)
    return samples


@dataclass(frozen=True, eq=False)
class ReceivedWindow:
    """Receiver capture of ``n_blocks * block_len`` samples per receive antenna."""

    samples: np.ndarray  # (n_rx, m) complex
    d_true: int
    config: SystemConfig
    channel: np.ndarray  # taps, (n_rx, n_tx, n_taps) complex

    @property
    def n_rx(self) -> int:
        return int(self.samples.shape[0])

    @property
    def length(self) -> int:
        return int(self.samples.shape[1])

    def dump_iq(self, path_prefix) -> list[str]:
        """Write one interleaved float64 I/Q file per receive antenna."""
        from .waveform import write_iq_f64

        paths = []
        for j in range(self.n_rx):
            path = f"{path_prefix}.rx{j}.iq"
            write_iq_f64(self.samples[j], path)
            paths.append(path)
        return paths


def convolve_frame(frame: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Channel output for one transmitted frame, truncated to the frame length.

    Equivalent to the per-block lower-triangular Toeplitz products: because
    every block ends in at least n_taps zeros, the convolution tail of each
    block dies inside its own zero pad and blocks never interfere.
    """
    return np.convolve(frame, taps)[: frame.size]


@dataclass(frozen=True, eq=False)
class StreamDraws:
    """A trial's draws before any link's scaling: what :func:`draw_stream`
    takes from the substreams, in stream order, for the stream samples
    before ``stop`` (counted from the first pre-pad sample).

    The draws of a link with fewer antennas or blocks are a prefix of these:
    the first ``n_tx`` rows of ``rows`` and their first blocks, the first
    ``n_rx * n_tx * n_taps * 2`` channel normals, and the first ``n_rx``
    rows of ``noise`` and their first samples.
    """

    rows: np.ndarray  # (n_tx, blocks that start before stop, block_len), unscaled, zero tails
    normals: np.ndarray  # the channel substream's unit normals, flat
    noise: np.ndarray  # (n_rx, stop) unit complex noise, a view
    uniforms: np.ndarray | None  # component choices, like noise; None for one component
    d_pad: int
    stop: int


def draw_stream(
    config: SystemConfig,
    profile: DelayProfile,
    mixture: NoiseMixture,
    d_pad: int,
    seeds: np.ndarray,
    stop: int,
) -> StreamDraws:
    """Draw a trial's stream for indices [-d_pad, stop - d_pad), before any
    scaling: the ``stop`` samples from the first pre-pad sample on that the
    windows read, up to the end of the stream at (n_blocks+1)*block_len.

    Index 0 is the first transmitted sample; the d_pad leading samples are
    pure noise. The stream holds one extra block beyond n_blocks, so windows
    starting anywhere up to block_len - 1 stay in support. ``seeds`` is the
    trial's row of :func:`window_seeds` for ``config`` and ``d_pad``: every
    draw comes from a substream of the trial's seed, independent of d_pad
    slicing: the channel from ``(seed, STREAM_CHANNEL)``, block n of tx
    antenna i from ``(seed, STREAM_SIGNAL, i, n)``, and on rx antenna j the
    pre-pad noise from ``(seed, STREAM_NOISE, j, 0)`` (not derived when
    d_pad is 0) and the noise under block n from
    ``(seed, STREAM_NOISE, j, n + 1)``.

    Only what starts before ``stop`` is drawn: no generator is built for a
    block or a noise span that starts at or after it. The data of the drawn
    (i, n) blocks go through one gather and one inverse DFT into a zeroed
    (n_tx, blocks, block_len) array; each noise substream draws its
    component uniforms (only for a mixture of several components; the
    mixture is read for nothing else) and unit normals straight into the
    stream. The span that ``stop`` cuts draws both up to the cut and skips
    the uniforms past it with ``advance``, as a single-component mixture
    skips all of them; both skips are exact, see :func:`_draw_unit_noise`.
    """
    n_s = config.block_len
    n_gen = config.n_blocks + 1
    end = d_pad + n_gen * n_s
    if not 0 <= stop <= end:
        raise ValueError(f"stop={stop} outside the stream [0, {end}]")
    normals = _seeded(seeds[0]).standard_normal(config.n_rx * config.n_tx * profile.n_taps * 2)
    # signal block n starts at d_pad + n * n_s
    n_drawn = max(0, -(-(stop - d_pad) // n_s))
    n_sig = config.n_tx * n_gen
    rows = np.zeros((config.n_tx, n_drawn, n_s), dtype=np.complex128)
    if n_drawn:
        block_seeds = seeds[1 : 1 + n_sig].reshape(config.n_tx, n_gen, -1)[:, :n_drawn]
        rngs = [_seeded(state) for row in block_seeds for state in row]
        draw_unscaled_blocks(config, rngs, rows.reshape(-1, n_s)[:, : config.n_data])

    # noise block 0 is the pre-pad, block n + 1 lies under signal block n
    edges = [0] + [d_pad + n * n_s for n in range(n_gen + 1)]
    spans = [(lo, hi) for lo, hi in zip(edges, edges[1:]) if hi > lo]
    # views of whole-stream buffers: allocations whose size changed from
    # trial to trial fragmented the heap and raised peak memory
    noise = np.empty((config.n_rx, end), dtype=np.complex128)[:, :stop]
    uniforms = np.empty((config.n_rx, end))[:, :stop] if mixture.n_components > 1 else None
    noise_seeds = seeds[1 + n_sig :].reshape(config.n_rx, len(spans), -1)
    for j in range(config.n_rx):
        for (lo, hi), state in zip(spans, noise_seeds[j]):
            if lo >= stop:
                break
            cut = min(hi, stop)
            _draw_unit_noise(
                _seeded(state),
                noise[j, lo:cut],
                None if uniforms is None else uniforms[j, lo:cut],
                hi - lo,
            )
    return StreamDraws(rows, normals, noise, uniforms, d_pad, stop)


def stream_signal(
    draws: StreamDraws, config: SystemConfig, profile: DelayProfile
) -> tuple[np.ndarray, np.ndarray]:
    """The noise-free received signal of ``config``'s link over the drawn
    stream, from index 0 to its ``stop``, and its channel: ``(signal,
    taps)``, with signal (n_rx, stop - d_pad), or no samples when ``stop``
    falls in the pre-pad.

    The data rows of the link's tx antennas are scaled to their power, the
    taps are built from the channel normals, and each rx antenna sums its
    tx convolutions of the frames cut at ``stop``: each output sample of a
    convolution reads only the samples before it, so the cut output is a
    prefix of the whole one, bit for bit. A link with fewer blocks than
    were drawn reads a prefix of this signal for the same reason.
    """
    n_tx, n_rx = config.n_tx, config.n_rx
    normals = draws.normals[: n_rx * n_tx * profile.n_taps * 2]
    channel = _taps(profile, normals.reshape(n_rx, n_tx, profile.n_taps, 2))
    n = max(0, draws.stop - draws.d_pad)
    signal = np.empty((n_rx, n), dtype=np.complex128)
    if n:  # else the stream ends in the pre-pad
        frames = draws.rows[:n_tx].reshape(n_tx, -1)[:, :n] * block_scale(config)
        for j in range(n_rx):
            signal[j] = convolve_frame(frames[0], channel[j, 0])
            for i in range(1, n_tx):
                signal[j] += convolve_frame(frames[i], channel[j, i])
    return signal, channel


def finish_stream(
    draws: StreamDraws, mixture: NoiseMixture, signal: np.ndarray, lo: int, hi: int
) -> np.ndarray:
    """Samples ``[lo, hi)`` of the received stream, counted from its first
    pre-pad sample, on the rx antennas of ``signal``: a copy of the unit
    noise scaled for ``mixture``, plus the signal of :func:`stream_signal`.
    Every step is per sample, so a slice equals the slice of the whole
    stream bit for bit."""
    n_rx = signal.shape[0]
    samples = draws.noise[:n_rx, lo:hi].copy()
    uniforms = None if draws.uniforms is None else draws.uniforms[:n_rx, lo:hi]
    _scale_noise(mixture, samples, uniforms)
    at = max(lo, draws.d_pad)  # the first sample under the signal
    if at < hi:  # else the slice lies in the pre-pad
        samples[:, at - lo :] += signal[:, at - draws.d_pad : hi - draws.d_pad]
    return samples


def assemble_window(
    config: SystemConfig,
    profile: DelayProfile,
    mixture: NoiseMixture,
    d_true: int,
    seed: int | tuple[int, ...],
    d_pad: int | None = None,
) -> ReceivedWindow:
    """Build the receiver's observation window for a true timing offset.

    ``d_true`` may range over [-d_pad, block_len - 1]: negative offsets mean
    the receiver started early and captures that many leading noise samples.
    ``seed`` identifies the trial: every draw, the channel included, comes
    from its substreams.
    """
    seed_t = (seed,) if isinstance(seed, int) else tuple(seed)
    n_s = config.block_len
    if d_pad is None:
        d_pad = n_s - 1
    if d_pad < 0:
        raise ConfigError("d_pad must be >= 0")
    if not -d_pad <= d_true <= n_s - 1:
        raise ConfigError(
            f"d_true={d_true} outside supported range [{-d_pad}, {n_s - 1}]"
        )
    start = d_pad + d_true
    stop = start + config.window_len
    seeds = window_seeds(config, d_pad, seed_t)[0]
    draws = draw_stream(config, profile, mixture, d_pad, seeds, stop)
    signal, channel = stream_signal(draws, config, profile)
    samples = finish_stream(draws, mixture, signal, start, stop)
    return ReceivedWindow(samples, d_true, config, channel)
