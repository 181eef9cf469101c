"""Detector model: Poisson shot noise plus Gaussian readout noise.

Readout noise follows the multi-sample averaging law sigma =
DEFAULT_SIGMA1 / sqrt(NSAMP), with 3.0 e- at a single sample. Optional
integer-electron quantization models the photon-counting regime. Randomness
comes from splittable seeded streams so parallel sweeps are reproducible
independent of scheduling.
"""

import operator
from dataclasses import dataclass, replace

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import DomainError
from .forward import InterferogramSet

#: Readout noise at NSAMP = 1, in electrons.
DEFAULT_SIGMA1 = 3.0

#: Most non-destructive samples per pixel (sigma 0.003 e-).
MAX_NSAMP = 10**6

#: Largest rate numpy's Poisson sampler accepts: its int64 limit.
MAX_POISSON_RATE = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


def sigma_from_nsamp(nsamp: int) -> float:
    """Readout noise after nsamp non-destructive charge samples."""
    if not 1 <= nsamp <= MAX_NSAMP:
        raise DomainError(f"nsamp must be in [1, {MAX_NSAMP}], got {nsamp}")
    return DEFAULT_SIGMA1 / np.sqrt(nsamp)


def rng_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Deterministic splittable stream: identical (seed, stream_id) yields
    identical sequences on every platform and worker."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    )


#: numpy's SeedSequence hash constants: its algorithm, with its pool of 4
#: 32-bit words, is part of numpy's stream-compatibility guarantee
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


class _HashedSeed(ISeedSequence):
    """A seed sequence whose state is already hashed: what a BitGenerator
    asks of it is those 4 words."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def rng_streams(seed: int, stream_ids) -> list[np.random.Generator]:
    """The streams rng_stream(seed, i) of the ids `stream_ids` (each in
    [0, 2^32)), the same bit for bit, hashed in one pass: numpy's
    SeedSequence algorithm, on Python ints for the seed's words, which every
    id shares, then vectorized over the ids for the id word and the state
    words (the hash constants run alike for every id), each PCG64 then
    seeded from its 4 state words, as from its SeedSequence."""
    seed, ids = operator.index(seed), np.asarray(stream_ids, dtype=np.uint32)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    # the pool of 4 words: the seed's 32-bit words (at least 4, 0-padded),
    # mixed together, then each later word, the id last, mixed into each
    words = [seed >> shift & _MASK32
             for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:] + [ids.astype(np.uint64)]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): 8 words off the cycled pool
    state, const = np.empty((len(ids), 8), dtype=np.uint64), _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const & _MASK32
        state[:, i] = value ^ value >> 16
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_HashedSeed(words)))
            for words in state]


def readout_sigmas(sigmas, nsamps=None, default=None):
    """The readout sigmas (e-) given as `sigmas`, or derived from Skipper
    sample counts `nsamps` through sigma_from_nsamp; `default` when neither
    is given. Sigmas given with nsamps must equal the derived ones within
    1e-12, and every sigma must be finite and >= 0."""
    if nsamps is not None:
        derived = tuple(sigma_from_nsamp(n) for n in nsamps)
        if sigmas is not None and (
                len(sigmas) != len(derived)
                or any(abs(a - b) > 1e-12 for a, b in zip(sigmas, derived))):
            raise DomainError(f"sigmas={sigmas} inconsistent with "
                              f"nsamps={nsamps} (imply {derived})")
        sigmas = derived
    elif sigmas is None:
        sigmas = default
    for sigma in sigmas:
        if not 0 <= sigma < np.inf:
            raise DomainError(f"readout sigma must be finite and >= 0, got {sigma}")
    return sigmas


@dataclass(frozen=True)
class NoiseParams:
    """Sensor noise settings.

    Either give readout_sigma directly or set nsamp, in which case sigma is
    derived as DEFAULT_SIGMA1/sqrt(nsamp); without either it is 0. Both are
    checked by readout_sigmas.
    """

    readout_sigma: float | None = None
    nsamp: int | None = None
    quantize: bool = False
    seed: int = 0

    def __post_init__(self):
        (sigma,) = readout_sigmas(
            None if self.readout_sigma is None else (self.readout_sigma,),
            None if self.nsamp is None else (self.nsamp,), default=(0.0,))
        object.__setattr__(self, "readout_sigma", float(sigma))


def check_poisson_rates(rates: np.ndarray) -> None:
    """Raise DomainError unless every rate is in [0, MAX_POISSON_RATE]."""
    if rates.size and not 0 <= rates.min() <= rates.max() <= MAX_POISSON_RATE:
        raise DomainError(f"Poisson rates must be in [0, {MAX_POISSON_RATE:.6g}]")


def photon_counts(frames: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One exposure of non-negative photon-rate maps: each value lambda
    replaced by a Poisson(lambda) count, as floats."""
    frames = np.asarray(frames, dtype=float)
    check_poisson_rates(frames)
    return rng.poisson(frames).astype(float)


def read_out(counts: np.ndarray, sigma: float, rng: np.random.Generator,
             quantize: bool = False) -> np.ndarray:
    """One readout of an exposure's `counts`, in a new array: counts +
    sigma x standard_normal (no draw at sigma 0), optionally rounded to
    integer electrons. `counts` is never written, so a Skipper-CCD exposure,
    read non-destructively, can be read again at another sigma."""
    readout_sigmas((sigma,))
    if sigma > 0:
        noisy = rng.standard_normal(np.shape(counts))
        noisy *= sigma
        noisy += counts
    else:
        noisy = np.array(counts, dtype=float)
    if quantize:
        np.rint(noisy, out=noisy)
    return noisy


def sample_noise(frames: np.ndarray, sigma: float, rng: np.random.Generator,
                 quantize: bool = False) -> np.ndarray:
    """Noisy realization of non-negative photon-rate maps.

    Each value lambda is replaced by Poisson(lambda) + Normal(0, sigma^2),
    optionally rounded to integer electrons: read_out of photon_counts,
    which check the sigma and the rates.
    """
    return read_out(photon_counts(frames, rng), sigma, rng, quantize)


def apply_noise(frames: InterferogramSet, params: NoiseParams) -> InterferogramSet:
    """Apply the detector model to a noiseless interferogram set, drawing
    from the stream `rng_stream(params.seed)`, so identical inputs give
    bit-identical outputs."""
    noisy = sample_noise(frames.frames, params.readout_sigma,
                         rng_stream(params.seed), quantize=params.quantize)
    return replace(frames, frames=noisy)
