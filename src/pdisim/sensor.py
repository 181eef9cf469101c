"""Detector model: Poisson shot noise plus Gaussian readout noise.

Readout noise follows the multi-sample averaging law sigma =
DEFAULT_SIGMA1 / sqrt(NSAMP), with 3.0 e- at a single sample. Optional
integer-electron quantization models the photon-counting regime. Randomness
comes from splittable seeded streams so parallel sweeps are reproducible
independent of scheduling.
"""

from dataclasses import dataclass, replace

import numpy as np

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


@dataclass(frozen=True)
class NoiseParams:
    """Sensor noise settings.

    Either give readout_sigma directly or set nsamp, in which case sigma is
    derived as DEFAULT_SIGMA1/sqrt(nsamp). Setting both is rejected unless
    consistent.
    """

    readout_sigma: float | None = None
    nsamp: int | None = None
    quantize: bool = False
    seed: int = 0

    def __post_init__(self):
        sigma = self.readout_sigma
        if self.nsamp is not None:
            derived = sigma_from_nsamp(self.nsamp)
            if sigma is not None and abs(sigma - derived) > 1e-12:
                raise DomainError(
                    f"readout_sigma={sigma} inconsistent with nsamp={self.nsamp} "
                    f"(implies {derived})"
                )
            sigma = derived
        elif sigma is None:
            sigma = 0.0
        if not sigma >= 0:
            raise DomainError(f"readout_sigma must be >= 0, got {sigma}")
        object.__setattr__(self, "readout_sigma", float(sigma))


def check_poisson_rates(rates: np.ndarray) -> None:
    """Raise DomainError unless every rate is in [0, MAX_POISSON_RATE]."""
    if rates.size and not 0 <= rates.min() <= rates.max() <= MAX_POISSON_RATE:
        raise DomainError(f"Poisson rates must be in [0, {MAX_POISSON_RATE:.6g}]")


def sample_noise(frames: np.ndarray, sigma: float, rng: np.random.Generator,
                 quantize: bool = False) -> np.ndarray:
    """Noisy realization of non-negative photon-rate maps.

    Each value lambda is replaced by Poisson(lambda) + Normal(0, sigma^2),
    optionally rounded to integer electrons.
    """
    if not 0 <= sigma < np.inf:
        raise DomainError(f"readout sigma must be finite and >= 0, got {sigma}")
    frames = np.asarray(frames, dtype=float)
    check_poisson_rates(frames)
    noisy = rng.poisson(frames).astype(float)
    if sigma > 0:
        noisy += rng.normal(0.0, sigma, size=frames.shape)
    if quantize:
        noisy = np.rint(noisy)
    return noisy


def apply_noise(frames: InterferogramSet, params: NoiseParams,
                rng: np.random.Generator | None = None) -> InterferogramSet:
    """Apply the detector model to a noiseless interferogram set.

    When `rng` is not supplied, a fresh stream is derived from params.seed, so
    identical inputs give bit-identical outputs.
    """
    if rng is None:
        rng = rng_stream(params.seed)
    noisy = sample_noise(frames.frames, params.readout_sigma, rng,
                         quantize=params.quantize)
    return replace(frames, frames=noisy)
