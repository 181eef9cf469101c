"""Inversion of the phase-stepping measurement.

With I_n the recorded frames and alpha_n = 2 pi n / N,

    C = sum_n I_n cos(alpha_n),   S = sum_n I_n sin(alpha_n),

the closed-form expansion of the forward model gives
C - C0 = N |K| u cos(phi - mu) and S = N |K| u sin(phi - mu) with
C0 = -N |K|^2, so the wavefront phase follows from arctan2(S, C - C0).
"""

import functools
from dataclasses import dataclass

import numpy as np

from .circular import wrap
from .errors import DomainError, EstimationError, ShapeError
from .forward import InterferogramSet, step_phases


@dataclass(frozen=True)
class ReconstructionResult:
    """Recovered phase map (wrapped to (-pi, pi]) and amplitude map
    (sqrt of frame 0, in sqrt photons)."""

    phase: np.ndarray
    amplitude: np.ndarray
    c0_used: float
    mu_used: float

    def __post_init__(self):
        if self.phase.shape != self.amplitude.shape:
            raise ShapeError("phase and amplitude maps differ in shape")


@functools.lru_cache(maxsize=16)
def _harmonic_weights(n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    # cached: the sweep's per-frame path asks for the same N once per chunk
    # (the Skellam-table path at N = 4 forms C and S without weights).
    # cos/sin at exact multiples of pi/2 are analytically 0 or +-1; snap the
    # float residue so cancellations (e.g. identical frames) are exact
    alphas = step_phases(n_steps)
    cos_w, sin_w = np.cos(alphas), np.sin(alphas)
    for w in (cos_w, sin_w):
        w[np.abs(w) < 1e-12] = 0.0
        w[np.abs(np.abs(w) - 1.0) < 1e-12] = np.sign(w[np.abs(np.abs(w) - 1.0) < 1e-12])
        w.setflags(write=False)
    return cos_w, sin_w


def harmonic_sums(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Harmonic sums C, S of frames shaped (..., N, rows, cols): any batch
    axes, the N equal steps, a 2D pixel set (full grid, or d slits x n_bin
    read pixels)."""
    cos_w, sin_w = _harmonic_weights(frames.shape[-3])
    c = np.einsum("n,...nij->...ij", cos_w, frames)
    s = np.einsum("n,...nij->...ij", sin_w, frames)
    return c, s


def unwrapped_phase(frames: np.ndarray, c0: float, mu: float) -> np.ndarray:
    """arctan2(S, C - c0) + mu per pixel, in [mu - pi, mu + pi] (not
    wrapped); `frames` is shaped as for `harmonic_sums`."""
    c, s = harmonic_sums(frames)
    return np.arctan2(s, c - c0) + mu


def c0_analytic(reference: complex, n_steps: int) -> float:
    """C0 = -N |K|^2 from a known reference amplitude; DomainError where
    that is not a finite float."""
    try:
        c0 = -n_steps * abs(reference) ** 2
    except OverflowError:
        c0 = -np.inf
    if not np.isfinite(c0):
        raise DomainError(f"reference amplitude {reference!r} gives no finite "
                          f"C0 = -N |K|^2 at N = {n_steps}")
    return c0


def c0_empirical(frames: np.ndarray, dark_region: np.ndarray) -> float:
    """C0 from frames (N, rows, cols): the mean of C - I_0 over the pixels
    `dark_region` where the input wavefront is zero.

    A dark pixel's noiseless frame 0 is 0, so C - I_0, the sum over the
    frames n >= 1, has mean C0 there. Leaving I_0 out keeps the estimate
    unbiased when the dark pixels are chosen by their frame 0 (I_0 <= 0),
    which picks frame-0 noise below zero.
    """
    dark_region = np.asarray(dark_region, dtype=bool)
    if dark_region.shape != frames.shape[1:]:
        raise ShapeError("dark region mask shape does not match the frames")
    if not dark_region.any():
        raise EstimationError("empty dark region; cannot estimate C0")
    c, _ = harmonic_sums(frames)
    return float((c - frames[0])[dark_region].mean())


def extract_phase(frames: InterferogramSet,
                  c0: float | None = None) -> ReconstructionResult:
    """Recover the wrapped phase and amplitude maps.

    c0 defaults to the analytic value from the stored reference, and mu is
    the reference's phase, added back since arctan2(S, C - C0) = phi - mu.
    Pixels with C - c0 = S = 0 get phase 0 (arctan2(0, 0) convention).
    """
    if c0 is None:
        c0 = c0_analytic(frames.reference, frames.n_steps)
    mu = float(np.angle(frames.reference))
    phase = wrap(unwrapped_phase(frames.frames, c0, mu))
    amplitude = np.sqrt(np.clip(frames.frames[0], 0.0, None))
    return ReconstructionResult(phase=phase, amplitude=amplitude,
                                c0_used=float(c0), mu_used=float(mu))
