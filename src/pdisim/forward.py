"""Phase-shifting forward model.

For each equal phase step alpha_n = 2 pi n / N (`step_phases`; the step
count N is the whole protocol) the interferogram amplitude is

    E_n(x, y) = U(x, y) + |K| exp(i mu) [exp(i alpha_n) - 1],

where K exp(i mu) is the plane-wave reference (the spatial mean of U unless
overridden). Frames are |E_n|^2 in photons/pixel/exposure after scaling the
field so frame 0 averages to the requested illumination over the analysis
region, a mask every caller passes (a scene's `region()`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReferenceError, DomainError, ShapeError
from .field import ComplexField, mean_field


def step_phases(n_steps: int) -> np.ndarray:
    """The N equal phase steps alpha_n = 2 pi n / N, n = 0 .. N-1."""
    return np.array([2.0 * np.pi * n / n_steps for n in range(n_steps)])


@dataclass(frozen=True)
class PsiConfig:
    """Phase-stepping protocol: N >= 3 steps, always alpha_n = 2 pi n / N,
    and an optional reference amplitude in place of the field's mean."""

    n_steps: int = 4
    reference_override: complex | None = None

    def __post_init__(self):
        if self.n_steps < 3:
            raise DomainError(f"phase retrieval needs >= 3 steps, got {self.n_steps}")

    def reference_for(self, field: ComplexField) -> complex:
        """The override if set, else the spatial mean of `field`."""
        if self.reference_override is not None:
            return complex(self.reference_override)
        return mean_field(field)


@dataclass(frozen=True)
class InterferogramSet:
    """N >= 3 frames at the steps `step_phases(N)` (photon rates, or noisy
    electron maps after the sensor model) of shape (N, rows, cols), plus the
    reference actually used."""

    frames: np.ndarray
    reference: complex
    illumination: float | None = None

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        if frames.ndim != 3 or len(frames) < 3:
            raise ShapeError(f"frames shape {frames.shape}, expected "
                             "(N >= 3, rows, cols)")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    @property
    def n_steps(self):
        return len(self.frames)


def frame_rates(values: np.ndarray, reference: complex, n_steps: int,
                illumination,
                region_values: np.ndarray) -> tuple[np.ndarray, complex]:
    """Noiseless frames (N, rows, cols) of a 2D pixel set `values` (a full
    grid, or the (d, 1) values of uniform slits), scaled so that frame 0
    averages `illumination` over `region_values`; also returns the scaled
    reference. Given k illuminations, (k, N, rows, cols) and k references,
    as k calls give them bit for bit. DomainError where a rate overflows the
    float range, naming the first illumination whose rates do.
    """
    illums = np.asarray(illumination, dtype=float)
    bad = ~(illums >= 0)  # NaN too
    if bad.any():
        raise DomainError("illumination must be >= 0, got "
                          f"{float(illums[bad].flat[0])}")
    reference = complex(reference)
    if reference == 0:
        raise DegenerateReferenceError(
            "reference amplitude is zero; all frames would coincide"
        )
    mean_i0 = float(np.mean(np.abs(region_values) ** 2))
    if mean_i0 == 0.0:
        raise DegenerateReferenceError("field is zero over the analysis region")
    root_scale = np.sqrt(illums / mean_i0)
    # k illuminations on an axis ahead of the pixel axes; one stays scalar
    per_illum = (slice(None),) + (None,) * values.ndim if illums.ndim else ()
    # a huge reference overflows to inf (or nan, where inf meets 0):
    # rejected below as a whole, not warned about per operation
    with np.errstate(over="ignore", invalid="ignore"):
        scaled_ref = reference * root_scale
        shifts = np.multiply.outer(scaled_ref,
                                   np.exp(1j * step_phases(n_steps)) - 1.0)
        rates = np.empty(illums.shape + (n_steps,) + values.shape)
        # one step at a time, in place: no complex (N, rows, cols) array
        for n in range(n_steps):
            amplitude = values * root_scale[per_illum]
            amplitude += shifts.T[n][per_illum]
            np.abs(amplitude, out=rates[..., n, :, :])
        np.square(rates, out=rates)
    finite = np.isfinite(rates).all(axis=tuple(range(illums.ndim, rates.ndim)))
    if not finite.all():
        first = illums[np.argmin(finite)] if illums.ndim else illums
        raise DomainError(f"frame rates at illumination {first:g} "
                          "overflow the float range: the reference amplitude "
                          "or the illumination is too large")
    return rates, scaled_ref


def simulate_interferograms(field: ComplexField, config: PsiConfig,
                            illumination: float,
                            region: np.ndarray) -> InterferogramSet:
    """Noiseless forward simulation of the full grid.

    `region`, a boolean mask of the grid (a scene's `region()`), is the
    analysis region over which frame 0 averages to `illumination`.
    """
    values = field.values
    region = np.asarray(region, dtype=bool)
    if region.shape != values.shape:
        raise ShapeError("region mask shape does not match the field")
    if not region.any():
        raise ShapeError("analysis region is empty")
    frames, scaled_ref = frame_rates(values, config.reference_for(field),
                                     config.n_steps, illumination,
                                     values[region])
    return InterferogramSet(frames=frames, reference=scaled_ref,
                            illumination=illumination)
