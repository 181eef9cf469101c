"""Phase-shifting forward model.

For each controlled phase shift alpha_n the interferogram amplitude is

    E_n(x, y) = U(x, y) + |K| exp(i mu) [exp(i alpha_n) - 1],

where K exp(i mu) is the plane-wave reference (the spatial mean of U unless
overridden). Frames are |E_n|^2 in photons/pixel/exposure after scaling the
field so frame 0 averages to the requested illumination over the analysis
region.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateReferenceError, DomainError, ShapeError
from .field import ComplexField, GridSpec, mean_field


@dataclass(frozen=True)
class PsiConfig:
    """Phase-stepping protocol: N steps alpha_n, default alpha_n = 2 pi n / N."""

    n_steps: int = 4
    phase_steps: tuple[float, ...] | None = None
    reference_override: complex | None = None

    def __post_init__(self):
        if self.n_steps < 3:
            raise DomainError(f"phase retrieval needs >= 3 steps, got {self.n_steps}")
        steps = self.phase_steps
        if steps is None:
            steps = tuple(2.0 * np.pi * n / self.n_steps for n in range(self.n_steps))
        else:
            steps = tuple(float(a) for a in steps)
            if len(steps) != self.n_steps:
                raise ShapeError(
                    f"{len(steps)} phase steps given for n_steps={self.n_steps}"
                )
            if any(not (0.0 <= a < 2.0 * np.pi) for a in steps) or \
                    any(b <= a for a, b in zip(steps, steps[1:])):
                raise DomainError("phase steps must be strictly increasing in [0, 2 pi)")
        object.__setattr__(self, "phase_steps", steps)

    def reference_for(self, field: ComplexField) -> complex:
        """The override if set, else the spatial mean of `field`."""
        if self.reference_override is not None:
            return complex(self.reference_override)
        return mean_field(field)


@dataclass(frozen=True)
class InterferogramSet:
    """N intensity frames (photon rates, or noisy electron maps after the
    sensor model), plus the protocol and reference actually used."""

    grid: GridSpec
    frames: np.ndarray
    psi_config: PsiConfig
    reference: complex
    illumination: float | None = None

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        expected = (self.psi_config.n_steps,) + self.grid.shape
        if frames.shape != expected:
            raise ShapeError(f"frames shape {frames.shape}, expected {expected}")
        frames.setflags(write=False)
        object.__setattr__(self, "frames", frames)

    @property
    def n_steps(self):
        return self.psi_config.n_steps


def frame_rates(values: np.ndarray, reference: complex, phase_steps,
                illumination: float,
                region_values: np.ndarray) -> tuple[np.ndarray, complex]:
    """Noiseless frames (N, rows, cols) of a 2D pixel set `values` (a full
    grid, or d slits x n_px pixels), scaled so that frame 0 averages
    `illumination` over `region_values`; also returns the scaled reference.
    """
    if illumination < 0:
        raise DomainError(f"illumination must be >= 0, got {illumination}")
    reference = complex(reference)
    if reference == 0:
        raise DegenerateReferenceError(
            "reference amplitude is zero; all frames would coincide"
        )
    mean_i0 = float(np.mean(np.abs(region_values) ** 2))
    if mean_i0 == 0.0:
        raise DegenerateReferenceError("field is zero over the analysis region")
    root_scale = np.sqrt(illumination / mean_i0)
    scaled_ref = reference * root_scale
    shifts = scaled_ref * (np.exp(1j * np.asarray(phase_steps)) - 1.0)
    return np.abs((values * root_scale)[None] + shifts[:, None, None]) ** 2, scaled_ref


def simulate_interferograms(field: ComplexField, config: PsiConfig,
                            illumination: float,
                            region: np.ndarray | None = None) -> InterferogramSet:
    """Noiseless forward simulation of the full grid.

    `region` is the analysis region over which frame 0 averages to
    `illumination` (default: the support |U| > 0).
    """
    values = field.values
    region = np.abs(values) > 0 if region is None else np.asarray(region, dtype=bool)
    if region.shape != values.shape:
        raise ShapeError("region mask shape does not match the field")
    if not region.any():
        raise ShapeError("analysis region is empty")
    frames, scaled_ref = frame_rates(values, config.reference_for(field),
                                     config.phase_steps, illumination,
                                     values[region])
    return InterferogramSet(
        grid=field.grid,
        frames=frames,
        psi_config=config,
        reference=scaled_ref,
        illumination=illumination,
    )
