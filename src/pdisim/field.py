"""Input wavefront construction.

Wavefronts are complex amplitude maps U(x, y) = u(x, y) exp(i phi(x, y)) on a
pixel grid of the image plane. This module holds the pieces a scene is made
of: the grid, the field, the slit layout and the qudit state. Each scene
(`experiments.QuditScene`, `experiments.LensScene`, `config.PhmapScene`)
builds its own wavefront in its `field()` method.
"""

from dataclasses import dataclass

import numpy as np

from .circular import wrap
from .errors import DomainError, ShapeError

NORM_TOL = 1e-12


@dataclass(frozen=True)
class GridSpec:
    """Pixel grid of the image plane."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DomainError(f"grid must be at least 1x1, got {self.width}x{self.height}")

    @property
    def shape(self):
        """Numpy array shape (rows, cols)."""
        return (self.height, self.width)

    @property
    def n_pixels(self):
        return self.width * self.height


@dataclass(frozen=True)
class ComplexField:
    """2D grid of complex amplitudes; its shape is the array's. Intensity is
    |value|^2 after illumination scaling in the forward model."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim != 2:
            raise ShapeError(f"field values must be 2D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise DomainError("field contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def amplitude(self):
        return np.abs(self.values)

    @property
    def phase(self):
        return wrap(np.angle(self.values))


@dataclass(frozen=True)
class SlitLayout:
    """Geometry of d rectangular slits laid out side by side.

    Slits are slit_width_px wide (horizontal), slit_length_px tall, separated
    by slit_gap_px, with the bounding box centred on the grid.
    """

    d: int
    slit_width_px: int = 10
    slit_gap_px: int = 4
    slit_length_px: int = 10

    def __post_init__(self):
        if self.d < 1:
            raise DomainError(f"slit count must be >= 1, got {self.d}")
        if self.slit_width_px < 1:
            raise DomainError("slit width must be >= 1 pixel")
        if self.slit_gap_px < 0:
            raise DomainError("slit gap must be >= 0 pixels")
        if self.slit_length_px < self.slit_width_px:
            raise DomainError("slit length must be >= slit width")

    @property
    def bounding_width(self):
        return self.d * self.slit_width_px + (self.d - 1) * self.slit_gap_px

    @property
    def pixels_per_slit(self):
        return self.slit_width_px * self.slit_length_px

    def slit_pixels(self, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols) indices, shape (d, pixels_per_slit), of every slit;
        validated against the grid."""
        if self.bounding_width > grid.width or self.slit_length_px > grid.height:
            raise ShapeError(
                f"slit layout (box {self.bounding_width}x{self.slit_length_px}) "
                f"exceeds grid {grid.width}x{grid.height}"
            )
        x0 = (grid.width - self.bounding_width) // 2
        y0 = (grid.height - self.slit_length_px) // 2
        rows, cols = np.mgrid[y0:y0 + self.slit_length_px, x0:x0 + self.slit_width_px]
        offsets = (self.slit_width_px + self.slit_gap_px) * np.arange(self.d)[:, None]
        return np.tile(rows.ravel(), (self.d, 1)), cols.ravel() + offsets

    def region_mask(self, grid: GridSpec) -> np.ndarray:
        """Boolean mask of all slit pixels."""
        mask = np.zeros(grid.shape, dtype=bool)
        mask[self.slit_pixels(grid)] = True
        return mask


@dataclass(frozen=True)
class QuditState:
    """Pure d-level state: complex coefficients on the logical slit basis.

    Coefficients must already be normalized; use `from_coeffs` to normalize
    raw amplitudes.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex))
        if coeffs.ndim != 1 or coeffs.size < 1:
            raise ShapeError("coefficients must be a non-empty 1D sequence")
        norm_sq = float(np.sum(np.abs(coeffs) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise DomainError(f"state not normalized: sum |c_k|^2 = {norm_sq!r}")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def from_coeffs(cls, raw) -> "QuditState":
        """Normalize raw coefficients into a valid state."""
        raw = np.atleast_1d(np.asarray(raw, dtype=complex))
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return cls(raw / norm)

    @property
    def dim(self):
        return self.coeffs.size


def equal_step_state(d: int = 6, step: float = 2.0 * np.pi / 5.0) -> QuditState:
    """Uniform-amplitude state whose phase increases by `step` per slit."""
    k = np.arange(d)
    return QuditState.from_coeffs(np.exp(1j * step * k))


def field_from_phase_map(phase: np.ndarray, amplitude=1.0) -> ComplexField:
    """Build a field from a raw phase map (radians) and a uniform (scalar) or
    per-pixel amplitude of the phase map's shape."""
    phase = np.asarray(phase, dtype=float)
    if phase.ndim != 2:
        raise ShapeError("phase map must be 2D")
    if np.ndim(amplitude) and np.shape(amplitude) != phase.shape:
        raise ShapeError(f"amplitude map shape {np.shape(amplitude)} does not "
                         f"match phase map shape {phase.shape}")
    return ComplexField(np.asarray(amplitude) * np.exp(1j * phase))


def mean_field(field: ComplexField) -> complex:
    """Spatial mean of the field: the plane-wave reference K exp(i mu)."""
    if field.values.size == 0:
        raise ShapeError("cannot average an empty field")
    return complex(field.values.mean())
