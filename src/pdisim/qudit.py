"""Qudit state extraction and fidelity statistics.

The state is read off a reconstructed phase map by sampling pixels inside
each slit, averaging their phases circularly, and assigning uniform
amplitudes 1/sqrt(d). Fidelity is the pure-state overlap |<target|recon>|.
"""

from dataclasses import dataclass

import numpy as np

from .circular import circ_mean, unit
from .errors import DomainError, SamplingError, ShapeError
from .field import GridSpec, QuditState, SlitLayout
from .reconstruct import ReconstructionResult
from .sensor import rng_stream


@dataclass(frozen=True)
class BinningPolicy:
    """How many pixels per slit are averaged (uniform, without replacement)."""

    n_bin: int = 1

    def __post_init__(self):
        if self.n_bin < 1:
            raise DomainError(f"n_bin must be >= 1, got {self.n_bin}")


@dataclass(frozen=True)
class FidelityStats:
    """Mean, sample std (0 for a single run) and standard error of fidelity
    over n_runs Monte-Carlo or bootstrap runs: floats for one set of runs
    (from_runs), or arrays with one entry per cell of a sweep (its
    columns, from experiments.fidelity_sweep)."""

    mean: float | np.ndarray
    std: float | np.ndarray
    stderr: float | np.ndarray
    n_runs: int

    @classmethod
    def from_runs(cls, runs: np.ndarray) -> "FidelityStats":
        """The statistics of the 1D per-run fidelities `runs`."""
        std = float(runs.std(ddof=1)) if runs.size > 1 else 0.0
        return cls(mean=float(runs.mean()), std=std,
                   stderr=std / float(np.sqrt(runs.size)), n_runs=runs.size)


def fidelity(target: QuditState, reconstructed: QuditState) -> float:
    """|<target|reconstructed>|, invariant under global phase.

    With `extract_state`, the one-state-at-a-time reference that the tests
    hold the batched sweep and bootstrap (`sample_fidelity`) against; no
    program path calls it, and it is kept for that check.
    """
    if target.dim != reconstructed.dim:
        raise ShapeError(
            f"dimension mismatch: {target.dim} vs {reconstructed.dim}"
        )
    return float(abs(np.vdot(target.coeffs, reconstructed.coeffs)))


def draw_pixel_positions(rng: np.random.Generator, shape: tuple[int, ...],
                         n_px: int, k: int) -> np.ndarray:
    """Positions (*shape, k) of k of n_px pixels, drawn uniformly without
    replacement along the last axis, in a uniformly random order: the first
    k of an argsort of n_px uniforms per slit."""
    if k > n_px:
        raise SamplingError(f"n_bin x states = {k} exceeds the {n_px} pixels "
                            "per slit")
    return np.argsort(rng.random(shape + (n_px,)), axis=-1)[..., :k]


def _slit_phases(result: ReconstructionResult, layout: SlitLayout):
    """Phase of every slit pixel, (d, n_px)."""
    height, width = result.phase.shape
    return result.phase[layout.slit_pixels(GridSpec(width=width, height=height))]


def sample_fidelity(target: QuditState, phasors: np.ndarray) -> np.ndarray:
    """|<target|state>| for the states read from the unit phasors (..., d,
    n_bin) of read pixels (reconstruct.unit_phasors): slit k's phasor is the
    direction of its pixels' sum, e^{i x} of their circular mean x, and 1
    where they sum to exactly 0 (angle(0) = 0); amplitudes are uniform."""
    d = phasors.shape[-2]
    if target.dim != d:
        raise ShapeError(f"dimension mismatch: {target.dim} vs {d}")
    weights = np.conj(target.coeffs) / np.sqrt(d)
    return np.abs((weights * unit(phasors.sum(axis=-1))).sum(axis=-1))


def extract_state(result: ReconstructionResult, layout: SlitLayout,
                  policy: BinningPolicy,
                  rng: np.random.Generator) -> QuditState:
    """Sample n_bin pixels per slit and build the reconstructed state.

    The sweep's independent reference: it draws pixels with `rng.choice` and
    scores one state with `fidelity`, sharing no sampling or scoring code
    with the sweep, which reads the slit rates, or with `sample_fidelity`.
    No program path calls it; the tests compare the sweep against it.
    """
    n_px = layout.pixels_per_slit
    if policy.n_bin > n_px:
        raise SamplingError(
            f"n_bin={policy.n_bin} exceeds {n_px} pixels per slit"
        )
    picks = np.stack([rng.choice(n_px, size=policy.n_bin, replace=False)
                      for _ in range(layout.d)])
    phases = np.take_along_axis(_slit_phases(result, layout), picks, axis=-1)
    return QuditState.from_coeffs(np.exp(1j * circ_mean(phases, axis=-1)))


def bootstrap_fidelity(result: ReconstructionResult, target: QuditState,
                       layout: SlitLayout, policy: BinningPolicy,
                       n_states: int = 81, n_runs: int = 64,
                       seed: int = 0) -> FidelityStats:
    """Bootstrap protocol: per run, draw n_states pixel-tuples that are
    disjoint within each slit, average their fidelities; report mean, std and
    stderr over n_runs."""
    positions = draw_pixel_positions(rng_stream(seed), (n_runs, layout.d),
                                     layout.pixels_per_slit,
                                     n_states * policy.n_bin)
    # state j of a run takes positions [j * n_bin, (j + 1) * n_bin) of each slit
    phasors = (np.take_along_axis(np.exp(1j * _slit_phases(result, layout))[None],
                                  positions, axis=-1)
               .reshape(n_runs, layout.d, n_states, policy.n_bin).swapaxes(1, 2))
    run_means = sample_fidelity(target, phasors).mean(axis=-1)
    return FidelityStats.from_runs(run_means)
