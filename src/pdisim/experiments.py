"""Monte-Carlo sweep engine.

Covers the standard studies: mean reconstruction fidelity of the slit
qudit over illumination x readout noise x pixel binning, and continuous-phase
error statistics of a lens wavefront against a high-flux reference.

Every cell of a sweep is fed by its own random stream (seed, cell index).
The sweep's tasks are blocks of cells that share an illumination and n_bin;
a block batches the cells' arithmetic, not their streams, so results are
bit-identical for a fixed seed regardless of blocking, worker count or
scheduling order. A sweep returns every cell or raises the error of its
first failing block, in submission order: what could fail (the Poisson range
of a block's frames, n_bin against the pixels per slit) is the same for all
of a block's cells, and the grid has checked every sigma.
"""

import concurrent.futures
import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .circular import circ_dist, circ_std, wrap
from .errors import DomainError, ShapeError
from .field import (ComplexField, GridSpec, QuditState, SlitLayout,
                    equal_step_state)
from .forward import PsiConfig, frame_rates, simulate_interferograms
from .qudit import FidelityStats, draw_pixel_positions, sample_fidelity
from .reconstruct import c0_analytic, extract_phase, unwrapped_phase
from .sensor import (apply_noise, check_poisson_rates, NoiseParams, rng_stream,
                     readout_sigmas, sample_noise)

#: Fixed vectorization chunk (repetitions per draw from a cell's stream).
#: Part of the determinism contract: results must not depend on worker
#: count, so the chunking must not either. On the default grid (2 cores),
#: chunks of 128 to 2048 ran within about 10 % of each other; a chunk at
#: n_bin 8 holds 256 x 4 x 6 x 8 noise values, 0.4 MB. It also bounds a
#: block's rows: a block stacks at most max(1, _CHUNK // repetitions)
#: cells, so its chunk is never larger than one cell's.
_CHUNK = 256

#: Readout noise used when building the high-flux reference map.
_REFERENCE_SIGMA = 0.2

#: Histogram bins of the per-pixel phase error over [-pi, pi].
_HIST_BINS = 64


@dataclass(frozen=True)
class QuditScene:
    """Slit-state scene: layout + target state on a pixel grid."""

    grid: GridSpec = GridSpec(128, 128)
    layout: SlitLayout = SlitLayout(d=6)
    state: QuditState = dc_field(default_factory=equal_step_state)
    background_amplitude: float = 1.0
    background_phase: float = 0.0

    def field(self) -> ComplexField:
        """The qudit phase mask in a uniform background. Pixels of slit k
        carry amplitude |c_k| (rescaled so the brightest slit has amplitude 1)
        and phase arg(c_k); all other pixels carry the background amplitude
        and phase."""
        state = self.state
        if state.dim != self.layout.d:
            raise ShapeError(f"state dimension {state.dim} != layout slit "
                             f"count {self.layout.d}")
        pixels = self.layout.slit_pixels(self.grid)
        values = np.full(self.grid.shape, self.background_amplitude
                         * np.exp(1j * self.background_phase), dtype=complex)
        amps = np.abs(state.coeffs)
        amps = amps / amps.max()
        values[pixels] = (amps * np.exp(1j * np.angle(state.coeffs)))[:, None]
        return ComplexField(values)

    def region(self) -> np.ndarray:
        return self.layout.region_mask(self.grid)


@dataclass(frozen=True)
class LensScene:
    """Continuous quadratic-phase scene with uniform amplitude."""

    grid: GridSpec = GridSpec(128, 128)
    curvature: float = np.pi / 2048.0
    amplitude: float = 1.0

    def field(self) -> ComplexField:
        """Quadratic (lens-like) phase: curvature * r^2 around the grid
        center, wrapped; the map is reflection-symmetric on symmetric grids."""
        if not np.isfinite(self.curvature):
            raise DomainError("curvature must be finite")
        cx, cy = (self.grid.width - 1) / 2.0, (self.grid.height - 1) / 2.0
        rows, cols = np.mgrid[0:self.grid.height, 0:self.grid.width]
        phase = wrap(self.curvature * ((cols - cx) ** 2 + (rows - cy) ** 2))
        return ComplexField(self.amplitude * np.exp(1j * phase))

    def region(self) -> np.ndarray:
        return np.ones(self.grid.shape, dtype=bool)


@dataclass(frozen=True)
class SweepGrid:
    """Cartesian sweep over illumination, readout noise and binning.

    Noise may be given as sigmas (e-) or as Skipper sample counts (nsamps),
    as in NoiseParams: readout_sigmas converts and checks them. Without
    either, the sigmas are 3.0, 1.0, 0.5 and 0.2 e-.
    """

    illuminations: tuple[float, ...] = (1.7, 3.0, 11.3)
    sigmas: tuple[float, ...] | None = None
    nsamps: tuple[int, ...] | None = None
    n_bins: tuple[int, ...] = (1, 2, 4, 8)
    repetitions: int = 2000

    def __post_init__(self):
        object.__setattr__(self, "sigmas", readout_sigmas(
            self.sigmas, self.nsamps, default=(3.0, 1.0, 0.5, 0.2)))
        if not self.illuminations or not self.sigmas or not self.n_bins:
            raise DomainError("sweep grid lists must be non-empty")
        if not all(v >= 0 for v in self.illuminations):
            raise DomainError("illuminations must be >= 0")
        if not all(n >= 1 for n in self.n_bins):
            raise DomainError("n_bins must be >= 1")
        if self.repetitions < 1:
            raise DomainError("repetitions must be >= 1")

    def cells(self):
        """(illumination, sigma, n_bin) of every cell, in the deterministic
        order: illumination-major, n_bin-minor."""
        for illum in self.illuminations:
            for sigma in self.sigmas:
                for n_bin in self.n_bins:
                    yield illum, sigma, n_bin


@dataclass(frozen=True)
class CellResult:
    """One sweep cell and its fidelity statistics."""

    illumination: float
    sigma: float
    n_bin: int
    stats: FidelityStats


@dataclass(frozen=True)
class PhaseErrorStats:
    """Histogram and circular spread of per-pixel phase error."""

    bin_edges: np.ndarray
    counts: np.ndarray
    circ_std: float
    n_pixels: int


@dataclass(frozen=True)
class ContinuousCase:
    """Phase-error statistics of one (illumination, sigma) reconstruction."""

    illumination: float
    sigma: float
    stats: PhaseErrorStats
    phase_map: np.ndarray


def _run_block(indices, sigmas, illumination, n_bin, *, slit_values,
               reference, psi, seed, target, repetitions, quantize):
    """Monte-Carlo fidelity of the sweep cells `indices`, one per readout
    sigma in `sigmas`, at `illumination` and `n_bin`: one FidelityStats per
    cell.

    The block computes the noiseless frames of the slit pixels (N, d, n_px),
    checks every one against numpy's Poisson range, so that an error does not
    depend on the pixels drawn or the seed, and computes C0 and mu. Then, per
    chunk of repetitions, each cell draws n_bin pixel positions per slit and
    the noisy frames of those pixels only, from its own stream in the order
    positions, Poisson, normal, so it gets the numbers it would get alone;
    the gather, the inversion and the scoring run once over the stacked
    cells. Drawing noise for the read pixels only is exact: the inversion is
    per pixel and no other pixel enters the state. The cells share the
    illumination, n_bin and rates, and the grid has checked every sigma, so
    an error (a PdisimError) is the whole block's.
    """
    rngs = [rng_stream(seed, index) for index in indices]
    fids = np.empty((len(indices), repetitions))
    # mean frame 0 over the stacked slit pixels sets the illumination scale
    rates, ref = frame_rates(slit_values, reference, psi.n_steps, illumination,
                             slit_values)
    check_poisson_rates(rates)
    c0, mu = c0_analytic(ref, psi.n_steps), float(np.angle(ref))
    _, d, n_px = rates.shape
    for start in range(0, repetitions, _CHUNK):
        m = min(_CHUNK, repetitions - start)
        positions = np.stack([draw_pixel_positions(rng, (m, d), n_px, n_bin)
                              for rng in rngs])
        read = np.take_along_axis(rates[None, None], positions[:, :, None],
                                  axis=-1)
        noisy = np.stack([sample_noise(r, sigma, rng, quantize=quantize)
                          for r, sigma, rng in zip(read, sigmas, rngs)])
        phase = unwrapped_phase(noisy, c0, mu)
        fids[:, start:start + m] = sample_fidelity(target, phase)
    return [FidelityStats.from_runs(runs) for runs in fids]


def fidelity_sweep(scene: QuditScene, grid: SweepGrid, seed: int = 0,
                   jobs: int = 1, quantize: bool = False,
                   psi: PsiConfig = PsiConfig()) -> list[CellResult]:
    """Run the full sweep on `jobs` threads: one CellResult per cell, in the
    order of `grid.cells()`.

    Each task is a block of cells that share the illumination and n_bin and
    differ in sigma, at most as many as fill one chunk of repetitions; every
    cell keeps its own stream, so the blocking never changes a result. A
    block computes its frames, C0 and mu, and fails or succeeds whole.
    numpy's random draws and ufuncs release the GIL, so threads run blocks
    in parallel. An exception in a block, or an interrupt, cancels the
    blocks still queued and propagates: the error raised is the first
    failing block's in submission order, whatever `jobs` is.
    """
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    fld = scene.field()
    cells = list(grid.cells())
    groups = {}
    for index, (illum, _, n_bin) in enumerate(cells):
        groups.setdefault((illum, n_bin), []).append(index)
    # no block's chunk holds more rows than one cell's chunk of _CHUNK
    per_block = _CHUNK // min(_CHUNK, grid.repetitions)
    blocks = []
    for (illum, n_bin), group in groups.items():
        n = -(-len(group) // per_block)
        for i in range(n):
            indices = group[len(group) * i // n:len(group) * (i + 1) // n]
            blocks.append((indices, [cells[index][1] for index in indices],
                           illum, n_bin))
    # bound per call, not at import, so that a wrapper put on
    # experiments._run_block (a tracer) is the one that runs
    run = functools.partial(
        _run_block, slit_values=fld.values[scene.layout.slit_pixels(scene.grid)],
        reference=psi.reference_for(fld), psi=psi, seed=seed,
        target=scene.state, repetitions=grid.repetitions, quantize=quantize)
    with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
        try:
            futures = [pool.submit(run, *block) for block in blocks]
            # one wake-up per sweep, not one per block taking the GIL from a
            # worker; blocks start in order, so a failed one is reached below
            concurrent.futures.wait(
                futures, return_when=concurrent.futures.FIRST_EXCEPTION)
            stats = {}
            for (indices, *_), future in zip(blocks, futures):
                stats.update(zip(indices, future.result()))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return [CellResult(*cell, stats[index]) for index, cell in enumerate(cells)]


def _reconstruct_noisy(fld: ComplexField, region, psi, illumination, sigma,
                       rng, quantize=False):
    clean = simulate_interferograms(fld, psi, illumination, region=region)
    params = NoiseParams(readout_sigma=sigma, quantize=quantize)
    noisy = apply_noise(clean, params, rng=rng)
    return extract_phase(noisy)


def phase_error_stats(phase: np.ndarray, reference_phase: np.ndarray,
                      support: np.ndarray | None = None) -> PhaseErrorStats:
    """Histogram + circular std of the wrapped per-pixel phase difference."""
    if phase.shape != reference_phase.shape:
        raise ShapeError("phase maps differ in shape")
    diff = circ_dist(phase, reference_phase)
    if support is not None:
        diff = diff[np.asarray(support, dtype=bool)]
    diff = diff.ravel()
    edges = np.linspace(-np.pi, np.pi, _HIST_BINS + 1)
    counts, _ = np.histogram(diff, bins=edges)
    return PhaseErrorStats(
        bin_edges=edges,
        counts=counts,
        circ_std=float(circ_std(diff)),
        n_pixels=diff.size,
    )


def continuous_experiment(scene: LensScene, illuminations,
                          sigmas=(3.0, 0.2),
                          reference_illumination: float = 500.0,
                          seed: int = 0, quantize: bool = False,
                          psi: PsiConfig = PsiConfig()):
    """Continuous-phase study against a high-flux reference map.

    Builds the reference reconstruction at `reference_illumination` (readout
    noise 0.2 e-), then for each illumination and each of `sigmas` records
    the per-pixel wrapped phase difference. Returns (reference phase map,
    list of ContinuousCase, illumination-major).
    """
    illuminations = tuple(illuminations)
    if reference_illumination < max(illuminations):
        raise DomainError(
            "reference illumination must be at least the largest test illumination"
        )
    fld = scene.field()
    region = scene.region()
    ref_result = _reconstruct_noisy(fld, region, psi, reference_illumination,
                                    _REFERENCE_SIGMA, rng_stream(seed, 0))
    support = fld.amplitude > 0
    cases = []
    stream = 1
    for illum in illuminations:
        for sigma in sigmas:
            result = _reconstruct_noisy(fld, region, psi, illum, sigma,
                                        rng_stream(seed, stream),
                                        quantize=quantize)
            stream += 1
            stats = phase_error_stats(result.phase, ref_result.phase,
                                      support=support)
            cases.append(ContinuousCase(illumination=illum, sigma=sigma,
                                        stats=stats, phase_map=result.phase))
    return ref_result.phase, cases
