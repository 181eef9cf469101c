"""Monte-Carlo sweep engine.

Covers the standard studies: mean reconstruction fidelity of the slit
qudit over illumination x readout noise x pixel binning, and continuous-phase
error statistics of a lens wavefront against a high-flux reference.

Every cell of a sweep is fed by its own random stream (seed, cell index).
The pixels of a slit all carry the slit's value, so a cell draws the noisy
readings of its n_bin pixels per slit straight from the slit's rates: which
pixels are read changes no number. The phase needs only the harmonic sums
(C, S) of a read pixel. At N = 4 their photon counts n_0 - n_2 and
n_1 - n_3 are Skellam variates, so a cell draws each from an exact
inverse-CDF table of its slit (model.SkellamTable), one uniform apiece, and
adds one normal of sd sigma sqrt(2) for the readout noise of two frames.
Each illumination's table is built once per sweep. A sweep draws the N
frames of each read pixel instead (Poisson, then normal), whenever its
input has one of these properties:

- N != 4 phase steps;
- quantize: each frame is rounded to whole electrons, so C and S are no
  sum of counts and one normal;
- an illumination whose frame rates exceed _TABLE_MAX_RATE, whose table
  would be large;
- fewer than _TABLE_MIN_DRAWS pixel draws per illumination (repetitions x
  sigmas x d x the sum of n_bins), too few to repay building the table.

The sweep's tasks are blocks of cells that share an illumination and n_bin;
a block batches the cells' arithmetic and statistics, not their streams, so
results are bit-identical for a fixed seed regardless of blocking, thread
count or scheduling order. numpy's draws release the GIL, but each block
also runs Python that holds it, so a sweep runs on a second thread only
when it reads enough pixels to repay it (sweep_threads), and on one thread
it runs its blocks inline, in order. A sweep returns every cell or raises
the error of its first failing block, in submission order: what could fail
(the Poisson range of a block's frames, n_bin against the pixels per slit)
is the same for all of a block's cells, and the grid has checked every
sigma.
"""

import concurrent.futures
import functools
import threading
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .circular import circ_dist, circ_std, wrap
from .errors import DomainError, SamplingError, ShapeError
from .field import (ComplexField, GridSpec, QuditState, SlitLayout,
                    equal_step_state)
from .forward import PsiConfig, frame_rates, simulate_interferograms
from .model import SkellamTable
from .qudit import FidelityStats, sample_fidelity
from .reconstruct import c0_analytic, extract_phase, unwrapped_phase
from .sensor import check_poisson_rates, rng_stream, readout_sigmas, sample_noise

#: Fixed vectorization chunk (repetitions per draw from a cell's stream).
#: Part of the determinism contract: results must not depend on worker
#: count, so the chunking must not either. On the default grid (2 cores),
#: chunks of 128 to 2048 ran within about 10 % of each other when every
#: cell drew its frames. A chunk at n_bin 8 holds 256 x 2 x 6 x 8 uniforms
#: and as many normals (0.2 MB each) on the table path, or 256 x 4 x 6 x 8
#: frame values (0.4 MB) on the per-frame path. It also bounds a block's
#: rows: a block stacks at most max(1, _CHUNK // repetitions) cells, so its
#: chunk is never larger than one cell's.
_CHUNK = 256

#: Largest frame rate (photons) of an illumination drawn from a Skellam
#: table. A table's rows grow as the square root of the rates: on the
#: default 6-slit scene (2 cores) it held 85 KB and built in 0.5-0.6 ms at
#: 11.3 phot/px (largest rate 89), and 0.35 MB in 1.2-1.3 ms at this cap.
_TABLE_MAX_RATE = 1024.0

#: Fewest pixel draws (repetitions x sigmas x d x sum of n_bins) of an
#: illumination for which its table is built. Measured on 256-repetition
#: chunks, a table draw of (C, S) saved 130-350 ns per read pixel against
#: 4 Poisson and 4 normal frame values, so 16384 draws repay even a build at
#: the rate cap; the default grid at 128 repetitions makes 46080, the
#: 16-repetition map preview (n_bin 1) 1920.
_TABLE_MIN_DRAWS = 16384

#: Pixel reads (repetitions x sigmas x illuminations x d x sum of n_bins)
#: of a sweep per thread it runs on. Measured on 2 cores, 21 alternating
#: pairs each, 2 threads won against 1 in 0 pairs on the 20 x 20 map
#: preview at 16 repetitions (38 400 reads; medians 85 and 64 ms), and on
#: the default grid in 11 pairs at 128 repetitions (138 240 reads), 8 at
#: 192, 14 at 256 (276 480), 18 at 384 and 19 at 2000 (2 160 000 reads;
#: 321 and 370 ms). So 2 threads from 262 144 reads.
READS_PER_THREAD = 131072

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

    def slit_values(self) -> np.ndarray:
        """The value (d, 1) of every pixel of each slit: amplitude |c_k|,
        rescaled so the brightest slit has amplitude 1, and phase arg(c_k).
        Slits are uniform, so this one column stands for all n_px pixels."""
        state = self.state
        if state.dim != self.layout.d:
            raise ShapeError(f"state dimension {state.dim} != layout slit "
                             f"count {self.layout.d}")
        amps = np.abs(state.coeffs)
        amps = amps / amps.max()
        return (amps * np.exp(1j * np.angle(state.coeffs)))[:, None]

    def field(self) -> ComplexField:
        """The qudit phase mask in a uniform background. Slits are uniform:
        every pixel of slit k carries the same value, `slit_values()[k]`;
        all other pixels carry the background amplitude and phase."""
        slits = self.slit_values()
        values = np.full(self.grid.shape, self.background_amplitude
                         * np.exp(1j * self.background_phase), dtype=complex)
        values[self.layout.slit_pixels(self.grid)] = slits
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


def _skellam_sums(table, shape, sigma, rng):
    """One cell's (C, S) of its read pixels, shaped (m, 2, d, n_bin), at
    N = 4: the counts n_0 - n_2 and n_1 - n_3 drawn from `table` by
    uniforms, then, if sigma > 0, the readout noise e_0 - e_2 and e_1 - e_3,
    normal with sd sigma sqrt(2)."""
    sums = table.draw(rng.random(shape))
    if sigma > 0:
        sums += rng.normal(0.0, sigma * np.sqrt(2.0), size=shape)
    return sums


class _SkellamTables:
    """The Skellam table of each illumination of one sweep, built once, by
    the first of its blocks to ask, after that block's checks, and freed
    with the sweep: None where a rate exceeds _TABLE_MAX_RATE."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tables = {}

    def get(self, illumination, rates):
        with self._lock:
            if illumination not in self._tables:
                self._tables[illumination] = (
                    SkellamTable(rates[..., 0])
                    if rates.max() <= _TABLE_MAX_RATE else None)
            return self._tables[illumination]


def _run_block(indices, sigmas, illumination, n_bin, *, slit_values,
               pixels_per_slit, reference, psi, seed, target, repetitions,
               quantize, tables):
    """Monte-Carlo fidelity of the sweep cells `indices`, one per readout
    sigma in `sigmas`, at `illumination` and `n_bin`: one FidelityStats per
    cell.

    The block computes the noiseless frames (N, d, 1) of the uniform slits
    `slit_values` (d, 1), checks them against numpy's Poisson range, then
    n_bin against `pixels_per_slit` (the pixels are read without
    replacement), and computes C0 and mu. Every pixel of a slit has the
    slit's rates, so the n_bin distinct pixels a state reads have i.i.d.
    readings whichever they are. Per chunk of repetitions each cell draws,
    from its own stream, so that it gets the numbers it would get alone:
    with a Skellam table from `tables` (a _SkellamTables, or None for the
    per-frame path), the (C, S) of its read pixels (_skellam_sums), and
    arctan2(S, C - C0) + mu is their phase; otherwise the noisy frames
    (m, N, d, n_bin) of its read pixels (sample_noise: Poisson, then
    normal), inverted by unwrapped_phase. The phase, the scoring and the
    statistics run once over the stacked cells. The cells share the
    illumination, n_bin and rates, and the grid has checked every sigma, so
    an error (a PdisimError) is the whole block's.
    """
    rngs = [rng_stream(seed, index) for index in indices]
    fids = np.empty((len(indices), repetitions))
    # mean frame 0 over the slits sets the illumination scale
    rates, ref = frame_rates(slit_values, reference, psi.n_steps, illumination,
                             slit_values)
    check_poisson_rates(rates)
    if n_bin > pixels_per_slit:
        raise SamplingError(f"n_bin = {n_bin} exceeds the {pixels_per_slit} "
                            "pixels per slit")
    c0, mu = c0_analytic(ref, psi.n_steps), float(np.angle(ref))
    table = tables.get(illumination, rates) if tables is not None else None
    for start in range(0, repetitions, _CHUNK):
        m = min(_CHUNK, repetitions - start)
        if table is None:
            read = np.broadcast_to(rates, (m,) + rates.shape[:-1] + (n_bin,))
            noisy = np.stack([sample_noise(read, sigma, rng, quantize=quantize)
                              for sigma, rng in zip(sigmas, rngs)])
            phase = unwrapped_phase(noisy, c0, mu)
        else:
            shape = (m, 2) + rates.shape[1:-1] + (n_bin,)
            sums = np.stack([_skellam_sums(table, shape, sigma, rng)
                             for sigma, rng in zip(sigmas, rngs)])
            phase = np.arctan2(sums[:, :, 1], sums[:, :, 0] - c0) + mu
        fids[:, start:start + m] = sample_fidelity(target, phase)
    return FidelityStats.per_row(fids)


def _illumination_reads(scene: QuditScene, grid: SweepGrid) -> int:
    """Pixel reads of each illumination of a sweep: repetitions x sigmas x d
    x the sum of n_bins."""
    return (grid.repetitions * len(grid.sigmas) * scene.layout.d
            * sum(grid.n_bins))


def _blocks(grid: SweepGrid) -> list:
    """The sweep's tasks in submission order, (cell indices, their sigmas,
    illumination, n_bin): the cells that share an illumination and n_bin,
    split evenly into blocks of at most as many as fill one chunk of
    repetitions."""
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
    return blocks


def sweep_threads(scene: QuditScene, grid: SweepGrid, jobs: int) -> int:
    """The number of threads `fidelity_sweep(scene, grid, jobs=jobs)` runs
    on: one per READS_PER_THREAD pixel reads of the whole sweep, at least
    one, and at most `jobs` and the sweep's number of blocks."""
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    reads = _illumination_reads(scene, grid) * len(grid.illuminations)
    return min(jobs, len(_blocks(grid)), max(1, reads // READS_PER_THREAD))


def _run_blocks(run, blocks, threads):
    """run(*block) of every block, in order, on `threads` threads; inline in
    the calling thread when that is one. An exception in a block, or an
    interrupt, stops the blocks not yet started and propagates: the error
    raised is the first failing block's in submission order."""
    if threads == 1:
        return [run(*block) for block in blocks]
    with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
        try:
            futures = [pool.submit(run, *block) for block in blocks]
            # one wake-up per sweep, not one per block taking the GIL from a
            # worker; blocks start in order, so a failed one is reached below
            concurrent.futures.wait(
                futures, return_when=concurrent.futures.FIRST_EXCEPTION)
            return [future.result() for future in futures]
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def fidelity_sweep(scene: QuditScene, grid: SweepGrid, seed: int = 0,
                   jobs: int = 1, quantize: bool = False,
                   psi: PsiConfig = PsiConfig()) -> list[CellResult]:
    """Run the full sweep: one CellResult per cell, in the order of
    `grid.cells()`.

    Each task is a block of cells that share the illumination and n_bin and
    differ in sigma, at most as many as fill one chunk of repetitions; every
    cell keeps its own stream, so the blocking never changes a result. A
    block computes its frames, C0 and mu, and fails or succeeds whole.
    `jobs` bounds the threads: the sweep runs on sweep_threads(scene, grid,
    jobs) of them, and on one it runs its blocks in order in the calling
    thread. numpy's draws release the GIL, but a block's Python work holds
    it, so a second thread pays only for sweeps of many pixel reads. An
    exception in a block, or an interrupt, stops the blocks not yet started
    and propagates: the error raised is the first failing block's in
    submission order, whatever `jobs` is.
    """
    threads = sweep_threads(scene, grid, jobs)
    fld = scene.field()
    blocks = _blocks(grid)
    # the Skellam tables pay for their build when an illumination reads
    # enough pixels, counted over all of its cells
    tables = (_SkellamTables() if psi.n_steps == 4 and not quantize
              and _illumination_reads(scene, grid) >= _TABLE_MIN_DRAWS
              else None)
    # bound per call, not at import, so that a wrapper put on
    # experiments._run_block (a tracer) is the one that runs
    run = functools.partial(
        _run_block, slit_values=scene.slit_values(),
        pixels_per_slit=scene.layout.pixels_per_slit,
        reference=psi.reference_for(fld), psi=psi, seed=seed,
        target=scene.state, repetitions=grid.repetitions, quantize=quantize,
        tables=tables)
    stats = {}
    for (indices, *_), block_stats in zip(blocks,
                                          _run_blocks(run, blocks, threads)):
        stats.update(zip(indices, block_stats))
    return [CellResult(*cell, stats[index])
            for index, cell in enumerate(grid.cells())]


def phase_error_stats(phase: np.ndarray, reference_phase: np.ndarray,
                      support: np.ndarray) -> PhaseErrorStats:
    """Histogram + circular std of the wrapped per-pixel phase difference
    over the pixels of the boolean mask `support`."""
    if phase.shape != reference_phase.shape:
        raise ShapeError("phase maps differ in shape")
    diff = circ_dist(phase, reference_phase)[np.asarray(support, dtype=bool)]
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
    noise 0.2 e-, never quantized), then for each illumination and each of
    `sigmas` records the per-pixel wrapped phase difference. Run k, the
    reference first, draws its noise from stream (seed, k). Returns
    (reference phase map, list of ContinuousCase, illumination-major).
    """
    illuminations = tuple(illuminations)
    if reference_illumination < max(illuminations):
        raise DomainError(
            "reference illumination must be at least the largest test illumination"
        )
    fld = scene.field()
    region = scene.region()
    runs = [(reference_illumination, _REFERENCE_SIGMA, False)] + [
        (illum, sigma, quantize) for illum in illuminations for sigma in sigmas]
    phases = []
    for stream, (illum, sigma, quant) in enumerate(runs):
        clean = simulate_interferograms(fld, psi, illum, region=region)
        noisy = sample_noise(clean.frames, sigma, rng_stream(seed, stream),
                             quantize=quant)
        phases.append(extract_phase(replace(clean, frames=noisy)).phase)
        del clean, noisy  # freed before the next run builds its frames
    support = fld.amplitude > 0
    cases = [ContinuousCase(illumination=illum, sigma=sigma,
                            stats=phase_error_stats(phase, phases[0], support),
                            phase_map=phase)
             for (illum, sigma, _), phase in zip(runs[1:], phases[1:])]
    return phases[0], cases
