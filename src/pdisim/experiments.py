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
Before any block runs, a sweep prepares each distinct illumination once:
the frames of its slits, their checks, C0, mu and its table. A sweep draws
the N frames of each read pixel instead (Poisson, then normal), whenever
its input has one of these properties:

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
(the Poisson range of an illumination's frames, n_bin against the pixels
per slit) is checked while the illuminations are prepared, so such an error
is raised before any block runs, and the grid has checked every sigma.

The continuous study's runs (the reference, then each illumination and
sigma) each draw from their own stream (seed, run index), so they too run
on threads (continuous_threads) with results independent of the thread
count, and then score each case against the reference the same way.
"""

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

#: Work per thread: pixel reads (repetitions x sigmas x illuminations x d x
#: sum of n_bins) of a sweep, or frame values (runs x N x pixels) of the
#: continuous study. Measured on 2 cores, 21 alternating pairs each, 2
#: threads won against 1 in 0 pairs on the 20 x 20 map preview at 16
#: repetitions (38 400 reads; medians 85 and 64 ms), and on the default grid
#: in 11 pairs at 128 repetitions (138 240 reads), 8 at 192, 14 at 256
#: (276 480), 18 at 384 and 19 at 2000 (2 160 000 reads; 321 and 370 ms).
#: So 2 threads from 262 144 reads. The continuous study (40 pairs each)
#: won on 2 threads in 40 pairs on the default 128 x 128 lens (458 752
#: values; 42 and 69 ms), 39 on 64 x 64 (114 688; 12 and 15 ms), which this
#: runs inline, and 8 on 32 x 32 (28 672; 7.6 and 7.1 ms).
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

    @functools.cached_property
    def _blocks(self) -> tuple:
        """The sweep's tasks in submission order, (cell indices, their
        sigmas, illumination, n_bin): the cells that share an illumination
        and n_bin, split evenly into blocks of at most as many as fill one
        chunk of repetitions. Built once per grid."""
        cells = list(self.cells())
        groups = {}
        for index, (illum, _, n_bin) in enumerate(cells):
            groups.setdefault((illum, n_bin), []).append(index)
        # no block's chunk holds more rows than one cell's chunk of _CHUNK
        per_block = _CHUNK // min(_CHUNK, self.repetitions)
        blocks = []
        for (illum, n_bin), group in groups.items():
            n = -(-len(group) // per_block)
            for i in range(n):
                indices = tuple(group[len(group) * i // n:
                                      len(group) * (i + 1) // n])
                blocks.append((indices, tuple(cells[index][1]
                                              for index in indices),
                               illum, n_bin))
        return tuple(blocks)


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


def _prepare(scene: QuditScene, grid: SweepGrid, psi: PsiConfig,
             quantize: bool) -> dict:
    """Each distinct illumination of a sweep, prepared in grid order before
    any block runs, keyed by illumination: a tuple of its slits' noiseless
    frames `rates` (N, d, 1), C0, mu and Skellam table (None where its cells
    draw frames). After an illumination's frames it checks them against
    numpy's Poisson range, then every n_bin against the pixels per slit (the
    pixels are read without replacement), and so raises the error of the
    first block that would fail."""
    slits = scene.slit_values()
    reference = psi.reference_for(scene.field())
    draws = _illumination_reads(scene, grid)
    prepared = {}
    for illum in grid.illuminations:
        if illum in prepared:
            continue
        # mean frame 0 over the slits sets the illumination scale
        rates, ref = frame_rates(slits, reference, psi.n_steps, illum, slits)
        check_poisson_rates(rates)
        for n_bin in grid.n_bins:
            if n_bin > scene.layout.pixels_per_slit:
                raise SamplingError(f"n_bin = {n_bin} exceeds the "
                                    f"{scene.layout.pixels_per_slit} pixels "
                                    "per slit")
        # a table repays its build over enough draws, and stays small
        table = (SkellamTable(rates[..., 0])
                 if psi.n_steps == 4 and not quantize
                 and draws >= _TABLE_MIN_DRAWS
                 and rates.max() <= _TABLE_MAX_RATE else None)
        prepared[illum] = (rates, c0_analytic(ref, psi.n_steps),
                           float(np.angle(ref)), table)
    return prepared


def _run_block(indices, sigmas, lit, n_bin, *, seed, target, repetitions,
               quantize):
    """Monte-Carlo fidelity of the sweep cells `indices`, one per readout
    sigma in `sigmas`, at `n_bin` and the prepared illumination `lit`
    (rates, C0, mu, table; see _prepare): one FidelityStats per cell.

    Every pixel of a slit has the slit's rates, so the n_bin distinct pixels
    a state reads have i.i.d. readings whichever they are. Per chunk of
    repetitions each cell draws, from its own stream, so that it gets the
    numbers it would get alone: with a table, the (C, S) of its read pixels
    (_skellam_sums), and arctan2(S, C - C0) + mu is their phase; without,
    the noisy frames (m, N, d, n_bin) of its read pixels (sample_noise:
    Poisson, then normal), inverted by unwrapped_phase. The phase, the
    scoring and the statistics run once over the stacked cells.
    """
    rates, c0, mu, table = lit
    rngs = [rng_stream(seed, index) for index in indices]
    fids = np.empty((len(indices), repetitions))
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


def _threads(work: int, tasks: int, jobs: int) -> int:
    """Threads for `tasks` tasks that do `work` in all (see
    READS_PER_THREAD): one per READS_PER_THREAD, at least one, and at most
    `jobs` and `tasks`."""
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")
    return min(jobs, tasks, max(1, work // READS_PER_THREAD))


def sweep_threads(scene: QuditScene, grid: SweepGrid, jobs: int) -> int:
    """The number of threads `fidelity_sweep(scene, grid, jobs=jobs)` runs
    on: one per READS_PER_THREAD pixel reads of the whole sweep, at least
    one, and at most `jobs` and the sweep's number of blocks."""
    reads = _illumination_reads(scene, grid) * len(grid.illuminations)
    return _threads(reads, len(grid._blocks), jobs)


def _run_tasks(run, tasks, threads):
    """run(*task) of every task (a sweep's blocks, the continuous study's
    runs), in order, on `threads` threads: the calling thread and threads -
    1 workers, each taking the next task not yet started; inline in the
    calling thread when that is one. On glibc each worker thread allocates
    from a malloc arena of its own, which keeps the memory it frees, so the
    calling thread working too saves one arena. A task's exception, or an
    interrupt, stops the tasks not yet started; once the started ones end,
    the error raised is the first failing task's in submission order."""
    if threads == 1:
        return [run(*task) for task in tasks]
    results, failures = [None] * len(tasks), {}
    order, lock = iter(range(len(tasks))), threading.Lock()

    def work():
        while True:
            with lock:
                index = None if failures else next(order, None)
            if index is None:
                return
            try:
                results[index] = run(*tasks[index])
            except BaseException as exc:
                with lock:
                    failures[index] = exc

    workers = [threading.Thread(target=work) for _ in range(threads - 1)]
    for worker in workers:
        worker.start()
    try:
        work()
    finally:
        with lock:  # an interrupt outside a task stops the workers too
            order = iter(())
        for worker in workers:
            worker.join()
    if failures:
        raise failures[min(failures)]
    return results


def fidelity_sweep(scene: QuditScene, grid: SweepGrid, seed: int = 0,
                   jobs: int = 1, quantize: bool = False,
                   psi: PsiConfig = PsiConfig()) -> list[CellResult]:
    """Run the full sweep: one CellResult per cell, in the order of
    `grid.cells()`.

    Each task is a block of cells that share the illumination and n_bin and
    differ in sigma, at most as many as fill one chunk of repetitions; every
    cell keeps its own stream, so the blocking never changes a result.
    Before any block runs, the sweep prepares each distinct illumination
    once, in the calling thread (_prepare): its frames, their checks, C0, mu
    and its Skellam table. A failing check raises there, with the error of
    the first block that would fail, whatever `jobs` is. `jobs` bounds the
    threads: the sweep runs on sweep_threads(scene, grid, jobs) of them, and
    on one it runs its blocks in order in the calling thread. numpy's draws
    release the GIL, but a block's Python work holds it, so a second thread
    pays only for sweeps of many pixel reads. An exception in a block, or an
    interrupt, stops the blocks not yet started and propagates: the error
    raised is the first failing block's in submission order.
    """
    threads = sweep_threads(scene, grid, jobs)
    prepared = _prepare(scene, grid, psi, quantize)
    blocks = [(indices, sigmas, prepared[illum], n_bin)
              for indices, sigmas, illum, n_bin in grid._blocks]
    # bound per call, not at import, so that a wrapper put on
    # experiments._run_block (a tracer) is the one that runs
    run = functools.partial(_run_block, seed=seed, target=scene.state,
                            repetitions=grid.repetitions, quantize=quantize)
    stats = {}
    for (indices, *_), block_stats in zip(blocks,
                                          _run_tasks(run, blocks, threads)):
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


def continuous_threads(scene: LensScene, illuminations, sigmas, jobs: int,
                       psi: PsiConfig = PsiConfig()) -> int:
    """The number of threads `continuous_experiment` runs on for these
    arguments: one per READS_PER_THREAD frame values of its runs (1 +
    illuminations x sigmas, each N x pixels), at least one, and at most
    `jobs` and the number of runs."""
    runs = 1 + len(illuminations) * len(sigmas)
    return _threads(runs * psi.n_steps * scene.grid.n_pixels, runs, jobs)


def _continuous_run(stream, illumination, sigma, quantize, *, fld, region,
                    psi, seed):
    """The reconstructed phase map of `fld` at `illumination`, with readout
    noise `sigma` drawn from stream (seed, stream)."""
    clean = simulate_interferograms(fld, psi, illumination, region=region)
    noisy = replace(clean, frames=sample_noise(
        clean.frames, sigma, rng_stream(seed, stream), quantize=quantize))
    del clean  # its frames are freed before the reconstruction runs
    return extract_phase(noisy).phase


def continuous_experiment(scene: LensScene, illuminations,
                          sigmas=(3.0, 0.2),
                          reference_illumination: float = 500.0,
                          seed: int = 0, quantize: bool = False,
                          psi: PsiConfig = PsiConfig(), jobs: int = 1):
    """Continuous-phase study against a high-flux reference map.

    Builds the reference reconstruction at `reference_illumination` (readout
    noise 0.2 e-, never quantized), then for each illumination and each of
    `sigmas` records the per-pixel wrapped phase difference. Run k, the
    reference first, draws its noise from stream (seed, k). The runs, and
    then the cases' statistics, run on continuous_threads(scene,
    illuminations, sigmas, jobs, psi) threads, in order in the calling
    thread when that is one; the results do not depend on it. A failing run
    stops the runs not yet started, and the error raised is the first
    failing run's, in run order. Returns (reference phase map, list of
    ContinuousCase, illumination-major).
    """
    illuminations = tuple(illuminations)
    threads = continuous_threads(scene, illuminations, sigmas, jobs, psi)
    if reference_illumination < max(illuminations):
        raise DomainError(
            "reference illumination must be at least the largest test illumination"
        )
    fld = scene.field()
    runs = [(reference_illumination, _REFERENCE_SIGMA, False)] + [
        (illum, sigma, quantize) for illum in illuminations for sigma in sigmas]
    # bound per call, so that a wrapper put on experiments._continuous_run
    # is the one that runs
    run = functools.partial(_continuous_run, fld=fld, region=scene.region(),
                            psi=psi, seed=seed)
    reference, *phases = _run_tasks(
        run, [(stream, *args) for stream, args in enumerate(runs)], threads)
    score = functools.partial(phase_error_stats, reference_phase=reference,
                              support=fld.amplitude > 0)
    stats = _run_tasks(score, [(phase,) for phase in phases], threads)
    return reference, [ContinuousCase(illumination=illum, sigma=sigma,
                                      stats=case_stats, phase_map=phase)
                       for (illum, sigma, _), case_stats, phase
                       in zip(runs[1:], stats, phases)]
