"""Monte-Carlo sweep engine.

Covers the standard studies: mean reconstruction fidelity of the slit
qudit over illumination x readout noise x pixel binning, and continuous-phase
error statistics of a lens wavefront against a high-flux reference. Both
take one exposure per illumination, draw its photon counts once and read
them out at every sigma, as a Skipper-CCD reads a pixel's charge
non-destructively: the cases at one illumination share their shot noise
and differ by readout noise alone.

The sweep's tasks are its distinct illuminations, all prepared in one pass
before any task runs (_prepare). The pixels of a slit all carry the slit's
value, so a task reads max(n_bins) pixels per slit straight off the slit's
rates: which pixels are read changes no number. Read j of the illumination
whose first grid index is i draws its counts from the stream with key
(i, 0, j), and its readout noise at sigma k from the stream with key
(i, 1 + k, j) (sensor.rng_streams). The cell at n_bin b scores the first b
reads of each slit. So a cell's numbers depend only on the seed, its
illumination and sigma indices and its n_bin, and, as numpy draws the same
values however a stream's range is split into calls, not on the chunk,
the thread count or the scheduling order either. The cells at one
illumination are correlated (common random numbers): their differences are
more precise than the hypot of their standard errors suggests.

The phase needs only the harmonic sums (C, S) of a read pixel. At N = 4
their photon counts n_0 - n_2 and n_1 - n_3 are Skellam variates, so a task
looks up one uniform per sum in an exact inverse-CDF table of its slits
(model.SkellamTable), and adds at each sigma one normal of sd sigma sqrt(2)
per sum, the readout noise of two frames. The tables of all a sweep's
illuminations are built in one pass, once, whatever the grid's size. A
task draws the N frames of each read pixel instead (sensor.photon_counts,
then sensor.read_out at each sigma), and takes their harmonic sums, only at
N != 4, with quantize (rounded frames make C and S no sum of counts and one
normal), or at frame rates above _TABLE_MAX_RATE (a large table). Either
way each read pixel is scored as the unit phasor of its phase
(reconstruct.unit_phasors), with no arctan2, and each state by the
direction of its slits' phasor sums (qudit.sample_fidelity). The cells'
statistics come back as columns.

The continuous study's tasks are exposures: the reference's, from stream
(seed, 0), then one per illumination i, from stream (seed, 1 + i), whose
counts (sensor.photon_counts) are read out at every sigma in turn
(sensor.read_out). The exposures too run on threads (continuous_threads)
with results independent of the thread count, and then each case is scored
against the reference the same way.
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
from .reconstruct import c0_analytic, extract_phase, harmonic_sums, unit_phasors
from .sensor import (check_poisson_rates, photon_counts, read_out,
                     readout_sigmas, rng_stream, rng_streams)

#: Most pixel reads per slit in one chunk of a sweep task: a chunk of m
#: repetitions reads m x sigmas x max(n_bins) pixels per slit, so m is
#: max(1, _BLOCK_READS // (sigmas x max(n_bins))) (64 on the default grid;
#: on the 6-slit table path 2048 x 2 x 6 normals, 0.2 MB). It bounds memory
#: only: no number depends on it.
_BLOCK_READS = 2048

#: Largest frame rate (photons) of an illumination drawn from a Skellam
#: table: it bounds a table's memory and build time, whose rows grow as the
#: square root of the rates. On the default 6-slit scene (2 cores) a table
#: holds 120 KB and builds in 0.6-0.8 ms at 11.3 phot/px (largest rate 89);
#: at this cap it holds 0.50 MB, peaks at 0.82 MB while it builds and
#: builds in 2.2 ms. Past it a table costs far more: 4.3 MB and 31 ms at a
#: largest rate of 78 969, 39 MB and 2.7 s at 7.9e6. A sweep's tables are
#: built together (_prepare), so these add up over its illuminations.
_TABLE_MAX_RATE = 1024.0

#: Work per thread: pixel reads (repetitions x sigmas x illuminations x d x
#: sum of n_bins) of a sweep, or frame values (reconstructions x N x
#: pixels) of the continuous study. Measured on 2 cores, 21 alternating
#: pairs each, when a sweep's tasks were blocks of cells that each drew
#: their own counts, 2 threads won against 1 in 0 pairs on the 20 x 20 map
#: preview at 16 repetitions (38 400 reads; medians 85 and 64 ms), and on
#: the default grid in 11 pairs at 128 repetitions (138 240 reads), 8 at
#: 192, 14 at 256 (276 480), 18 at 384 and 19 at 2000 (2 160 000 reads; 321
#: and 370 ms).
#: So 2 threads from 262 144 reads. With one task per illumination, 2
#: threads won 10 of 20 pairs on the default grid at 2000 repetitions (113
#: and 110 ms). The continuous study (40 pairs each),
#: when each reconstruction drew its own exposure, won on 2 threads in 40
#: pairs on the default 128 x 128 lens (458 752 values; 42 and 69 ms), 39
#: on 64 x 64 (114 688; 12 and 15 ms), which this runs inline, and 8 on
#: 32 x 32 (28 672; 7.6 and 7.1 ms).
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


def _table_sums(table, t, shape, sigmas, count_rngs, noise_rngs):
    """The harmonic sums C, S, each (sigmas, m, d, reads), of one chunk of
    an illumination's reads at N = 4, shape being (m, 2, d): each read's
    uniforms from its count stream count_rngs[j], looked up in one draw
    from table t of `table`, then, at each sigma > 0, that sigma's readout
    noise e_0 - e_2 and e_1 - e_3 of each read from its noise stream
    noise_rngs[k][j], normal with sd sigma sqrt(2): standard normals,
    scaled and added once for all the sigmas, as sigma sqrt(2) x
    standard_normal is normal(0, sigma sqrt(2)) bit for bit."""
    u = np.empty((len(count_rngs),) + shape)
    for rng, read in zip(count_rngs, u):
        rng.random(out=read)
    noise = np.zeros((len(sigmas),) + u.shape)
    for sigma, rngs, sigma_noise in zip(sigmas, noise_rngs, noise):
        if sigma > 0:
            for rng, read in zip(rngs, sigma_noise):
                rng.standard_normal(out=read)
    noise *= (np.array(sigmas) * np.sqrt(2.0)).reshape(-1, 1, 1, 1, 1)
    # the reads go last, where sample_fidelity sums them
    sums = noise.transpose(0, 2, 3, 4, 1)
    sums += table.draw(u.transpose(1, 2, 3, 0), t)
    return sums[:, :, 0], sums[:, :, 1]


def _frame_sums(rates, shape, sigmas, count_rngs, noise_rngs, quantize):
    """The harmonic sums C, S, each (sigmas, m, d, reads), of one chunk of
    an illumination's reads of the frame rates `rates` (N, d), shape being
    (m, N, d): each read's photon counts from its count stream
    count_rngs[j], then at each sigma their readout from its noise stream
    noise_rngs[k][j] (rounded if `quantize`)."""
    frames = np.empty((len(sigmas),) + shape + (len(count_rngs),))
    for j, rng in enumerate(count_rngs):
        counts = photon_counts(np.broadcast_to(rates, shape), rng)
        for sigma, rngs, sigma_frames in zip(sigmas, noise_rngs, frames):
            sigma_frames[..., j] = read_out(counts, sigma, rngs[j], quantize)
    return harmonic_sums(frames)


def _checked_frames(slits, reference, illums, n_bins, pixels, n_steps):
    """The frames (k, N, d, 1) of the slits at the k illuminations `illums`
    (one frame_rates call), C0s and mus. Each check runs once over all the
    illuminations: first the n_bins against the `pixels` per slit (read
    without replacement), as the config checks them, then the file path's
    own, in its order: the frames' float range (frame_rates), their Poisson
    range (check_poisson_rates) and each C0 (c0_analytic)."""
    wide = [n_bin for n_bin in n_bins if n_bin > pixels]
    if wide:
        raise SamplingError(f"n_bin = {wide[0]} exceeds the {pixels} pixels "
                            "per slit")
    rates, refs = frame_rates(slits, reference, n_steps, illums, slits)
    check_poisson_rates(rates)
    c0 = np.array([c0_analytic(ref, n_steps) for ref in refs.tolist()])
    return rates, c0, np.angle(refs)


def _prepare(scene: QuditScene, grid: SweepGrid, psi: PsiConfig,
             quantize: bool) -> tuple[np.ndarray, tuple, SkellamTable | None]:
    """A sweep's illuminations, prepared in one pass before any task runs:
    (lits, (rates, c0, mu, tables), table). lits[i] indexes grid
    illumination i among the k distinct ones, which have frames rates (k,
    N, d, 1), C0s, mus and in tables the index of their table in `table`,
    the sweep's one SkellamTable (None if unused), or -1 to draw frames.
    The checks run first, each once over the k (_checked_frames)."""
    distinct = {}
    lits = np.array([distinct.setdefault(illum, len(distinct))
                     for illum in grid.illuminations])
    slits = scene.slit_values()
    rates, c0, mu = _checked_frames(
        slits, psi.reference_for(scene.field()), tuple(distinct), grid.n_bins,
        scene.layout.pixels_per_slit, psi.n_steps)
    # at N = 4, not quantized, (C, S) come from the table, which the rate
    # cap keeps small
    tabled = np.zeros(len(distinct), dtype=bool)
    if psi.n_steps == 4 and not quantize:
        tabled = rates.reshape(len(distinct), -1).max(axis=1) <= _TABLE_MAX_RATE
    tables = np.where(tabled, np.cumsum(tabled) - 1, -1)
    table = SkellamTable(rates[tabled, ..., 0]) if tabled.any() else None
    return lits, (rates, c0, mu, tables), table


def _run_illumination(rates, c0, mu, t, count_rngs, noise_rngs, *, table,
                      sigmas, n_bins, target, repetitions, quantize):
    """Monte-Carlo fidelity of the sweep cells at one illumination, of frame
    rates `rates` (N, d, 1), C0 `c0` and mu `mu`, drawn from table t of the
    sweep's `table`, or from frames where t is -1 (see _prepare): an array
    (3, sigmas, n_bins) of each cell's mean, sample std (0 at one
    repetition) and standard error.

    Per chunk of repetitions it draws the counts of its reads, max(n_bins)
    per slit, once, and reads them out at every sigma: on the table path
    the (C, S) of each read (_table_sums), otherwise its frames, whose
    harmonic_sums give (C, S) (_frame_sums), read j from count stream
    count_rngs[j] and at sigma k from noise stream noise_rngs[k][j].
    unit_phasors scores every read, and sample_fidelity the cell at n_bin b
    from the first b reads of each slit.
    """
    reads = len(count_rngs)
    step = max(1, _BLOCK_READS // (len(sigmas) * reads))
    fids = np.empty((len(sigmas), len(n_bins), repetitions))
    for start in range(0, repetitions, step):
        m = min(step, repetitions - start)
        if t < 0:
            c, s = _frame_sums(rates[..., 0], (m,) + rates.shape[:2], sigmas,
                               count_rngs, noise_rngs, quantize)
        else:
            c, s = _table_sums(table, t, (m, 2, rates.shape[1]), sigmas,
                               count_rngs, noise_rngs)
        phasors = unit_phasors(c, s, c0, mu)
        for i, n_bin in enumerate(n_bins):
            fids[:, i, start:start + m] = sample_fidelity(target,
                                                          phasors[..., :n_bin])
    std = (fids.std(axis=-1, ddof=1) if repetitions > 1
           else np.zeros(fids.shape[:2]))
    return np.stack((fids.mean(axis=-1), std, std / np.sqrt(repetitions)))


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
    one, and at most `jobs` and the sweep's number of tasks, its distinct
    illuminations."""
    reads = (grid.repetitions * len(grid.illuminations) * len(grid.sigmas)
             * scene.layout.d * sum(grid.n_bins))
    return _threads(reads, len(set(grid.illuminations)), jobs)


def _run_tasks(run, tasks, threads):
    """run(*task) of every task (a sweep's illuminations, the continuous
    study's exposures), in order, on `threads` threads: the calling thread and
    threads - 1 workers, each taking the next task not yet started; inline
    in the calling thread when that is one. On glibc each worker thread
    allocates from a malloc arena of its own, which keeps the memory it
    frees, so the calling thread working too saves one arena. A task's
    exception, or an interrupt, stops the tasks not yet started; once the
    started ones end, the error raised is the first failing task's in
    submission order."""
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
                   psi: PsiConfig = PsiConfig()) -> FidelityStats:
    """Run the full sweep: the FidelityStats of every cell as columns, the
    mean, std and stderr arrays in the order of `grid.cells()`, over
    `grid.repetitions` runs each.

    Each task is one distinct illumination (_run_illumination), whose cells
    at every sigma and n_bin share its exposure; an illumination listed
    twice is one task, and its cells are equal. Each is prepared once
    before any task runs, in the calling thread (_prepare), each check once
    over them all in a fixed order (_checked_frames), so a failing check
    raises the same error whatever `jobs` is. The tasks run on
    sweep_threads(scene, grid, jobs) threads, in order in the calling
    thread when that is one: numpy's draws release the GIL, but a task's
    Python work holds it. The streams are seeded together, in the calling
    thread, and each task draws from its own streams only. An exception in
    a task, or an interrupt, stops the tasks not yet started and
    propagates: the error raised is the first failing task's in submission
    order.
    """
    threads = sweep_threads(scene, grid, jobs)
    lits, (rates, c0, mu, tables), table = _prepare(scene, grid, psi, quantize)
    # the stream keys of each illumination's reads, its first grid index i
    # leading: (i, 0, read) for its counts, (i, 1 + k, read) for its noise
    # at sigma k
    reads, width = max(grid.n_bins), 1 + len(grid.sigmas)
    streams = rng_streams(seed, [
        (first, tag, read) for first in np.unique(lits, return_index=True)[1]
        for tag in range(width) for read in range(reads)])
    rows = [streams[start:start + reads]
            for start in range(0, len(streams), reads)]
    tasks = [(rates[t], c0[t], mu[t], tables[t], rows[t * width],
              rows[t * width + 1:(t + 1) * width]) for t in range(len(rates))]
    # bound per call, not at import, so that a wrapper put on
    # experiments._run_illumination (a tracer) is the one that runs
    run = functools.partial(
        _run_illumination, table=table, sigmas=grid.sigmas,
        n_bins=grid.n_bins, target=scene.state, repetitions=grid.repetitions,
        quantize=quantize)
    stats = np.array(_run_tasks(run, tasks, threads))[lits]
    return FidelityStats(*np.moveaxis(stats, 1, 0).reshape(3, -1),
                         n_runs=grid.repetitions)


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
    arguments: one per READS_PER_THREAD frame values of its reconstructions
    (1 + illuminations x sigmas, each N x pixels), at least one, and at most
    `jobs` and the number of exposures (1 + illuminations)."""
    runs = 1 + len(illuminations) * len(sigmas)
    return _threads(runs * psi.n_steps * scene.grid.n_pixels,
                    1 + len(illuminations), jobs)


def _continuous_run(stream, illumination, sigmas, quantize, *, fld, region,
                    psi, seed):
    """The reconstructed phase maps of one exposure of `fld` at
    `illumination`, one per readout sigma of `sigmas`, in order, all drawn
    from stream (seed, stream): the exposure's photon counts once, then at
    each sigma its readout noise (rounded if `quantize`). Only the counts
    are held across the readouts; the noiseless frames are freed first."""
    rng = rng_stream(seed, stream)
    exposure = simulate_interferograms(fld, psi, illumination, region=region)
    counts = photon_counts(exposure.frames, rng)
    # frees the noiseless frames, and makes the counts read-only
    exposure = replace(exposure, frames=counts)
    return [extract_phase(replace(
                exposure, frames=read_out(counts, sigma, rng, quantize))).phase
            for sigma in sigmas]


def continuous_experiment(scene: LensScene, illuminations,
                          sigmas=(3.0, 0.2),
                          reference_illumination: float = 500.0,
                          seed: int = 0, quantize: bool = False,
                          psi: PsiConfig = PsiConfig(), jobs: int = 1):
    """Continuous-phase study against a high-flux reference map.

    Builds the reference reconstruction at `reference_illumination` (readout
    noise 0.2 e-, never quantized), then for each illumination and each of
    `sigmas` records the per-pixel wrapped phase difference. Each task is
    one exposure: the reference's from stream (seed, 0), then illumination
    i's from stream (seed, 1 + i), whose Poisson counts are drawn once and
    read out at every sigma in turn, as a Skipper-CCD reads one exposure
    non-destructively. So the cases at one illumination share their shot
    noise and differ by readout noise alone; each case keeps its own law.
    The illuminations and sigmas are checked before any exposure is drawn.
    The exposures, and then the cases' statistics, run on
    continuous_threads(scene, illuminations, sigmas, jobs, psi) threads, in
    order in the calling thread when that is one; the results do not depend
    on it. A failing exposure stops the exposures not yet started, and the
    error raised is the first failing exposure's, in stream order. Returns
    (reference phase map, list of ContinuousCase, illumination-major).
    """
    illuminations, sigmas = tuple(illuminations), tuple(sigmas)
    if not illuminations or not sigmas:
        raise DomainError("continuous study needs at least one illumination "
                          "and one sigma")
    readout_sigmas(sigmas)
    threads = continuous_threads(scene, illuminations, sigmas, jobs, psi)
    if reference_illumination < max(illuminations):
        raise DomainError(
            "reference illumination must be at least the largest test illumination"
        )
    fld = scene.field()
    exposures = [(reference_illumination, (_REFERENCE_SIGMA,), False)] + [
        (illum, sigmas, quantize) for illum in illuminations]
    # bound per call, so that a wrapper put on experiments._continuous_run
    # is the one that runs
    run = functools.partial(_continuous_run, fld=fld, region=scene.region(),
                            psi=psi, seed=seed)
    (reference,), *read = _run_tasks(
        run, [(stream, *args) for stream, args in enumerate(exposures)],
        threads)
    phases = [phase for maps in read for phase in maps]
    score = functools.partial(phase_error_stats, reference_phase=reference,
                              support=fld.amplitude > 0)
    stats = _run_tasks(score, [(phase,) for phase in phases], threads)
    cases = [(illum, sigma) for illum in illuminations for sigma in sigmas]
    return reference, [ContinuousCase(illumination=illum, sigma=sigma,
                                      stats=case_stats, phase_map=phase)
                       for (illum, sigma), case_stats, phase
                       in zip(cases, stats, phases)]
