import sys
import threading
import time

import numpy as np
import pytest

from pdisim import (BinningPolicy, CellResult, DomainError, FidelityStats,
                    LensScene, NoiseParams, PsiConfig, QuditScene,
                    SamplingError, SweepGrid,
                    apply_noise, c0_analytic, circ_std, continuous_experiment,
                    extract_phase, extract_state, fidelity, fidelity_sweep,
                    phase_error_stats, rng_stream, sample_noise,
                    simulate_interferograms, wrap)
from pdisim import experiments
from pdisim.forward import frame_rates
from pdisim.qudit import draw_pixel_positions, sample_fidelity
from pdisim.reconstruct import unwrapped_phase
from pdisim.sensor import MAX_POISSON_RATE

SCENE = QuditScene()


def test_sweep_grid_validation():
    with pytest.raises(DomainError):
        SweepGrid(illuminations=())
    with pytest.raises(DomainError):
        SweepGrid(repetitions=0)
    with pytest.raises(DomainError):
        SweepGrid(illuminations=(-1.0, 3.0))
    for sigma in (-0.5, np.inf, np.nan):
        with pytest.raises(DomainError):
            SweepGrid(sigmas=(0.2, sigma))
    with pytest.raises(DomainError):
        SweepGrid(n_bins=(1, 0))
    with pytest.raises(DomainError):
        SweepGrid(n_bins=(-3,))
    with pytest.raises(DomainError):
        SweepGrid(sigmas=(0.2, 0.5), nsamps=(9,))


def test_sweep_grid_nsamp_conversion():
    grid = SweepGrid(nsamps=(1, 144))
    assert grid.sigmas == pytest.approx((3.0, 0.25))
    assert SweepGrid(sigmas=grid.sigmas, nsamps=(1, 144)) == grid


def test_sweep_cell_count_and_order():
    grid = SweepGrid(illuminations=(1.0, 2.0), sigmas=(0.5,), n_bins=(1, 2),
                     repetitions=1)
    cells = list(grid.cells())
    assert len(cells) == 4
    assert cells[0] == (1.0, 0.5, 1)
    assert cells[-1] == (2.0, 0.5, 2)


def test_sweep_stats_fields_consistent():
    grid = SweepGrid(illuminations=(3.0,), sigmas=(0.5,), n_bins=(1,),
                     repetitions=100)
    (cell,) = fidelity_sweep(SCENE, grid, seed=4)
    st = cell.stats
    assert st.n_runs == 100
    assert st.stderr == pytest.approx(st.std / 10.0)
    assert 0.0 <= st.mean <= 1.0


@pytest.mark.parametrize("n_bin", [1, 4])
def test_sweep_fast_path_matches_modular_pipeline(n_bin):
    # n_bin > 1 checks that the sweep gathers the drawn pixels' rates right
    illum, sigma = 3.0, 0.5
    reps = 400
    grid = SweepGrid(illuminations=(illum,), sigmas=(sigma,), n_bins=(n_bin,),
                     repetitions=reps)
    (cell,) = fidelity_sweep(SCENE, grid, seed=21)

    clean = simulate_interferograms(SCENE.field(), PsiConfig(), illum,
                                    region=SCENE.region())
    fids = np.empty(reps)
    for r in range(reps):
        noisy = apply_noise(clean, NoiseParams(readout_sigma=sigma),
                            rng=rng_stream(5000, r))
        state = extract_state(extract_phase(noisy), SCENE.layout,
                              BinningPolicy(n_bin), rng_stream(6000, r))
        fids[r] = fidelity(SCENE.state, state)
    se = np.hypot(cell.stats.stderr, fids.std(ddof=1) / np.sqrt(reps))
    assert abs(cell.stats.mean - fids.mean()) < 4 * se


@pytest.fixture
def noise_draws(monkeypatch):
    """Sizes of the rate arrays the sweep passes to sample_noise."""
    drawn = []

    def counting(frames, *args, **kwargs):
        drawn.append(frames.size)
        return sample_noise(frames, *args, **kwargs)

    monkeypatch.setattr(experiments, "sample_noise", counting)
    return drawn


def test_sweep_draws_noise_for_the_read_pixels_only(noise_draws):
    reps, n_bin, psi = experiments._CHUNK + 3, 4, PsiConfig(n_steps=5)
    grid = SweepGrid(illuminations=(3.0,), sigmas=(0.5,), n_bins=(n_bin,),
                     repetitions=reps)
    (cell,) = fidelity_sweep(SCENE, grid, seed=3, psi=psi)
    assert cell.stats is not None
    assert sum(noise_draws) == reps * psi.n_steps * SCENE.layout.d * n_bin


@pytest.mark.parametrize("seed", [0, 8])
def test_sweep_poisson_range_error_raises_before_any_draw(seed, noise_draws):
    # a reference this large puts the brightest frames of illumination 3
    # beyond numpy's Poisson limit, and leaves illumination 1 within it
    psi = PsiConfig(reference_override=1e9)
    fld = SCENE.field()
    slit_values = fld.values[SCENE.layout.slit_pixels(SCENE.grid)]
    for illum, fits in ((1.0, True), (3.0, False)):
        rates, _ = frame_rates(slit_values, psi.reference_override,
                               psi.n_steps, illum, slit_values)
        assert (rates.max() <= MAX_POISSON_RATE) == fits
    grid = SweepGrid(illuminations=(1.0, 3.0), sigmas=(0.2, 3.0),
                     n_bins=(1, 2), repetitions=5)
    with pytest.raises(DomainError, match=r"^Poisson rates must be in \[0, "):
        fidelity_sweep(SCENE, grid, seed=seed, psi=psi)
    # checked per block, before any draw: on one thread the two blocks at
    # illumination 1 run first, one draw per cell, and the failing ones none
    assert len(noise_draws) == 4


def _per_cell_sweep(grid, seed, psi=PsiConfig()):
    """The sweep one cell at a time, each from its own stream in chunks of
    _CHUNK repetitions: what the blocked sweep must reproduce exactly."""
    fld = SCENE.field()
    slit_values = fld.values[SCENE.layout.slit_pixels(SCENE.grid)]
    results = []
    for index, (illum, sigma, n_bin) in enumerate(grid.cells()):
        rates, ref = frame_rates(slit_values, psi.reference_for(fld),
                                 psi.n_steps, illum, slit_values)
        _, d, n_px = rates.shape
        rng = rng_stream(seed, index)
        fids = np.empty(grid.repetitions)
        for start in range(0, grid.repetitions, experiments._CHUNK):
            m = min(experiments._CHUNK, grid.repetitions - start)
            positions = draw_pixel_positions(rng, (m, d), n_px, n_bin)
            noisy = sample_noise(
                np.take_along_axis(rates[None], positions[:, None], axis=-1),
                sigma, rng)
            phase = unwrapped_phase(noisy, c0_analytic(ref, psi.n_steps),
                                    float(np.angle(ref)))
            fids[start:start + m] = sample_fidelity(SCENE.state, phase)
        results.append(CellResult(illum, sigma, n_bin,
                                  FidelityStats.from_runs(fids)))
    return results


SIGMAS_20 = tuple(0.15 * k for k in range(1, 21))


@pytest.mark.parametrize("sigmas, n_bins, reps", [
    (SIGMAS_20, (1,), 16),     # blocks of 10 cells
    ((0.2, 0.5, 3.0), (1, 4), 300),  # one cell per block, two chunks
])
def test_sweep_blocks_equal_the_per_cell_sweep(sigmas, n_bins, reps):
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=sigmas, n_bins=n_bins,
                     repetitions=reps)
    assert fidelity_sweep(SCENE, grid, seed=5, jobs=2) == _per_cell_sweep(grid, 5)


def test_sweep_block_rows_stay_within_one_chunk(monkeypatch):
    shapes = []

    def recording(frames, *args):
        shapes.append(frames.shape[:2])
        return unwrapped_phase(frames, *args)

    monkeypatch.setattr(experiments, "unwrapped_phase", recording)
    for reps in (16, 100, 300):
        grid = SweepGrid(illuminations=(3.0,), sigmas=SIGMAS_20, n_bins=(1,),
                         repetitions=reps)
        fidelity_sweep(SCENE, grid, seed=1)
    # 20 cells split evenly into blocks of at most 256 // 16 = 16, then of
    # 256 // 100 = 2; at 300 repetitions each cell is its own block
    assert shapes == ([(10, 16)] * 2 + [(2, 100)] * 10
                      + [(1, 256), (1, 44)] * 20)


def test_sweep_jobs_independent_when_blocks_split_unevenly():
    # 8 blocks of 10 cells on 3 threads
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=SIGMAS_20, n_bins=(1, 2),
                     repetitions=16)
    assert (fidelity_sweep(SCENE, grid, seed=6, jobs=1)
            == fidelity_sweep(SCENE, grid, seed=6, jobs=3))


def test_sweep_deterministic_and_jobs_independent():
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=(0.2, 3.0),
                     n_bins=(1, 2), repetitions=50)
    a = fidelity_sweep(SCENE, grid, seed=9, jobs=1)
    b = fidelity_sweep(SCENE, grid, seed=9, jobs=1)
    c = fidelity_sweep(SCENE, grid, seed=9, jobs=4)
    assert a == b == c


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_sweep_raises_the_first_failing_blocks_error(jobs):
    # blocks in submission order: (1, 1) runs, (1, 500) fails drawing its
    # pixels, (3, 1) and (3, 500) fail the Poisson range check
    grid = SweepGrid(illuminations=(1.0, 3.0), sigmas=(0.2,), n_bins=(1, 500),
                     repetitions=5)
    with pytest.raises(SamplingError) as raised:
        draw_pixel_positions(rng_stream(0), (1, SCENE.layout.d),
                             SCENE.layout.pixels_per_slit, 500)
    with pytest.raises(SamplingError) as swept:
        fidelity_sweep(SCENE, grid, seed=4, jobs=jobs,
                       psi=PsiConfig(reference_override=1e9))
    assert str(swept.value) == str(raised.value)


def test_sweep_rejects_fewer_than_one_job():
    grid = SweepGrid(illuminations=(3.0,), sigmas=(0.2,), n_bins=(1,),
                     repetitions=1)
    for jobs in (0, -3):
        with pytest.raises(DomainError):
            fidelity_sweep(SCENE, grid, jobs=jobs)


def test_sweep_threads_under_fast_switching_match_serial():
    # 8 threads on a small grid, with the interpreter switching threads as
    # often as it can: cells must not interfere through shared state.
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=(0.2, 3.0),
                     n_bins=(1, 4), repetitions=300)
    serial = fidelity_sweep(SCENE, grid, seed=5, jobs=1)
    threaded = []
    sweep = threading.Thread(
        target=lambda: threaded.append(fidelity_sweep(SCENE, grid, seed=5, jobs=8)),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sweep.start()
        sweep.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not sweep.is_alive()
    assert threaded == [serial]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
def test_uncaught_cell_error_cancels_queued_cells(monkeypatch, exc_type, jobs):
    started = []

    def block(indices, *args, **kwargs):
        started.append(indices[0])
        if indices[0] == 0:
            raise exc_type("stop")
        time.sleep(0.2)  # time for the sweep to cancel the queue

    monkeypatch.setattr(experiments, "_run_block", block)
    grid = SweepGrid(illuminations=(1.0, 2.0, 3.0, 4.0), sigmas=(0.2, 0.5),
                     n_bins=(1, 2), repetitions=1)
    with pytest.raises(exc_type):
        fidelity_sweep(SCENE, grid, jobs=jobs)
    # of the 8 blocks (one per illumination and n_bin): the block of cell 0,
    # the blocks running beside it, and at most one block that its worker
    # took up before the cancel; none of those queued after them
    assert started[0] == 0 and len(started) <= 1 + jobs


def test_fidelity_map_shape_and_corner():
    grid = SweepGrid(illuminations=(1.7, 3.0, 11.3), sigmas=(3.0, 0.5, 0.2),
                     n_bins=(1,), repetitions=300)
    cells = fidelity_sweep(SCENE, grid, seed=2)
    mean = np.array([c.stats.mean for c in cells]).reshape(3, 3)
    stderr = np.array([c.stats.stderr for c in cells]).reshape(3, 3)
    best = mean[-1, -1]  # highest illumination, lowest sigma
    margin = 2 * stderr
    assert np.all(best >= mean[-1, :] - margin[-1, :])
    assert np.all(best >= mean[:, -1] - margin[:, -1])


def test_fidelity_map_reproducible():
    grid = SweepGrid(illuminations=(3.0,), sigmas=(0.2,), n_bins=(1,),
                     repetitions=1)
    a = fidelity_sweep(SCENE, grid, seed=7)
    b = fidelity_sweep(SCENE, grid, seed=7)
    assert a == b


def test_phase_error_stats_counts_and_range():
    rng = rng_stream(1)
    a = rng.uniform(-np.pi, np.pi, (32, 32))
    b = rng.uniform(-np.pi, np.pi, (32, 32))
    stats = phase_error_stats(a, b)
    assert stats.counts.sum() == stats.n_pixels == a.size
    assert len(stats.bin_edges) == 65
    assert stats.circ_std >= 0


@pytest.mark.filterwarnings("error")
def test_circ_std_of_a_constant_sample_is_a_small_nonnegative_number():
    # the rounded mean of equal unit phasors can have length 1 + 1 ulp, which
    # took the square root of a negative number (NaN), or gave -0.0
    spreads = np.array([circ_std(np.full(7, angle))
                        for angle in np.linspace(-np.pi, np.pi, 2001)])
    assert np.all(spreads < 1e-7) and not np.signbit(spreads).any()
    phase = LensScene().field().phase
    for offset in (1.0, 0.5):
        spread = phase_error_stats(wrap(phase + offset), phase).circ_std
        assert 0.0 <= spread < 1e-7 and not np.signbit(spread)


def test_continuous_self_comparison_residual_small():
    # matched high flux: residual is pure Monte-Carlo noise
    scene = LensScene(curvature=np.pi / 40000)
    _, cases = continuous_experiment(scene, (500.0,), sigmas=(0.2, 0.2),
                                     reference_illumination=500.0, seed=3)
    for case in cases:
        assert case.stats.circ_std < 0.05


def test_continuous_case_layout():
    scene = LensScene()
    ref, cases = continuous_experiment(scene, (1.9, 4.0),
                                       sigmas=(3.0, 0.2), seed=1)
    assert ref.shape == scene.grid.shape
    assert [(c.illumination, c.sigma) for c in cases] == [
        (1.9, 3.0), (1.9, 0.2), (4.0, 3.0), (4.0, 0.2)]
    for case in cases:
        assert case.stats.counts.sum() == scene.grid.n_pixels


def test_continuous_requires_high_reference():
    with pytest.raises(DomainError):
        continuous_experiment(LensScene(), (4.0,), reference_illumination=1.0)


def test_binning_improves_fidelity_low_flux():
    # more binned pixels, higher fidelity at 1.7 phot/px
    grid = SweepGrid(illuminations=(1.7,), sigmas=(0.2,), n_bins=(1, 2, 4, 8),
                     repetitions=400)
    cells = fidelity_sweep(SCENE, grid, seed=13)
    means = [c.stats.mean for c in cells]
    errs = [c.stats.stderr for c in cells]
    for (m0, e0), (m1, e1) in zip(zip(means, errs), zip(means[1:], errs[1:])):
        assert m1 >= m0 - 2 * np.hypot(e0, e1)
