import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from pdisim import (BinningPolicy, CellResult, DomainError, FidelityStats,
                    LensScene, PsiConfig, QuditScene, SamplingError,
                    SweepGrid, c0_analytic, circ_std, continuous_experiment,
                    continuous_threads, extract_phase, extract_state,
                    fidelity, fidelity_sweep, phase_error_stats, rng_stream,
                    sample_noise, simulate_interferograms, sweep_threads, wrap)
from pdisim import experiments
from pdisim.field import GridSpec
from pdisim.forward import frame_rates
from pdisim.model import SkellamTable
from pdisim.qudit import sample_fidelity
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


@pytest.mark.parametrize("n_bin, quantize, illum, n_steps", [
    pytest.param(1, False, 3.0, 4, id="1"),
    pytest.param(4, False, 3.0, 4, id="4"),
    pytest.param(8, False, 3.0, 4, id="8"),
    pytest.param(8, True, 3.0, 4, id="8-quantize"),
    pytest.param(1, False, 11.3, 4, id="1-illumination-11.3"),
    pytest.param(4, False, 3.0, 5, id="4-n_steps-5")])
def test_sweep_fast_path_matches_modular_pipeline(n_bin, quantize, illum,
                                                  n_steps, monkeypatch):
    # the full-grid chain with rng.choice pixel picks: n_bin > 1 checks that
    # reading the slit rates stands for reading n_bin distinct pixels. Every
    # grid takes the Skellam tables where it can (N = 4, not quantized)
    monkeypatch.setattr(experiments, "_TABLE_MIN_DRAWS", 1)
    sigma = 0.5
    reps = 400
    psi = PsiConfig(n_steps=n_steps)
    grid = SweepGrid(illuminations=(illum,), sigmas=(sigma,), n_bins=(n_bin,),
                     repetitions=reps)
    (cell,) = fidelity_sweep(SCENE, grid, seed=21, quantize=quantize, psi=psi)

    clean = simulate_interferograms(SCENE.field(), psi, illum,
                                    region=SCENE.region())
    fids = np.empty(reps)
    for r in range(reps):
        noisy = replace(clean, frames=sample_noise(
            clean.frames, sigma, rng_stream(5000, r), quantize=quantize))
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
    # checked per illumination, before any block runs: not even the blocks
    # at illumination 1, which pass, draw
    assert len(noise_draws) == 0


def _per_cell_sweep(grid, seed, table, psi=PsiConfig()):
    """The sweep one cell at a time, each from its own stream in chunks of
    _CHUNK repetitions, reading n_bin pixels of each uniform slit off the
    slit's rates: what the blocked sweep must reproduce exactly. With
    `table`, each cell draws its (C, S) from a Skellam table of its rates,
    then normals of sd sigma sqrt(2); otherwise it draws the N frames."""
    fld = SCENE.field()
    # the first pixel of each slit, taken from the full field
    slit_values = fld.values[SCENE.layout.slit_pixels(SCENE.grid)][:, :1]
    results = []
    for index, (illum, sigma, n_bin) in enumerate(grid.cells()):
        rates, ref = frame_rates(slit_values, psi.reference_for(fld),
                                 psi.n_steps, illum, slit_values)
        c0, mu = c0_analytic(ref, psi.n_steps), float(np.angle(ref))
        rng = rng_stream(seed, index)
        fids = np.empty(grid.repetitions)
        for start in range(0, grid.repetitions, experiments._CHUNK):
            m = min(experiments._CHUNK, grid.repetitions - start)
            if table:
                shape = (m, 2, SCENE.layout.d, n_bin)
                sums = SkellamTable(rates[:, :, 0]).draw(rng.random(shape))
                if sigma > 0:
                    sums += rng.normal(0.0, sigma * np.sqrt(2.0), size=shape)
                phase = np.arctan2(sums[:, 1], sums[:, 0] - c0) + mu
            else:
                noisy = sample_noise(np.repeat(rates[None], m, axis=0)
                                     .repeat(n_bin, axis=-1), sigma, rng)
                phase = unwrapped_phase(noisy, c0, mu)
            fids[start:start + m] = sample_fidelity(SCENE.state, phase)
        std = float(fids.std(ddof=1)) if fids.size > 1 else 0.0
        results.append(CellResult(illum, sigma, n_bin, FidelityStats(
            float(fids.mean()), std, std / float(np.sqrt(fids.size)),
            fids.size)))
    return results


SIGMAS_20 = tuple(0.15 * k for k in range(1, 21))


@pytest.mark.parametrize("illums, sigmas, n_bins, reps, table", [
    # blocks of 10 cells, 1 920 pixel draws per illumination: frames
    pytest.param((1.7, 3.0), SIGMAS_20, (1,), 16, False,
                 id="sigmas0-n_bins0-16"),
    # one cell per block, two chunks; the tables from here on
    pytest.param((1.7, 3.0), (0.2, 0.5, 3.0), (1, 4), 300, True,
                 id="sigmas1-n_bins1-300"),
    pytest.param((1.7, 3.0), SIGMAS_20, (1, 2), 128, True, id="blocks-of-2"),
    pytest.param((1.7, 3.0), (0.0, 1.0), (1, 8), 300, True, id="sigma-0"),
    # an illumination listed twice shares its table and its blocks
    pytest.param((1.7, 3.0, 1.7), (0.2, 0.5, 3.0), (1, 4), 300, True,
                 id="repeated-illumination"),
])
def test_sweep_blocks_equal_the_per_cell_sweep(illums, sigmas, n_bins, reps,
                                               table, block_threads):
    grid = SweepGrid(illuminations=illums, sigmas=sigmas, n_bins=n_bins,
                     repetitions=reps)
    assert (fidelity_sweep(SCENE, grid, seed=5, jobs=2)
            == _per_cell_sweep(grid, 5, table))
    assert len(set(block_threads)) == 2


def test_sweep_block_rows_stay_within_one_chunk(monkeypatch):
    rows, tabled = [], []
    skellam_sums = experiments._skellam_sums

    def scoring(target, phase):
        rows.append(phase.shape[:2])
        return sample_fidelity(target, phase)

    def table_sums(table, shape, *args):
        tabled.append(shape[0])
        return skellam_sums(table, shape, *args)

    monkeypatch.setattr(experiments, "sample_fidelity", scoring)
    monkeypatch.setattr(experiments, "_skellam_sums", table_sums)
    for reps in (16, 100, 300):
        grid = SweepGrid(illuminations=(3.0,), sigmas=SIGMAS_20, n_bins=(1,),
                         repetitions=reps)
        fidelity_sweep(SCENE, grid, seed=1)
    # 20 cells split evenly into blocks of at most 256 // 16 = 16, then of
    # 256 // 100 = 2; at 300 repetitions each cell is its own block, and only
    # there (36 000 pixel draws) are its (C, S) drawn from the tables
    assert rows == ([(10, 16)] * 2 + [(2, 100)] * 10
                    + [(1, 256), (1, 44)] * 20)
    assert tabled == [256, 44] * 20


def test_skellam_sums_have_the_moments_of_the_frame_sums():
    # C = I_0 - I_2 and S = I_1 - I_3 of noisy frames: mean rate difference,
    # variance rate sum + 2 sigma^2
    sigma, n = 1.5, 40000
    slit_values = SCENE.slit_values()
    rates = frame_rates(slit_values, np.mean(SCENE.field().values), 4, 3.0,
                        slit_values)[0][..., 0]
    sums = experiments._skellam_sums(SkellamTable(rates), (n, 2, 6, 1), sigma,
                                     rng_stream(8))[..., 0]
    for half, (a, b) in enumerate(((0, 2), (1, 3))):
        var = rates[a] + rates[b] + 2 * sigma ** 2
        mean_se, var_se = np.sqrt(var / n), var * np.sqrt(2 / (n - 1))
        assert np.all(abs(sums[:, half].mean(axis=0) - (rates[a] - rates[b]))
                      < 4 * mean_se)
        assert np.all(abs(sums[:, half].var(axis=0, ddof=1) - var) < 4 * var_se)


@pytest.fixture
def table_builds(monkeypatch):
    """Rates (4, d) of every Skellam table the sweep builds."""
    built = []

    def counting(rates):
        built.append(rates)
        return SkellamTable(rates)

    monkeypatch.setattr(experiments, "SkellamTable", counting)
    return built


# 128 x 2 x 6 x 15 = 23 040 pixel draws per illumination
TABLE_GRID = dict(sigmas=(0.5, 1.0), n_bins=(1, 2, 4, 8), repetitions=128)


@pytest.mark.parametrize("illum, reps, quantize, n_steps, tabled", [
    pytest.param(3.0, 128, False, 4, True, id="table"),
    pytest.param(3.0, 64, False, 4, False, id="few-draws"),
    pytest.param(3.0, 128, True, 4, False, id="quantize"),
    pytest.param(3.0, 128, False, 5, False, id="n_steps-5"),
    # rates up to 7.9 x 200 photons, past the table's cap
    pytest.param(200.0, 128, False, 4, False, id="rate-cap"),
])
def test_sweep_takes_the_tables_only_where_they_pay(
        illum, reps, quantize, n_steps, tabled, noise_draws, table_builds):
    grid = SweepGrid(illuminations=(illum,),
                     **dict(TABLE_GRID, repetitions=reps))
    fidelity_sweep(SCENE, grid, seed=2, quantize=quantize,
                   psi=PsiConfig(n_steps=n_steps))
    assert len(table_builds) == int(tabled)
    assert (len(noise_draws) == 0) == tabled


@pytest.mark.parametrize("jobs, illums", [
    *(pytest.param(jobs, (1.7, 3.0, 11.3), id=str(jobs)) for jobs in (1, 2, 8)),
    *(pytest.param(jobs, (1.7, 3.0, 1.7), id=f"{jobs}-repeated-illumination")
      for jobs in (1, 2, 8))])
def test_sweep_builds_one_table_per_illumination(jobs, illums, table_builds,
                                                 block_threads):
    # the blocks share the tables, built before any block runs, while the
    # interpreter switches threads as often as it can; an illumination
    # listed twice is prepared once
    grid = SweepGrid(illuminations=illums, **TABLE_GRID)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fidelity_sweep(SCENE, grid, seed=2, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    assert len(table_builds) == len(set(illums))
    assert (len(set(block_threads)) > 1) == (jobs > 1)


def test_sweep_builds_no_table_for_a_block_that_fails_its_checks(
        table_builds):
    grid = SweepGrid(illuminations=(3.0,), **dict(TABLE_GRID, n_bins=(500,)))
    with pytest.raises(SamplingError):
        fidelity_sweep(SCENE, grid)
    with pytest.raises(DomainError, match=r"^Poisson rates must be in"):
        fidelity_sweep(SCENE, replace(grid, n_bins=(1,)),
                       psi=PsiConfig(reference_override=1e9))
    assert table_builds == []


def test_sweep_jobs_independent_when_blocks_split_unevenly(block_threads):
    # 8 blocks of 10 cells on 3 threads
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=SIGMAS_20, n_bins=(1, 2),
                     repetitions=16)
    serial = fidelity_sweep(SCENE, grid, seed=6, jobs=1)
    block_threads.clear()
    assert fidelity_sweep(SCENE, grid, seed=6, jobs=3) == serial
    assert len(set(block_threads)) > 1


def test_sweep_deterministic_and_jobs_independent(block_threads):
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=(0.2, 3.0),
                     n_bins=(1, 2), repetitions=50)
    a = fidelity_sweep(SCENE, grid, seed=9, jobs=1)
    b = fidelity_sweep(SCENE, grid, seed=9, jobs=1)
    block_threads.clear()
    c = fidelity_sweep(SCENE, grid, seed=9, jobs=4)
    assert a == b == c
    assert len(set(block_threads)) > 1


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_sweep_raises_the_first_failing_blocks_error(jobs, block_threads):
    # blocks in submission order: (1, 1) would run, (1, 500) reads more
    # pixels than a slit has, (3, 1) and (3, 500) fail the Poisson range
    # check; all of it is checked before any block runs
    grid = SweepGrid(illuminations=(1.0, 3.0), sigmas=(0.2,), n_bins=(1, 500),
                     repetitions=5)
    with pytest.raises(SamplingError) as swept:
        fidelity_sweep(SCENE, grid, seed=4, jobs=jobs,
                       psi=PsiConfig(reference_override=1e9))
    assert str(swept.value) == "n_bin = 500 exceeds the 100 pixels per slit"
    assert block_threads == []


def test_sweep_checks_n_bin_after_the_poisson_range():
    # one block, failing both checks: the Poisson range is checked first
    grid = SweepGrid(illuminations=(3.0,), sigmas=(0.2,), n_bins=(500,),
                     repetitions=5)
    with pytest.raises(DomainError, match=r"^Poisson rates must be in"):
        fidelity_sweep(SCENE, grid, psi=PsiConfig(reference_override=1e9))


def test_sweep_rejects_fewer_than_one_job():
    grid = SweepGrid(illuminations=(3.0,), sigmas=(0.2,), n_bins=(1,),
                     repetitions=1)
    for jobs in (0, -3):
        with pytest.raises(DomainError):
            fidelity_sweep(SCENE, grid, jobs=jobs)
        with pytest.raises(DomainError):
            sweep_threads(SCENE, grid, jobs)


MAP_PREVIEW = SweepGrid(
    illuminations=tuple(float(x) for x in np.geomspace(1.0, 20.0, 20)),
    sigmas=tuple(float(x) for x in np.linspace(0.1, 3.0, 20)), n_bins=(1,),
    repetitions=16)


@pytest.mark.parametrize("grid, blocks, threads", [
    # 38 400 pixel reads in 40 blocks
    pytest.param(MAP_PREVIEW, 40, {2: 1, 8: 1}, id="map-preview"),
    # 138 240 reads in 24 blocks
    pytest.param(SweepGrid(repetitions=128), 24, {2: 1, 8: 1}, id="default-128"),
    # 2 160 000 reads in 48 blocks
    pytest.param(SweepGrid(), 48, {2: 2, 3: 3, 64: 16}, id="default-2000"),
    # 4 800 000 reads in 2 blocks
    pytest.param(SweepGrid(illuminations=(3.0,), sigmas=(0.2, 0.5),
                           n_bins=(4,), repetitions=100000), 2,
                 {2: 2, 8: 2}, id="two-blocks"),
])
def test_sweep_threads_follow_the_reads_up_to_jobs_and_blocks(grid, blocks,
                                                              threads):
    assert len(grid._blocks) == blocks
    assert {jobs: sweep_threads(SCENE, grid, jobs) for jobs in threads} == threads
    assert sweep_threads(SCENE, grid, 1) == 1


def test_sweep_runs_its_blocks_inline_on_one_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a worker thread was created")

    callers = []
    run_block = experiments._run_block

    def recording(*args, **kwargs):
        callers.append(threading.get_ident())
        return run_block(*args, **kwargs)

    monkeypatch.setattr(experiments.threading, "Thread", no_thread)
    monkeypatch.setattr(experiments, "_run_block", recording)
    assert len(fidelity_sweep(SCENE, MAP_PREVIEW, seed=1, jobs=2)) == 400
    assert set(callers) == {threading.get_ident()} and len(callers) == 40


def test_sweep_threads_under_fast_switching_match_serial(block_threads):
    # 8 threads on a small grid, with the interpreter switching threads as
    # often as it can: cells must not interfere through shared state.
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=(0.2, 3.0),
                     n_bins=(1, 4), repetitions=300)
    serial = fidelity_sweep(SCENE, grid, seed=5, jobs=1)
    block_threads.clear()
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
    assert len(set(block_threads)) > 1


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
def test_uncaught_cell_error_cancels_queued_cells(monkeypatch, exc_type, jobs):
    started, idents = [], set()

    def block(indices, *args, **kwargs):
        started.append(indices[0])
        idents.add(threading.get_ident())
        # the block of cell 0 fails after the other workers took up a block
        time.sleep(0.05 if indices[0] == 0 else 0.2)
        if indices[0] == 0:
            raise exc_type("stop")

    monkeypatch.setattr(experiments, "READS_PER_THREAD", 1)
    monkeypatch.setattr(experiments, "_run_block", block)
    grid = SweepGrid(illuminations=(1.0, 2.0, 3.0, 4.0), sigmas=(0.2, 0.5),
                     n_bins=(1, 2), repetitions=1)
    with pytest.raises(exc_type):
        fidelity_sweep(SCENE, grid, jobs=jobs)
    assert len(idents) == jobs
    # of the 8 blocks (one per illumination and n_bin): inline, the block of
    # cell 0 alone; on threads, also the blocks running beside it and at
    # most one block that its worker took up before the cancel, and none of
    # those queued after them
    if jobs == 1:
        assert started == [0]
    else:
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
    stats = phase_error_stats(a, b, np.ones(a.shape, dtype=bool))
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
        spread = phase_error_stats(wrap(phase + offset), phase,
                                   np.ones(phase.shape, dtype=bool)).circ_std
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


SMALL_LENS = LensScene(grid=GridSpec(32, 32))


def continuous_outputs(ref, cases):
    """Every number of a continuous study, comparable with ==."""
    return ref.tobytes(), [(c.illumination, c.sigma, c.phase_map.tobytes(),
                            c.stats.counts.tolist(), c.stats.circ_std,
                            c.stats.n_pixels) for c in cases]


@pytest.mark.parametrize("quantize", [False, True])
def test_continuous_results_do_not_depend_on_jobs(run_threads, quantize):
    outputs = {}
    for jobs in (1, 2, 3):
        run_threads.clear()
        outputs[jobs] = continuous_outputs(*continuous_experiment(
            SMALL_LENS, (1.7, 3.0), sigmas=(3.0, 0.2), seed=11,
            quantize=quantize, jobs=jobs))
        assert len(run_threads) == 5
        assert (len(set(run_threads)) > 1) == (jobs > 1)
    assert outputs[1] == outputs[2] == outputs[3]


def test_continuous_threads_under_fast_switching_match_serial(run_threads):
    # 7 runs on 7 threads, with the interpreter switching threads as often
    # as it can: runs must not interfere through shared state
    serial = continuous_outputs(*continuous_experiment(
        SMALL_LENS, (1.7, 3.0, 11.3), seed=5))
    run_threads.clear()
    threaded = []
    study = threading.Thread(target=lambda: threaded.append(continuous_outputs(
        *continuous_experiment(SMALL_LENS, (1.7, 3.0, 11.3), seed=5, jobs=8))),
        daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        study.start()
        study.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not study.is_alive()
    assert threaded == [serial]
    assert len(set(run_threads)) > 1


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_continuous_raises_the_first_failing_runs_error(monkeypatch, jobs):
    # runs 2 and 4 fail, run 4 first: the error raised is run 2's, and no
    # run after the failures starts
    monkeypatch.setattr(experiments, "READS_PER_THREAD", 1)
    started = []

    def run(stream, *args, **kwargs):
        started.append(stream)
        time.sleep({2: 0.2, 4: 0.0}.get(stream, 0.05))
        if stream in (2, 4):
            raise DomainError(f"run {stream}")
        return np.zeros(SMALL_LENS.grid.shape)

    monkeypatch.setattr(experiments, "_continuous_run", run)
    with pytest.raises(DomainError, match=r"^run 2$"):
        continuous_experiment(SMALL_LENS, (1.0, 2.0, 3.0), sigmas=(0.2, 0.5),
                              jobs=jobs)
    assert 6 not in started and len(started) <= 3 + jobs


def test_continuous_runs_inline_on_one_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a worker thread was created")

    monkeypatch.setattr(experiments.threading, "Thread", no_thread)
    _, cases = continuous_experiment(SMALL_LENS, (1.7, 3.0, 11.3), jobs=2)
    assert len(cases) == 6


@pytest.mark.parametrize("scene, threads", [
    # 7 runs x 4 frames x 16 384 pixels = 458 752 frame values
    pytest.param(LensScene(), {1: 1, 2: 2, 3: 3, 64: 3}, id="default-lens"),
    # 7 x 4 x 1 024 = 28 672
    pytest.param(SMALL_LENS, {1: 1, 2: 1, 64: 1}, id="32x32-lens"),
    # 7 x 4 x 1 048 576: at most one thread per run
    pytest.param(LensScene(grid=GridSpec(1024, 1024)), {2: 2, 64: 7},
                 id="1024x1024-lens")])
def test_continuous_threads_follow_the_frame_values_up_to_jobs_and_runs(
        scene, threads):
    assert {jobs: continuous_threads(scene, (1.7, 3.0, 11.3), (3.0, 0.2), jobs)
            for jobs in threads} == threads
    # N = 3 steps: 7 x 3 x 16 384 = 344 064 frame values
    assert continuous_threads(LensScene(), (1.7, 3.0, 11.3), (3.0, 0.2), 8,
                              psi=PsiConfig(n_steps=3)) == 2


def test_continuous_rejects_fewer_than_one_job():
    for jobs in (0, -3):
        with pytest.raises(DomainError):
            continuous_experiment(SMALL_LENS, (3.0,), jobs=jobs)
        with pytest.raises(DomainError):
            continuous_threads(SMALL_LENS, (3.0,), (0.2,), jobs)


def test_binning_improves_fidelity_low_flux():
    # more binned pixels, higher fidelity at 1.7 phot/px
    grid = SweepGrid(illuminations=(1.7,), sigmas=(0.2,), n_bins=(1, 2, 4, 8),
                     repetitions=400)
    cells = fidelity_sweep(SCENE, grid, seed=13)
    means = [c.stats.mean for c in cells]
    errs = [c.stats.stderr for c in cells]
    for (m0, e0), (m1, e1) in zip(zip(means, errs), zip(means[1:], errs[1:])):
        assert m1 >= m0 - 2 * np.hypot(e0, e1)
