import itertools
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from pdisim import (BinningPolicy, DomainError, LensScene, PsiConfig,
                    QuditScene, SamplingError, SweepGrid, c0_analytic,
                    circ_std, continuous_experiment, continuous_threads,
                    extract_phase, extract_state, fidelity, fidelity_sweep,
                    phase_error_stats, rng_stream, sample_noise,
                    simulate_interferograms, sweep_threads, wrap)
from pdisim import experiments
from pdisim.field import GridSpec
from pdisim.forward import frame_rates
from pdisim.model import SkellamTable
from pdisim.qudit import sample_fidelity
from pdisim.reconstruct import harmonic_sums, unit_phasors
from pdisim.sensor import MAX_POISSON_RATE, photon_counts, read_out

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
    st = fidelity_sweep(SCENE, grid, seed=4)
    assert st.n_runs == 100
    assert st.mean.shape == st.std.shape == st.stderr.shape == (1,)
    assert st.stderr[0] == pytest.approx(st.std[0] / 10.0)
    assert 0.0 <= st.mean[0] <= 1.0


@pytest.mark.parametrize("n_bin, quantize, illum, n_steps", [
    pytest.param(1, False, 3.0, 4, id="1"),
    pytest.param(4, False, 3.0, 4, id="4"),
    pytest.param(8, False, 3.0, 4, id="8"),
    pytest.param(8, True, 3.0, 4, id="8-quantize"),
    pytest.param(1, False, 11.3, 4, id="1-illumination-11.3"),
    pytest.param(4, False, 3.0, 5, id="4-n_steps-5")])
def test_sweep_fast_path_matches_modular_pipeline(n_bin, quantize, illum,
                                                  n_steps):
    # the full-grid chain with rng.choice pixel picks: n_bin > 1 checks that
    # reading the slit rates stands for reading n_bin distinct pixels. Every
    # grid takes the Skellam tables where it can (N = 4, not quantized)
    sigma = 0.5
    reps = 400
    psi = PsiConfig(n_steps=n_steps)
    grid = SweepGrid(illuminations=(illum,), sigmas=(sigma,), n_bins=(n_bin,),
                     repetitions=reps)
    stats = fidelity_sweep(SCENE, grid, seed=21, quantize=quantize, psi=psi)

    clean = simulate_interferograms(SCENE.field(), psi, illum,
                                    region=SCENE.region())
    fids = np.empty(reps)
    for r in range(reps):
        noisy = replace(clean, frames=sample_noise(
            clean.frames, sigma, rng_stream(5000, r), quantize=quantize))
        state = extract_state(extract_phase(noisy), SCENE.layout,
                              BinningPolicy(n_bin), rng_stream(6000, r))
        fids[r] = fidelity(SCENE.state, state)
    se = np.hypot(stats.stderr[0], fids.std(ddof=1) / np.sqrt(reps))
    assert abs(stats.mean[0] - fids.mean()) < 4 * se


@pytest.fixture
def count_draws(monkeypatch):
    """Sizes of the rate arrays the sweep passes to photon_counts."""
    drawn = []

    def counting(frames, rng):
        drawn.append(frames.size)
        return photon_counts(frames, rng)

    monkeypatch.setattr(experiments, "photon_counts", counting)
    return drawn


def test_sweep_draws_noise_for_the_read_pixels_only(count_draws):
    # the counts of the 4 reads per slit of the largest n_bin, once for
    # both sigmas and both n_bins, in two chunks of at most 2048 // 8 = 256
    reps, psi = 259, PsiConfig(n_steps=5)
    grid = SweepGrid(illuminations=(3.0,), sigmas=(0.5, 1.0), n_bins=(1, 4),
                     repetitions=reps)
    assert fidelity_sweep(SCENE, grid, seed=3, psi=psi).mean.size == 4
    assert sum(count_draws) == reps * psi.n_steps * SCENE.layout.d * 4
    assert len(count_draws) == 2 * 4


@pytest.mark.parametrize("seed", [0, 8])
def test_sweep_poisson_range_error_raises_before_any_draw(seed, count_draws):
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
    # checked for every illumination before any task runs: not even the
    # task of illumination 1, which passes, draws
    assert len(count_draws) == 0


def _stream(seed, key):
    """The generator of the stream key `key` (a tuple of words) at `seed`,
    straight from numpy's SeedSequence."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=key)))


def _per_cell_sweep(grid, seed, psi=PsiConfig(), quantize=False):
    """The per-run fidelities (cells, repetitions) of the sweep run one cell
    at a time, all its repetitions in one draw per stream, reading n_bin
    pixels of each uniform slit off the slit's rates: what the sweep must
    reproduce exactly. Read j of the cell at illumination index i (the
    first grid index of its illumination) and sigma index k draws its
    counts from stream (i, 0, j) and its readout noise from stream
    (i, 1 + k, j). At N = 4, not quantized and with rates within
    _TABLE_MAX_RATE, the counts are (C, S) from a Skellam table of the
    cell's own rates, built alone, and the noise normals of sd sigma
    sqrt(2); otherwise the counts are Poisson frames, read out by read_out,
    and (C, S) the harmonic sums of the n_bin reads' frames. Each read
    pixel is scored as a unit phasor."""
    fld = SCENE.field()
    # the first pixel of each slit, taken from the full field
    slit_values = fld.values[SCENE.layout.slit_pixels(SCENE.grid)][:, :1]
    shape = (grid.repetitions, 2, SCENE.layout.d, 1)
    results = []
    for illum, k, n_bin in itertools.product(
            grid.illuminations, range(len(grid.sigmas)), grid.n_bins):
        i, sigma = grid.illuminations.index(illum), grid.sigmas[k]
        rates, ref = frame_rates(slit_values, psi.reference_for(fld),
                                 psi.n_steps, illum, slit_values)
        c0, mu = c0_analytic(ref, psi.n_steps), float(np.angle(ref))
        table = (psi.n_steps == 4 and not quantize
                 and rates.max() <= experiments._TABLE_MAX_RATE)
        reads = []
        for j in range(n_bin):
            counts = _stream(seed, (i, 0, j))
            noise = _stream(seed, (i, 1 + k, j))
            if table:
                sums = SkellamTable(rates[:, :, 0]).draw(counts.random(shape))
                if sigma > 0:
                    sums += noise.normal(0.0, sigma * np.sqrt(2.0), size=shape)
                reads.append(sums)
            else:
                reads.append(read_out(photon_counts(
                    np.repeat(rates[None], grid.repetitions, axis=0), counts),
                    sigma, noise, quantize))
        if table:
            sums = np.concatenate(reads, axis=-1)
            c, s = sums[:, 0], sums[:, 1]
        else:
            c, s = harmonic_sums(np.concatenate(reads, axis=-1))
        results.append(sample_fidelity(SCENE.state,
                                       unit_phasors(c, s, c0, mu)))
    return np.array(results)


def columns(stats):
    """Every number of a sweep's statistics columns, comparable with ==."""
    return (stats.mean.tolist(), stats.std.tolist(), stats.stderr.tolist(),
            stats.n_runs)


def cell_columns(fids):
    """columns() of the mean, sample std (0 for one run) and standard error
    of each cell's per-run fidelities, a row of `fids`, taken over that row
    alone."""
    n_runs = fids.shape[1]
    means = [float(row.mean()) for row in fids]
    stds = [float(row.std(ddof=1)) if n_runs > 1 else 0.0 for row in fids]
    return means, stds, [std / float(np.sqrt(n_runs)) for std in stds], n_runs


SIGMAS_20 = tuple(0.15 * k for k in range(1, 21))

#: 8 of the 20 illuminations of a 20 x 20 map, 1 to 20 phot/px
MAP_ILLUMINATIONS_8 = tuple(float(x) for x in np.geomspace(1.0, 20.0, 8))


@pytest.mark.parametrize("illums, sigmas, n_bins, reps, n_steps, quantize", [
    # 40 cells per illumination, on the tables and, at N = 5, on the frames
    pytest.param((1.7, 3.0), SIGMAS_20, (1, 2), 16, 4, False,
                 id="sigmas0-n_bins0-16"),
    pytest.param((1.7, 3.0), SIGMAS_20, (1, 2), 16, 5, False,
                 id="sigmas0-n_bins0-16-n_steps-5"),
    # map-like: 160 cells, 20 per illumination
    pytest.param(MAP_ILLUMINATIONS_8, SIGMAS_20, (1,), 16, 4, False,
                 id="map-like-16"),
    # 400 phot/px has rates up to 3 159, past _TABLE_MAX_RATE, so it draws
    # frames, beside the tabled illuminations 1.7 and 3.0
    pytest.param((1.7, 3.0, 400.0), (0.2, 0.5, 3.0), (1, 4), 16, 4, False,
                 id="mixed-path-16"),
    pytest.param((1.7, 3.0), SIGMAS_20, (1, 2), 16, 4, True,
                 id="quantize-16"),
    # chunks of 2048 // (3 x 4) = 170 repetitions: two
    pytest.param((1.7, 3.0), (0.2, 0.5, 3.0), (1, 4), 300, 4, False,
                 id="sigmas1-n_bins1-300"),
    # chunks of 2048 // (20 x 2) = 51 repetitions: three
    pytest.param((1.7, 3.0), SIGMAS_20, (1, 2), 128, 4, False,
                 id="blocks-of-2"),
    pytest.param((1.7, 3.0), (0.0, 1.0), (1, 8), 300, 4, False, id="sigma-0"),
    # a single repetition: every std is 0
    pytest.param((1.7, 3.0), (0.2, 3.0), (1, 2), 1, 4, False,
                 id="one-repetition"),
    # an illumination listed twice is one exposure, of its first index
    pytest.param((1.7, 3.0, 1.7), (0.2, 0.5, 3.0), (1, 4), 300, 4, False,
                 id="repeated-illumination"),
])
def test_sweep_blocks_equal_the_per_cell_sweep(illums, sigmas, n_bins, reps,
                                               n_steps, quantize,
                                               task_threads):
    grid = SweepGrid(illuminations=illums, sigmas=sigmas, n_bins=n_bins,
                     repetitions=reps)
    psi = PsiConfig(n_steps=n_steps)
    stats = fidelity_sweep(SCENE, grid, seed=5, jobs=2, psi=psi,
                           quantize=quantize)
    assert columns(stats) == cell_columns(_per_cell_sweep(grid, 5, psi, quantize))
    if reps == 1:
        assert not stats.std.any() and not stats.stderr.any()
    assert len(set(task_threads)) == 2


def test_sweep_cell_does_not_depend_on_the_rest_of_its_grid():
    # cell 0 alone, and as the first of 20 sigmas x 4 n_bins: the same
    # stream (seed, 0) and the same draw path give the same numbers
    alone = SweepGrid(illuminations=(3.0,), sigmas=(0.5,), n_bins=(1,),
                      repetitions=64)
    wide = replace(alone, sigmas=(0.5,) + SIGMAS_20[1:], n_bins=(1, 2, 4, 8))
    cell = columns(fidelity_sweep(SCENE, alone, seed=3))
    first = columns(fidelity_sweep(SCENE, wide, seed=3))
    assert [column[:1] for column in first[:3]] == list(cell[:3])


@pytest.mark.parametrize("n_steps", [4, 3])
def test_sweep_chunks_stay_within_the_block_reads(monkeypatch, n_steps):
    shapes = []

    def scoring(target, phasors):
        shapes.append(phasors.shape)
        return sample_fidelity(target, phasors)

    monkeypatch.setattr(experiments, "sample_fidelity", scoring)
    psi = PsiConfig(n_steps=n_steps)
    for sigmas, n_bins, reps, chunks in (
            # 2048 // 20 = 102 repetitions per chunk
            (SIGMAS_20, (1,), 16, [16]),
            (SIGMAS_20, (1,), 250, [102, 102, 46]),
            # the default grid: 2048 // (4 x 8) = 64
            ((3.0, 1.0, 0.5, 0.2), (1, 2, 4, 8), 130, [64, 64, 2]),
            # 20 x 100 reads per slit in one repetition, and 21 x 100 past
            # the bound: still one repetition per chunk
            (SIGMAS_20, (100, 1), 2, [1, 1]),
            (SIGMAS_20 + (0.5,), (100,), 2, [1, 1])):
        shapes.clear()
        grid = SweepGrid(illuminations=(3.0,), sigmas=sigmas, n_bins=n_bins,
                         repetitions=reps)
        fidelity_sweep(SCENE, grid, seed=1, psi=psi)
        # each chunk scores the cell at n_bin b on the first b reads of the
        # chunk's reads, at every sigma
        assert shapes == [(len(sigmas), m, SCENE.layout.d, n_bin)
                          for m in chunks for n_bin in n_bins]
        assert all(len(sigmas) * m * max(n_bins) <= experiments._BLOCK_READS
                   for m in chunks if m > 1)


@pytest.mark.parametrize("n_steps", [4, 3])
def test_sweep_columns_do_not_depend_on_the_chunk(monkeypatch, n_steps):
    # one chunk of 30 repetitions, then chunks of 7 (7 x 2 sigmas x 4 reads)
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=(0.2, 3.0),
                     n_bins=(1, 4), repetitions=30)
    psi = PsiConfig(n_steps=n_steps)
    whole = columns(fidelity_sweep(SCENE, grid, seed=8, psi=psi))
    monkeypatch.setattr(experiments, "_BLOCK_READS", 7 * 2 * 4)
    assert columns(fidelity_sweep(SCENE, grid, seed=8, psi=psi)) == whole


@pytest.mark.parametrize("n_steps", [4, 3])
def test_sweep_reads_one_exposure_at_every_sigma(n_steps):
    # without readout noise the two sigmas read the same counts: equal
    # columns; the two illuminations are two exposures
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=(0.0, 0.0),
                     n_bins=(1, 4), repetitions=50)
    stats = fidelity_sweep(SCENE, grid, seed=3, psi=PsiConfig(n_steps=n_steps))
    for column in columns(stats)[:3]:
        cells = np.reshape(column, (2, 2, 2))
        assert cells[:, 0].tolist() == cells[:, 1].tolist()
        assert cells[0].tolist() != cells[1].tolist()


def test_skellam_sums_have_the_moments_of_the_frame_sums():
    # C = I_0 - I_2 and S = I_1 - I_3 of noisy frames: mean rate difference,
    # variance rate sum + 2 sigma^2, for each read at each sigma; the two
    # sigmas read one exposure, so they differ by readout noise alone
    sigmas, n = (1.5, 0.0), 40000
    slit_values = SCENE.slit_values()
    rates = frame_rates(slit_values, np.mean(SCENE.field().values), 4, 3.0,
                        slit_values)[0][..., 0]
    sums = experiments._table_sums(
        SkellamTable(rates), 0, (n, 2, 6), sigmas,
        [rng_stream(8, 0), rng_stream(8, 1)],
        [[rng_stream(9, 0), rng_stream(9, 1)],
         [rng_stream(9, 2), rng_stream(9, 3)]])
    for (a, b), sum_ in zip(((0, 2), (1, 3)), sums):
        assert sum_.shape == (2, n, 6, 2)
        for sigma, cell in zip(sigmas, sum_):
            var = rates[a] + rates[b] + 2 * sigma ** 2
            mean_se, var_se = np.sqrt(var / n), var * np.sqrt(2 / (n - 1))
            for read in np.moveaxis(cell, -1, 0):
                assert np.all(abs(read.mean(axis=0) - (rates[a] - rates[b]))
                              < 4 * mean_se)
                assert np.all(abs(read.var(axis=0, ddof=1) - var) < 4 * var_se)
        # at sigma 0 the sums are the table's integer counts
        assert np.array_equal(sum_[1], np.round(sum_[1]))
        noise = sum_[0] - sum_[1]
        var = 2 * sigmas[0] ** 2
        assert np.all(abs(noise.mean(axis=0)) < 4 * np.sqrt(var / n))
        assert np.all(abs(noise.var(axis=0, ddof=1) - var)
                      < 4 * var * np.sqrt(2 / (n - 1)))


@pytest.mark.parametrize("shape", [(37, 2, 6, 3), (256, 2, 6, 8)])
@pytest.mark.parametrize("sigma", [3.0, 1.0, 0.5, 0.2])
def test_scaled_standard_normals_are_the_normals_bit_for_bit(sigma, shape):
    # a task draws each sigma's standard normals into its own arrays and
    # scales them by sigma sqrt(2) at once: the numbers of normal(0, sd)
    scale = sigma * np.sqrt(2.0)
    expected = rng_stream(7, 3).normal(0.0, scale, size=shape)
    noise = np.zeros((2,) + shape)
    rng_stream(7, 3).standard_normal(out=noise[1])
    assert np.array_equal(rng_stream(7, 3).standard_normal(shape) * scale,
                          expected)
    noise *= np.array([0.0, scale]).reshape(2, 1, 1, 1, 1)
    assert np.array_equal(noise[1], expected)


@pytest.fixture
def table_builds(monkeypatch):
    """Rates (tables, 4, d) of every SkellamTable the sweep builds."""
    built = []

    def counting(rates):
        built.append(rates)
        return SkellamTable(rates)

    monkeypatch.setattr(experiments, "SkellamTable", counting)
    return built


TABLE_GRID = dict(sigmas=(0.5, 1.0), n_bins=(1, 2, 4, 8), repetitions=128)


@pytest.mark.parametrize("illum, grid_size, quantize, n_steps, tabled", [
    pytest.param(3.0, {}, False, 4, True, id="table"),
    pytest.param(3.0, dict(repetitions=64), False, 4, True, id="few-draws"),
    pytest.param(3.0, dict(sigmas=(0.5,), n_bins=(1,), repetitions=1), False,
                 4, True, id="one-cell-one-repetition"),
    pytest.param(3.0, {}, True, 4, False, id="quantize"),
    pytest.param(3.0, {}, False, 5, False, id="n_steps-5"),
    # rates up to 7.9 x 200 photons, past the table's cap
    pytest.param(200.0, {}, False, 4, False, id="rate-cap"),
])
def test_sweep_takes_the_tables_at_n_steps_4_unquantized_within_the_cap(
        illum, grid_size, quantize, n_steps, tabled, count_draws,
        table_builds):
    grid = SweepGrid(illuminations=(illum,), **dict(TABLE_GRID, **grid_size))
    fidelity_sweep(SCENE, grid, seed=2, quantize=quantize,
                   psi=PsiConfig(n_steps=n_steps))
    assert len(table_builds) == int(tabled)
    assert (len(count_draws) == 0) == tabled


@pytest.mark.parametrize("jobs, illums", [
    *(pytest.param(jobs, (1.7, 3.0, 11.3), id=str(jobs)) for jobs in (1, 2, 8)),
    *(pytest.param(jobs, (1.7, 3.0, 1.7), id=f"{jobs}-repeated-illumination")
      for jobs in (1, 2, 8))])
def test_sweep_builds_one_table_per_illumination(jobs, illums, table_builds,
                                                 task_threads):
    # the tasks share the tables, all built in one pass before any task
    # runs, while the interpreter switches threads as often as it can; an
    # illumination listed twice is prepared once
    grid = SweepGrid(illuminations=illums, **TABLE_GRID)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fidelity_sweep(SCENE, grid, seed=2, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    (rates,) = table_builds
    assert len(rates) == len(set(illums))
    assert (len(set(task_threads)) > 1) == (jobs > 1)


def test_sweep_builds_no_table_for_a_block_that_fails_its_checks(
        table_builds):
    grid = SweepGrid(illuminations=(3.0,), **dict(TABLE_GRID, n_bins=(500,)))
    with pytest.raises(SamplingError):
        fidelity_sweep(SCENE, grid)
    with pytest.raises(DomainError, match=r"^Poisson rates must be in"):
        fidelity_sweep(SCENE, replace(grid, n_bins=(1,)),
                       psi=PsiConfig(reference_override=1e9))
    assert table_builds == []


def test_sweep_jobs_independent_when_blocks_split_unevenly(task_threads):
    # 3 illumination tasks on 2 threads
    grid = SweepGrid(illuminations=(1.7, 3.0, 11.3), sigmas=SIGMAS_20,
                     n_bins=(1, 2, 4, 8), repetitions=16)
    serial = columns(fidelity_sweep(SCENE, grid, seed=6, jobs=1))
    assert len(task_threads) == 3
    task_threads.clear()
    assert columns(fidelity_sweep(SCENE, grid, seed=6, jobs=2)) == serial
    assert len(set(task_threads)) == 2


def test_sweep_deterministic_and_jobs_independent(task_threads):
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=(0.2, 3.0),
                     n_bins=(1, 2), repetitions=50)
    a = columns(fidelity_sweep(SCENE, grid, seed=9, jobs=1))
    b = columns(fidelity_sweep(SCENE, grid, seed=9, jobs=1))
    task_threads.clear()
    c = columns(fidelity_sweep(SCENE, grid, seed=9, jobs=4))
    assert a == b == c
    assert len(set(task_threads)) > 1


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_sweep_raises_its_set_up_error_before_any_illumination_task(
        jobs, task_threads):
    # the set-up checks the n_bins first: n_bin 500 reads more pixels than
    # a slit has, so that is the error, though illumination 3 would fail
    # the Poisson range check after it; no illumination's task runs
    grid = SweepGrid(illuminations=(1.0, 3.0), sigmas=(0.2,), n_bins=(1, 500),
                     repetitions=5)
    with pytest.raises(SamplingError) as swept:
        fidelity_sweep(SCENE, grid, seed=4, jobs=jobs,
                       psi=PsiConfig(reference_override=1e9))
    assert str(swept.value) == "n_bin = 500 exceeds the 100 pixels per slit"
    assert task_threads == []


@pytest.mark.parametrize("reference, illums, n_bins, error, match", [
    # at reference 1e9, 3 phot/px is past numpy's Poisson limit and 1 phot/px
    # within it; n_bin 500 reads more pixels than a slit has
    pytest.param(1e9, (1.0, 3.0), (1, 500), SamplingError,
                 r"^n_bin = 500 exceeds the 100 pixels per slit$",
                 id="fine-then-past-the-limit"),
    pytest.param(1e9, (3.0, 1.0), (1, 500), SamplingError,
                 r"^n_bin = 500 exceeds", id="past-the-limit-then-fine"),
    # at reference 1e150, 1e-300 phot/px is fine, 1 phot/px past the limit
    # and the frames of 1e12 phot/px overflow the float range
    pytest.param(1e150, (1.0, 1e12), (1,), DomainError,
                 r"^frame rates at illumination 1e\+12 overflow",
                 id="past-the-limit-checked-after-overflow"),
    pytest.param(1e150, (1e12, 1.0), (1,), DomainError,
                 r"^frame rates at illumination 1e\+12 overflow",
                 id="overflow-then-past-the-limit"),
    pytest.param(1e150, (1e-300, 1e12), (1, 500), SamplingError,
                 r"^n_bin = 500 exceeds", id="fine-then-overflow"),
])
def test_sweep_checks_run_once_and_raise_the_first_error_in_grid_order(
        reference, illums, n_bins, error, match, task_threads):
    # each check runs once over all the illuminations, in a fixed order:
    # the n_bins, then the frames' float range (naming the first
    # illumination in grid order that overflows), then the Poisson range
    grid = SweepGrid(illuminations=illums, sigmas=(0.2,), n_bins=n_bins,
                     repetitions=5)
    with pytest.raises(error, match=match):
        fidelity_sweep(SCENE, grid, psi=PsiConfig(reference_override=reference))
    assert task_threads == []


def test_sweep_checks_n_bin_before_the_poisson_range():
    # one illumination, failing both checks: the n_bin is checked first
    grid = SweepGrid(illuminations=(3.0,), sigmas=(0.2,), n_bins=(500,),
                     repetitions=5)
    with pytest.raises(SamplingError, match=r"^n_bin = 500 exceeds"):
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


def test_prepared_illuminations_equal_one_frame_rates_call_each():
    # the map's illuminations and 0 phot/px, prepared in one pass
    psi = PsiConfig()
    grid = replace(MAP_PREVIEW, illuminations=MAP_PREVIEW.illuminations + (0.0,))
    lits, (rates, c0, mu, tables), table = experiments._prepare(
        SCENE, grid, psi, False)
    slits = SCENE.slit_values()
    reference = psi.reference_for(SCENE.field())
    batch, refs = frame_rates(slits, reference, 4, grid.illuminations, slits)
    assert lits.tolist() == tables.tolist() == list(range(21))
    for i, illum in enumerate(grid.illuminations):
        one, ref = frame_rates(slits, reference, 4, illum, slits)
        assert np.array_equal(batch[i], one) and np.array_equal(rates[i], one)
        assert refs[i] == ref and type(ref) is complex
        assert c0[i] == c0_analytic(ref, 4) and mu[i] == float(np.angle(ref))
    assert table.m.size == 21


@pytest.mark.parametrize("grid, tasks, threads", [
    # 38 400 pixel reads in 20 tasks, one per illumination
    pytest.param(MAP_PREVIEW, 20, {2: 1, 8: 1}, id="map-preview"),
    # 138 240 reads in 3 tasks
    pytest.param(SweepGrid(repetitions=128), 3, {2: 1, 8: 1}, id="default-128"),
    # 2 160 000 reads in 3 tasks
    pytest.param(SweepGrid(), 3, {2: 2, 3: 3, 64: 3}, id="default-2000"),
    # 9 600 000 reads in 2 tasks
    pytest.param(SweepGrid(illuminations=(3.0, 1.7), sigmas=(0.2, 0.5),
                           n_bins=(4,), repetitions=100000), 2,
                 {2: 2, 8: 2}, id="two-blocks"),
])
def test_sweep_threads_follow_the_reads_up_to_jobs_and_blocks(grid, tasks,
                                                              threads):
    assert len(set(grid.illuminations)) == tasks
    assert {jobs: sweep_threads(SCENE, grid, jobs) for jobs in threads} == threads
    assert sweep_threads(SCENE, grid, 1) == 1
    # an illumination listed twice is one task
    repeated = replace(grid, illuminations=grid.illuminations[:1] * 4)
    assert sweep_threads(SCENE, repeated, 64) == 1


def test_sweep_runs_its_blocks_inline_on_one_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a worker thread was created")

    callers = []
    run_illumination = experiments._run_illumination

    def recording(*args, **kwargs):
        callers.append(threading.get_ident())
        return run_illumination(*args, **kwargs)

    monkeypatch.setattr(experiments.threading, "Thread", no_thread)
    monkeypatch.setattr(experiments, "_run_illumination", recording)
    assert fidelity_sweep(SCENE, MAP_PREVIEW, seed=1, jobs=2).mean.size == 400
    assert set(callers) == {threading.get_ident()} and len(callers) == 20


def test_sweep_threads_under_fast_switching_match_serial(task_threads):
    # 8 threads on a small grid, with the interpreter switching threads as
    # often as it can: cells must not interfere through shared state.
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=(0.2, 3.0),
                     n_bins=(1, 4), repetitions=300)
    serial = columns(fidelity_sweep(SCENE, grid, seed=5, jobs=1))
    task_threads.clear()
    threaded = []
    sweep = threading.Thread(
        target=lambda: threaded.append(columns(
            fidelity_sweep(SCENE, grid, seed=5, jobs=8))),
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
    assert len(set(task_threads)) > 1


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
def test_uncaught_cell_error_cancels_queued_cells(monkeypatch, exc_type, jobs):
    started, idents = [], set()

    def task(rates, c0, mu, t, *args, **kwargs):
        started.append(int(t))
        idents.add(threading.get_ident())
        # the task of table 0 fails after the other workers took up a task
        time.sleep(0.05 if t == 0 else 0.2)
        if t == 0:
            raise exc_type("stop")

    monkeypatch.setattr(experiments, "READS_PER_THREAD", 1)
    monkeypatch.setattr(experiments, "_run_illumination", task)
    grid = SweepGrid(illuminations=(1.0, 2.0, 3.0, 4.0), sigmas=(0.2, 0.5),
                     n_bins=(1, 2), repetitions=5)
    with pytest.raises(exc_type):
        fidelity_sweep(SCENE, grid, jobs=jobs)
    assert len(idents) == jobs
    # of the 4 tasks (one per illumination, each with its own table):
    # inline, the task of illumination 1.0 alone; on threads, also the
    # tasks running beside it and at most one task that its worker took up
    # before the cancel, and none of those queued after them
    if jobs == 1:
        assert started == [0]
    else:
        assert started[0] == 0 and len(started) <= 1 + jobs


def test_fidelity_map_shape_and_corner():
    grid = SweepGrid(illuminations=(1.7, 3.0, 11.3), sigmas=(3.0, 0.5, 0.2),
                     n_bins=(1,), repetitions=300)
    stats = fidelity_sweep(SCENE, grid, seed=2)
    mean, stderr = stats.mean.reshape(3, 3), stats.stderr.reshape(3, 3)
    best = mean[-1, -1]  # highest illumination, lowest sigma
    margin = 2 * stderr
    assert np.all(best >= mean[-1, :] - margin[-1, :])
    assert np.all(best >= mean[:, -1] - margin[:, -1])


def test_fidelity_map_reproducible():
    grid = SweepGrid(illuminations=(3.0,), sigmas=(0.2,), n_bins=(1,),
                     repetitions=1)
    a = fidelity_sweep(SCENE, grid, seed=7)
    b = fidelity_sweep(SCENE, grid, seed=7)
    assert columns(a) == columns(b)


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
        # the reference's exposure and one per illumination
        assert len(run_threads) == 3
        assert (len(set(run_threads)) > 1) == (jobs > 1)
    assert outputs[1] == outputs[2] == outputs[3]


def test_continuous_threads_under_fast_switching_match_serial(run_threads):
    # 4 exposures on 4 threads, with the interpreter switching threads as
    # often as it can: exposures must not interfere through shared state
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
    # of 7 exposures, 2 and 4 fail, exposure 4 first: the error raised is
    # exposure 2's, and no exposure after the failures starts
    monkeypatch.setattr(experiments, "READS_PER_THREAD", 1)
    started = []

    def run(stream, illumination, sigmas, *args, **kwargs):
        started.append(stream)
        time.sleep({2: 0.2, 4: 0.0}.get(stream, 0.05))
        if stream in (2, 4):
            raise DomainError(f"exposure {stream}")
        return [np.zeros(SMALL_LENS.grid.shape)] * len(sigmas)

    monkeypatch.setattr(experiments, "_continuous_run", run)
    with pytest.raises(DomainError, match=r"^exposure 2$"):
        continuous_experiment(SMALL_LENS, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0),
                              sigmas=(0.2, 0.5), jobs=jobs)
    assert 6 not in started and len(started) <= 3 + jobs


def test_continuous_runs_inline_on_one_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a worker thread was created")

    monkeypatch.setattr(experiments.threading, "Thread", no_thread)
    _, cases = continuous_experiment(SMALL_LENS, (1.7, 3.0, 11.3), jobs=2)
    assert len(cases) == 6


@pytest.mark.parametrize("scene, threads", [
    # 7 reconstructions x 4 frames x 16 384 pixels = 458 752 frame values
    pytest.param(LensScene(), {1: 1, 2: 2, 3: 3, 64: 3}, id="default-lens"),
    # 7 x 4 x 1 024 = 28 672
    pytest.param(SMALL_LENS, {1: 1, 2: 1, 64: 1}, id="32x32-lens"),
    # 7 x 4 x 1 048 576: at most one thread per exposure, of 4
    pytest.param(LensScene(grid=GridSpec(1024, 1024)), {2: 2, 64: 4},
                 id="1024x1024-lens")])
def test_continuous_threads_follow_the_frame_values_up_to_jobs_and_runs(
        scene, threads):
    assert {jobs: continuous_threads(scene, (1.7, 3.0, 11.3), (3.0, 0.2), jobs)
            for jobs in threads} == threads
    # N = 3 steps: 7 x 3 x 16 384 = 344 064 frame values
    assert continuous_threads(LensScene(), (1.7, 3.0, 11.3), (3.0, 0.2), 8,
                              psi=PsiConfig(n_steps=3)) == 2


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("illuminations, sigmas", [
    pytest.param((), (3.0, 0.2), id="no-illuminations"),
    pytest.param((1.7, 3.0), (), id="no-sigmas"),
    *[pytest.param((1.7, 3.0), (0.2, sigma), id=f"sigma-{sigma}")
      for sigma in (-0.5, np.nan, np.inf)]])
def test_continuous_checks_its_inputs_before_any_exposure(
        run_threads, illuminations, sigmas, jobs):
    with pytest.raises(DomainError):
        continuous_experiment(SMALL_LENS, illuminations, sigmas=sigmas,
                              jobs=jobs)
    assert run_threads == []


def test_continuous_reference_is_one_read_of_stream_0():
    ref, _ = continuous_experiment(SMALL_LENS, (1.7, 3.0), seed=11)
    clean = simulate_interferograms(SMALL_LENS.field(), PsiConfig(), 500.0,
                                    region=SMALL_LENS.region())
    noisy = replace(clean, frames=sample_noise(clean.frames, 0.2,
                                               rng_stream(11, 0)))
    assert np.array_equal(ref, extract_phase(noisy).phase)


@pytest.mark.parametrize("quantize", [False, True])
def test_continuous_first_sigma_is_one_read_of_its_illuminations_stream(
        quantize):
    illuminations = (1.7, 3.0, 11.3)
    _, cases = continuous_experiment(SMALL_LENS, illuminations,
                                     sigmas=(0.5, 3.0), seed=4,
                                     quantize=quantize)
    for i, illum in enumerate(illuminations):
        clean = simulate_interferograms(SMALL_LENS.field(), PsiConfig(), illum,
                                        region=SMALL_LENS.region())
        noisy = replace(clean, frames=sample_noise(
            clean.frames, 0.5, rng_stream(4, 1 + i), quantize=quantize))
        case = cases[2 * i]
        assert (case.illumination, case.sigma) == (illum, 0.5)
        assert np.array_equal(case.phase_map, extract_phase(noisy).phase)


def test_continuous_noiseless_readouts_of_one_exposure_are_equal():
    _, cases = continuous_experiment(SMALL_LENS, (1.7, 3.0),
                                     sigmas=(0.0, 0.0), seed=2)
    for first, second in zip(cases[::2], cases[1::2]):
        assert np.array_equal(first.phase_map, second.phase_map)
    assert not np.array_equal(cases[0].phase_map, cases[2].phase_map)


def test_continuous_study_draws_one_exposure_per_illumination(monkeypatch):
    # the reference's and one per illumination: 4 Poisson draws, not 1 + 3 x 2
    drawn = []

    def counting(frames, rng):
        drawn.append(np.shape(frames))
        return photon_counts(frames, rng)

    monkeypatch.setattr(experiments, "photon_counts", counting)
    _, cases = continuous_experiment(LensScene(), (1.7, 3.0, 11.3))
    assert len(cases) == 6
    assert drawn == [(4, 128, 128)] * 4


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
    stats = fidelity_sweep(SCENE, grid, seed=13)
    means, errs = stats.mean.tolist(), stats.stderr.tolist()
    for (m0, e0), (m1, e1) in zip(zip(means, errs), zip(means[1:], errs[1:])):
        assert m1 >= m0 - 2 * np.hypot(e0, e1)
