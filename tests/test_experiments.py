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
from pdisim.sensor import MAX_POISSON_RATE, photon_counts

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
    assert fidelity_sweep(SCENE, grid, seed=3, psi=psi).mean.size == 1
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


def _per_cell_sweep(grid, seed, psi=PsiConfig(), quantize=False):
    """The per-run fidelities (cells, repetitions) of the sweep run one cell
    at a time, each from its own stream in chunks of _CHUNK repetitions,
    reading n_bin pixels of each uniform slit off the slit's rates: what the
    blocked sweep must reproduce exactly. At N = 4, not quantized and with
    rates within _TABLE_MAX_RATE, each cell draws its (C, S) from a Skellam
    table of its own rates, built alone, then normals of sd sigma sqrt(2);
    otherwise it draws the N frames, and takes their harmonic sums. Each
    read pixel is scored as a unit phasor."""
    fld = SCENE.field()
    # the first pixel of each slit, taken from the full field
    slit_values = fld.values[SCENE.layout.slit_pixels(SCENE.grid)][:, :1]
    results = []
    for index, (illum, sigma, n_bin) in enumerate(grid.cells()):
        rates, ref = frame_rates(slit_values, psi.reference_for(fld),
                                 psi.n_steps, illum, slit_values)
        c0, mu = c0_analytic(ref, psi.n_steps), float(np.angle(ref))
        table = (psi.n_steps == 4 and not quantize
                 and rates.max() <= experiments._TABLE_MAX_RATE)
        rng = rng_stream(seed, index)
        fids = np.empty(grid.repetitions)
        for start in range(0, grid.repetitions, experiments._CHUNK):
            m = min(experiments._CHUNK, grid.repetitions - start)
            if table:
                shape = (m, 2, SCENE.layout.d, n_bin)
                sums = SkellamTable(rates[:, :, 0]).draw(rng.random(shape))
                if sigma > 0:
                    sums += rng.normal(0.0, sigma * np.sqrt(2.0), size=shape)
                c, s = sums[:, 0], sums[:, 1]
            else:
                noisy = sample_noise(np.repeat(rates[None], m, axis=0)
                                     .repeat(n_bin, axis=-1), sigma, rng,
                                     quantize=quantize)
                c, s = harmonic_sums(noisy)
            fids[start:start + m] = sample_fidelity(
                SCENE.state, unit_phasors(c, s, c0, mu))
        results.append(fids)
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
    # a block of 40 cells over both illuminations per n_bin, on the tables
    # and, at N = 5, on the frames
    pytest.param((1.7, 3.0), SIGMAS_20, (1, 2), 16, 4, False,
                 id="sigmas0-n_bins0-16"),
    pytest.param((1.7, 3.0), SIGMAS_20, (1, 2), 16, 5, False,
                 id="sigmas0-n_bins0-16-n_steps-5"),
    # map-like: 160 cells in 2 blocks of 80, each over 4 illuminations
    pytest.param(MAP_ILLUMINATIONS_8, SIGMAS_20, (1,), 16, 4, False,
                 id="map-like-16"),
    # 400 phot/px has rates up to 3 159, past _TABLE_MAX_RATE, so its cells
    # draw frames, beside the tabled cells of 1.7 and 3.0 at the same n_bin
    pytest.param((1.7, 3.0, 400.0), (0.2, 0.5, 3.0), (1, 4), 16, 4, False,
                 id="mixed-path-16"),
    pytest.param((1.7, 3.0), SIGMAS_20, (1, 2), 16, 4, True,
                 id="quantize-16"),
    # one cell per block, two chunks
    pytest.param((1.7, 3.0), (0.2, 0.5, 3.0), (1, 4), 300, 4, False,
                 id="sigmas1-n_bins1-300"),
    pytest.param((1.7, 3.0), SIGMAS_20, (1, 2), 128, 4, False,
                 id="blocks-of-2"),
    pytest.param((1.7, 3.0), (0.0, 1.0), (1, 8), 300, 4, False, id="sigma-0"),
    # a single repetition: every std is 0
    pytest.param((1.7, 3.0), (0.2, 3.0), (1, 2), 1, 4, False,
                 id="one-repetition"),
    # an illumination listed twice shares its table and its blocks
    pytest.param((1.7, 3.0, 1.7), (0.2, 0.5, 3.0), (1, 4), 300, 4, False,
                 id="repeated-illumination"),
])
def test_sweep_blocks_equal_the_per_cell_sweep(illums, sigmas, n_bins, reps,
                                               n_steps, quantize,
                                               block_threads):
    grid = SweepGrid(illuminations=illums, sigmas=sigmas, n_bins=n_bins,
                     repetitions=reps)
    psi = PsiConfig(n_steps=n_steps)
    stats = fidelity_sweep(SCENE, grid, seed=5, jobs=2, psi=psi,
                           quantize=quantize)
    assert columns(stats) == cell_columns(_per_cell_sweep(grid, 5, psi, quantize))
    if reps == 1:
        assert not stats.std.any() and not stats.stderr.any()
    assert len(set(block_threads)) == 2


def test_sweep_cell_does_not_depend_on_the_rest_of_its_grid():
    # cell 0 alone, and as the first of 20 sigmas x 4 n_bins: the same
    # stream (seed, 0) and the same draw path give the same numbers
    alone = SweepGrid(illuminations=(3.0,), sigmas=(0.5,), n_bins=(1,),
                      repetitions=64)
    wide = replace(alone, sigmas=(0.5,) + SIGMAS_20[1:], n_bins=(1, 2, 4, 8))
    cell = columns(fidelity_sweep(SCENE, alone, seed=3))
    first = columns(fidelity_sweep(SCENE, wide, seed=3))
    assert [column[:1] for column in first[:3]] == list(cell[:3])


def test_sweep_block_rows_stay_within_one_chunk(monkeypatch):
    rows, tabled, draws = [], [], []
    skellam_sums, draw = experiments._skellam_sums, SkellamTable.draw

    def scoring(target, phasors):
        rows.append(phasors.shape[:2])
        return sample_fidelity(target, phasors)

    def table_sums(table, shape, sigmas, rngs, tables):
        tabled.append((len(rngs), shape[0]))
        return skellam_sums(table, shape, sigmas, rngs, tables)

    def table_draw(table, u, tables):
        draws.append(u.shape[:2])
        return draw(table, u, tables)

    monkeypatch.setattr(experiments, "sample_fidelity", scoring)
    monkeypatch.setattr(experiments, "_skellam_sums", table_sums)
    monkeypatch.setattr(SkellamTable, "draw", table_draw)
    for reps, n_bin in ((16, 1), (100, 1), (300, 1), (128, 2)):
        grid = SweepGrid(illuminations=(1.7, 3.0, 11.3), sigmas=SIGMAS_20,
                         n_bins=(n_bin,), repetitions=reps)
        fidelity_sweep(SCENE, grid, seed=1)
    # the 60 cells, over all three illuminations, split evenly into blocks
    # of at most 2048 // 16 = 128 cells (2048 reads per slit in a chunk),
    # then of 2048 // 100 = 20; at 300 repetitions each cell is its own
    # block, in two chunks; at 128 repetitions and n_bin 2 a block holds at
    # most 8 cells. Every block draws the (C, S) of all its cells in one
    # table draw per chunk
    expected = ([(60, 16)] + [(20, 100)] * 3 + [(1, 256), (1, 44)] * 60
                + [(7, 128), (8, 128)] * 4)
    assert rows == tabled == draws == expected
    assert all(cells * m * n_bin <= experiments._BLOCK_READS
               for (cells, m), n_bin in zip(expected, [1] * 124 + [2] * 8))


def test_skellam_sums_have_the_moments_of_the_frame_sums():
    # C = I_0 - I_2 and S = I_1 - I_3 of noisy frames: mean rate difference,
    # variance rate sum + 2 sigma^2, for each cell of a block
    sigmas, n = (1.5, 0.0), 40000
    slit_values = SCENE.slit_values()
    rates = frame_rates(slit_values, np.mean(SCENE.field().values), 4, 3.0,
                        slit_values)[0][..., 0]
    block = experiments._skellam_sums(SkellamTable(rates), (n, 2, 6, 1),
                                      sigmas, [rng_stream(8), rng_stream(9)])
    for (a, b), sums in zip(((0, 2), (1, 3)), block):
        assert sums.shape == (2, n, 6, 1)
        for sigma, cell in zip(sigmas, sums[..., 0]):
            var = rates[a] + rates[b] + 2 * sigma ** 2
            mean_se, var_se = np.sqrt(var / n), var * np.sqrt(2 / (n - 1))
            assert np.all(abs(cell.mean(axis=0) - (rates[a] - rates[b]))
                          < 4 * mean_se)
            assert np.all(abs(cell.var(axis=0, ddof=1) - var) < 4 * var_se)
        # at sigma 0 the sums are the table's integer counts
        assert np.array_equal(sums[1], np.round(sums[1]))


@pytest.mark.parametrize("shape", [(37, 2, 6, 3), (256, 2, 6, 8)])
@pytest.mark.parametrize("sigma", [3.0, 1.0, 0.5, 0.2])
def test_scaled_standard_normals_are_the_normals_bit_for_bit(sigma, shape):
    # a block draws each cell's standard normals into its own arrays and
    # scales them by sigma sqrt(2) at once: the numbers of normal(0, sd)
    scale = sigma * np.sqrt(2.0)
    expected = rng_stream(7, 3).normal(0.0, scale, size=shape)
    block = np.zeros((2,) + shape)
    rng_stream(7, 3).standard_normal(out=block[1])
    assert np.array_equal(rng_stream(7, 3).standard_normal(shape) * scale,
                          expected)
    block *= np.array([0.0, scale]).reshape(2, 1, 1, 1, 1)
    assert np.array_equal(block[1], expected)


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
        illum, grid_size, quantize, n_steps, tabled, noise_draws,
        table_builds):
    grid = SweepGrid(illuminations=(illum,), **dict(TABLE_GRID, **grid_size))
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
    # the blocks share the tables, all built in one pass before any block
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
    # 7 blocks on 3 threads: one of the 40 cells at n_bin 1, one at 2, two
    # of 20 at 4 and three of 13 or 14 at 8
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=SIGMAS_20,
                     n_bins=(1, 2, 4, 8), repetitions=16)
    assert len(grid._blocks) == 7
    serial = columns(fidelity_sweep(SCENE, grid, seed=6, jobs=1))
    block_threads.clear()
    assert columns(fidelity_sweep(SCENE, grid, seed=6, jobs=3)) == serial
    assert len(set(block_threads)) > 1


def test_sweep_deterministic_and_jobs_independent(block_threads):
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=(0.2, 3.0),
                     n_bins=(1, 2), repetitions=50)
    a = columns(fidelity_sweep(SCENE, grid, seed=9, jobs=1))
    b = columns(fidelity_sweep(SCENE, grid, seed=9, jobs=1))
    block_threads.clear()
    c = columns(fidelity_sweep(SCENE, grid, seed=9, jobs=4))
    assert a == b == c
    assert len(set(block_threads)) > 1


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_sweep_raises_the_first_failing_blocks_error(jobs, block_threads):
    # checked in preparation order, before any block runs: illumination 1
    # is in the Poisson range, then n_bin 500 reads more pixels than a slit
    # has; illumination 3 would fail the Poisson range check
    grid = SweepGrid(illuminations=(1.0, 3.0), sigmas=(0.2,), n_bins=(1, 500),
                     repetitions=5)
    with pytest.raises(SamplingError) as swept:
        fidelity_sweep(SCENE, grid, seed=4, jobs=jobs,
                       psi=PsiConfig(reference_override=1e9))
    assert str(swept.value) == "n_bin = 500 exceeds the 100 pixels per slit"
    assert block_threads == []


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
        reference, illums, n_bins, error, match, block_threads):
    # each check runs once over all the illuminations, in a fixed order:
    # the n_bins, then the frames' float range (naming the first
    # illumination in grid order that overflows), then the Poisson range
    grid = SweepGrid(illuminations=illums, sigmas=(0.2,), n_bins=n_bins,
                     repetitions=5)
    with pytest.raises(error, match=match):
        fidelity_sweep(SCENE, grid, psi=PsiConfig(reference_override=reference))
    assert block_threads == []


def test_sweep_checks_n_bin_before_the_poisson_range():
    # one block, failing both checks: the n_bin is checked first
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


@pytest.mark.parametrize("grid, blocks, threads", [
    # 38 400 pixel reads in 4 blocks of 100 cells
    pytest.param(MAP_PREVIEW, 4, {2: 1, 8: 1}, id="map-preview"),
    # 138 240 reads in 12 blocks: at n_bin 1, 2, 4 and 8, 1, 2, 3 and 6
    pytest.param(SweepGrid(repetitions=128), 12, {2: 1, 8: 1}, id="default-128"),
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
    assert fidelity_sweep(SCENE, MAP_PREVIEW, seed=1, jobs=2).mean.size == 400
    assert set(callers) == {threading.get_ident()} and len(callers) == 4


def test_sweep_threads_under_fast_switching_match_serial(block_threads):
    # 8 threads on a small grid, with the interpreter switching threads as
    # often as it can: cells must not interfere through shared state.
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=(0.2, 3.0),
                     n_bins=(1, 4), repetitions=300)
    serial = columns(fidelity_sweep(SCENE, grid, seed=5, jobs=1))
    block_threads.clear()
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
                     n_bins=(1, 2), repetitions=experiments._CHUNK)
    with pytest.raises(exc_type):
        fidelity_sweep(SCENE, grid, jobs=jobs)
    assert len(idents) == jobs
    # of the 16 blocks (one per cell at _CHUNK repetitions): inline, the
    # block of cell 0 alone; on threads, also the blocks running beside it
    # and at most one block that its worker took up before the cancel, and
    # none of those queued after them
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
