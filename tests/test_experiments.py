import numpy as np
import pytest

from pdisim import (BinningPolicy, DomainError, LensScene, NoiseParams,
                    PsiConfig, QuditScene, SweepGrid, apply_noise,
                    continuous_experiment, extract_phase, extract_state,
                    fidelity, fidelity_map, fidelity_sweep, phase_error_stats,
                    rng_stream, simulate_interferograms)

SCENE = QuditScene()


def test_sweep_grid_validation():
    with pytest.raises(DomainError):
        SweepGrid(illuminations=())
    with pytest.raises(DomainError):
        SweepGrid(repetitions=0)
    with pytest.raises(DomainError):
        SweepGrid(illuminations=(-1.0, 3.0))
    with pytest.raises(DomainError):
        SweepGrid(sigmas=(0.2, -0.5))


def test_sweep_grid_nsamp_conversion():
    grid = SweepGrid(nsamps=(1, 144))
    assert grid.sigmas == pytest.approx((3.0, 0.25))


def test_sweep_cell_count_and_order():
    grid = SweepGrid(illuminations=(1.0, 2.0), sigmas=(0.5,), n_bins=(1, 2),
                     repetitions=1)
    cells = list(grid.cells())
    assert len(cells) == 4
    assert cells[0] == (1.0, 0.5, None, 1)
    assert cells[-1] == (2.0, 0.5, None, 2)


def test_sweep_stats_fields_consistent():
    grid = SweepGrid(illuminations=(3.0,), sigmas=(0.5,), n_bins=(1,),
                     repetitions=100)
    (cell,) = fidelity_sweep(SCENE, grid, seed=4)
    st = cell.stats
    assert st.n_runs == 100
    assert st.stderr == pytest.approx(st.std / 10.0)
    assert 0.0 <= st.mean <= 1.0


def test_sweep_fast_path_matches_modular_pipeline():
    illum, sigma = 3.0, 0.5
    reps = 400
    grid = SweepGrid(illuminations=(illum,), sigmas=(sigma,), n_bins=(1,),
                     repetitions=reps)
    (cell,) = fidelity_sweep(SCENE, grid, seed=21)

    clean = simulate_interferograms(SCENE.field(), PsiConfig(), illum,
                                    region=SCENE.region())
    fids = np.empty(reps)
    for r in range(reps):
        noisy = apply_noise(clean, NoiseParams(readout_sigma=sigma),
                            rng=rng_stream(5000, r))
        state = extract_state(extract_phase(noisy), SCENE.layout,
                              BinningPolicy(1), rng_stream(6000, r))
        fids[r] = fidelity(SCENE.state, state)
    se = np.hypot(cell.stats.stderr, fids.std(ddof=1) / np.sqrt(reps))
    assert abs(cell.stats.mean - fids.mean()) < 4 * se


def test_sweep_deterministic_and_jobs_independent():
    grid = SweepGrid(illuminations=(1.7, 3.0), sigmas=(0.2, 3.0),
                     n_bins=(1, 2), repetitions=50)
    a = fidelity_sweep(SCENE, grid, seed=9, jobs=1)
    b = fidelity_sweep(SCENE, grid, seed=9, jobs=1)
    c = fidelity_sweep(SCENE, grid, seed=9, jobs=4)
    assert a == b == c


def test_sweep_failed_cell_is_recorded_not_fatal():
    grid = SweepGrid(illuminations=(3.0,), sigmas=(0.2,), n_bins=(1, 500),
                     repetitions=5)
    ok, bad = fidelity_sweep(SCENE, grid, seed=0)
    assert ok.stats is not None
    assert bad.stats is None
    assert "n_bin" in bad.error


def test_fidelity_map_shape_and_corner():
    fmap = fidelity_map(SCENE, (1.7, 3.0, 11.3), (3.0, 0.5, 0.2),
                        repetitions=300, seed=2)
    assert fmap.mean.shape == (3, 3)
    best = fmap.mean[-1, -1]  # highest illumination, lowest sigma
    margin = 2 * fmap.stderr
    assert np.all(best >= fmap.mean[-1, :] - margin[-1, :])
    assert np.all(best >= fmap.mean[:, -1] - margin[:, -1])


def test_fidelity_map_reproducible():
    a = fidelity_map(SCENE, (3.0,), (0.2,), repetitions=1, seed=7)
    b = fidelity_map(SCENE, (3.0,), (0.2,), repetitions=1, seed=7)
    assert np.array_equal(a.mean, b.mean)


def test_phase_error_stats_counts_and_range():
    rng = rng_stream(1)
    a = rng.uniform(-np.pi, np.pi, (32, 32))
    b = rng.uniform(-np.pi, np.pi, (32, 32))
    stats = phase_error_stats(a, b)
    assert stats.counts.sum() == stats.n_pixels == a.size
    assert len(stats.bin_edges) == 65
    assert stats.circ_std >= 0


def test_continuous_self_comparison_residual_small():
    # matched high flux: residual is pure Monte-Carlo noise
    scene = LensScene(curvature=np.pi / 40000)
    _, cases = continuous_experiment(scene, (500.0,), sigma_pair=(0.2, 0.2),
                                     reference_illumination=500.0, seed=3)
    for case in cases:
        assert case.stats.circ_std < 0.05


def test_continuous_case_layout():
    scene = LensScene()
    ref, cases = continuous_experiment(scene, (1.9, 4.0),
                                       sigma_pair=(3.0, 0.2), seed=1)
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
