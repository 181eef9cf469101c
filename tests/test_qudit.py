import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdisim import (BinningPolicy, DomainError, FidelityStats, PsiConfig,
                    QuditScene, QuditState, SamplingError, ShapeError,
                    SlitLayout,
                    bootstrap_fidelity, equal_step_state, extract_phase,
                    extract_state, fidelity, rng_stream,
                    simulate_interferograms)
from pdisim.circular import circ_mean
from pdisim.qudit import draw_pixel_positions, sample_fidelity
from pdisim.reconstruct import (ReconstructionResult, harmonic_sums,
                                unit_phasors, unwrapped_phase)


def noiseless_reconstruction(scene=None):
    scene = scene or QuditScene()
    iset = simulate_interferograms(scene.field(), PsiConfig(), 3.0,
                                   region=scene.region())
    return extract_phase(iset)


def test_fidelity_self():
    psi = equal_step_state()
    assert fidelity(psi, psi) == pytest.approx(1.0)


def test_fidelity_orthogonal_basis_states():
    zero = QuditState.from_coeffs([1, 0])
    one = QuditState.from_coeffs([0, 1])
    assert fidelity(zero, one) == 0.0


def test_fidelity_eq6_vs_uniform_phase():
    # |sum_k exp(-i 2 pi k / 5)| / 6 over k = 0..5: the k = 0..4 terms cancel,
    # leaving exactly 1/6
    target = equal_step_state()
    uniform = QuditState.from_coeffs(np.ones(6))
    assert fidelity(target, uniform) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_fidelity_dimension_mismatch():
    with pytest.raises(ShapeError):
        fidelity(QuditState.from_coeffs([1, 0]), QuditState.from_coeffs([1, 0, 0]))


@given(st.floats(-np.pi, np.pi))
def test_fidelity_global_phase_invariance(theta):
    psi = equal_step_state()
    rotated = QuditState(psi.coeffs * np.exp(1j * theta))
    assert fidelity(psi, rotated) == pytest.approx(1.0, abs=1e-9)


def test_fidelity_bounds():
    rng = rng_stream(0)
    for _ in range(50):
        a = QuditState.from_coeffs(rng.normal(size=6) + 1j * rng.normal(size=6))
        b = QuditState.from_coeffs(rng.normal(size=6) + 1j * rng.normal(size=6))
        assert 0.0 <= fidelity(a, b) <= 1.0 + 1e-12


def test_extract_state_noiseless_roundtrip():
    scene = QuditScene()
    res = noiseless_reconstruction(scene)
    for n_bin in (1, 4, 100):
        state = extract_state(res, scene.layout, BinningPolicy(n_bin),
                              rng_stream(17))
        assert fidelity(scene.state, state) == pytest.approx(1.0, abs=1e-9)


def test_extract_state_flat_phase_map():
    layout = SlitLayout(d=6)
    phase = np.zeros((128, 128))
    res = ReconstructionResult(phase=phase, amplitude=np.ones_like(phase),
                               c0_used=0.0, mu_used=0.0)
    state = extract_state(res, layout, BinningPolicy(5), rng_stream(3))
    assert fidelity(equal_step_state(), state) == pytest.approx(1.0 / 6.0,
                                                                abs=1e-12)


def test_extract_state_full_population_deterministic():
    scene = QuditScene()
    res = noiseless_reconstruction(scene)
    full = scene.layout.pixels_per_slit
    a = extract_state(res, scene.layout, BinningPolicy(full), rng_stream(1))
    b = extract_state(res, scene.layout, BinningPolicy(full), rng_stream(999))
    assert np.allclose(a.coeffs, b.coeffs)


def test_extract_state_nbin_too_large():
    scene = QuditScene()
    res = noiseless_reconstruction(scene)
    with pytest.raises(SamplingError):
        extract_state(res, scene.layout, BinningPolicy(101), rng_stream(0))


def test_binning_policy_validation():
    with pytest.raises(DomainError):
        BinningPolicy(0)


def test_circular_mean_straddles_branch_cut():
    # slit pixels at theta - delta and theta + delta average to theta even
    # across the +-pi cut
    layout = SlitLayout(d=1, slit_width_px=1, slit_gap_px=0, slit_length_px=2)
    theta, delta = np.pi - 0.05, 0.3
    phase = np.zeros((2, 1))
    phase[0, 0] = theta - delta
    phase[1, 0] = np.pi - (np.pi - (theta + delta)) % (2 * np.pi)  # wrapped
    res = ReconstructionResult(phase=phase, amplitude=np.ones_like(phase),
                               c0_used=0.0, mu_used=0.0)
    state = extract_state(res, layout, BinningPolicy(2), rng_stream(0))
    assert np.angle(state.coeffs[0]) == pytest.approx(theta, abs=1e-12)


def _uniform_chi_square(counts):
    """Pearson chi-square of `counts` against equal frequencies, and the
    bound df + 5 sqrt(2 df): five standard deviations above its mean."""
    expected = counts.sum() / counts.size
    df = counts.size - 1
    return (float(((counts - expected) ** 2 / expected).sum()),
            df + 5.0 * np.sqrt(2.0 * df))


@pytest.mark.parametrize("n_px, k", [(16, 4), (10, 4)],
                         ids=["small-k", "large-k"])
def test_draw_pixel_positions_uniform_without_replacement(n_px, k):
    positions = draw_pixel_positions(rng_stream(77), (10000, 4), n_px, k)
    assert positions.shape == (10000, 4, k)
    positions = positions.reshape(-1, k)
    assert positions.min() >= 0 and positions.max() < n_px
    ascending = np.sort(positions, axis=-1)
    assert (ascending[:, 1:] > ascending[:, :-1]).all()
    for slot in range(k):  # each slot is uniform over the pixels
        stat, bound = _uniform_chi_square(
            np.bincount(positions[:, slot], minlength=n_px))
        assert stat < bound
    # the (first, last) slot pairs are uniform over the distinct pairs
    pairs = np.bincount(positions[:, 0] * n_px + positions[:, -1],
                        minlength=n_px * n_px).reshape(n_px, n_px)
    stat, bound = _uniform_chi_square(pairs[~np.eye(n_px, dtype=bool)])
    assert stat < bound


def test_draw_pixel_positions_large_k_keeps_the_argsort_stream():
    # the bootstrap's 81 of 100 pixels: the first 81 of a uniform argsort;
    # a small k, such as 4 of 100, takes the first 4 of the same argsort
    for k in (81, 4):
        expected = np.argsort(rng_stream(3).random((64, 6, 100)),
                              axis=-1)[..., :k]
        drawn = draw_pixel_positions(rng_stream(3), (64, 6), 100, k)
        assert np.array_equal(drawn, expected)


@pytest.mark.parametrize("n_runs", [1, 2, 255, 256, 257, 4097])
def test_stats_per_row_equal_each_rows_own(n_runs):
    # a sweep block takes its cells' statistics over the rows of its (cells,
    # runs) fidelities at once; each row's numbers are those of from_runs
    # of the row alone
    runs = rng_stream(n_runs).random((7, n_runs)) ** 3
    stds = runs.std(axis=1, ddof=1) if n_runs > 1 else np.zeros(7)
    for row, mean, std, stderr in zip(runs, runs.mean(axis=1), stds,
                                      stds / np.sqrt(n_runs)):
        assert FidelityStats.from_runs(row) == FidelityStats(
            float(mean), float(std), float(stderr), n_runs)


def test_states_compare_by_value_and_hash_alike():
    a, b = equal_step_state(), equal_step_state()
    assert a == b and hash(a) == hash(b)
    assert a != equal_step_state(step=1.0)
    assert a != QuditState.from_coeffs(np.ones(5))
    # -0.0 and 0.0 are equal values, so they hash alike
    zero = QuditState(np.array([1.0 + 0.0j, 0.0j]))
    signed = QuditState(np.array([complex(1.0, -0.0), complex(-0.0, 0.0)]))
    assert zero == signed and hash(zero) == hash(signed)
    assert len({a, b, zero, signed}) == 2


def test_scenes_compare_by_value():
    assert QuditScene() == QuditScene()
    assert QuditScene() != QuditScene(state=equal_step_state(step=1.0))
    assert QuditScene() != QuditScene(background_amplitude=0.0)


def test_bootstrap_noiseless_mean_one_std_zero():
    scene = QuditScene()
    res = noiseless_reconstruction(scene)
    stats = bootstrap_fidelity(res, scene.state, scene.layout,
                               BinningPolicy(1), n_states=20, n_runs=8, seed=5)
    assert stats.mean == pytest.approx(1.0, abs=1e-9)
    assert stats.std == pytest.approx(0.0, abs=1e-9)
    assert stats.n_runs == 8


def test_bootstrap_default_protocol_feasible():
    # 81 states x n_bin = 1 fits in 100 pixels per slit
    scene = QuditScene()
    res = noiseless_reconstruction(scene)
    stats = bootstrap_fidelity(res, scene.state, scene.layout,
                               BinningPolicy(1), n_states=81, n_runs=64, seed=0)
    assert stats.stderr == pytest.approx(stats.std / np.sqrt(64))


def test_bootstrap_infeasible_draw():
    scene = QuditScene()
    res = noiseless_reconstruction(scene)
    with pytest.raises(SamplingError):
        bootstrap_fidelity(res, scene.state, scene.layout, BinningPolicy(2),
                           n_states=81, n_runs=4, seed=0)


def test_bootstrap_deterministic():
    scene = QuditScene()
    res = noiseless_reconstruction(scene)
    kwargs = dict(n_states=10, n_runs=6, seed=123)
    a = bootstrap_fidelity(res, scene.state, scene.layout, BinningPolicy(2),
                           **kwargs)
    b = bootstrap_fidelity(res, scene.state, scene.layout, BinningPolicy(2),
                           **kwargs)
    assert a == b


def angle_chain_fidelity(target, frames, c0, mu):
    """The fidelity of each state read from frames (..., 4, d, n_bin) by
    angles, one state at a time: unwrapped_phase, then each slit's
    circular mean, its phasor, and the overlap with `target`."""
    means = circ_mean(unwrapped_phase(frames, c0, mu), axis=-1)
    return np.array([fidelity(target, QuditState.from_coeffs(np.exp(1j * row)))
                     for row in means.reshape(-1, target.dim)])


@settings(max_examples=200, deadline=None)
@given(n_bin=st.integers(1, 8),
       mu=st.floats(-np.pi, np.pi).filter(lambda mu: mu != 0.0),
       # a centre of pi puts the pixel phases arctan2(S, C - C0) on both
       # sides of the branch cut at +-pi
       centre=st.one_of(st.just(np.pi), st.floats(-np.pi, np.pi)),
       spread=st.floats(0.0, 1.0), c0=st.floats(-50.0, 0.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_phasor_scoring_equals_the_angle_chain(n_bin, mu, centre, spread, c0,
                                               seed):
    # a slit's pixels lie within 1 rad of its centre, so their resultant,
    # at least cos(1) n_bin long, fixes its direction well
    rng = rng_stream(seed)
    target = QuditState.from_coeffs(rng.normal(size=6) + 1j * rng.normal(size=6))
    shape = (5, 6, n_bin)
    angles = centre + spread * rng.uniform(-1.0, 1.0, shape)
    radii = 10.0 ** rng.uniform(-3.0, 3.0, shape)
    # frames whose harmonic sums are C = I_0 = C0 + r cos, S = I_1 = r sin
    frames = np.zeros((5, 4, 6, n_bin))
    frames[:, 0] = c0 + radii * np.cos(angles)
    frames[:, 1] = radii * np.sin(angles)
    phasors = unit_phasors(*harmonic_sums(frames), c0, mu)
    np.testing.assert_allclose(abs(phasors), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(sample_fidelity(target, phasors),
                               angle_chain_fidelity(target, frames, c0, mu),
                               rtol=0, atol=1e-12)


def test_slit_whose_phasors_cancel_scores_as_phase_0():
    # slit 0 reads two pixels with opposite (C - C0, S), so its phasors sum
    # to exactly 0, and it scores as phase 0 (angle(0) = 0); slit k > 0
    # reads (C - C0, S) = (cos, sin) of 0.4 k twice
    target = equal_step_state()
    c = np.array([[1.0, -1.0]] + [[np.cos(0.4 * k)] * 2 for k in range(1, 6)])
    s = np.array([[2.0, -2.0]] + [[np.sin(0.4 * k)] * 2 for k in range(1, 6)])
    for mu in (0.0, 1.3):
        phasors = unit_phasors(c, s, 0.0, mu)
        assert phasors[0].sum() == 0
        expected = QuditState.from_coeffs(np.exp(1j * (
            np.array([0.0] + [0.4 * k + mu for k in range(1, 6)]))))
        assert sample_fidelity(target, phasors[None])[0] == pytest.approx(
            fidelity(target, expected), abs=1e-15)
