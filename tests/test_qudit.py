import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdisim import (BinningPolicy, DomainError, PsiConfig, QuditScene,
                    QuditState, SamplingError, ShapeError, SlitLayout,
                    bootstrap_fidelity, equal_step_state, extract_phase,
                    extract_state, fidelity, rng_stream,
                    simulate_interferograms)
from pdisim.qudit import draw_pixel_positions
from pdisim.reconstruct import ReconstructionResult


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
                         ids=["sequential", "argsort"])
def test_draw_pixel_positions_uniform_without_replacement(n_px, k):
    # k^2 <= n_px takes the sequential draw, k^2 > n_px the argsort
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
    # the bootstrap's 81 of 100 pixels: the first 81 of a uniform argsort
    expected = np.argsort(rng_stream(3).random((64, 6, 100)), axis=-1)[..., :81]
    drawn = draw_pixel_positions(rng_stream(3), (64, 6), 100, 81)
    assert np.array_equal(drawn, expected)


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
