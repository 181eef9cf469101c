import numpy as np
import pytest

from pdisim import (EstimationError, GridSpec, InterferogramSet, LensScene,
                    NoiseParams, PsiConfig, QuditScene, ShapeError,
                    apply_noise, c0_analytic, c0_empirical, circ_dist,
                    extract_phase, rng_stream, simulate_interferograms)
from pdisim.reconstruct import harmonic_sums


def single_pixel_set(values, reference=1.0 + 0j):
    frames = np.asarray(values, float).reshape(-1, 1, 1)
    return InterferogramSet(frames=frames, reference=reference)


def test_combine_single_pixel_arithmetic():
    c, s = harmonic_sums(single_pixel_set([1, 2, 3, 4]).frames)
    assert c[0, 0] == pytest.approx(-2.0, abs=1e-12)
    assert s[0, 0] == pytest.approx(-2.0, abs=1e-12)


def test_combine_identical_frames_cancel():
    c, s = harmonic_sums(single_pixel_set([5, 5, 5, 5]).frames)
    assert abs(c[0, 0]) < 1e-12
    assert abs(s[0, 0]) < 1e-12


def test_combine_shape_guard():
    iset = single_pixel_set([1, 2, 3, 4])
    with pytest.raises(ShapeError):  # not (N, rows, cols)
        InterferogramSet(frames=iset.frames[..., 0], reference=1.0)
    with pytest.raises(ShapeError):  # fewer than 3 steps
        single_pixel_set([1, 2])


def test_c0_analytic():
    assert c0_analytic(1.0 + 0j, 4) == pytest.approx(-4.0)
    assert c0_analytic(0.0 + 0j, 4) == 0.0
    assert c0_analytic(1.0j, 4) == pytest.approx(-4.0)


def test_c0_empirical_matches_analytic_on_dark_pixels():
    scene = QuditScene(background_amplitude=0.0)
    cfg = PsiConfig(reference_override=0.2 + 0.05j)
    iset = simulate_interferograms(scene.field(), cfg, 3.0,
                                   region=scene.region())
    c, _ = harmonic_sums(iset.frames)
    dark = ~scene.region()
    empirical = c0_empirical(c, dark)
    assert empirical == pytest.approx(c0_analytic(iset.reference, 4), abs=1e-9)


def test_c0_empirical_empty_region():
    c = np.zeros((4, 4))
    with pytest.raises(EstimationError):
        c0_empirical(c, np.zeros((4, 4), bool))


def offset_removed_error(phase, truth, support):
    delta = circ_dist(phase, truth)[support]
    offset = np.angle(np.exp(1j * delta).mean())
    return np.abs(circ_dist(delta, offset))


def test_uniform_zero_phase_recovered():
    fld = LensScene(GridSpec(16, 16), curvature=0.0).field()
    iset = simulate_interferograms(fld, PsiConfig(), 2.0)
    res = extract_phase(iset)
    assert np.allclose(res.phase, 0.0, atol=1e-12)
    assert res.mu_used == pytest.approx(0.0)


def test_qudit_roundtrip_within_1e9():
    scene = QuditScene()
    fld = scene.field()
    iset = simulate_interferograms(fld, PsiConfig(), 3.0, region=scene.region())
    res = extract_phase(iset)
    support = fld.amplitude > 0
    assert offset_removed_error(res.phase, fld.phase, support).max() < 1e-9


def test_lens_roundtrip_within_1e9():
    scene = LensScene(curvature=np.pi / 2048)
    fld = scene.field()
    iset = simulate_interferograms(fld, PsiConfig(), 3.0)
    res = extract_phase(iset)
    support = fld.amplitude > 0
    assert offset_removed_error(res.phase, fld.phase, support).max() < 1e-9


def test_global_offset_equivariance():
    from pdisim import ComplexField, wrap

    scene = QuditScene()
    fld = scene.field()
    theta = 0.73
    shifted = ComplexField(fld.values * np.exp(1j * theta))
    cfg = PsiConfig(reference_override=0.9 + 0j)
    base = extract_phase(simulate_interferograms(fld, cfg, 3.0,
                                                 region=scene.region()))
    moved = extract_phase(simulate_interferograms(shifted, cfg, 3.0,
                                                  region=scene.region()))
    assert np.allclose(circ_dist(moved.phase, base.phase), theta, atol=1e-9)


def test_scale_invariance_of_phase():
    scene = QuditScene()
    iset = simulate_interferograms(scene.field(), PsiConfig(), 3.0,
                                   region=scene.region())
    res1 = extract_phase(iset)
    k = 7.3
    scaled = InterferogramSet(frames=iset.frames * k,
                              reference=iset.reference * np.sqrt(k))
    res2 = extract_phase(scaled, c0=res1.c0_used * k, mu=res1.mu_used)
    assert np.allclose(circ_dist(res2.phase, res1.phase), 0.0, atol=1e-12)


def test_dead_pixel_convention():
    # u = 0, |K| = 1: frames are exactly [0, 2, 4, 2], so C - C0 = S = 0
    iset = single_pixel_set([0.0, 2.0, 4.0, 2.0], reference=1.0 + 0j)
    res = extract_phase(iset)
    assert res.phase[0, 0] == 0.0
    assert res.amplitude[0, 0] == 0.0


def test_amplitude_is_clamped_sqrt_of_frame0():
    iset = single_pixel_set([-1.0, 2.0, 4.0, 2.0])
    res = extract_phase(iset)
    assert res.amplitude[0, 0] == 0.0


def test_noise_degradation_monotone_in_sigma():
    # statistical trend: mean circular error grows with readout noise
    scene = QuditScene()
    fld = scene.field()
    region = scene.region()
    iset = simulate_interferograms(fld, PsiConfig(), 3.0, region=region)
    truth = fld.phase[region]
    sigmas = [0.2, 0.5, 1.0, 3.0]
    reps = 200
    means = []
    for k, sigma in enumerate(sigmas):
        errs = np.empty(reps)
        for r in range(reps):
            noisy = apply_noise(iset, NoiseParams(readout_sigma=sigma),
                                rng=rng_stream(1000 + k, r))
            res = extract_phase(noisy)
            errs[r] = np.abs(circ_dist(res.phase[region], truth)).mean()
        means.append(errs.mean())
    assert all(b >= a - 1e-3 for a, b in zip(means, means[1:]))
