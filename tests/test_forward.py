import numpy as np
import pytest

from pdisim import (DegenerateReferenceError, DomainError, GridSpec,
                    LensScene, PsiConfig, QuditScene, mean_field,
                    simulate_interferograms)
from pdisim.forward import frame_rates, step_phases

SCENE = QuditScene()


def simulate_default(illumination=3.0):
    return simulate_interferograms(SCENE.field(), PsiConfig(), illumination,
                                   region=SCENE.region())


def test_psi_config_defaults():
    cfg = PsiConfig()
    assert cfg.n_steps == 4 and cfg.reference_override is None
    assert np.allclose(step_phases(cfg.n_steps), [0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_psi_config_needs_three_steps():
    with pytest.raises(DomainError):
        PsiConfig(n_steps=2)


def test_frame0_is_scaled_intensity():
    iset = simulate_default()
    fld = SCENE.field()
    scale = 3.0 / np.mean(fld.amplitude[SCENE.region()] ** 2)
    assert np.allclose(iset.frames[0], scale * fld.amplitude**2, rtol=1e-12)
    # normalization anchor: frame 0 averages to the illumination over the region
    assert np.mean(iset.frames[0][SCENE.region()]) == pytest.approx(3.0)


def test_uniform_field_half_period_frame_matches_frame0():
    # U = K, mu = 0: E_2 = K - 2K = -K, so frame 2 equals frame 0
    fld = LensScene(GridSpec(16, 16), curvature=0.0).field()
    iset = simulate_interferograms(fld, PsiConfig(), 2.5,
                                   region=fld.amplitude > 0)
    assert np.allclose(iset.frames[2], iset.frames[0], rtol=1e-12)


def test_energy_positivity():
    iset = simulate_default()
    assert np.all(iset.frames >= 0)


def test_linearity_in_illumination():
    one = simulate_default(1.3)
    two = simulate_default(2.6)
    assert np.allclose(two.frames, 2.0 * one.frames, rtol=1e-12)


def test_reference_consistency_with_mean_field():
    iset = simulate_default()
    fld = SCENE.field()
    scale = np.sqrt(3.0 / np.mean(fld.amplitude[SCENE.region()] ** 2))
    assert abs(iset.reference - mean_field(fld) * scale) < 1e-12


def test_reference_override_used_verbatim():
    cfg = PsiConfig(reference_override=0.25 + 0.1j)
    iset = simulate_interferograms(SCENE.field(), cfg, 3.0,
                                   region=SCENE.region())
    fld = SCENE.field()
    scale = np.sqrt(3.0 / np.mean(fld.amplitude[SCENE.region()] ** 2))
    assert abs(iset.reference - (0.25 + 0.1j) * scale) < 1e-12


def test_degenerate_reference_rejected():
    values = np.ones((4, 4), complex)
    values[:, 2:] = -1.0  # mean is exactly zero
    from pdisim import ComplexField

    fld = ComplexField(values)
    with pytest.raises(DegenerateReferenceError):
        simulate_interferograms(fld, PsiConfig(), 1.0, region=fld.amplitude > 0)


def test_negative_illumination_rejected():
    with pytest.raises(DomainError):
        simulate_default(-1.0)


@pytest.mark.parametrize("illumination, first", [
    (np.nan, "nan"), ([3.0, np.nan, -1.0], "nan"), ([3.0, -1.0, np.nan], "-1.0")],
    ids=["scalar", "vector", "negative-first"])
def test_nan_illumination_rejected_as_not_at_least_0(illumination, first):
    # not as frame rates that overflow, which NaN rates looked like
    values = SCENE.slit_values()
    with pytest.raises(DomainError,
                       match=f"^illumination must be >= 0, got {first}$"):
        frame_rates(values, 1.0, 4, illumination, values)


def test_simulate_rejects_nan_illumination():
    with pytest.raises(DomainError, match="^illumination must be >= 0, got nan$"):
        simulate_default(np.nan)


def test_closed_form_identity_on_slit_scene():
    # algebraic expansion of the forward model:
    # C - C0 = N |K| u cos(phi - mu), S = N |K| u sin(phi - mu)
    iset = simulate_default()
    fld = SCENE.field()
    scale = np.sqrt(3.0 / np.mean(fld.amplitude[SCENE.region()] ** 2))
    u = fld.amplitude * scale
    phi = fld.phase
    ref = iset.reference
    n = iset.n_steps

    alphas = step_phases(n)
    c = np.tensordot(np.cos(alphas), iset.frames, axes=1)
    s = np.tensordot(np.sin(alphas), iset.frames, axes=1)
    c0 = -n * abs(ref) ** 2
    mu = np.angle(ref)
    assert np.allclose(c - c0, n * abs(ref) * u * np.cos(phi - mu), atol=1e-9)
    assert np.allclose(s, n * abs(ref) * u * np.sin(phi - mu), atol=1e-9)
