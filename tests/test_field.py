import numpy as np
import pytest
from hypothesis import given, strategies as st

from pdisim import (ComplexField, DomainError, GridSpec, LensScene,
                    QuditScene, QuditState, ShapeError, SlitLayout, circ_dist,
                    equal_step_state, field_from_phase_map, mean_field, wrap)

GRID = GridSpec(128, 128)


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(0, 10)
    assert GridSpec(4, 3).shape == (3, 4)


def test_complex_field_rejects_values_not_2d():
    for shape in [(4,), (2, 3, 4)]:
        with pytest.raises(ShapeError, match="must be 2D"):
            ComplexField(np.zeros(shape, complex))
    assert ComplexField(np.zeros((3, 4), complex)).values.shape == (3, 4)


def test_complex_field_rejects_nonfinite():
    values = np.zeros((4, 4), complex)
    values[0, 0] = np.nan
    with pytest.raises(DomainError):
        ComplexField(values)


@pytest.mark.parametrize("shape", [(4, 4), (1, 8), (8,)])
def test_field_from_phase_map_rejects_amplitude_of_another_shape(shape):
    with pytest.raises(ShapeError, match="amplitude map shape"):
        field_from_phase_map(np.zeros((8, 8)), np.ones(shape))
    assert field_from_phase_map(np.zeros((8, 8)), 2.0).amplitude.max() == 2.0
    assert field_from_phase_map(np.zeros((8, 8)), np.ones((8, 8))).values.shape == (8, 8)


coeff = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                           allow_nan=False, allow_infinity=False)


@given(st.lists(coeff, min_size=1, max_size=12))
def test_qudit_state_normalization(raw):
    state = QuditState.from_coeffs(raw)
    assert abs(np.sum(np.abs(state.coeffs) ** 2) - 1.0) <= 1e-12


def test_qudit_state_rejects_unnormalized():
    with pytest.raises(DomainError):
        QuditState(np.array([1.0, 1.0]))
    with pytest.raises(DomainError):
        QuditState.from_coeffs([0.0, 0.0])


def test_qudit_state_equals_only_a_state():
    # __eq__ returns NotImplemented for a non-state, so Python falls back to
    # identity: a state is never equal to a number
    state = equal_step_state()
    assert state.__eq__(1) is NotImplemented
    assert state != 1 and not state == 1
    assert state == equal_step_state()


def test_equal_step_state_phases():
    state = equal_step_state()
    expected = wrap(2 * np.pi * np.arange(6) / 5)
    assert np.allclose(np.abs(state.coeffs), 1 / np.sqrt(6))
    assert np.allclose(circ_dist(np.angle(state.coeffs), expected), 0, atol=1e-12)


def test_slit_layout_defaults_give_600_pixels():
    layout = SlitLayout(d=6)
    assert layout.d * layout.pixels_per_slit == 600
    assert layout.bounding_width == 6 * 10 + 5 * 4


def test_slit_mask_single_rectangle():
    layout = SlitLayout(d=1, slit_width_px=3, slit_gap_px=0, slit_length_px=4)
    fld = QuditScene(GRID, layout, QuditState.from_coeffs([1.0]),
                     background_amplitude=0.0).field()
    mask = layout.region_mask(GRID)
    assert np.all(fld.values[mask] == 1.0)
    assert np.all(fld.values[~mask] == 0.0)


def test_slit_mask_phase_difference_pair():
    layout = SlitLayout(d=2)
    state = QuditState.from_coeffs([1.0, 1.0j])
    fld = QuditScene(GRID, layout, state).field()
    idx0, idx1 = zip(*layout.slit_pixels(GRID))
    diff = circ_dist(fld.phase[idx1], fld.phase[idx0])
    assert np.allclose(diff, np.pi / 2, atol=1e-12)


def test_slit_mask_eq6_phases_and_support():
    layout = SlitLayout(d=6)
    fld = QuditScene(GRID, layout, background_amplitude=0.7,
                     background_phase=0.3).field()
    for k, (rows, cols) in enumerate(zip(*layout.slit_pixels(GRID))):
        assert np.allclose(np.abs(fld.values[rows, cols]), 1.0)
        assert np.allclose(
            circ_dist(fld.phase[rows, cols], wrap(2 * np.pi * k / 5)), 0,
            atol=1e-12)
    # bit-exact background outside the slit rectangles
    mask = layout.region_mask(GRID)
    background = 0.7 * np.exp(1j * 0.3)
    assert np.all(fld.values[~mask] == background)


def test_slit_mask_brightest_slit_normalized():
    layout = SlitLayout(d=2)
    state = QuditState.from_coeffs([1.0, 2.0])
    fld = QuditScene(GRID, layout, state, background_amplitude=0.0).field()
    idx0, idx1 = zip(*layout.slit_pixels(GRID))
    assert np.allclose(np.abs(fld.values[idx1]), 1.0)
    assert np.allclose(np.abs(fld.values[idx0]), 0.5)


def test_slit_mask_layout_out_of_bounds():
    layout = SlitLayout(d=6, slit_width_px=30, slit_length_px=30)
    with pytest.raises(ShapeError):
        QuditScene(GridSpec(64, 64), layout).field()


def test_slit_mask_dimension_mismatch():
    with pytest.raises(ShapeError):
        QuditScene(GRID, SlitLayout(d=6), QuditState.from_coeffs([1, 1])).field()


def test_mean_field_uniform():
    fld = LensScene(GridSpec(8, 8), curvature=0.0, amplitude=0.5).field()
    assert mean_field(fld) == pytest.approx(0.5 + 0j)


def test_mean_field_cancellation():
    values = np.ones((4, 4), complex)
    values[:, 2:] = -1.0
    fld = ComplexField(values)
    assert mean_field(fld) == pytest.approx(0j, abs=1e-15)


def test_mean_field_eq6_mask_matches_pixel_sum_oracle():
    layout = SlitLayout(d=6)
    fld = QuditScene(GRID, layout, background_amplitude=0.0).field()
    # independent oracle: plain-Python summation over all pixels
    total = 0j
    for row in fld.values:
        for v in row:
            total += complex(v)
    oracle = total / fld.values.size
    assert mean_field(fld) == pytest.approx(oracle, abs=1e-12)


def test_lens_phase_flat_limit():
    fld = LensScene(GRID, 0.0).field()
    assert np.all(fld.phase == 0.0)
    assert np.all(fld.amplitude == 1.0)


def test_lens_phase_finite_difference():
    curvature = 0.013
    # odd sides put the grid center on pixel (col 40, row 50)
    fld = LensScene(GridSpec(81, 101), curvature).field()
    # center pixel is 0; one pixel to the right carries exactly `curvature`
    assert fld.phase[50, 40] == pytest.approx(0.0, abs=1e-12)
    assert fld.phase[50, 41] == pytest.approx(curvature, abs=1e-12)


def test_lens_phase_wrap_boundary():
    radius = 16
    curvature = np.pi / radius**2
    fld = LensScene(GridSpec(65, 65), curvature).field()
    assert fld.phase[32, 32] == 0.0
    assert fld.phase[32, 32 + radius] == pytest.approx(np.pi)
    assert np.all(fld.phase > -np.pi)
    assert np.all(fld.phase <= np.pi)


def test_lens_phase_reflection_symmetry():
    fld = LensScene(GRID, np.pi / 2048).field()
    assert np.array_equal(fld.phase, fld.phase[::-1, :])
    assert np.array_equal(fld.phase, fld.phase[:, ::-1])


def test_lens_phase_rejects_nonfinite_curvature():
    with pytest.raises(DomainError):
        LensScene(GRID, np.inf).field()
