"""Each library entry point rejects a malformed argument with its own error
type, before it computes anything."""

import numpy as np
import pytest

from pdisim import (ComplexField, DegenerateReferenceError, DomainError,
                    PsiConfig, QuditState, ReconstructionResult, ShapeError,
                    SlitLayout, c0_empirical, equal_step_state,
                    field_from_phase_map, mean_field, phase_error_stats,
                    simulate_interferograms)
from pdisim import io as pio
from pdisim.forward import frame_rates
from pdisim.qudit import sample_fidelity

FIELD = ComplexField(np.ones((4, 4)))


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda path: phase_error_stats(
        np.zeros((4, 4)), np.zeros((4, 5)), np.ones((4, 4), bool)),
        ShapeError, id="phase_error_stats-shapes"),
    pytest.param(lambda path: sample_fidelity(
        equal_step_state(6), np.ones((5, 3), complex)),
        ShapeError, id="sample_fidelity-dimension"),
    pytest.param(lambda path: simulate_interferograms(
        FIELD, PsiConfig(), 1.0, np.ones((4, 5), bool)),
        ShapeError, id="simulate-region-shape"),
    pytest.param(lambda path: simulate_interferograms(
        FIELD, PsiConfig(), 1.0, np.zeros((4, 4), bool)),
        ShapeError, id="simulate-empty-region"),
    pytest.param(lambda path: frame_rates(
        np.zeros((4, 4)), 1.0, 4, 1.0, np.zeros(3)),
        DegenerateReferenceError, id="frame_rates-zero-field"),
    pytest.param(lambda path: c0_empirical(
        np.zeros((4, 4, 4)), np.ones((4, 5), bool)),
        ShapeError, id="c0_empirical-mask-shape"),
    pytest.param(lambda path: ReconstructionResult(
        np.zeros((4, 4)), np.zeros((4, 5)), -4.0, 0.0),
        ShapeError, id="ReconstructionResult-shapes"),
    pytest.param(lambda path: pio.write_map(path, np.zeros((2, 2)), "XXMAP"),
                 ValueError, id="write_map-kind"),
    pytest.param(lambda path: pio.write_map(path, np.zeros(4), "PHMAP"),
                 ShapeError, id="write_map-1d"),
    pytest.param(lambda path: field_from_phase_map(np.zeros(4)),
                 ShapeError, id="field_from_phase_map-1d"),
    pytest.param(lambda path: SlitLayout(d=0), DomainError, id="SlitLayout-d"),
    pytest.param(lambda path: SlitLayout(d=6, slit_width_px=0), DomainError,
                 id="SlitLayout-width"),
    pytest.param(lambda path: SlitLayout(d=6, slit_gap_px=-1), DomainError,
                 id="SlitLayout-gap"),
    pytest.param(lambda path: QuditState(np.array([], dtype=complex)),
                 ShapeError, id="QuditState-empty"),
    pytest.param(lambda path: mean_field(ComplexField(np.zeros((0, 0)))),
                 ShapeError, id="mean_field-empty")])
def test_malformed_argument_raises_its_error(tmp_path, call, error):
    path = tmp_path / "map"
    with pytest.raises(error) as raised:
        call(path)
    assert type(raised.value) is error
    assert not path.exists()
