import pathlib

import numpy as np
import pytest

from pdisim import (DomainError, PsiConfig, QuditScene, ShapeError,
                    simulate_interferograms)
from pdisim import io as pio


def test_map_roundtrip(tmp_path):
    data = np.linspace(-np.pi, np.pi, 12).reshape(3, 4)
    path = tmp_path / "m.phmap"
    pio.write_phase_map(path, data)
    back = pio.read_map(path, "PHMAP")
    assert back.shape == (3, 4)
    assert np.allclose(back, data, atol=1e-6)  # float32 payload


def test_map_header_format(tmp_path):
    path = tmp_path / "m.ammap"
    pio.write_amplitude_map(path, np.ones((2, 5)))
    raw = path.read_bytes()
    assert raw.startswith(b"AMMAP 5 2\n")
    assert len(raw) == len(b"AMMAP 5 2\n") + 4 * 10


def test_map_kind_enforced(tmp_path):
    path = tmp_path / "m.phmap"
    pio.write_phase_map(path, np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        pio.read_map(path, "AMMAP")


def test_map_truncation_detected(tmp_path):
    path = tmp_path / "m.phmap"
    pio.write_phase_map(path, np.zeros((4, 4)))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(ShapeError):
        pio.read_map(path, "PHMAP")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_map_with_a_non_finite_value_is_rejected(tmp_path, value):
    path = tmp_path / "m.ammap"
    data = np.ones((3, 4))
    data[2, 1] = value
    pio.write_amplitude_map(path, data)
    with pytest.raises(DomainError, match=r"^.*m\.ammap: 1 of 12 values are "
                                          r"NaN or infinite$"):
        pio.read_map(path, "AMMAP")


def test_interferogram_set_roundtrip(tmp_path):
    scene = QuditScene()
    iset = simulate_interferograms(scene.field(), PsiConfig(), 3.0,
                                   region=scene.region())
    manifest = pio.write_interferogram_set(tmp_path / "frames", iset)
    back = pio.read_interferogram_set(manifest)
    assert back.n_steps == 4
    assert "\nalphas = 0.0,1.5707963267948966,3.141592653589793,4.71238898038469\n" \
        in pathlib.Path(manifest).read_text(encoding="utf-8")
    assert back.reference == iset.reference
    assert back.illumination == 3.0
    assert np.allclose(back.frames, iset.frames, atol=1e-3)  # float32 payload


def test_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    pio.write_csv(path, ["a", "b"], [(1.5, 2)])
    text = path.read_text(encoding="utf-8")
    assert text == "a,b\n1.5,2\n"


def test_fmt_float_roundtrips():
    for x in (0.1, 1 / 3, 2.0, 1e-12, np.pi):
        assert float(pio.fmt_float(x)) == x
