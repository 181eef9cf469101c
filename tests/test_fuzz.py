"""Fuzzing of the three readers of untrusted input: the run config, the
PHMAP/AMMAP map files and the interferogram manifest. Whatever the input,
each returns a valid object or raises a PdisimError (ConfigError for the
config), which the CLI reports as one line with exit code 2 or 1."""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pdisim import (ConfigError, InterferogramSet, PdisimError, RunConfig,
                    parse_config, serialize_config)
from pdisim import io as pio

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

# -- parse_config ---------------------------------------------------------

SECTIONS = ["scene", "psi", "noise", "sweep", "output", "bogus"]
KEYS = [
    "type", "d", "slit_width_px", "slit_gap_px", "slit_length_px",
    "grid_width", "grid_height", "background_amplitude", "background_phase",
    "state_step", "curvature", "amplitude", "phase_map", "amplitude_map",
    "n_steps", "illumination", "reference_re", "reference_im",
    "readout_sigma", "nsamp", "quantize", "seed", "illuminations", "sigmas",
    "nsamps", "n_bins", "repetitions", "reference_illumination", "directory",
    "n_states", "bogus",
]
# one line of text: no line breaks, no lone surrogates
LINE_CHARS = st.characters(blacklist_categories=("Cs",),
                           blacklist_characters="\n\r")
# Integers reach far past the caps on sizes and rates, which the parser
# must reject before it sizes anything by them.
NUMBERS = st.one_of(
    st.integers(-3, 300).map(str),
    st.integers(-3, 10 ** 30).map(str),
    st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "0", "1e-300", "x", ""]),
)
VALUES = st.one_of(
    NUMBERS,
    st.lists(NUMBERS, min_size=1, max_size=4).map(",".join),
    st.sampled_from(["eq6_qudit", "lens", "phmap", "true", "no", __file__,
                     "missing.phmap"]),
    st.text(LINE_CHARS, max_size=12),
)
LINES = st.one_of(
    st.sampled_from(SECTIONS).map(lambda name: f"[{name}]"),
    st.tuples(st.sampled_from(KEYS), VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(LINE_CHARS, max_size=20),
)
CONFIGS = st.lists(LINES, max_size=14).map(
    lambda lines: "[scene]\n" + "\n".join(lines) + "\n")


SUBCOMMANDS = [None, "simulate", "qudit-experiment", "sweep-map",
               "continuous-experiment"]


@FUZZ
@given(CONFIGS, st.sampled_from(SUBCOMMANDS))
def test_parse_config_returns_config_or_config_error(text, subcommand):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)
    # what a subcommand writes to its manifest, it reads back unchanged
    once = serialize_config(cfg, subcommand)
    assert serialize_config(parse_config(once, subcommand), subcommand) == once


# -- read_map -------------------------------------------------------------

# Map sizes are either small or far beyond any file, so that no example
# asks for gigabytes.
SIZES = st.one_of(st.integers(0, 64), st.integers(2 ** 62, 2 ** 64))


@st.composite
def map_files(draw):
    if draw(st.booleans()):
        header = draw(st.binary(max_size=24)) + b"\n"
        return header + draw(st.binary(max_size=64))
    kind = draw(st.sampled_from(["PHMAP", "AMMAP", "XXMAP"]))
    width, height = draw(SIZES), draw(SIZES)
    size = draw(st.one_of(st.just(str(width)),
                          st.sampled_from(["x", "-1", "3.0", "9" * 5000])))
    header = f"{kind} {size} {height}\n".encode("ascii")
    exact = 4 * width * height if width * height <= 64 * 64 else 8
    length = max(0, exact + draw(st.sampled_from([0, 0, 0, -1, 3, -4, 4])))
    return header + bytes(i % 251 for i in range(length))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(blob=map_files(), kind=st.sampled_from([None, "PHMAP", "AMMAP"]))
def test_read_map_returns_map_or_pdisim_error(workdir, blob, kind):
    path = workdir / "fuzzed.map"
    path.write_bytes(blob)
    try:
        data = pio.read_map(path, kind)
    except PdisimError:
        return
    assert data.ndim == 2 and data.dtype == float


# -- read_interferogram_set -----------------------------------------------

# Frame entries name files that exist: a missing file is an OSError, which
# the CLI reports as such.
FRAME_FILES = {
    "a.ammap": (np.ones((2, 3)), "AMMAP"),
    "b.ammap": (np.zeros((2, 3)), "AMMAP"),
    "c.ammap": (np.ones((3, 2)), "AMMAP"),
    "d.ammap": (np.ones((2, 3)), "AMMAP"),
    "p.phmap": (np.zeros((2, 3)), "PHMAP"),
}
MANIFEST_LINES = st.one_of(
    st.sampled_from(sorted(FRAME_FILES) + ["bad.ammap"]).map(lambda n: f"frame = {n}"),
    st.tuples(st.sampled_from(["n_steps", "illumination", "reference_re",
                               "reference_im"]), NUMBERS)
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.lists(st.sampled_from(["0", "1.5", "3.0", "4.5", "6.5", "-1", "nan", "x"]),
             min_size=1, max_size=5).map(lambda a: "alphas = " + ",".join(a)),
    st.text(LINE_CHARS, max_size=20)
    .filter(lambda line: line.partition("=")[0].strip() != "frame"),
)


@pytest.fixture(scope="module")
def frames_dir(workdir):
    directory = workdir / "frames"
    directory.mkdir()
    for name, (data, kind) in FRAME_FILES.items():
        pio.write_map(directory / name, data, kind)
    (directory / "bad.ammap").write_bytes(b"AMMAP 9 9\n" + bytes(8))
    return directory


# the keys of a valid three-frame manifest, which drawn lines may override
VALID_KEYS = ["n_steps = 3", "alphas = 0.0,2.0943951023931953,4.1887902047863905",
              "reference_re = 1", "reference_im = 0"]


@FUZZ
@given(magic=st.sampled_from(["INTERFEROGRAMS 1", "INTERFEROGRAMS", "FRAMES"]),
       valid_keys=st.booleans(), lines=st.lists(MANIFEST_LINES, max_size=12))
def test_read_interferogram_set_returns_set_or_pdisim_error(frames_dir, magic,
                                                            valid_keys, lines):
    head = [magic] + (VALID_KEYS if valid_keys else [])
    manifest = frames_dir / "manifest.txt"
    manifest.write_text("\n".join(head + lines) + "\n", encoding="utf-8")
    try:
        iset = pio.read_interferogram_set(manifest)
    except PdisimError:
        return
    assert isinstance(iset, InterferogramSet)


def test_manifest_frames_of_different_shapes_are_an_error(frames_dir):
    manifest = frames_dir / "mixed.txt"
    for last in ("d", "c"):  # the same keys read with frames of one shape
        frames = [f"frame = {name}.ammap" for name in ("a", "b", last)]
        manifest.write_text("\n".join(["INTERFEROGRAMS 1"] + VALID_KEYS + frames)
                            + "\n", encoding="utf-8")
        if last == "d":
            assert pio.read_interferogram_set(os.fspath(manifest)).n_steps == 3
    with pytest.raises(PdisimError, match="frames differ in shape"):
        pio.read_interferogram_set(os.fspath(manifest))
