"""Run configuration: line-oriented ``key = value`` files with sections.

Sections are ``[scene]``, ``[psi]``, ``[noise]`` and ``[sweep]``. Only
``[scene]`` is mandatory. Outputs go where the command line says
(``--out``), so no key names a path to write. One table, ``_KEYS``, says
for every key how to parse it, which scene types have it, which
subcommands read it and where its value sits in a RunConfig, which is built
from the keys a config gives: a key left out takes the default of the
class that holds it, or for a few keys the config's own. Under a
subcommand, a key it does not read is rejected and ``serialize_config`` (the
run manifest) lists exactly the keys it reads. Errors are ConfigErrors that
name the key and line, which is why the parser is hand-rolled.
"""

import functools
import math
import os
from collections.abc import Callable
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from . import io as pio
from .errors import ConfigError, PdisimError, ShapeError
from .experiments import LensScene, QuditScene, SweepGrid
from .field import ComplexField, equal_step_state, field_from_phase_map
from .forward import PsiConfig
from .sensor import MAX_NSAMP, NoiseParams

#: Caps on the sizes and rates a config can ask for, far above any run of
#: the paper: grid sides and slit count (pixels), phase steps, repetitions
#: per cell, and photons per pixel (which keeps frame rates below numpy's
#: Poisson limit unless the reference is made huge).
MAX_GRID = 4096
MAX_STEPS = 64
MAX_REPETITIONS = 10**6
MAX_ILLUMINATION = 1e12


@dataclass(frozen=True)
class PhmapScene:
    """Scene backed by an external PHMAP (and optional AMMAP) file."""

    phase_path: str
    amplitude_path: str | None = None

    @functools.cached_property
    def _field(self) -> ComplexField:
        """The field, its maps read and built on first use only (its values
        are read-only)."""
        try:
            phase = pio.read_map(self.phase_path, "PHMAP")
            amplitude = (1.0 if self.amplitude_path is None
                         else pio.read_map(self.amplitude_path, "AMMAP"))
            return field_from_phase_map(phase, amplitude)
        except ShapeError as exc:
            raise ShapeError(f"{self.phase_path}, {self.amplitude_path}: "
                             f"{exc}") from None

    def field(self) -> ComplexField:
        return self._field

    def region(self) -> np.ndarray:
        return self.field().amplitude > 0


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings."""

    scene: object
    psi: PsiConfig
    illumination: float
    #: the phase step per slit that a qudit scene's state is built from
    state_step: float
    noise: NoiseParams
    noise_enabled: bool
    sweep: SweepGrid
    reference_illumination: float


def _bool(text):
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError("expected true/false")


def _float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _bounded(convert, minimum, maximum=math.inf):
    """Converter for a value of `convert` in [minimum, maximum]."""
    def parse(text):
        value = convert(text)
        if value < minimum:
            raise ValueError(f"must be >= {minimum}")
        if value > maximum:
            raise ValueError(f"must be <= {maximum:g}")
        return value
    return parse


_positive_int = _bounded(int, 1)
_nonnegative_int = _bounded(int, 0)
_nonnegative_float = _bounded(_float, 0)
_grid_size = _bounded(int, 1, MAX_GRID)
_illumination = _bounded(_float, 0, MAX_ILLUMINATION)
_nsamp = _bounded(int, 1, MAX_NSAMP)


def _existing_path(text):
    if not os.path.exists(text):
        raise ValueError("file not found")
    return text


def _list_of(convert):
    """Converter for a comma-separated list of `convert` values, none empty."""
    def parse(text):
        items = [t.strip() for t in text.split(",")]
        if "" in items:
            raise ValueError("empty list item")
        return tuple(map(convert, items))
    return parse


def _scene_type(cfg):
    return {QuditScene: "eq6_qudit", LensScene: "lens",
            PhmapScene: "phmap"}[type(cfg.scene)]


def _reference(part):
    """The `part` of the [psi] reference; None for the default reference,
    which is None."""
    return lambda cfg: getattr(cfg.psi.reference_override, part, None)


_SCENE_TYPES = ("eq6_qudit", "lens", "phmap")
_QUDIT, _LENS, _PHMAP = ("eq6_qudit",), ("lens",), ("phmap",)
_SIMULATE, _CONTINUOUS = ("simulate",), ("continuous-experiment",)
_SWEEPS = ("qudit-experiment", "sweep-map")
_EXPERIMENTS = _SWEEPS + _CONTINUOUS


@dataclass(frozen=True)
class _Key:
    """One config key: `convert` parses its text and checks its range;
    `value`, a function or an attribute path, reads its resolved value from
    a RunConfig (None: not written)."""

    convert: Callable
    value: Callable | str
    scenes: tuple = _SCENE_TYPES
    readers: tuple = _SIMULATE + _EXPERIMENTS

    def read_by(self, subcommand) -> bool:
        """Whether `subcommand` reads the key; every key counts for None."""
        return subcommand is None or subcommand in self.readers


#: Every key, in the order serialize_config writes them.
_KEYS = {
    ("scene", "type"): _Key(str, _scene_type),
    ("scene", "d"): _Key(_grid_size, "scene.layout.d", _QUDIT),
    ("scene", "slit_width_px"): _Key(_positive_int, "scene.layout.slit_width_px",
                                     _QUDIT),
    ("scene", "slit_gap_px"): _Key(_nonnegative_int, "scene.layout.slit_gap_px",
                                   _QUDIT),
    ("scene", "slit_length_px"): _Key(_positive_int, "scene.layout.slit_length_px",
                                      _QUDIT),
    ("scene", "curvature"): _Key(_float, "scene.curvature", _LENS),
    ("scene", "amplitude"): _Key(_float, "scene.amplitude", _LENS),
    ("scene", "grid_width"): _Key(_grid_size, "scene.grid.width", _QUDIT + _LENS),
    ("scene", "grid_height"): _Key(_grid_size, "scene.grid.height", _QUDIT + _LENS),
    ("scene", "background_amplitude"): _Key(_float, "scene.background_amplitude",
                                            _QUDIT),
    ("scene", "background_phase"): _Key(_float, "scene.background_phase", _QUDIT),
    ("scene", "state_step"): _Key(_float, "state_step", _QUDIT),
    ("scene", "phase_map"): _Key(_existing_path, "scene.phase_path", _PHMAP),
    ("scene", "amplitude_map"): _Key(_existing_path, "scene.amplitude_path", _PHMAP),
    ("psi", "n_steps"): _Key(_bounded(int, 3, MAX_STEPS), "psi.n_steps"),
    ("psi", "illumination"): _Key(_illumination, "illumination", readers=_SIMULATE),
    ("psi", "reference_re"): _Key(_float, _reference("real")),
    ("psi", "reference_im"): _Key(_float, _reference("imag")),
    ("noise", "readout_sigma"): _Key(_nonnegative_float, "noise.readout_sigma",
                                     readers=_SIMULATE),
    ("noise", "nsamp"): _Key(_nsamp, "noise.nsamp", readers=_SIMULATE),
    ("noise", "quantize"): _Key(_bool, "noise.quantize"),
    ("noise", "seed"): _Key(_nonnegative_int, "noise.seed"),
    ("sweep", "illuminations"): _Key(_list_of(_illumination), "sweep.illuminations",
                                     readers=_EXPERIMENTS),
    ("sweep", "sigmas"): _Key(_list_of(_nonnegative_float), "sweep.sigmas",
                              readers=_EXPERIMENTS),
    ("sweep", "nsamps"): _Key(_list_of(_nsamp), "sweep.nsamps", readers=_EXPERIMENTS),
    ("sweep", "n_bins"): _Key(_list_of(_positive_int), "sweep.n_bins", readers=_SWEEPS),
    ("sweep", "repetitions"): _Key(_bounded(int, 1, MAX_REPETITIONS),
                                   "sweep.repetitions", readers=_SWEEPS),
    ("sweep", "reference_illumination"): _Key(_illumination, "reference_illumination",
                                              readers=_CONTINUOUS),
}


def _tokenize(text: str, subcommand):
    """The (value text, line number) of each (section, key) in `text`, and
    the names of its sections."""
    entries: dict[tuple[str, str], tuple[str, int]] = {}
    sections = set()
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not any(section == current for section, _ in _KEYS):
                raise ConfigError(f"unknown section [{current}]", line=lineno)
            sections.add(current)
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if current is None:
            raise ConfigError("key outside any section", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        row = _KEYS.get((current, key))
        if row is None:
            raise ConfigError(f"unknown key in [{current}]", key=key, line=lineno)
        if not row.read_by(subcommand):
            raise ConfigError(f"[{current}] {key} is not read by {subcommand}",
                              key=key, line=lineno)
        if (current, key) in entries:
            raise ConfigError("duplicate key", key=key, line=lineno)
        entries[current, key] = (value.strip(), lineno)
    return entries, sections


def _get(entries, section, key, default):
    if (section, key) not in entries:
        return default
    text, line = entries[section, key]
    try:
        return _KEYS[section, key].convert(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value {text!r}: {exc}", key=key, line=line) from None


def _given(entries, path):
    """The fields of the object at value path `path` (see _Key) that the
    config gives, converted, by name: the rest take its class's defaults."""
    return {row.value.rpartition(".")[2]: _get(entries, section, key, None)
            for (section, key), row in _KEYS.items()
            if (section, key) in entries and isinstance(row.value, str)
            and row.value.rpartition(".")[0] == path}


def _fail(entries, section, key, message):
    _, line = entries.get((section, key), (None, None))
    raise ConfigError(message, key=key, line=line)


def _build(fail, blame, label, model, *args, **fields):
    """`model(*args, **fields)`, whose errors become a ConfigError blamed on
    the (section, key) `blame`: the converters have checked each field on
    its own, so these are the checks across fields."""
    try:
        return model(*args, **fields)
    except PdisimError as exc:
        fail(*blame, f"invalid {label}: {exc}")


def parse_config(text: str, subcommand: str | None = None) -> RunConfig:
    """Parse and fully validate a config; every default is resolved.

    Each object is built from the keys the config gives (_given). With a
    subcommand, a key it does not read is a ConfigError, and a check across
    keys runs only if the subcommand reads the key it blames.
    """
    entries, sections = _tokenize(text, subcommand)
    get = functools.partial(_get, entries)
    given = functools.partial(_given, entries)
    fail = functools.partial(_fail, entries)
    kind = get("scene", "type", "eq6_qudit")
    if kind not in _KEYS["scene", "type"].scenes:
        fail("scene", "type", f"scene type must be one of {_SCENE_TYPES}")
    for section, key in entries:
        if kind not in _KEYS[section, key].scenes:
            fail(section, key, f"not a key of scene type {kind}")

    grid_fields = given("scene.grid")
    step = get("scene", "state_step", 2.0 * np.pi / 5.0)
    if kind == "eq6_qudit":
        # SlitLayout has left to reject a slit shorter than it is wide
        layout = _build(fail, ("scene", "slit_length_px"), "slit layout", replace,
                        QuditScene.layout, **given("scene.layout"))
        grid = replace(QuditScene.grid, **grid_fields)
        for key, needed, size in (("grid_width", layout.bounding_width, grid.width),
                                  ("grid_height", layout.slit_length_px, grid.height)):
            if needed > size:
                fail("scene", key, f"the slits need {needed} pixels, the grid "
                                   f"has {size}")
        scene = QuditScene(grid=grid, layout=layout,
                           state=equal_step_state(layout.d, step), **given("scene"))
    elif kind == "lens":
        scene = LensScene(grid=replace(LensScene.grid, **grid_fields), **given("scene"))
    else:
        fields = given("scene")
        if "phase_path" not in fields:
            fail("scene", "type", "phmap scene requires a phase_map path")
        scene = PhmapScene(**fields)

    psi = PsiConfig(**given("psi"))
    ref_re = get("psi", "reference_re", None)
    ref_im = get("psi", "reference_im", None)
    if ref_re is not None or ref_im is not None:
        reference = complex(ref_re or 0.0, ref_im or 0.0)
        if reference == 0:
            fail("psi", "reference_re" if ref_re is not None else "reference_im",
                 "the reference amplitude must not be zero")
        psi = replace(psi, reference_override=reference)
    illumination = get("psi", "illumination", 3.0)

    fields = given("noise")
    if "nsamp" not in fields:
        fields.setdefault("readout_sigma", 0.2)
    # all NoiseParams has left to reject is a sigma that disagrees with nsamp
    noise = _build(fail, ("noise", "readout_sigma"), "[noise]", NoiseParams, **fields)

    fields = given("sweep")
    if kind == "lens":
        fields.setdefault("illuminations", (1.9, 4.0, 12.7))
        # continuous-experiment compares the worst and the best readout
        if "nsamps" not in fields:
            fields.setdefault("sigmas", (3.0, 0.2))
    # all SweepGrid has left to reject is sigmas that disagree with nsamps
    sweep = _build(fail, ("sweep", "sigmas"), "[sweep]", SweepGrid, **fields)
    reference_illumination = get("sweep", "reference_illumination", 500.0)
    if (_KEYS["sweep", "reference_illumination"].read_by(subcommand)
            and reference_illumination < max(sweep.illuminations)):
        fail("sweep", "reference_illumination",
             "reference illumination must be at least the largest sweep illumination")
    if kind == "eq6_qudit" and _KEYS["sweep", "n_bins"].read_by(subcommand):
        for n_bin in sweep.n_bins:
            if n_bin > layout.pixels_per_slit:
                fail("sweep", "n_bins", f"n_bin={n_bin} exceeds "
                                        f"{layout.pixels_per_slit} pixels per slit")

    return RunConfig(
        scene=scene,
        psi=psi,
        illumination=illumination,
        state_step=step,
        noise=noise,
        noise_enabled="noise" in sections,
        sweep=sweep,
        reference_illumination=reference_illumination,
    )


def _text(value) -> str:
    """A resolved value as config text that parses back to it."""
    if isinstance(value, tuple):
        return ",".join(_text(item) for item in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return pio.fmt_float(value)
    return str(value)


def serialize_config(cfg: RunConfig, subcommand: str | None = None) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x). With a
    subcommand, it holds only the keys that subcommand reads.

    For simulate, and without a subcommand, the [noise] section's presence
    switches noise on, so it is written only when noise is on; the
    experiments read quantize and seed whatever the config says.
    """
    kind = _scene_type(cfg)
    noise = cfg.noise_enabled or subcommand in _EXPERIMENTS
    sections = {}
    for (section, key), row in _KEYS.items():
        if (kind not in row.scenes or not row.read_by(subcommand)
                or (section == "noise" and not noise)):
            continue
        value = row.value(cfg) if callable(row.value) else attrgetter(row.value)(cfg)
        if value is not None:
            sections.setdefault(section, [f"[{section}]"]).append(
                f"{key} = {_text(value)}")
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"
