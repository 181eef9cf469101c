"""Run configuration: line-oriented ``key = value`` files with sections.

Sections are ``[scene]``, ``[psi]``, ``[noise]``, ``[sweep]``, ``[output]``.
Only ``[scene]`` is mandatory; every other key has a default. Unknown keys,
type mismatches and constraint violations raise ConfigError naming the key
and line number. A hand-rolled parser (rather than configparser) is used so
diagnostics can carry line numbers.
"""

import functools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import io as pio
from .errors import ConfigError, PdisimError
from .experiments import LensScene, QuditScene, SweepGrid
from .field import (ComplexField, GridSpec, QuditState, SlitLayout,
                    field_from_phase_map)
from .forward import PsiConfig
from .sensor import MAX_NSAMP, NoiseParams

#: The [scene] keys each scene type reads, besides `type`.
_SCENE_KEYS = {
    "eq6_qudit": {
        "d", "slit_width_px", "slit_gap_px", "slit_length_px", "grid_width",
        "grid_height", "background_amplitude", "background_phase",
        "state_step",
    },
    "lens": {"grid_width", "grid_height", "curvature", "amplitude"},
    "phmap": {"phase_map", "amplitude_map"},
}

_SECTIONS = {
    "scene": {"type"}.union(*_SCENE_KEYS.values()),
    "psi": {"n_steps", "illumination", "reference_re", "reference_im"},
    "noise": {"readout_sigma", "nsamp", "quantize", "seed"},
    "sweep": {
        "illuminations", "sigmas", "nsamps", "n_bins", "repetitions",
        "reference_illumination",
    },
    "output": {"directory"},
}

_SCENE_TYPES = tuple(_SCENE_KEYS)

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
    def _maps(self):
        """The phase and amplitude maps, read on first use only."""
        phase = pio.read_map(self.phase_path, "PHMAP")
        amplitude = 1.0
        if self.amplitude_path is not None:
            amplitude = pio.read_map(self.amplitude_path, "AMMAP")
        return phase, amplitude

    def field(self) -> ComplexField:
        return field_from_phase_map(*self._maps)

    def region(self) -> np.ndarray:
        return self.field().amplitude > 0


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run settings."""

    scene: object
    psi: PsiConfig
    illumination: float
    noise: NoiseParams
    noise_enabled: bool
    sweep: SweepGrid
    reference_illumination: float
    output_directory: str | None


class _Entry:
    __slots__ = ("value", "line")

    def __init__(self, value, line):
        self.value = value
        self.line = line


def _tokenize(text: str) -> dict[str, dict[str, _Entry]]:
    sections: dict[str, dict[str, _Entry]] = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]", line=lineno)
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        if current is None:
            raise ConfigError("key outside any section", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        section_name = next(n for n, s in sections.items() if s is current)
        if key not in _SECTIONS[section_name]:
            raise ConfigError(f"unknown key in [{section_name}]",
                              key=key, line=lineno)
        if key in current:
            raise ConfigError("duplicate key", key=key, line=lineno)
        current[key] = _Entry(value.strip(), lineno)
    return sections


def _get(section, key, convert, default):
    entry = section.get(key)
    if entry is None:
        return default
    try:
        return convert(entry.value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value {entry.value!r}: {exc}",
                          key=key, line=entry.line) from None


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
_nonnegative_float = _bounded(_float, 0)
_grid_size = _bounded(int, 1, MAX_GRID)
_illumination = _bounded(_float, 0, MAX_ILLUMINATION)
_nsamp = _bounded(int, 1, MAX_NSAMP)


def _existing_path(text):
    if not os.path.exists(text):
        raise ValueError("file not found")
    return text


def _list_of(convert):
    """Converter for a non-empty comma-separated list of `convert` values."""
    def parse(text):
        items = [t.strip() for t in text.split(",") if t.strip()]
        if not items:
            raise ValueError("empty list")
        return tuple(convert(t) for t in items)
    return parse


def _fail(section, key, message):
    entry = section.get(key)
    raise ConfigError(message, key=key,
                      line=entry.line if entry is not None else None)


@contextmanager
def _translated(label, section=None, key=None):
    """Report a model error raised in the block as a ConfigError, blamed on
    `key` of `section` when given; a ConfigError passes through as is."""
    try:
        yield
    except ConfigError:
        raise
    except PdisimError as exc:
        _fail(section or {}, key, f"invalid {label}: {exc}")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a config; every default is resolved."""
    sections = _tokenize(text)
    scene_sec = sections.get("scene", {})
    kind = _get(scene_sec, "type", str, "eq6_qudit")
    if kind not in _SCENE_TYPES:
        _fail(scene_sec, "type", f"scene type must be one of {_SCENE_TYPES}")
    for key in scene_sec:
        if key != "type" and key not in _SCENE_KEYS[kind]:
            _fail(scene_sec, key, f"not a key of scene type {kind}")

    grid = GridSpec(
        width=_get(scene_sec, "grid_width", _grid_size, 128),
        height=_get(scene_sec, "grid_height", _grid_size, 128),
    )
    pixels_per_slit = None
    if kind == "eq6_qudit":
        # the converters check each key on its own; SlitLayout has left to
        # reject a slit shorter than it is wide
        with _translated("slit layout", scene_sec, "slit_length_px"):
            layout = SlitLayout(
                d=_get(scene_sec, "d", _grid_size, 6),
                slit_width_px=_get(scene_sec, "slit_width_px", _positive_int, 10),
                slit_gap_px=_get(scene_sec, "slit_gap_px", _bounded(int, 0), 4),
                slit_length_px=_get(scene_sec, "slit_length_px", _positive_int, 10),
            )
        for key, needed, size in (("grid_width", layout.bounding_width, grid.width),
                                  ("grid_height", layout.slit_length_px, grid.height)):
            if needed > size:
                _fail(scene_sec, key, f"the slits need {needed} pixels, the grid "
                                      f"has {size}")
        step = _get(scene_sec, "state_step", _float, 2.0 * np.pi / 5.0)
        state = QuditState.from_coeffs(np.exp(1j * step * np.arange(layout.d)))
        scene = QuditScene(
            grid=grid,
            layout=layout,
            state=state,
            background_amplitude=_get(scene_sec, "background_amplitude",
                                      _float, 1.0),
            background_phase=_get(scene_sec, "background_phase", _float, 0.0),
        )
        pixels_per_slit = layout.pixels_per_slit
    elif kind == "lens":
        scene = LensScene(
            grid=grid,
            curvature=_get(scene_sec, "curvature", _float, np.pi / 2048.0),
            amplitude=_get(scene_sec, "amplitude", _float, 1.0),
        )
    else:
        phase_path = _get(scene_sec, "phase_map", _existing_path, None)
        if phase_path is None:
            _fail(scene_sec, "type", "phmap scene requires a phase_map path")
        scene = PhmapScene(
            phase_path=phase_path,
            amplitude_path=_get(scene_sec, "amplitude_map", _existing_path, None),
        )

    psi_sec = sections.get("psi", {})
    psi = PsiConfig(n_steps=_get(psi_sec, "n_steps", _bounded(int, 3, MAX_STEPS), 4))
    ref_re = _get(psi_sec, "reference_re", _float, None)
    ref_im = _get(psi_sec, "reference_im", _float, None)
    if ref_re is not None or ref_im is not None:
        reference = complex(ref_re or 0.0, ref_im or 0.0)
        if reference == 0:
            _fail(psi_sec, "reference_re" if ref_re is not None else "reference_im",
                  "the reference amplitude must not be zero")
        psi = PsiConfig(n_steps=psi.n_steps, reference_override=reference)
    illumination = _get(psi_sec, "illumination", _illumination, 3.0)

    noise_sec = sections.get("noise", {})
    nsamp = _get(noise_sec, "nsamp", _nsamp, None)
    sigma = _get(noise_sec, "readout_sigma", _nonnegative_float, None)
    if sigma is None and nsamp is None:
        sigma = 0.2
    # all NoiseParams has left to reject is a sigma that disagrees with nsamp
    with _translated("[noise]", noise_sec, "readout_sigma"):
        noise = NoiseParams(
            readout_sigma=sigma,
            nsamp=nsamp,
            quantize=_get(noise_sec, "quantize", _bool, False),
            seed=_get(noise_sec, "seed", _bounded(int, 0), 0),
        )

    sweep_sec = sections.get("sweep", {})
    lens = kind == "lens"
    default_illums = (1.9, 4.0, 12.7) if lens else (1.7, 3.0, 11.3)
    # continuous-experiment compares the worst and the best readout
    default_sigmas = (3.0, 0.2) if lens and "nsamps" not in sweep_sec else None
    # The converters check each key on its own, so all SweepGrid has left
    # to reject is sigmas that disagree with nsamps.
    with _translated("[sweep]", sweep_sec, "sigmas"):
        sweep = SweepGrid(
            illuminations=_get(sweep_sec, "illuminations",
                               _list_of(_illumination), default_illums),
            sigmas=_get(sweep_sec, "sigmas", _list_of(_nonnegative_float),
                        default_sigmas),
            nsamps=_get(sweep_sec, "nsamps", _list_of(_nsamp), None),
            n_bins=_get(sweep_sec, "n_bins", _list_of(_positive_int), (1, 2, 4, 8)),
            repetitions=_get(sweep_sec, "repetitions",
                             _bounded(int, 1, MAX_REPETITIONS), 2000),
        )
    reference_illumination = _get(sweep_sec, "reference_illumination",
                                  _illumination, 500.0)
    if reference_illumination < max(sweep.illuminations):
        _fail(sweep_sec, "reference_illumination",
              "reference illumination must be at least the largest sweep illumination")
    if pixels_per_slit is not None:
        for n_bin in sweep.n_bins:
            if n_bin > pixels_per_slit:
                _fail(sweep_sec, "n_bins",
                      f"n_bin={n_bin} exceeds {pixels_per_slit} pixels per slit")

    output_sec = sections.get("output", {})
    outdir = _get(output_sec, "directory", str, None)

    return RunConfig(
        scene=scene,
        psi=psi,
        illumination=illumination,
        noise=noise,
        noise_enabled="noise" in sections,
        sweep=sweep,
        reference_illumination=reference_illumination,
        output_directory=outdir,
    )


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) == parse(x)."""
    f = pio.fmt_float
    kind = {QuditScene: "eq6_qudit", LensScene: "lens",
            PhmapScene: "phmap"}[type(cfg.scene)]
    lines = ["[scene]", f"type = {kind}"]
    if kind == "eq6_qudit":
        layout = cfg.scene.layout
        step = float(np.angle(cfg.scene.state.coeffs[1] /
                              cfg.scene.state.coeffs[0])) if layout.d > 1 else 0.0
        if step < 0:
            step += 2.0 * np.pi
        lines += [
            f"d = {layout.d}",
            f"slit_width_px = {layout.slit_width_px}",
            f"slit_gap_px = {layout.slit_gap_px}",
            f"slit_length_px = {layout.slit_length_px}",
            f"grid_width = {cfg.scene.grid.width}",
            f"grid_height = {cfg.scene.grid.height}",
            f"background_amplitude = {f(cfg.scene.background_amplitude)}",
            f"background_phase = {f(cfg.scene.background_phase)}",
            f"state_step = {f(step)}",
        ]
    elif kind == "lens":
        lines += [
            f"curvature = {f(cfg.scene.curvature)}",
            f"amplitude = {f(cfg.scene.amplitude)}",
            f"grid_width = {cfg.scene.grid.width}",
            f"grid_height = {cfg.scene.grid.height}",
        ]
    else:
        lines.append(f"phase_map = {cfg.scene.phase_path}")
        if cfg.scene.amplitude_path is not None:
            lines.append(f"amplitude_map = {cfg.scene.amplitude_path}")

    lines += ["", "[psi]", f"n_steps = {cfg.psi.n_steps}",
              f"illumination = {f(cfg.illumination)}"]
    if cfg.psi.reference_override is not None:
        ref = cfg.psi.reference_override
        lines += [f"reference_re = {f(ref.real)}", f"reference_im = {f(ref.imag)}"]

    if cfg.noise_enabled:
        lines += ["", "[noise]",
                  f"readout_sigma = {f(cfg.noise.readout_sigma)}"]
        if cfg.noise.nsamp is not None:
            lines.append(f"nsamp = {cfg.noise.nsamp}")
        lines += [f"quantize = {'true' if cfg.noise.quantize else 'false'}",
                  f"seed = {cfg.noise.seed}"]

    lines += [
        "", "[sweep]",
        "illuminations = " + ",".join(f(x) for x in cfg.sweep.illuminations),
        "sigmas = " + ",".join(f(x) for x in cfg.sweep.sigmas),
    ]
    if cfg.sweep.nsamps is not None:
        lines.append("nsamps = " + ",".join(str(x) for x in cfg.sweep.nsamps))
    lines += [
        "n_bins = " + ",".join(str(x) for x in cfg.sweep.n_bins),
        f"repetitions = {cfg.sweep.repetitions}",
        f"reference_illumination = {f(cfg.reference_illumination)}",
    ]
    if cfg.output_directory is not None:
        lines += ["", "[output]", f"directory = {cfg.output_directory}"]
    return "\n".join(lines) + "\n"
