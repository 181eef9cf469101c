"""On-disk formats.

Phase maps: text header ``PHMAP <width> <height>\\n`` followed by
width*height little-endian float32, row-major, radians. Amplitude maps are
identical with header ``AMMAP``; a reader names the kind it expects, and
rejects a map holding a NaN or infinite value.
Interferogram sets are one AMMAP file per frame plus a line-oriented
manifest; its ``alphas`` line must list the N equal steps 2 pi n / N. CSV
tables write every float in shortest round-trip form (``fmt_float``).
"""

import os

import numpy as np

from .errors import DomainError, ShapeError
from .forward import InterferogramSet, step_phases
from .reconstruct import c0_analytic

_MAP_MAGIC = {"PHMAP", "AMMAP"}


def write_map(path, data: np.ndarray, kind: str):
    """Write a 2D float map. kind is 'PHMAP' or 'AMMAP'."""
    if kind not in _MAP_MAGIC:
        raise ValueError(f"unknown map kind {kind!r}")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ShapeError("map must be 2D")
    height, width = data.shape
    with open(path, "wb") as fh:
        fh.write(f"{kind} {width} {height}\n".encode("ascii"))
        fh.write(data.astype("<f4").tobytes(order="C"))


def read_map(path, kind: str) -> np.ndarray:
    """Read a PHMAP/AMMAP file whose header must name `kind` and whose
    values must all be finite."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if len(header) != 3 or header[0] not in _MAP_MAGIC:
            raise ShapeError(f"{path}: not a PHMAP/AMMAP file")
        if header[0] != kind:
            raise ShapeError(f"{path}: expected {kind}, found {header[0]}")
        try:
            width, height = int(header[1]), int(header[2])
        except ValueError:  # not a number, or more digits than int() takes
            width = height = 0
        if width < 1 or height < 1:
            raise ShapeError(f"{path}: bad map size {header[1]} x {header[2]}")
        # checked before reading, so a bogus header allocates nothing
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        if payload != 4 * width * height:
            raise ShapeError(f"{path}: header says {width} x {height} float32, "
                             f"payload has {payload} bytes")
        values = np.frombuffer(fh.read(payload), dtype="<f4")
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise DomainError(f"{path}: {bad} of {values.size} values are NaN or "
                          "infinite")
    return values.astype(float).reshape(height, width)


def write_phase_map(path, phase):
    write_map(path, phase, "PHMAP")


def write_amplitude_map(path, amplitude):
    write_map(path, amplitude, "AMMAP")


def fmt_float(x) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def write_interferogram_set(directory, iset):
    """Write one AMMAP per frame plus `manifest.txt`. Returns manifest path."""
    os.makedirs(directory, exist_ok=True)
    frame_names = []
    for n, frame in enumerate(iset.frames):
        name = f"frame_{n}.ammap"
        write_map(os.path.join(directory, name), frame, "AMMAP")
        frame_names.append(name)
    lines = ["INTERFEROGRAMS 1"]
    lines.append(f"n_steps = {iset.n_steps}")
    lines.append("alphas = " + ",".join(map(fmt_float, step_phases(iset.n_steps))))
    lines.append(f"reference_re = {fmt_float(iset.reference.real)}")
    lines.append(f"reference_im = {fmt_float(iset.reference.imag)}")
    illum = "" if iset.illumination is None else fmt_float(iset.illumination)
    lines.append(f"illumination = {illum}")
    for name in frame_names:
        lines.append(f"frame = {name}")
    manifest = os.path.join(directory, "manifest.txt")
    with open(manifest, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


def read_interferogram_set(manifest_path):
    """Load an InterferogramSet from its manifest file. Its `alphas` must be
    the equal steps `step_phases(n_steps)` within 1e-12, the only steps that
    the reconstruction inverts, and its reference must give a finite C0."""
    directory = os.path.dirname(os.path.abspath(manifest_path))
    keys = {}
    frames = []
    with open(manifest_path, "r", encoding="utf-8", errors="replace") as fh:
        magic = fh.readline().strip()
        if not magic.startswith("INTERFEROGRAMS"):
            raise ShapeError(f"{manifest_path}: not an interferogram manifest")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "frame":
                frames.append(read_map(os.path.join(directory, value), "AMMAP"))
            else:
                keys[key] = value
    try:
        n_steps = int(keys["n_steps"])
        alphas = [float(v) for v in keys["alphas"].split(",")]
        reference = complex(float(keys["reference_re"]), float(keys["reference_im"]))
        illumination = float(keys["illumination"]) if keys.get("illumination") else None
    except KeyError as exc:
        raise ShapeError(f"{manifest_path}: missing key {exc.args[0]!r}") from None
    except ValueError as exc:
        raise ShapeError(f"{manifest_path}: {exc}") from None
    if n_steps < 3:
        raise ShapeError(f"{manifest_path}: phase retrieval needs >= 3 steps, "
                         f"got {n_steps}")
    # count first, so a huge n_steps builds no steps; `not <=` rejects NaN
    if len(alphas) != n_steps or any(not abs(a - b) <= 1e-12 for a, b in
                                     zip(alphas, step_phases(n_steps))):
        raise ShapeError(f"{manifest_path}: alphas must be the {n_steps} equal "
                         f"steps 2 pi n / {n_steps}")
    try:
        c0_analytic(reference, n_steps)
    except DomainError as exc:
        raise DomainError(f"{manifest_path}: {exc}") from None
    if len(frames) != n_steps:
        raise ShapeError(
            f"{manifest_path}: manifest lists {len(frames)} frames, n_steps={n_steps}"
        )
    if any(frame.shape != frames[0].shape for frame in frames):
        raise ShapeError(f"{manifest_path}: frames differ in shape")
    return InterferogramSet(frames=np.stack(frames), reference=reference,
                            illumination=illumination)


def write_csv(path, header, rows):
    """Comma-separated, '.' decimal, UTF-8, \\n line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt_float(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")
