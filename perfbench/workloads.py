"""The benchmark's three workloads: inputs from a seed, one pass, checks.

Every input (configs, PHMAP/AMMAP scene files, noise seeds) is made here
from the workload seed; the program sees only those files and its argv.
A pass is one time-to-solution measurement at a given ``--jobs``.

- ``sweep_default``: the default ``qudit-experiment`` grid (48 cells). The
  per-repetition kernel and its noise draw do most of the work.
- ``map_preview``: ``sweep-map`` over 20 x 20 cheap cells, where per-cell
  set-up, task dispatch and the process pool are a large share.
- ``single_shot``: one experiment analysed from files (simulate,
  reconstruct, bootstrap fidelity, continuous experiment). It never enters
  the sweep kernel or the pool; every pixel passes the sensor, forward and
  io layers.
"""

import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import traceback

import numpy as np

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

#: Seed of the checked-in reference tables; timed runs refuse it.
REFERENCE_SEED = 90210417

#: Per-cell agreement with the reference, in combined standard errors.
Z_LIMIT = 5.0

N_STEPS = 4          # the sweep's phase steps
SLITS = 6            # default qudit dimension

MAP_ILLUMINATIONS = tuple(float(x) for x in np.round(np.geomspace(1.0, 20.0, 20), 3))
MAP_SIGMAS = tuple(float(x) for x in np.round(np.linspace(0.1, 3.0, 20), 3))

#: Single-shot scene: illumination and readout noise of `simulate`.
SHOT_ILLUMINATION = 11.3
SHOT_SIGMA = 0.2
SHOT_GRID = 128
SHOT_APERTURE_RADIUS = 56.0
#: Bootstrap protocol on the reconstructed maps (the paper's 81 x 64).
BOOT_STATES, BOOT_RUNS = 81, 64
#: Frame sets inverted per single-shot pass: `reconstruct`, plus the
#: reference and 3 illuminations x 2 sigmas of `continuous-experiment`.
SHOT_INVERSIONS = 1 + 1 + 3 * 2
#: Output bounds of a single-shot pass; see README.md for how they were set.
PHASE_ERR_STD_MAX = 0.45     # rad, circular std over slit pixels
PHASE_ERR_MEAN_MAX = 0.1     # rad, |circular mean| over slit pixels
BOOT_FIDELITY_MIN = 0.93


def pdisim_module(name):
    """A pdisim submodule, looked up at call time so traced passes see the
    tracer's wrappers."""
    return sys.modules[f"pdisim.{name}"]


def run_cli(argv) -> int:
    """Run the pdisim CLI in-process and return its exit code."""
    try:
        return pdisim_module("cli").main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed call, not a harness crash
        traceback.print_exc(file=sys.stderr)
        return 1


class Checks:
    """Counts output checks made and failed; keeps the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def write_map(path, data, kind):
    """PHMAP/AMMAP writer of the harness itself (header + LE float32)."""
    height, width = data.shape
    with open(path, "wb") as fh:
        fh.write(f"{kind} {width} {height}\n".encode("ascii"))
        fh.write(np.asarray(data, dtype="<f4").tobytes(order="C"))


def read_map_raw(path):
    """Float32 payload of a PHMAP/AMMAP file, parsed without pdisim."""
    with open(path, "rb") as fh:
        _kind, width, height = fh.readline().decode("ascii").split()
        return np.frombuffer(fh.read(), dtype="<f4").reshape(int(height), int(width))


def _wrap(angle):
    return np.angle(np.exp(1j * angle))


# -- sweeps ---------------------------------------------------------------


def _float_list(values):
    return ",".join(repr(v) for v in values)


def load_reference(name):
    """{(illumination, sigma, n_bin): (mean, stderr, std)} of a reference
    table; std is the per-repetition spread the table was measured with."""
    with open(os.path.join(REFERENCE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        table = json.load(fh)
    root_n = math.sqrt(table["repetitions"])
    return {(illum, sigma, n_bin): (mean, stderr, stderr * root_n)
            for illum, sigma, n_bin, mean, stderr in table["cells"]}


def parse_fidelity_csv(text):
    """{(illumination, sigma, n_bin): (mean, stderr)} from a sweep CSV.

    Empty cells (NaN rows of failed sweep cells) parse as NaN.
    """
    def num(s):
        return float(s) if s != "" else math.nan

    cells = {}
    for row in csv.DictReader(io.StringIO(text)):
        key = (float(row["illumination"]), float(row["readout_sigma_or_nsamp"]),
               int(row.get("n_bin", 1)))
        cells[key] = (num(row["mean_fidelity"]), num(row["stderr"]))
    return cells


def check_fidelity_table(text, reference, repetitions, checks: Checks, label: str):
    """One check for the table's cell set, one per cell against the
    reference: finite, and within Z_LIMIT combined standard errors.

    A cell's own standard error is floored at the reference spread over
    sqrt(repetitions): at 16 repetitions a cell that happens to contain
    none of its rare low-fidelity draws reports a far too small stderr.
    """
    try:
        cells = parse_fidelity_csv(text)
    except (KeyError, ValueError) as exc:
        checks.record(False, f"{label}: unreadable CSV ({exc})")
        return
    checks.record(set(cells) == set(reference), f"{label}: cell set differs from reference")
    for key, (ref_mean, ref_se, ref_std) in reference.items():
        mean, se = cells.get(key, (math.nan, math.nan))
        se = max(se, ref_std / math.sqrt(repetitions))
        ok = (math.isfinite(mean) and math.isfinite(se)
              and abs(mean - ref_mean) <= Z_LIMIT * math.hypot(se, ref_se))
        checks.record(ok, f"{label}: cell {key} mean {mean} vs reference "
                          f"{ref_mean} (stderr {se}, {ref_se})")


def check_identical(text_a, text_b, checks: Checks, label: str):
    checks.record(text_a == text_b, f"{label}: --jobs 1 and --jobs 2 outputs differ")


class SweepWorkload:
    """A sweep run through `pdisim.cli.main`; inputs are one config file
    plus `--seed`."""

    subcommand = ""
    csv_name = ""
    illuminations = (1.7, 3.0, 11.3)   # CLI defaults, listed for counting
    sigmas = (3.0, 1.0, 0.5, 0.2)
    n_bins = (1, 2, 4, 8)
    repetitions = 0
    reference_repetitions = 0

    def __init__(self, seed: int, workdir: str, repetitions: int | None = None):
        self.seed = seed
        self.workdir = workdir
        if repetitions is not None:
            self.repetitions = repetitions
        self.config_path = os.path.join(workdir, f"{self.name}.cfg")
        text = self.config_text()
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        cfg = pdisim_module("config").parse_config(text)
        cfg.scene.field()
        cfg.scene.region()
        self.outputs: dict[int, str] = {}

    @functools.cached_property
    def reference(self):
        return load_reference(self.name)

    def config_text(self) -> str:
        return f"[scene]\ntype = eq6_qudit\n\n[sweep]\nrepetitions = {self.repetitions}\n"

    @property
    def cells(self) -> int:
        return len(self.illuminations) * len(self.sigmas) * len(self.n_bins)

    @property
    def realizations(self) -> int:
        return self.cells * self.repetitions

    def values_read(self) -> int:
        """Noise values the output depends on, per pass: n_bin pixels per
        slit and frame, per repetition."""
        per_rep = sum(N_STEPS * SLITS * n for n in self.n_bins) * \
            len(self.illuminations) * len(self.sigmas)
        return per_rep * self.repetitions

    def run_pass(self, jobs: int, pass_index: int):
        out = os.path.join(self.workdir, f"out_jobs{jobs}")
        rc = run_cli([self.subcommand, "--config", self.config_path,
                      "--seed", str(self.seed), "--out", out,
                      "--jobs", str(jobs), "--quiet"])
        self.outputs[jobs] = out
        return rc

    def output_text(self, jobs: int) -> str:
        with open(os.path.join(self.outputs[jobs], self.csv_name), encoding="utf-8") as fh:
            return fh.read()

    def check_pass(self, jobs: int, rc, checks: Checks):
        label = f"{self.name} --jobs {jobs}"
        if not checks.record(rc == 0, f"{label}: exit code {rc}"):
            return
        check_fidelity_table(self.output_text(jobs), self.reference,
                             self.repetitions, checks, label)

    def check_pair(self, checks: Checks):
        try:
            texts = [self.output_text(1), self.output_text(2)]
        except OSError as exc:
            checks.record(False, f"{self.name}: output missing ({exc})")
            return
        check_identical(*texts, checks, self.name)

    def self_test(self) -> list[str]:
        """Corrupt the last output three ways; each must fail a check.

        The corrupted row is the cleanest cell (highest reference mean).
        Returns the corruptions that went undetected.
        """
        good = self.output_text(1)
        lines = good.splitlines(keepends=True)
        col = lines[0].rstrip("\n").split(",").index("mean_fidelity")
        clean = max(self.reference, key=lambda k: self.reference[k][0])
        keys = list(parse_fidelity_csv(good))
        row_index = 1 + keys.index(clean) if clean in keys else len(lines) - 1
        row = lines[row_index].rstrip("\n").split(",")

        def with_row(fields):
            out = list(lines)
            out[row_index] = ",".join(fields) + "\n"
            return "".join(out)

        shifted = row[:col] + [repr(float(row[col]) - 0.1)] + row[col + 1:]
        nan_row = row[:col] + [""] * (len(row) - col)
        last_digit = "1" if row[-1][-1] != "1" else "2"
        mismatch = row[:-1] + [row[-1][:-1] + last_digit]
        undetected = []
        for what, table, other in (("one cell shifted by 0.1", with_row(shifted), good),
                                   ("one NaN row", with_row(nan_row), good),
                                   ("jobs-1/jobs-2 mismatch", good, with_row(mismatch))):
            checks = Checks()
            check_fidelity_table(table, self.reference, self.repetitions, checks, what)
            check_identical(table, other, checks, what)
            if checks.failed == 0:
                undetected.append(what)
        return undetected


class SweepDefault(SweepWorkload):
    name = "sweep_default"
    subcommand = "qudit-experiment"
    csv_name = "fidelity.csv"
    repetitions = 128
    reference_repetitions = 16384


class MapPreview(SweepWorkload):
    name = "map_preview"
    subcommand = "sweep-map"
    csv_name = "fidelity_map.csv"
    illuminations = MAP_ILLUMINATIONS
    sigmas = MAP_SIGMAS
    n_bins = (1,)
    repetitions = 16
    reference_repetitions = 2048

    def config_text(self) -> str:
        return ("[scene]\ntype = eq6_qudit\n\n[sweep]\n"
                f"illuminations = {_float_list(self.illuminations)}\n"
                f"sigmas = {_float_list(self.sigmas)}\n"
                f"n_bins = 1\nrepetitions = {self.repetitions}\n")


# -- single shot ----------------------------------------------------------


def _slit_mask_layout():
    """(rows, cols) index arrays of the default 6-slit layout on the grid."""
    width, gap, length = 10, 4, 10
    box = SLITS * width + (SLITS - 1) * gap
    x0, y0 = (SHOT_GRID - box) // 2, (SHOT_GRID - length) // 2
    slits = []
    for k in range(SLITS):
        xk = x0 + k * (width + gap)
        rows, cols = np.mgrid[y0:y0 + length, xk:xk + width]
        slits.append((rows.ravel(), cols.ravel()))
    return slits


class SingleShot:
    """One experiment analysed from files, repeated over seeds.

    The scene is a 6-slit qudit with seed-drawn slit phases, stored as a
    PHMAP (phase) and AMMAP (a disk aperture) pair; the lens scene of
    `continuous-experiment` has a seed-drawn curvature.
    """

    name = "single_shot"
    cells = 0
    repetitions = 1
    realizations = SHOT_INVERSIONS

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng([seed, 0x51])
        self.slit_phases = rng.uniform(-np.pi, np.pi, SLITS)
        self.slits = _slit_mask_layout()
        phase = np.zeros((SHOT_GRID, SHOT_GRID))
        for k, (rows, cols) in enumerate(self.slits):
            phase[rows, cols] = self.slit_phases[k]
        yy, xx = np.mgrid[0:SHOT_GRID, 0:SHOT_GRID]
        centre = (SHOT_GRID - 1) / 2.0
        amplitude = (np.hypot(yy - centre, xx - centre) <= SHOT_APERTURE_RADIUS).astype(float)
        self.truth_phase = phase.astype("<f4").astype(float)
        phase_path = os.path.join(workdir, "scene.phmap")
        amplitude_path = os.path.join(workdir, "scene.ammap")
        write_map(phase_path, phase, "PHMAP")
        write_map(amplitude_path, amplitude, "AMMAP")
        curvature = np.pi / 2048.0 * rng.uniform(0.75, 1.25)

        self.scene_config = os.path.join(workdir, "scene.cfg")
        scene_text = (f"[scene]\ntype = phmap\nphase_map = {phase_path}\n"
                      f"amplitude_map = {amplitude_path}\n\n"
                      f"[psi]\nillumination = {SHOT_ILLUMINATION!r}\n\n"
                      f"[noise]\nreadout_sigma = {SHOT_SIGMA!r}\n")
        self.lens_config = os.path.join(workdir, "lens.cfg")
        lens_text = f"[scene]\ntype = lens\ncurvature = {curvature!r}\n"
        for path, text in ((self.scene_config, scene_text), (self.lens_config, lens_text)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

        config = pdisim_module("config")
        self.cfg = config.parse_config(scene_text)
        for cfg in (self.cfg, config.parse_config(lens_text)):
            cfg.scene.field()
            cfg.scene.region()
        field = pdisim_module("field")
        self.layout = field.SlitLayout(d=SLITS)
        self.target = field.QuditState.from_coeffs(np.exp(1j * self.slit_phases))
        self.last = None

    def pass_seed(self, pass_index: int) -> int:
        return self.seed * 1000 + pass_index

    def values_read(self) -> int:
        """Every noisy value of every inverted frame set enters the output."""
        return SHOT_INVERSIONS * N_STEPS * SHOT_GRID * SHOT_GRID

    def run_pass(self, jobs: int, pass_index: int):
        seed = str(self.pass_seed(pass_index))
        out = os.path.join(self.workdir, f"out_jobs{jobs}")
        sim, rec, cont = (os.path.join(out, d) for d in ("sim", "rec", "cont"))
        common = ["--jobs", str(jobs), "--quiet"]
        manifest = os.path.join(sim, "frames", "manifest.txt")
        rcs = [run_cli(["simulate", "--config", self.scene_config, "--seed", seed,
                        "--out", sim] + common)]
        rcs.append(run_cli(["reconstruct", manifest, "--out", rec] + common))
        stats = None
        if rcs[-1] == 0:
            stats = self._bootstrap(rec, int(seed))
        rcs.append(run_cli(["continuous-experiment", "--config", self.lens_config,
                            "--seed", seed, "--out", cont] + common))
        self.last = (pass_index, out, manifest, rec, cont)
        return rcs, stats

    def _bootstrap(self, rec, seed):
        pio = pdisim_module("io")
        with open(os.path.join(rec, "summary.txt"), encoding="utf-8") as fh:
            summary = dict(line.split(" = ") for line in fh.read().splitlines())
        result = pdisim_module("reconstruct").ReconstructionResult(
            phase=pio.read_map(os.path.join(rec, "phase.phmap"), "PHMAP"),
            amplitude=pio.read_map(os.path.join(rec, "amplitude.ammap"), "AMMAP"),
            c0_used=float(summary["c0_used"]), mu_used=float(summary["mu_used"]))
        policy = pdisim_module("qudit").BinningPolicy(n_bin=1)
        return pdisim_module("qudit").bootstrap_fidelity(
            result, self.target, self.layout, policy,
            n_states=BOOT_STATES, n_runs=BOOT_RUNS, seed=seed)

    def expected_frames(self, seed: int):
        """The noisy frames `simulate` computes, rebuilt through the library."""
        cfg = self.cfg
        noise = dataclasses.replace(cfg.noise, seed=seed)
        clean = pdisim_module("forward").simulate_interferograms(
            cfg.scene.field(), cfg.psi, cfg.illumination, region=cfg.scene.region())
        return pdisim_module("sensor").apply_noise(clean, noise).frames

    def check_pass(self, jobs: int, outcome, checks: Checks):
        rcs, stats = outcome
        pass_index, out, manifest, rec, cont = self.last
        label = f"single_shot --jobs {jobs} pass {pass_index}"
        for step, rc in zip(("simulate", "reconstruct", "continuous-experiment"), rcs):
            checks.record(rc == 0, f"{label}: {step} exit code {rc}")
        if rcs[0] == 0:
            self._check_frames(manifest, self.pass_seed(pass_index), checks, label)
        if rcs[1] == 0:
            self._check_phase(rec, checks, label)
            checks.record(stats is not None and BOOT_FIDELITY_MIN <= stats.mean <= 1.0,
                          f"{label}: bootstrap fidelity "
                          f"{None if stats is None else stats.mean}")
        if rcs[2] == 0:
            self._check_continuous(cont, checks, label)

    def _check_frames(self, manifest, seed, checks, label):
        directory = os.path.dirname(manifest)
        names = sorted(n for n in os.listdir(directory) if n.endswith(".ammap"))
        written = np.stack([read_map_raw(os.path.join(directory, n)) for n in names])
        read_back = pdisim_module("io").read_interferogram_set(manifest).frames
        expected = self.expected_frames(seed).astype("<f4")
        checks.record(written.shape == expected.shape
                      and np.array_equal(written, expected)
                      and np.array_equal(read_back, written.astype(float)),
                      f"{label}: read-back frames differ from the written frames")

    def _check_phase(self, rec, checks, label):
        phase = read_map_raw(os.path.join(rec, "phase.phmap")).astype(float)
        rows = np.concatenate([r for r, _ in self.slits])
        cols = np.concatenate([c for _, c in self.slits])
        err = _wrap(phase[rows, cols] - self.truth_phase[rows, cols])
        resultant = np.exp(1j * err).mean()
        spread = math.sqrt(-2.0 * math.log(abs(resultant)))
        offset = abs(float(np.angle(resultant)))
        checks.record(spread <= PHASE_ERR_STD_MAX and offset <= PHASE_ERR_MEAN_MAX,
                      f"{label}: slit phase error std {spread:.4f} rad, "
                      f"mean {offset:.4f} rad")

    def _check_continuous(self, cont, checks, label):
        with open(os.path.join(cont, "phase_error.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        by_sigma: dict[float, list] = {}
        for row in rows:
            by_sigma.setdefault(float(row["readout_sigma_or_nsamp"]), []).append(
                (float(row["illumination"]), float(row["circ_std"])))
        falls = bool(by_sigma) and all(
            all(b[1] < a[1] for a, b in zip(sorted(v), sorted(v)[1:]))
            for v in by_sigma.values())
        checks.record(falls, f"{label}: continuous circ_std does not fall with illumination")

    def check_pair(self, checks: Checks):
        pass

    def self_test(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (SweepDefault, MapPreview, SingleShot)}
