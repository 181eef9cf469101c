"""Command-line front end.

Subcommands: simulate, reconstruct, qudit-experiment, sweep-map,
continuous-experiment. Each writes its files under --out, which every one
requires. Unless --quiet, a run that succeeds ends with one stderr line
giving what it computed (its frame, cell or case count, and for a sweep or
continuous-experiment the threads it ran on) and its wall time, which no
file records. Exit codes: 0 success, 2 config error, 1 runtime failure.
"""

import argparse
import ctypes
import dataclasses
import functools
import os
import sys
import time

import numpy as np

from . import __version__, io as pio
from .config import RunConfig, parse_config, serialize_config
from .errors import ConfigError, PdisimError
from .experiments import (READS_PER_THREAD, LensScene, QuditScene,
                          continuous_experiment, continuous_threads,
                          fidelity_sweep, sweep_threads)
from .reconstruct import c0_empirical, extract_phase
from .sensor import apply_noise
from .forward import simulate_interferograms


def _keep_freed_memory():
    """Fix glibc's mmap and trim thresholds: under its self-adjusting ones,
    sweep workers give freed arrays back after most cells and fault them in
    again, 400 to 57 000 times per 400-cell map. No-op without mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _load_config(args) -> RunConfig:
    if args.config is None:
        raise ConfigError("--config is required for this subcommand")
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{args.config}: {exc}") from None
    cfg = parse_config(text, args.command)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        cfg = dataclasses.replace(
            cfg, noise=dataclasses.replace(cfg.noise, seed=args.seed)
        )
    return cfg


def _write_run_manifest(outdir, cfg: RunConfig, subcommand: str):
    """Written last, via a temporary name: its presence means the run
    finished. It names no path, so that reruns into other directories stay
    byte-identical."""
    # numpy's Poisson and normal streams are only fixed within one version
    text = (f"# pdisim run manifest\n# pdisim version = {__version__}\n"
            f"# numpy version = {np.__version__}\nsubcommand = {subcommand}\n"
            f"seed = {cfg.noise.seed}\n\n" + serialize_config(cfg, subcommand))
    path = os.path.join(outdir, "manifest.txt")
    with open(path + ".tmp", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


def cmd_simulate(args) -> str:
    cfg = _load_config(args)
    fld = cfg.scene.field()
    frames = simulate_interferograms(fld, cfg.psi, cfg.illumination,
                                     region=cfg.scene.region())
    what = f"{frames.n_steps} noiseless frames"
    if cfg.noise_enabled:
        frames = apply_noise(frames, cfg.noise)
        what = (f"{frames.n_steps} noisy frames "
                f"(sigma={cfg.noise.readout_sigma} e-)")
    pio.write_interferogram_set(os.path.join(args.out, "frames"), frames)
    _write_run_manifest(args.out, cfg, "simulate")
    return what


def cmd_reconstruct(args) -> str:
    iset = pio.read_interferogram_set(args.frames_manifest)
    c0 = None  # analytic, from the stored reference
    if args.c0_mode == "empirical":
        # dark pixels: those whose frame 0 reads <= 0
        c0 = c0_empirical(iset.frames, iset.frames[0] <= 0)
    result = extract_phase(iset, c0=c0)
    os.makedirs(args.out, exist_ok=True)
    pio.write_phase_map(os.path.join(args.out, "phase.phmap"), result.phase)
    pio.write_amplitude_map(os.path.join(args.out, "amplitude.ammap"),
                            result.amplitude)
    summary = (f"n_frames = {iset.n_steps}\n"
               f"c0_used = {pio.fmt_float(result.c0_used)}\n"
               f"mu_used = {pio.fmt_float(result.mu_used)}\n")
    with open(os.path.join(args.out, "summary.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write(summary)
    return f"{iset.n_steps} frames"


def _noise_labels(grid) -> dict:
    """The readout_sigma_or_nsamp entry of each sigma of a sweep grid: its
    nsamp when the grid lists nsamps, else the sigma itself."""
    return dict(zip(grid.sigmas, grid.nsamps or grid.sigmas))


def _on(threads: int) -> str:
    """The closing line's thread count: ' on 1 thread', ' on 2 threads'."""
    return f" on {threads} thread{'s' * (threads > 1)}"


def cmd_sweep(args, subcommand: str, csv_name: str) -> str:
    """Sweep the configured grid into `csv_name`, one row per cell. A failing
    sweep raises its first failing block's error, and no table is written."""
    cfg = _load_config(args)
    if not isinstance(cfg.scene, QuditScene):
        raise ConfigError("this subcommand requires a qudit scene")
    labels = _noise_labels(cfg.sweep)
    rows = [(cell.illumination, labels[cell.sigma], cell.n_bin,
             cell.stats.mean, cell.stats.std, cell.stats.stderr)
            for cell in fidelity_sweep(cfg.scene, cfg.sweep, seed=cfg.noise.seed,
                                       jobs=args.jobs, quantize=cfg.noise.quantize,
                                       psi=cfg.psi)]
    os.makedirs(args.out, exist_ok=True)
    pio.write_csv(
        os.path.join(args.out, csv_name),
        ["illumination", "readout_sigma_or_nsamp", "n_bin",
         "mean_fidelity", "std", "stderr"],
        rows,
    )
    _write_run_manifest(args.out, cfg, subcommand)
    threads = sweep_threads(cfg.scene, cfg.sweep, args.jobs)
    return f"{len(rows)} cells{_on(threads)}"


def cmd_continuous(args) -> str:
    cfg = _load_config(args)
    if not isinstance(cfg.scene, LensScene):
        raise ConfigError("continuous-experiment requires a lens scene")
    ref_phase, cases = continuous_experiment(
        cfg.scene, cfg.sweep.illuminations, sigmas=cfg.sweep.sigmas,
        reference_illumination=cfg.reference_illumination,
        seed=cfg.noise.seed, quantize=cfg.noise.quantize, psi=cfg.psi,
        jobs=args.jobs,
    )
    os.makedirs(args.out, exist_ok=True)
    pio.write_phase_map(os.path.join(args.out, "reference.phmap"), ref_phase)
    labels = _noise_labels(cfg.sweep)
    stat_rows = []
    for idx, case in enumerate(cases):
        tag = f"case_{idx}"
        pio.write_phase_map(os.path.join(args.out, f"{tag}.phmap"), case.phase_map)
        hist_rows = [
            (float(lo), float(hi), int(n))
            for lo, hi, n in zip(case.stats.bin_edges[:-1],
                                 case.stats.bin_edges[1:], case.stats.counts)
        ]
        pio.write_csv(os.path.join(args.out, f"{tag}_hist.csv"),
                      ["bin_lo", "bin_hi", "count"], hist_rows)
        stat_rows.append((case.illumination, labels[case.sigma],
                          case.stats.circ_std, case.stats.n_pixels))
    pio.write_csv(os.path.join(args.out, "phase_error.csv"),
                  ["illumination", "readout_sigma_or_nsamp", "circ_std",
                   "n_pixels"], stat_rows)
    _write_run_manifest(args.out, cfg, "continuous-experiment")
    threads = continuous_threads(cfg.scene, cfg.sweep.illuminations,
                                 cfg.sweep.sigmas, args.jobs, psi=cfg.psi)
    return f"{len(cases)} cases{_on(threads)}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdisim",
        description="Phase-shifting point-diffraction interferometry "
                    "simulation at few-photon illumination",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, reads_config=True):
        if reads_config:
            p.add_argument("--config", help="run configuration file")
            p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--out", help="output directory (required)")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="most threads, >= 1 (default: the CPU count); a "
                            "sweep runs on one per "
                            f"{READS_PER_THREAD} pixel reads (repetitions x "
                            "sigmas x illuminations x slits x sum of n_bins), "
                            "at most one per block, and continuous-experiment "
                            f"on one per {READS_PER_THREAD} frame values "
                            "(runs x steps x pixels), at most one per run, "
                            "each on at least one; changes wall time only, "
                            "never results")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the closing count and wall-time line")

    p = sub.add_parser("simulate", help="forward-simulate interferograms")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="invert a recorded interferogram set")
    p.add_argument("frames_manifest", help="path to an interferogram manifest")
    p.add_argument("--c0-mode", choices=("analytic", "empirical"),
                   default="analytic")
    common(p, reads_config=False)
    p.set_defaults(func=cmd_reconstruct)

    for name, csv_name, help_text in (
            ("qudit-experiment", "fidelity.csv",
             "fidelity sweep over the configured grid"),
            ("sweep-map", "fidelity_map.csv",
             "the same sweep, written as fidelity_map.csv")):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(func=functools.partial(cmd_sweep, subcommand=name,
                                              csv_name=csv_name))

    p = sub.add_parser("continuous-experiment",
                       help="lens-phase error statistics vs a high-flux reference")
    common(p)
    p.set_defaults(func=cmd_continuous)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.out is None:
            raise ConfigError(f"--out is required for {args.command}")
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        _keep_freed_memory()
        what = args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PdisimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"{args.command}: {what} in {time.perf_counter() - started:.2f} s",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
