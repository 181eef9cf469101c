"""Command-line front end.

Subcommands: simulate, reconstruct, qudit-experiment, sweep-map,
continuous-experiment. Data goes to files under --out; progress goes to
stderr. Exit codes: 0 success, 2 config error, 1 runtime failure.
"""

import argparse
import ctypes
import dataclasses
import functools
import os
import sys

import numpy as np

from . import __version__, io as pio
from .config import RunConfig, parse_config, serialize_config
from .errors import ConfigError, PdisimError
from .experiments import LensScene, QuditScene, continuous_experiment, fidelity_sweep
from .reconstruct import c0_empirical, extract_phase, harmonic_sums
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


def _progress(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


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
    if args.out is not None:
        cfg = dataclasses.replace(cfg, output_directory=args.out)
    if cfg.output_directory is None:
        raise ConfigError("no output directory: set [output] directory or --out")
    return cfg


def _write_run_manifest(outdir, cfg: RunConfig, subcommand: str):
    """Written last, via a temporary name: its presence means the run finished."""
    # no output path, so that reruns into other directories stay byte-identical
    portable = dataclasses.replace(cfg, output_directory=None)
    # numpy's Poisson and normal streams are only fixed within one version
    text = (f"# pdisim run manifest\n# pdisim version = {__version__}\n"
            f"# numpy version = {np.__version__}\nsubcommand = {subcommand}\n"
            f"seed = {cfg.noise.seed}\n\n" + serialize_config(portable, subcommand))
    path = os.path.join(outdir, "manifest.txt")
    with open(path + ".tmp", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    outdir = cfg.output_directory
    fld = cfg.scene.field()
    frames = simulate_interferograms(fld, cfg.psi, cfg.illumination,
                                     region=cfg.scene.region())
    if cfg.noise_enabled:
        frames = apply_noise(frames, cfg.noise)
        _progress(args, f"simulated {frames.n_steps} noisy frames "
                        f"(sigma={cfg.noise.readout_sigma} e-)")
    else:
        _progress(args, f"simulated {frames.n_steps} noiseless frames")
    pio.write_interferogram_set(os.path.join(outdir, "frames"), frames)
    _write_run_manifest(outdir, cfg, "simulate")
    return 0


def cmd_reconstruct(args) -> int:
    if args.out is None:
        raise ConfigError("--out is required for reconstruct")
    iset = pio.read_interferogram_set(args.frames_manifest)
    c0 = None  # analytic, from the stored reference
    if args.c0_mode == "empirical":
        # dark pixels: those whose frame 0 reads <= 0
        c0 = c0_empirical(harmonic_sums(iset.frames)[0], iset.frames[0] <= 0)
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
    _progress(args, "reconstruction written")
    return 0


def _noise_labels(grid) -> dict:
    """The readout_sigma_or_nsamp entry of each sigma of a sweep grid: its
    nsamp when the grid lists nsamps, else the sigma itself."""
    return dict(zip(grid.sigmas, grid.nsamps or grid.sigmas))


def cmd_sweep(args, subcommand: str, csv_name: str) -> int:
    """Sweep the configured grid into `csv_name`, one row per cell. A failing
    sweep raises its first failing block's error, and no table is written."""
    cfg = _load_config(args)
    if not isinstance(cfg.scene, QuditScene):
        raise ConfigError("this subcommand requires a qudit scene")
    outdir = cfg.output_directory
    labels = _noise_labels(cfg.sweep)
    rows = [(cell.illumination, labels[cell.sigma], cell.n_bin,
             cell.stats.mean, cell.stats.std, cell.stats.stderr)
            for cell in fidelity_sweep(cfg.scene, cfg.sweep, seed=cfg.noise.seed,
                                       jobs=args.jobs, quantize=cfg.noise.quantize,
                                       psi=cfg.psi)]
    os.makedirs(outdir, exist_ok=True)
    pio.write_csv(
        os.path.join(outdir, csv_name),
        ["illumination", "readout_sigma_or_nsamp", "n_bin",
         "mean_fidelity", "std", "stderr"],
        rows,
    )
    _write_run_manifest(outdir, cfg, subcommand)
    _progress(args, f"wrote {len(rows)} cells")
    return 0


def cmd_continuous(args) -> int:
    cfg = _load_config(args)
    if not isinstance(cfg.scene, LensScene):
        raise ConfigError("continuous-experiment requires a lens scene")
    outdir = cfg.output_directory
    ref_phase, cases = continuous_experiment(
        cfg.scene, cfg.sweep.illuminations, sigmas=cfg.sweep.sigmas,
        reference_illumination=cfg.reference_illumination,
        seed=cfg.noise.seed, quantize=cfg.noise.quantize, psi=cfg.psi,
    )
    os.makedirs(outdir, exist_ok=True)
    pio.write_phase_map(os.path.join(outdir, "reference.phmap"), ref_phase)
    labels = _noise_labels(cfg.sweep)
    stat_rows = []
    for idx, case in enumerate(cases):
        tag = f"case_{idx}"
        pio.write_phase_map(os.path.join(outdir, f"{tag}.phmap"), case.phase_map)
        hist_rows = [
            (float(lo), float(hi), int(n))
            for lo, hi, n in zip(case.stats.bin_edges[:-1],
                                 case.stats.bin_edges[1:], case.stats.counts)
        ]
        pio.write_csv(os.path.join(outdir, f"{tag}_hist.csv"),
                      ["bin_lo", "bin_hi", "count"], hist_rows)
        stat_rows.append((case.illumination, labels[case.sigma],
                          case.stats.circ_std, case.stats.n_pixels))
    pio.write_csv(os.path.join(outdir, "phase_error.csv"),
                  ["illumination", "readout_sigma_or_nsamp", "circ_std",
                   "n_pixels"], stat_rows)
    _write_run_manifest(outdir, cfg, "continuous-experiment")
    _progress(args, f"wrote {len(cases)} continuous cases")
    return 0


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
        p.add_argument("--out", help="output directory")
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                       help="sweep worker threads, >= 1; changes only the "
                            "sweeps, never results")
        p.add_argument("--quiet", action="store_true",
                       help="suppress progress output")

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
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        _keep_freed_memory()
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (PdisimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
