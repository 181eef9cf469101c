"""pdisim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/``. Workloads are ``sweep_default``, ``map_preview`` and
``single_shot`` (see workloads.py and README.md).

With ``--trace 0`` the run times alternating ``--jobs 2`` and ``--jobs 1``
passes for S seconds, checks every output, and prints the end-to-end
metrics. With ``--trace 1`` it spends half of S on untraced passes and the
rest on traced ``--jobs 1`` passes, and prints the per-layer metrics; the
spans go to ``.perfbench_out/``. The last line of standard output is the
result as one JSON object.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP_PARENT = os.path.join(ROOT, ".perfbench_tmp")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

JOBS = 2              # the CLI default on the 2-core reference machine
MIN_PAIRS = 3         # timed (--jobs 2, --jobs 1) pairs per run, at least
SETUP_PROBES = 7      # fresh processes timing set-up; the median is reported
MAX_TRACED = 4        # traced passes per run, at most

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_s_serial": "s",
    "realizations_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "sensor.sample_noise.calls": "count",
    "sensor.sample_noise.busy_s": "s",
    "sensor.values_drawn": "count",
    "sensor.read_ratio": "ratio",
    "sensor.apply_noise.busy_s": "s",
    "experiments.sweep.self_s": "s",
    "experiments.cells": "count",
    "experiments.cell_ms_p50": "ms",
    "experiments.cell_ms_tail": "ms",
    "experiments.cell_ms_tail_pct": "%",
    "experiments.cell_samples": "count",
    "experiments.parallel_efficiency": "ratio",
    "experiments.continuous.self_s": "s",
    "qudit.bootstrap_fidelity.busy_s": "s",
    "qudit.states_scored": "count",
    "forward.simulate_interferograms.busy_s": "s",
    "forward.values_out": "count",
    "reconstruct.extract_phase.busy_s": "s",
    "reconstruct.pixels": "count",
    "circular.busy_s": "s",
    "io.read_map.calls": "count",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    "io.busy_s": "s",
    "config.parse_config.busy_s": "s",
    "field.busy_s": "s",
    "cli.main.calls": "count",
    "cli.exit_nonzero": "count",
    "trace.overhead_s": "s",
    "failed_frac": "ratio",
}

#: Spans whose self time is the sweep kernel's: inline harmonic combine,
#: arctan2, argsort sampling, circular mean and fidelity, scene precompute.
SWEEP_SPANS = ("experiments.fidelity_sweep", "experiments.fidelity_map",
               "experiments._run_cell")
CONTINUOUS_SPANS = ("experiments.continuous_experiment",
                    "experiments.phase_error_stats")


def import_program():
    """Import pdisim from the checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "pdisim", "__init__.py")):
        raise FileNotFoundError(f"no pdisim sources under {SRC}")
    sys.path.insert(0, SRC)
    import pdisim
    import pdisim.cli  # noqa: F401  (the entry point; not imported by the package)
    if os.path.dirname(os.path.dirname(os.path.abspath(pdisim.__file__))) != SRC:
        raise ImportError(f"pdisim imported from {pdisim.__file__}, not {SRC}")
    return pdisim


def median(values):
    return statistics.median(values) if values else 0.0


# -- timed passes -----------------------------------------------------------


def timed_pass(workload, jobs, pass_index, checks, tracer=None):
    """Time one pass, under `tracer` if given, then check its outputs.

    The tracer is removed before the checks run, and its removal is itself
    checked, so that no wrapper outlives the pass."""
    if tracer is not None:
        tracer.install()
    outcome = None
    start = perf_counter()
    try:
        outcome = workload.run_pass(jobs, pass_index)
    except Exception:  # the program failed in a way the CLI did not catch
        traceback.print_exc(file=sys.stderr)
        checks.record(False, f"{workload.name} --jobs {jobs}: pass raised")
    finally:
        wall = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
            leftovers = tracer.leftovers()
            checks.record(not leftovers, f"tracer left wrappers behind: {leftovers}")
    if outcome is not None:
        try:
            workload.check_pass(jobs, outcome, checks)
        except (OSError, ValueError, KeyError) as exc:
            checks.record(False, f"{workload.name} --jobs {jobs}: outputs unreadable ({exc})")
    return wall


def measure(workload, seconds, checks):
    """Alternate --jobs 2 / --jobs 1 passes for `seconds` after one warm-up
    pair; returns {jobs: [wall_s, ...]}."""
    walls = {JOBS: [], 1: []}
    for jobs in (JOBS, 1):
        timed_pass(workload, jobs, 0, checks)
    workload.check_pair(checks)
    deadline = perf_counter() + seconds
    pair = 0
    while perf_counter() < deadline or pair < MIN_PAIRS:
        pair += 1
        for jobs in ((JOBS, 1) if pair % 2 else (1, JOBS)):
            walls[jobs].append(timed_pass(workload, jobs, pair, checks))
        workload.check_pair(checks)
    return walls


def traced_passes(workload, seconds, checks, tracer):
    """Serial passes under the tracer, for `seconds` or MAX_TRACED passes."""
    walls = []
    deadline = perf_counter() + seconds
    while not walls or (perf_counter() < deadline and len(walls) < MAX_TRACED):
        tracer.pass_id = len(walls)
        walls.append(timed_pass(workload, 1, 10_000 + len(walls), checks, tracer))
    return walls


# -- metrics -----------------------------------------------------------------


def peak_rss_mb(pool_used):
    """Harness high-water RSS plus, when a pool ran, JOBS times the largest
    child's high-water RSS: an upper bound on their simultaneous peak
    (pages a forked worker shares with the harness count in both)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if pool_used else 0
    return (own + JOBS * child) / 1024.0


def setup_probes(workload_name, seed):
    """Median set-up time over fresh interpreters: import, inputs, scenes."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return median(times)


def end_to_end(workload, walls, checks, setup_s, rss_mb):
    wall = median(walls[JOBS])
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "wall_s_serial": median(walls[1]),
        "realizations_per_s": workload.realizations / wall,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - checks.failed / checks.attempted,
    }


def per_layer(workload, tracer, walls, traced_walls, checks):
    n = len(traced_walls)
    rows = tracer.span_table()
    module_of = [name.split(".", 1)[0] for name, *_ in rows]
    busy, calls, self_s, module_busy = {}, {}, {}, {}
    cells_ms = []
    for i, (name, start, end, own, parent, _) in enumerate(rows):
        busy[name] = busy.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        module = module_of[i]
        if parent < 0 or module_of[parent] != module:
            module_busy[module] = module_busy.get(module, 0.0) + end - start
        if name == "experiments._run_cell":
            cells_ms.append(1000.0 * (end - start))
    counts = tracer.counts
    drawn = counts["sensor.values_drawn"] / n
    cells_ms.sort()
    tail_ms = tail_pct = 0.0
    if len(cells_ms) > 10:
        tail_ms = cells_ms[-11]
        tail_pct = 100.0 * (len(cells_ms) - 10) / len(cells_ms)
    return {
        "sensor.sample_noise.calls": calls.get("sensor.sample_noise", 0) / n,
        "sensor.sample_noise.busy_s": busy.get("sensor.sample_noise", 0.0) / n,
        "sensor.values_drawn": drawn,
        "sensor.read_ratio": workload.values_read() / drawn if drawn else 0.0,
        "sensor.apply_noise.busy_s": busy.get("sensor.apply_noise", 0.0) / n,
        "experiments.sweep.self_s": sum(self_s.get(s, 0.0) for s in SWEEP_SPANS) / n,
        "experiments.cells": len(cells_ms) / n,
        "experiments.cell_ms_p50": median(cells_ms),
        "experiments.cell_ms_tail": tail_ms,
        "experiments.cell_ms_tail_pct": tail_pct,
        "experiments.cell_samples": len(cells_ms),
        "experiments.parallel_efficiency":
            median(walls[1]) / (JOBS * median(walls[JOBS])),
        "experiments.continuous.self_s":
            sum(self_s.get(s, 0.0) for s in CONTINUOUS_SPANS) / n,
        "qudit.bootstrap_fidelity.busy_s": busy.get("qudit.bootstrap_fidelity", 0.0) / n,
        "qudit.states_scored": counts["qudit.states_scored"] / n,
        "forward.simulate_interferograms.busy_s":
            busy.get("forward.simulate_interferograms", 0.0) / n,
        "forward.values_out": counts["forward.values_out"] / n,
        "reconstruct.extract_phase.busy_s": busy.get("reconstruct.extract_phase", 0.0) / n,
        "reconstruct.pixels": counts["reconstruct.pixels"] / n,
        "circular.busy_s": module_busy.get("circular", 0.0) / n,
        "io.read_map.calls": calls.get("io.read_map", 0) / n,
        "io.bytes_read": counts["io.bytes_read"] / n,
        "io.bytes_written": counts["io.bytes_written"] / n,
        "io.busy_s": module_busy.get("io", 0.0) / n,
        "config.parse_config.busy_s": busy.get("config.parse_config", 0.0) / n,
        "field.busy_s": module_busy.get("field", 0.0) / n,
        "cli.main.calls": calls.get("cli.main", 0) / n,
        "cli.exit_nonzero": counts["cli.exit_nonzero"] / n,
        "trace.overhead_s": median(traced_walls) - median(walls[1]),
        "failed_frac": checks.failed / checks.attempted,
    }


# -- provenance ----------------------------------------------------------------


def stamp(workload, seed, walls, traced):
    import numpy  # not at the top: set-up probes time the import


    digest = hashlib.sha256()
    package = os.path.join(SRC, "pdisim")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                                capture_output=True, text=True, timeout=30)
        commit = commit.stdout.strip() if commit.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload.name, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "load": {"cells": workload.cells, "repetitions": workload.repetitions,
                 "realizations_per_pass": workload.realizations},
        # Every timed pass, so run-to-run noise can be told from a change.
        "pass_walls_s": {"jobs2": walls[JOBS], "jobs1": walls[1], "traced": traced},
    }


# -- entry point ---------------------------------------------------------------


def setup_probe(workload_name, seed):
    start = perf_counter()
    import_program()
    import workloads
    os.makedirs(TMP_PARENT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        workloads.WORKLOADS[workload_name](seed, workdir)
        print(perf_counter() - start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run(args):
    import workloads
    from tracer import Tracer

    if args.seed == workloads.REFERENCE_SEED:
        print(f"error: seed {args.seed} made the reference tables", file=sys.stderr)
        return 2
    os.makedirs(TMP_PARENT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        checks = workloads.Checks()
        tracer = Tracer()
        traced = []
        if args.trace:
            walls = measure(workload, args.seconds / 2.0, checks)
            traced = traced_passes(workload, args.seconds / 2.0, checks, tracer)
        else:
            walls = measure(workload, args.seconds, checks)
            rss = peak_rss_mb(workload.cells > 0)
        undetected = workload.self_test()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if undetected:
        print(f"error: harness self-test: checks missed {undetected}", file=sys.stderr)
        return 3
    for message in checks.messages:
        print(f"check failed: {message}", file=sys.stderr)

    info = stamp(workload, args.seed, walls, traced)
    if args.trace:
        values, units = per_layer(workload, tracer, walls, traced, checks), PER_LAYER
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.csv")
        tracer.write(path, [json.dumps(info)])
    else:
        values = end_to_end(workload, walls, checks,
                            setup_probes(args.workload, args.seed), rss)
        units = END_TO_END
    print(json.dumps({"stamp": info}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_default", "map_preview", "single_shot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
