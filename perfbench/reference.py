"""Regenerate the reference fidelity tables of the sweep workloads.

    python3 perfbench/reference.py [sweep_default|map_preview ...]

Run from the root of a source checkout. Each table is the workload's own
CLI run at high repetitions, from REFERENCE_SEED, which timed runs refuse.
Timed runs check every cell's mean fidelity against it within Z_LIMIT
combined standard errors, a check that holds across intended changes of
the random stream. Takes a few minutes on 2 cores.
"""

import json
import os
import shutil
import sys
import tempfile
from time import perf_counter

from run import JOBS, TMP_PARENT, import_program, stamp
import workloads


def make_table(name):
    cls = workloads.WORKLOADS[name]
    os.makedirs(TMP_PARENT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=TMP_PARENT)
    try:
        workload = cls(workloads.REFERENCE_SEED, workdir,
                       repetitions=cls.reference_repetitions)
        start = perf_counter()
        rc = workload.run_pass(JOBS, 0)
        wall = perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"{name}: reference run exited with {rc}")
        cells = workloads.parse_fidelity_csv(workload.output_text(JOBS))
        info = stamp(workload, workloads.REFERENCE_SEED, {JOBS: [wall], 1: []}, [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    table = {
        "workload": name,
        "seed": workloads.REFERENCE_SEED,
        "repetitions": cls.reference_repetitions,
        "stamp": info,
        "columns": ["illumination", "readout_sigma", "n_bin", "mean_fidelity", "stderr"],
        "cells": [[*key, mean, se] for key, (mean, se) in cells.items()],
    }
    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(workloads.REFERENCE_DIR, f"{name}.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")


def main(argv):
    import_program()
    for name in argv or ["sweep_default", "map_preview"]:
        make_table(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
