import dataclasses
import inspect
import os
import re
from operator import attrgetter

import numpy as np
import pytest

import pdisim
from pdisim import (ConfigError, LensScene, NoiseParams, PsiConfig, QuditScene,
                    ShapeError, SweepGrid, continuous_experiment, parse_config)
from pdisim import cli, experiments, io as pio
from pdisim.cli import main
from pdisim.config import PhmapScene, serialize_config
from pdisim.reconstruct import harmonic_sums

MINIMAL = "[scene]\ntype = eq6_qudit\n"


def test_minimal_config_resolves_full_defaults():
    cfg = parse_config(MINIMAL)
    assert isinstance(cfg.scene, QuditScene)
    assert cfg.scene.layout.d == 6
    assert cfg.scene.layout.pixels_per_slit == 100
    assert cfg.psi.n_steps == 4
    assert cfg.sweep.illuminations == (1.7, 3.0, 11.3)
    assert 3.0 in cfg.sweep.sigmas and 0.2 in cfg.sweep.sigmas
    assert cfg.sweep.repetitions == 2000
    assert cfg.reference_illumination == 500.0
    assert cfg.noise_enabled is False


def test_lens_defaults():
    cfg = parse_config("[scene]\ntype = lens\n")
    assert isinstance(cfg.scene, LensScene)
    assert cfg.sweep.illuminations == (1.9, 4.0, 12.7)


def test_cli_defaults_are_the_library_defaults():
    cfg = parse_config(MINIMAL)
    scene = QuditScene()
    assert cfg.scene.grid == scene.grid and cfg.scene.layout == scene.layout
    assert cfg.scene.background_amplitude == scene.background_amplitude
    assert cfg.scene.background_phase == scene.background_phase
    assert np.array_equal(cfg.scene.state.coeffs, scene.state.coeffs)
    assert cfg.psi == PsiConfig()
    assert cfg.sweep == SweepGrid()
    # the one intended difference: a [noise] section reads 0.2 e- readout
    # noise by default, while NoiseParams() is noiseless
    assert cfg.noise.readout_sigma == 0.2 and NoiseParams().readout_sigma == 0.0
    assert dataclasses.replace(cfg.noise, readout_sigma=0.0) == NoiseParams()

    cfg = parse_config("[scene]\ntype = lens\n")
    lens = LensScene()
    assert (cfg.scene.grid, cfg.scene.curvature, cfg.scene.amplitude) == (
        lens.grid, lens.curvature, lens.amplitude)
    defaults = inspect.signature(continuous_experiment).parameters
    assert cfg.sweep.sigmas == defaults["sigmas"].default
    assert cfg.reference_illumination == defaults["reference_illumination"].default


def test_unknown_key_names_key_and_line():
    text = "[scene]\ntype = eq6_qudit\nbogus = 1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "bogus"
    assert err.value.line == 3


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("[nope]\nx = 1\n")


def test_type_mismatch_diagnostic():
    with pytest.raises(ConfigError) as err:
        parse_config("[scene]\ntype = eq6_qudit\nd = six\n")
    assert err.value.key == "d"
    assert err.value.line == 3


def test_nbin_feasibility_checked_at_parse():
    text = MINIMAL + "[sweep]\nn_bins = 200\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == "n_bins"


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        parse_config("[scene]\ntype = lens\ntype = lens\n")


@pytest.mark.parametrize("key, value", [
    ("illuminations", "1.7,,3.0"), ("illuminations", "1.7,3.0,"),
    ("illuminations", ""), ("sigmas", ",0.5"), ("nsamps", "1, ,144"),
    ("n_bins", "1,,2")])
def test_empty_list_item_rejected(tmp_path, capsys, key, value):
    # every comma-separated item is converted: an empty one is an error, not
    # dropped
    text = MINIMAL + f"[sweep]\n{key} = {value}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (err.value.key, err.value.line) == (key, 4)
    cfg, out = write_cfg(tmp_path, text), tmp_path / "o"
    capsys.readouterr()
    assert main(["qudit-experiment", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"(key '{key}', line 4)" in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, text, fragments", [
    pytest.param("qudit-experiment", MINIMAL + "[noise]\nquantize = maybe\n",
                 ("expected true/false", "(key 'quantize', line 4)"), id="bool"),
    pytest.param("simulate", "n_steps = 4\n" + MINIMAL,
                 ("key outside any section (line 1)",), id="outside-section"),
    pytest.param("simulate", "[scene]\ntype = phmap\n",
                 ("phmap scene requires a phase_map path",
                  "(key 'type', line 2)"), id="phmap-without-path")])
def test_cli_config_error_names_its_key_or_line(tmp_path, capsys, subcommand,
                                                text, fragments):
    cfg, out = write_cfg(tmp_path, text), tmp_path / "o"
    capsys.readouterr()
    assert main([subcommand, "--config", cfg, "--out", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err
    assert not out.exists()


def test_config_roundtrip():
    text = (
        "[scene]\ntype = eq6_qudit\nd = 6\nbackground_amplitude = 0.8\n"
        "[psi]\nn_steps = 4\nillumination = 2.5\n"
        "[noise]\nnsamp = 144\nquantize = true\nseed = 7\n"
        "[sweep]\nilluminations = 1.7,3.0\nsigmas = 0.2\nn_bins = 1,2\n"
        "repetitions = 10\n"
    )
    cfg = parse_config(text)
    assert cfg.noise.readout_sigma == pytest.approx(0.25)
    assert cfg.noise.quantize is True
    once = serialize_config(cfg)
    twice = serialize_config(parse_config(once))
    assert once == twice


def test_parsed_configs_compare_by_value():
    text = MINIMAL + "state_step = 1.0\n[sweep]\nrepetitions = 10\n"
    assert parse_config(text) == parse_config(text)
    assert parse_config(serialize_config(parse_config(text))) == parse_config(text)
    assert parse_config(text) != parse_config(text.replace("1.0", "1.5"))
    assert parse_config(MINIMAL) != parse_config(text)


#: A value other than the default for each key whose value sits at an
#: attribute path of the RunConfig: the scene type that has the key, the
#: value's text and the resolved value it gives.
KEY_VALUES = {
    "d": ("eq6_qudit", "5", 5), "slit_width_px": ("eq6_qudit", "3", 3),
    "slit_gap_px": ("eq6_qudit", "2", 2),
    "slit_length_px": ("eq6_qudit", "12", 12),
    "curvature": ("lens", "0.01", 0.01), "amplitude": ("lens", "2.0", 2.0),
    "grid_width": ("lens", "100", 100), "grid_height": ("eq6_qudit", "90", 90),
    "background_amplitude": ("eq6_qudit", "0.5", 0.5),
    "background_phase": ("eq6_qudit", "0.25", 0.25),
    "state_step": ("eq6_qudit", "0.5", 0.5),
    "phase_map": ("phmap", "other.phmap", "other.phmap"),
    "amplitude_map": ("phmap", "other.ammap", "other.ammap"),
    "n_steps": ("eq6_qudit", "5", 5), "illumination": ("eq6_qudit", "7.0", 7.0),
    "readout_sigma": ("eq6_qudit", "1.5", 1.5), "nsamp": ("eq6_qudit", "9", 9),
    "quantize": ("eq6_qudit", "true", True), "seed": ("eq6_qudit", "7", 7),
    "illuminations": ("lens", "2.0,5.0", (2.0, 5.0)),
    "sigmas": ("eq6_qudit", "0.5", (0.5,)), "nsamps": ("lens", "4", (4,)),
    "n_bins": ("eq6_qudit", "1,3", (1, 3)),
    "repetitions": ("eq6_qudit", "10", 10),
    "reference_illumination": ("lens", "600.0", 600.0),
}


@pytest.mark.parametrize("section, key", [
    (section, key) for (section, key), row in pdisim.config._KEYS.items()
    if isinstance(row.value, str)])
def test_each_key_sets_its_value_path(tmp_path, monkeypatch, section, key):
    # the key, given a value other than its default, sets the value at its
    # path, so the config routes every key to the field it names
    monkeypatch.chdir(tmp_path)
    for name in ("default", "other"):
        pio.write_phase_map(f"{name}.phmap", np.zeros((8, 8)))
    pio.write_amplitude_map("other.ammap", np.ones((8, 8)))
    kind, text, expected = KEY_VALUES[key]
    base = {("scene", "type"): kind}
    if kind == "phmap":
        base["scene", "phase_map"] = "default.phmap"

    def parse(keys):
        return parse_config("".join(f"[{s}]\n{k} = {v}\n"
                                    for (s, k), v in keys.items()))

    read = attrgetter(pdisim.config._KEYS[section, key].value)
    assert read(parse(base)) != expected
    assert read(parse({**base, (section, key): text})) == expected


def test_phmap_scene_requires_existing_file(tmp_path):
    with pytest.raises(ConfigError) as err:
        parse_config("[scene]\ntype = phmap\nphase_map = missing.phmap\n")
    assert err.value.key == "phase_map"

    path = tmp_path / "p.phmap"
    pio.write_phase_map(path, np.zeros((8, 8)))
    cfg = parse_config(f"[scene]\ntype = phmap\nphase_map = {path}\n")
    assert isinstance(cfg.scene, PhmapScene)
    assert cfg.scene.field().values.shape == (8, 8)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_cli_simulate_then_reconstruct(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL + "[noise]\nreadout_sigma = 0.2\n")
    out = tmp_path / "sim"
    rc = main(["simulate", "--config", cfg, "--seed", "42", "--out", str(out),
               "--quiet"])
    assert rc == 0
    frames_dir = out / "frames"
    assert (out / "manifest.txt").exists()
    assert sorted(p.name for p in frames_dir.glob("*.ammap")) == [
        f"frame_{n}.ammap" for n in range(4)]

    rec = tmp_path / "rec"
    rc = main(["reconstruct", str(frames_dir / "manifest.txt"),
               "--out", str(rec), "--quiet"])
    assert rc == 0
    assert (rec / "phase.phmap").exists()
    assert (rec / "amplitude.ammap").exists()
    summary = (rec / "summary.txt").read_text()
    assert "c0_used" in summary and "n_frames = 4" in summary
    # reconstruct reads no config and draws nothing: --config and --seed are
    # usage errors, as is the removed --dark-threshold; --jobs, which only
    # changes the sweeps, is accepted
    for flags in (["--config", cfg], ["--seed", "1"], ["--dark-threshold", "0"]):
        with pytest.raises(SystemExit) as usage:
            main(["reconstruct", str(frames_dir / "manifest.txt"),
                  "--out", str(tmp_path / "rec2"), "--quiet"] + flags)
        assert usage.value.code == 2
    assert not (tmp_path / "rec2").exists()
    assert main(["reconstruct", str(frames_dir / "manifest.txt"),
                 "--out", str(tmp_path / "rec3"), "--jobs", "2", "--quiet"]) == 0
    assert ((tmp_path / "rec3" / "phase.phmap").read_bytes()
            == (rec / "phase.phmap").read_bytes())


def test_cli_reconstruct_empirical_c0(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL + "background_amplitude = 0.0\n")
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    rec = tmp_path / "rec"
    rc = main(["reconstruct", str(out / "frames" / "manifest.txt"),
               "--c0-mode", "empirical", "--out", str(rec), "--quiet"])
    assert rc == 0


def test_cli_empirical_c0_is_not_biased_by_its_dark_pixel_selection(tmp_path):
    # the dark pixels are those whose frame 0 reads <= 0, so their frame-0
    # noise is negative: in C it gave C0 a bias of -sigma sqrt(2/pi)
    cfg = write_cfg(tmp_path, MINIMAL + "background_amplitude = 0.0\n"
                    "[psi]\nillumination = 3.0\n"
                    "[noise]\nreadout_sigma = 0.5\nseed = 0\n")
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(sim), "--quiet"]) == 0
    manifest = str(sim / "frames" / "manifest.txt")
    c0 = {}
    for mode in ("analytic", "empirical"):
        rec = tmp_path / mode
        assert main(["reconstruct", manifest, "--c0-mode", mode,
                     "--out", str(rec), "--quiet"]) == 0
        summary = dict(line.split(" = ") for line in
                       (rec / "summary.txt").read_text().splitlines())
        c0[mode] = float(summary["c0_used"])
    frames = pio.read_interferogram_set(manifest).frames
    dark = frames[0] <= 0
    terms = (harmonic_sums(frames)[0] - frames[0])[dark]
    stderr = terms.std(ddof=1) / np.sqrt(terms.size)
    assert abs(c0["empirical"] - c0["analytic"]) <= 4 * stderr


def test_cli_qudit_experiment_csv(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL +
                    "[sweep]\nilluminations = 3.0\nsigmas = 0.2,3.0\n"
                    "n_bins = 1\nrepetitions = 20\n")
    out = tmp_path / "exp"
    rc = main(["qudit-experiment", "--config", cfg, "--seed", "5",
               "--out", str(out), "--jobs", "1", "--quiet"])
    assert rc == 0
    lines = (out / "fidelity.csv").read_text().splitlines()
    assert lines[0] == ("illumination,readout_sigma_or_nsamp,n_bin,"
                        "mean_fidelity,std,stderr")
    assert len(lines) == 1 + 2


def test_cli_sweep_map_row_count(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL +
                    "[sweep]\nilluminations = 1.7,3.0,11.3\n"
                    "sigmas = 0.2,3.0\nn_bins = 1\nrepetitions = 10\n")
    out = tmp_path / "map"
    rc = main(["sweep-map", "--config", cfg, "--out", str(out), "--quiet"])
    assert rc == 0
    lines = (out / "fidelity_map.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 2


@pytest.mark.parametrize("sweep", [
    "illuminations = 1.7,3.0\nsigmas = 0.2,3.0,1.0\nn_bins = 1,2\n",
    # an nsamps grid writes each cell's nsamp, an int
    "illuminations = 3.0,0.5\nnsamps = 1,4,144\nn_bins = 2,1\n"],
    ids=["sigmas", "nsamps"])
@pytest.mark.parametrize("subcommand, csv_name", [
    ("qudit-experiment", "fidelity.csv"), ("sweep-map", "fidelity_map.csv")])
def test_cli_sweep_csv_from_columns_equals_the_per_cell_rows(
        tmp_path, subcommand, csv_name, sweep):
    # the table written from the sweep's columns, each grid value formatted
    # once, is byte for byte io.write_csv of one row per cell
    text = MINIMAL + f"[sweep]\n{sweep}repetitions = 7\n"
    out = tmp_path / "out"
    assert main([subcommand, "--config", write_cfg(tmp_path, text), "--seed",
                 "3", "--out", str(out), "--quiet"]) == 0
    grid = parse_config(text, subcommand).sweep
    stats = experiments.fidelity_sweep(QuditScene(), grid, seed=3)
    labels = dict(zip(grid.sigmas, grid.nsamps or grid.sigmas))
    rows = [(illum, labels[sigma], n_bin, mean, std, stderr)
            for (illum, sigma, n_bin), mean, std, stderr in zip(
                grid.cells(), stats.mean.tolist(), stats.std.tolist(),
                stats.stderr.tolist())]
    assert any(type(row[1]) is int for row in rows) == (grid.nsamps is not None)
    header = ["illumination", "readout_sigma_or_nsamp", "n_bin",
              "mean_fidelity", "std", "stderr"]
    pio.write_csv(tmp_path / "rows.csv", header, rows)
    assert (out / csv_name).read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_cli_continuous_experiment(tmp_path):
    cfg = write_cfg(tmp_path, "[scene]\ntype = lens\n"
                    "[sweep]\nilluminations = 4.0\nsigmas = 3.0,0.2\n"
                    "reference_illumination = 100\n")
    out = tmp_path / "cont"
    rc = main(["continuous-experiment", "--config", cfg, "--out", str(out),
               "--quiet"])
    assert rc == 0
    assert (out / "reference.phmap").exists()
    assert (out / "case_0.phmap").exists()
    lines = (out / "phase_error.csv").read_text().splitlines()
    assert len(lines) == 1 + 2


def all_output_bytes(directory):
    blobs = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, directory)
            with open(path, "rb") as fh:
                blobs[rel] = fh.read()
    return blobs


def test_cli_byte_identical_across_runs_and_jobs(tmp_path, task_threads):
    cfg = write_cfg(tmp_path, MINIMAL +
                    "[sweep]\nilluminations = 1.7,3.0\nsigmas = 0.2,3.0\n"
                    "n_bins = 1,2\nrepetitions = 25\n")
    outs = []
    for name, jobs in (("a", "1"), ("b", "1"), ("c", "4")):
        out = tmp_path / name
        task_threads.clear()
        rc = main(["qudit-experiment", "--config", cfg, "--seed", "31",
                   "--out", str(out), "--jobs", jobs, "--quiet"])
        assert rc == 0
        outs.append(all_output_bytes(out))
    assert outs[0] == outs[1] == outs[2]
    # the last run's 2 illuminations ran on more than one thread
    assert len(set(task_threads)) > 1


def test_cli_config_error_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, "[scene]\ntype = warp\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2
    assert main(["simulate", "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_cli_runtime_error_exit_code(tmp_path):
    rc = main(["reconstruct", str(tmp_path / "missing.txt"),
               "--out", str(tmp_path / "o"), "--quiet"])
    assert rc == 1


def test_cli_writes_only_under_out(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, MINIMAL + "[noise]\nreadout_sigma = 0.2\n")
    out = tmp_path / "only"
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 0
    assert list(cwd.iterdir()) == []


SMALL_SWEEP = ("[sweep]\nilluminations = 3.0\nsigmas = 0.5\nn_bins = 1\n"
               "repetitions = 20\n")


def cli_output(tmp_path, subcommand, text, name, output):
    cfg = write_cfg(tmp_path, text, name=f"{name}.cfg")
    out = tmp_path / name
    rc = main([subcommand, "--config", cfg, "--seed", "3", "--out", str(out),
               "--jobs", "1", "--quiet"])
    assert rc == 0
    return (out / output).read_bytes()


def test_cli_manifest_records_the_versions(tmp_path):
    manifest = cli_output(tmp_path, "qudit-experiment", MINIMAL + SMALL_SWEEP,
                          "versions", "manifest.txt").decode("utf-8")
    head = manifest.splitlines()[:4]
    assert head == ["# pdisim run manifest",
                    f"# pdisim version = {pdisim.__version__}",
                    f"# numpy version = {np.__version__}",
                    "subcommand = qudit-experiment"]


def test_cli_psi_section_reaches_every_experiment(tmp_path):
    def sweep(name, psi):
        return cli_output(tmp_path, "qudit-experiment", MINIMAL + psi + SMALL_SWEEP,
                          name, "fidelity.csv")

    def continuous(name, n_steps):
        text = ("[scene]\ntype = lens\n"
                f"[psi]\nn_steps = {n_steps}\n"
                "[sweep]\nilluminations = 4.0\nsigmas = 3.0,0.2\n"
                "reference_illumination = 100\n")
        return cli_output(tmp_path, "continuous-experiment", text, name,
                          "phase_error.csv")

    assert sweep("n3", "[psi]\nn_steps = 3\n") != sweep("n7", "[psi]\nn_steps = 7\n")
    assert sweep("ref", "[psi]\nreference_re = 0.3\nreference_im = 0.1\n") != \
        sweep("default", "")
    assert continuous("c3", 3) != continuous("c4", 4)


def test_cli_sweep_map_honours_quantize(tmp_path):
    def fidelity_map(name, quantize):
        text = MINIMAL + SMALL_SWEEP + f"[noise]\nquantize = {quantize}\n"
        return cli_output(tmp_path, "sweep-map", text, name, "fidelity_map.csv")

    assert fidelity_map("plain", "false") != fidelity_map("rounded", "true")


@pytest.mark.parametrize("key", ["n_states", "n_runs"])
def test_unused_sweep_keys_rejected(tmp_path, key):
    text = MINIMAL + f"[sweep]\n{key} = 10\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key
    cfg = write_cfg(tmp_path, text)
    assert main(["qudit-experiment", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 2


@pytest.mark.parametrize("key, values", [
    pytest.param("illuminations", "-1.0,3.0", id="illuminations"),
    pytest.param("sigmas", "-1.0,3.0", id="sigmas"),
    pytest.param("n_bins", "0", id="n_bins-0"),
    pytest.param("n_bins", "-3", id="n_bins-negative"),
    pytest.param("sigmas", "0.2,0.5\nnsamps = 9", id="sigmas-with-nsamps"),
    pytest.param("reference_illumination", "5.0",
                 id="reference-below-largest-illumination"),
    pytest.param("illuminations", "3.0,1e20", id="illuminations-above-cap"),
    pytest.param("reference_illumination", "1e20", id="reference-above-cap"),
    pytest.param("nsamps", "1,100000000000000000000", id="nsamps-above-cap"),
    pytest.param("repetitions", "10000001", id="repetitions-above-cap"),
])
def test_negative_sweep_values_rejected(tmp_path, key, values):
    text = MINIMAL + f"[sweep]\n{key} = {values}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (err.value.key, err.value.line) == (key, 4)
    cfg = write_cfg(tmp_path, text)
    assert main(["qudit-experiment", "--config", cfg,
                 "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_sweep_nsamps_with_matching_sigmas_accepted():
    cfg = parse_config(MINIMAL + "[sweep]\nnsamps = 1,9\n")
    assert cfg.sweep.sigmas == (3.0, 1.0)
    assert parse_config(serialize_config(cfg)).sweep == cfg.sweep


@pytest.mark.parametrize("section, key, value", [
    ("psi", "n_steps", "abc"),
    ("noise", "seed", "x"),
    ("psi", "n_steps", "2"),
    ("noise", "nsamp", "0"),
    ("psi", "reference_re", "0"),
    ("psi", "n_steps", "100000000000000000000"),
    ("psi", "illumination", "1e20"),
    ("noise", "nsamp", "100000000000000000000"),
    ("noise", "readout_sigma", "-0.5"),
])
def test_psi_and_noise_value_errors_keep_key_and_line(section, key, value):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"[{section}]\n{key} = {value}\n")
    assert (err.value.key, err.value.line) == (key, 4)


def test_cli_zero_reference_is_a_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL + "[psi]\nreference_re = 0\n" + SMALL_SWEEP)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["qudit-experiment", "--config", cfg, "--out", str(out),
                 "--quiet"]) == 2
    assert "reference_re" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("quiet", [["--quiet"], []], ids=["quiet", "verbose"])
@pytest.mark.parametrize("subcommand, csv_name", [
    ("qudit-experiment", "fidelity.csv"), ("sweep-map", "fidelity_map.csv")])
def test_cli_sweep_beyond_the_poisson_limit_fails_the_run(tmp_path, capsys,
                                                          subcommand, csv_name,
                                                          quiet):
    # the reference scales every frame past numpy's Poisson limit
    cfg = write_cfg(tmp_path, MINIMAL + "[psi]\nreference_re = 1e10\n" + SMALL_SWEEP)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([subcommand, "--config", cfg, "--out", str(out), *quiet]) == 1
    assert_one_line_error(capsys, "Poisson rates must be in [0, ")
    assert not (out / csv_name).exists()
    assert not (out / "manifest.txt").exists()


CLOSING_LINES = [
    ("simulate", MINIMAL + "[noise]\nreadout_sigma = 0.5\n",
     r"4 noisy frames \(sigma=0\.5 e-\)"),
    ("reconstruct", None, "4 frames"),
    ("qudit-experiment", MINIMAL + SMALL_SWEEP, "1 cells on 1 thread"),
    ("sweep-map", MINIMAL + SMALL_SWEEP, "1 cells on 1 thread"),
    ("continuous-experiment", "[scene]\ntype = lens\ngrid_width = 16\n"
     "grid_height = 16\n[sweep]\nilluminations = 3.0\nsigmas = 0.5,3.0\n",
     "2 cases on 1 thread")]


@pytest.mark.parametrize("subcommand, text, what", CLOSING_LINES,
                         ids=[case[0] for case in CLOSING_LINES])
def test_cli_run_ends_with_its_count_and_wall_time_unless_quiet(
        tmp_path, capsys, subcommand, text, what):
    if text is None:  # reconstruct reads frames, not a config
        cfg = write_cfg(tmp_path, MINIMAL, name="sim.cfg")
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "sim"), "--quiet"]) == 0
        args = [subcommand, str(tmp_path / "sim" / "frames" / "manifest.txt")]
    else:
        args = [subcommand, "--config", write_cfg(tmp_path, text)]
    capsys.readouterr()
    outs = []
    for name, quiet in (("quiet", ["--quiet"]), ("verbose", [])):
        assert main(args + ["--out", str(tmp_path / name), *quiet]) == 0
        outs.append(all_output_bytes(tmp_path / name))
        err = capsys.readouterr().err
        if quiet:
            assert err == ""
        else:
            assert re.fullmatch(rf"{subcommand}: {what} in \d+\.\d\d s\n", err)
    # the line, and its timing, are in no written file
    assert outs[0] == outs[1]


def test_cli_sweep_line_names_the_threads_it_ran_on(tmp_path, capsys,
                                                     monkeypatch):
    # 2 illuminations of one cell each (256 repetitions, 1 536 pixel
    # reads), at --jobs 4
    cfg = write_cfg(tmp_path, MINIMAL + "[sweep]\nilluminations = 1.7,3.0\n"
                    "sigmas = 0.5\nn_bins = 1\nrepetitions = 256\n")
    for reads_per_thread, threads in ((3072, "1 thread"), (1536, "2 threads")):
        monkeypatch.setattr(experiments, "READS_PER_THREAD", reads_per_thread)
        assert main(["qudit-experiment", "--config", cfg, "--jobs", "4",
                     "--out", str(tmp_path / threads[0])]) == 0
        assert re.fullmatch(rf"qudit-experiment: 2 cells on {threads} in "
                            r"\d+\.\d\d s\n", capsys.readouterr().err)


@pytest.mark.parametrize("size, threads", [
    # 7 runs x 4 frames x 16 384 pixels = 458 752 frame values
    pytest.param(128, {1: "1 thread", 2: "2 threads", 3: "3 threads"},
                 id="default-lens"),
    # 7 x 4 x 1 024 = 28 672: inline at every --jobs
    pytest.param(32, {1: "1 thread", 2: "1 thread", 3: "1 thread"},
                 id="32x32-lens")])
def test_cli_continuous_line_names_its_threads_and_outputs_do_not_depend_on_them(
        tmp_path, capsys, size, threads):
    cfg = write_cfg(tmp_path, f"[scene]\ntype = lens\ngrid_width = {size}\n"
                              f"grid_height = {size}\n")
    capsys.readouterr()
    outs = []
    for jobs, on in threads.items():
        for quiet in ([], ["--quiet"]):
            out = tmp_path / f"{jobs}{''.join(quiet)}"
            assert main(["continuous-experiment", "--config", cfg, "--seed", "11",
                         "--jobs", str(jobs), "--out", str(out), *quiet]) == 0
            err = capsys.readouterr().err
            if quiet:
                assert err == ""
            else:
                assert re.fullmatch(rf"continuous-experiment: 6 cases on {on} "
                                    r"in \d+\.\d\d s\n", err)
            outs.append(all_output_bytes(out))
    assert len(outs[0]) == 1 + 6 * 2 + 2
    assert all(out == outs[0] for out in outs)


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_cli_continuous_run_past_the_poisson_limit_fails_alike_at_any_jobs(
        tmp_path, capsys, run_threads, jobs):
    # with this reference only the reference run (500 phot/px) is past the
    # Poisson limit; every run is given its own thread where --jobs allows
    cfg = write_cfg(tmp_path, "[scene]\ntype = lens\ngrid_width = 16\n"
                              "grid_height = 16\n[psi]\nreference_re = 1e8\n")
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["continuous-experiment", "--config", cfg, "--jobs", jobs,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: Poisson rates must be in [0, 9.22337e+18]\n")
    assert not out.exists()
    assert (len(set(run_threads)) > 1) == (jobs == "3")


@pytest.mark.parametrize("subcommand, text", [
    ("simulate", MINIMAL + "[noise]\nreadout_sigma = 0.5\n"),
    ("continuous-experiment", "[scene]\ntype = lens\n"
                              "[sweep]\nilluminations = 3.0\nsigmas = 0.5\n")],
    ids=["simulate", "continuous-experiment"])
def test_cli_failed_run_leaves_no_manifest(tmp_path, capsys, subcommand, text):
    # the manifest is written last: its presence means the run finished (the
    # sweeps are checked in the test above)
    cfg = write_cfg(tmp_path, text + "[psi]\nreference_re = 1e10\n")
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([subcommand, "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert_one_line_error(capsys, "Poisson rates must be in [0, ")
    assert not (out / "manifest.txt").exists()
    assert not (out / "manifest.txt.tmp").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("subcommand, text", [
    ("simulate", MINIMAL),
    ("qudit-experiment", MINIMAL + SMALL_SWEEP),
    ("sweep-map", MINIMAL + SMALL_SWEEP),
    ("continuous-experiment", "[scene]\ntype = lens\ngrid_width = 16\n"
                              "grid_height = 16\n")],
    ids=["simulate", "qudit-experiment", "sweep-map", "continuous-experiment"])
def test_cli_reference_that_overflows_the_frames_fails_the_run(
        tmp_path, capsys, subcommand, text):
    # |K|^2 of this reference is past the float range: no frame is finite
    cfg = write_cfg(tmp_path, text + "[psi]\nreference_re = 1e300\n")
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
    assert_one_line_error(capsys, "overflow the float range")
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["simulate", "qudit-experiment",
                                        "sweep-map", "continuous-experiment"])
def test_cli_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys,
                                                       subcommand):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"[scene]\ntype = eq6_qudit # \xff\n")
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([subcommand, "--config", str(cfg), "--out", str(out),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(cfg) in err and "utf-8" in err
    assert not out.exists()


@pytest.mark.parametrize("shape", [(4, 4), (1, 8)])
def test_cli_phmap_amplitude_of_another_shape_is_an_error(tmp_path, capsys, shape):
    phase, amplitude = tmp_path / "p.phmap", tmp_path / "a.ammap"
    pio.write_phase_map(phase, np.zeros((8, 8)))
    pio.write_amplitude_map(amplitude, np.ones(shape))
    cfg = write_cfg(tmp_path, f"[scene]\ntype = phmap\nphase_map = {phase}\n"
                              f"amplitude_map = {amplitude}\n")
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert_one_line_error(capsys, "amplitude map shape", str(phase), str(amplitude))
    assert not (out / "frames").exists()
    assert not (out / "manifest.txt").exists()


@pytest.mark.parametrize("text, key", [
    pytest.param(MINIMAL + "[noise]\nreadout_sigma = nan\n", "readout_sigma",
                 id="readout_sigma"),
    pytest.param(MINIMAL + "[psi]\nillumination = inf\n", "illumination",
                 id="illumination"),
    pytest.param(MINIMAL + "[sweep]\nilluminations = 3.0,inf\n",
                 "illuminations", id="illuminations"),
    pytest.param("[scene]\ntype = lens\n[sweep]\nreference_illumination = nan\n",
                 "reference_illumination", id="reference_illumination"),
    pytest.param(MINIMAL + "background_amplitude = -inf\n",
                 "background_amplitude", id="background_amplitude"),
])
def test_non_finite_numbers_rejected(tmp_path, text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.key == key
    assert err.value.line == text.count("\n")
    cfg = write_cfg(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_cli_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    cfg = write_cfg(tmp_path, MINIMAL + SMALL_SWEEP)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["qudit-experiment", "--config", cfg, "--out", str(out),
                 "--jobs", jobs, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--jobs" in err
    assert not out.exists()


@pytest.mark.parametrize("libc", [OSError("no C library"), object()],
                         ids=["no-library", "no-mallopt"])
def test_cli_runs_without_mallopt(tmp_path, monkeypatch, libc):
    text = MINIMAL + SMALL_SWEEP
    expected = cli_output(tmp_path, "qudit-experiment", text, "with",
                          "fidelity.csv")

    def cdll(_name):
        if isinstance(libc, Exception):
            raise libc
        return libc

    monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
    assert cli_output(tmp_path, "qudit-experiment", text, "without",
                      "fidelity.csv") == expected


def test_sweep_map_matches_qudit_experiment(tmp_path):
    # every n_bin, and nsamps labelled as nsamps, in both tables
    text = MINIMAL + ("[sweep]\nilluminations = 1.7,3.0,11.3\n"
                      "nsamps = 1,144\nn_bins = 1,4\nrepetitions = 40\n")
    sweep = cli_output(tmp_path, "qudit-experiment", text, "sweep",
                       "fidelity.csv")
    fmap = cli_output(tmp_path, "sweep-map", text, "map", "fidelity_map.csv")
    assert fmap == sweep
    assert len(sweep.decode().splitlines()) == 1 + 3 * 2 * 2


def test_phmap_scene_reads_its_files_once(tmp_path, monkeypatch):
    phase, amplitude = tmp_path / "p.phmap", tmp_path / "a.ammap"
    pio.write_phase_map(phase, np.zeros((8, 8)))
    pio.write_amplitude_map(amplitude, np.ones((8, 8)))
    reads = []
    read_map = pio.read_map
    monkeypatch.setattr(pio, "read_map",
                        lambda *args: reads.append(args) or read_map(*args))
    scene = PhmapScene(str(phase), str(amplitude))
    for _ in range(3):
        scene.field()
        scene.region()
    assert len(reads) == 2


def test_phmap_scene_builds_its_field_once(tmp_path, monkeypatch):
    phase = tmp_path / "p.phmap"
    pio.write_phase_map(phase, np.zeros((8, 8)))
    builds = []
    build = pdisim.config.field_from_phase_map
    monkeypatch.setattr(pdisim.config, "field_from_phase_map",
                        lambda *args: builds.append(args) or build(*args))
    scene = PhmapScene(str(phase))
    # as simulate calls them
    fld = scene.field()
    assert scene.region().shape == fld.values.shape
    assert len(builds) == 1


def test_cli_builds_its_parser_once(tmp_path, monkeypatch):
    built, init = [], cli.argparse.ArgumentParser.__init__

    def counting(parser, *args, **kwargs):
        init(parser, *args, **kwargs)
        built.append(parser.prog)

    monkeypatch.setattr(cli.argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    try:
        cfg = write_cfg(tmp_path, MINIMAL)
        sim, rec = tmp_path / "sim", tmp_path / "rec"
        assert main(["simulate", "--config", cfg, "--seed", "3",
                     "--out", str(sim), "--quiet"]) == 0
        # a second subcommand on the same parser takes its own defaults
        assert main(["reconstruct", str(sim / "frames" / "manifest.txt"),
                     "--out", str(rec), "--quiet"]) == 0
        assert (rec / "phase.phmap").exists()
        assert built.count("pdisim") == 1
    finally:
        cli.build_parser.cache_clear()


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


EQUAL_ALPHAS = "alphas = 0.0,1.5707963267948966,3.141592653589793,4.71238898038469\n"


def reconstruct_edited_manifest(tmp_path, capsys, alphas_line):
    """Simulate four frames, put `alphas_line` in place of the manifest's
    alphas line, and reconstruct; returns (exit code, manifest, output)."""
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    manifest = out / "frames" / "manifest.txt"
    text = manifest.read_text()
    assert EQUAL_ALPHAS in text
    manifest.write_text(text.replace(EQUAL_ALPHAS, alphas_line))
    capsys.readouterr()
    rec = tmp_path / "rec"
    rc = main(["reconstruct", str(manifest), "--out", str(rec), "--quiet"])
    return rc, manifest, rec


@pytest.mark.parametrize("key, value", [
    ("reference_re", "5.0"), ("n_steps", "4"), ("illumination", "3.0"),
    ("alphas", EQUAL_ALPHAS.partition(" = ")[2].strip())])
def test_cli_manifest_with_a_repeated_key_is_an_error(tmp_path, capsys, key,
                                                      value):
    # the second value, even an equal one, is not silently taken
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"),
                 "--quiet"]) == 0
    manifest = tmp_path / "sim" / "frames" / "manifest.txt"
    manifest.write_text(manifest.read_text() + f"{key} = {value}\n")
    with pytest.raises(ShapeError):
        pio.read_interferogram_set(manifest)
    capsys.readouterr()
    rec = tmp_path / "rec"
    assert main(["reconstruct", str(manifest), "--out", str(rec),
                 "--quiet"]) == 1
    assert_one_line_error(capsys, f"error: {manifest}: ", f"repeated key '{key}'")
    assert not rec.exists()


@pytest.mark.parametrize("line, fragment", [
    pytest.param("bogus = 1", "unknown key 'bogus'", id="unknown-key"),
    pytest.param("not a key line", "not a 'key = value' line 'not a key line'",
                 id="no-equals")])
def test_cli_manifest_with_an_unknown_line_is_an_error(tmp_path, capsys, line,
                                                       fragment):
    # a line the reader cannot place is not silently skipped
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"),
                 "--quiet"]) == 0
    manifest = tmp_path / "sim" / "frames" / "manifest.txt"
    pio.read_interferogram_set(manifest)  # the manifest as written reads back
    manifest.write_text(manifest.read_text() + line + "\n")
    with pytest.raises(ShapeError):
        pio.read_interferogram_set(manifest)
    capsys.readouterr()
    rec = tmp_path / "rec"
    assert main(["reconstruct", str(manifest), "--out", str(rec),
                 "--quiet"]) == 1
    assert_one_line_error(capsys, f"error: {manifest}: ", fragment)
    assert not rec.exists()


def test_cli_manifest_with_two_steps_is_an_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"),
                 "--quiet"]) == 0
    manifest = tmp_path / "sim" / "frames" / "manifest.txt"
    text = manifest.read_text()
    assert "n_steps = 4\n" in text
    manifest.write_text(text.replace("n_steps = 4\n", "n_steps = 2\n"))
    capsys.readouterr()
    rec = tmp_path / "rec"
    assert main(["reconstruct", str(manifest), "--out", str(rec),
                 "--quiet"]) == 1
    assert_one_line_error(capsys, f"error: {manifest}: ",
                          "phase retrieval needs >= 3 steps, got 2")
    assert not rec.exists()


def test_cli_manifest_without_alphas_is_an_error(tmp_path, capsys):
    rc, manifest, _ = reconstruct_edited_manifest(tmp_path, capsys, "")
    assert rc == 1
    assert_one_line_error(capsys, str(manifest), "alphas")


@pytest.mark.parametrize("alphas", [
    pytest.param("0.0,1.0,2.5,4.0", id="unequal"),
    pytest.param("0.0,1.5707963267948966,nan,4.71238898038469", id="nan"),
    pytest.param("0.0,1.5707963267948966,3.141592653589793", id="count")])
def test_cli_manifest_with_other_steps_is_an_error(tmp_path, capsys, alphas):
    # the reconstruction inverts the equal steps 2 pi n / N only
    rc, manifest, rec = reconstruct_edited_manifest(tmp_path, capsys,
                                                    f"alphas = {alphas}\n")
    assert rc == 1
    assert_one_line_error(capsys, str(manifest), "alphas")
    assert not rec.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("reference_re, reference_im", [
    ("1.7320508075688777e+300", "0.0"), ("1.7e+308", "1.7e+308"),
    ("nan", "0.0")], ids=["square-overflows", "modulus-overflows", "nan"])
def test_cli_manifest_reference_without_a_finite_c0_is_an_error(
        tmp_path, capsys, reference_re, reference_im):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"),
                 "--quiet"]) == 0
    manifest = tmp_path / "sim" / "frames" / "manifest.txt"
    text = re.sub(r"reference_re = .*\nreference_im = .*\n",
                  f"reference_re = {reference_re}\n"
                  f"reference_im = {reference_im}\n", manifest.read_text())
    assert f"reference_re = {reference_re}\n" in text
    manifest.write_text(text)
    capsys.readouterr()
    rec = tmp_path / "rec"
    assert main(["reconstruct", str(manifest), "--out", str(rec)]) == 1
    assert_one_line_error(capsys, f"error: {manifest}: ", "C0")
    assert not rec.exists()


def test_cli_bad_map_header_is_an_error(tmp_path, capsys):
    path = tmp_path / "bad.phmap"
    path.write_bytes(b"PHMAP x 3\n" + bytes(12))
    cfg = write_cfg(tmp_path, f"[scene]\ntype = phmap\nphase_map = {path}\n")
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 1
    assert_one_line_error(capsys, str(path))


NON_FINITE = [pytest.param(value, id=name) for name, value in
              (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf))]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", NON_FINITE)
def test_cli_frame_with_a_non_finite_value_is_an_error(tmp_path, capsys, value):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim"),
                 "--quiet"]) == 0
    frame = tmp_path / "sim" / "frames" / "frame_1.ammap"
    raw = frame.read_bytes()
    header = raw[:raw.index(b"\n") + 1]
    frame.write_bytes(header + np.full((len(raw) - len(header)) // 4, value,
                                       dtype="<f4").tobytes())
    capsys.readouterr()
    rec = tmp_path / "rec"
    assert main(["reconstruct", str(tmp_path / "sim" / "frames" / "manifest.txt"),
                 "--out", str(rec)]) == 1
    assert_one_line_error(capsys, f"error: {frame}: ", "NaN or infinite")
    assert not rec.exists()


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("which", ["phase", "amplitude"])
def test_cli_scene_map_with_a_non_finite_value_is_an_error(tmp_path, capsys,
                                                          which, value):
    maps = {"phase": np.zeros((8, 8)), "amplitude": np.ones((8, 8))}
    maps[which][3, 5] = value
    phase, amplitude = tmp_path / "p.phmap", tmp_path / "a.ammap"
    pio.write_phase_map(phase, maps["phase"])
    pio.write_amplitude_map(amplitude, maps["amplitude"])
    cfg = write_cfg(tmp_path, f"[scene]\ntype = phmap\nphase_map = {phase}\n"
                              f"amplitude_map = {amplitude}\n")
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    bad = phase if which == "phase" else amplitude
    assert_one_line_error(capsys, f"error: {bad}: 1 of 64 values")
    assert not out.exists()


@pytest.mark.parametrize("lines, key", [
    pytest.param("type = eq6_qudit\ngrid_width = 0", "grid_width", id="grid_width-0"),
    pytest.param("type = eq6_qudit\nd = 0", "d", id="d-0"),
    pytest.param("type = eq6_qudit\nslit_gap_px = -1", "slit_gap_px", id="gap"),
    pytest.param("type = eq6_qudit\nslit_length_px = 5", "slit_length_px",
                 id="slit-shorter-than-wide"),
    pytest.param("type = eq6_qudit\ngrid_width = 40", "grid_width",
                 id="slits-wider-than-grid"),
    pytest.param("type = eq6_qudit\ngrid_height = 8", "grid_height",
                 id="slits-taller-than-grid"),
    pytest.param("type = lens\nd = 7", "d", id="lens-d"),
    pytest.param("type = phmap\ngrid_width = 64", "grid_width", id="phmap-grid"),
    pytest.param("type = eq6_qudit\nphase_map = /nonexistent", "phase_map",
                 id="qudit-phase_map"),
    pytest.param("type = phmap\nphase_map = /nonexistent", "phase_map",
                 id="phmap-missing-file"),
    pytest.param("type = lens\ngrid_height = 4097", "grid_height",
                 id="grid-above-cap"),
    pytest.param("type = eq6_qudit\nd = 100000000000000000000", "d",
                 id="d-above-cap"),
])
def test_scene_errors_name_key_and_line(tmp_path, lines, key):
    text = f"[scene]\n{lines}\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (err.value.key, err.value.line) == (key, 3)
    cfg = write_cfg(tmp_path, text)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 2


def test_cli_oversized_map_header_is_an_error(tmp_path, capsys):
    path = tmp_path / "huge.phmap"
    path.write_bytes(b"PHMAP 1000000000000 1000000000000\n" + bytes(16))
    cfg = write_cfg(tmp_path, f"[scene]\ntype = phmap\nphase_map = {path}\n")
    capsys.readouterr()
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
               "--quiet"])
    assert rc == 1
    assert_one_line_error(capsys, str(path))


def test_lens_default_sigmas_are_the_continuous_pair():
    cfg = parse_config("[scene]\ntype = lens\n")
    assert cfg.sweep.sigmas == (3.0, 0.2)
    nsamps = parse_config("[scene]\ntype = lens\n[sweep]\nnsamps = 1,9\n")
    assert nsamps.sweep.sigmas == (3.0, 1.0)


def test_cli_continuous_runs_every_sigma(tmp_path):
    text = ("[scene]\ntype = lens\n[sweep]\nilluminations = 4.0\n"
            "sigmas = 1.0,0.5,0.3\nreference_illumination = 100\n")
    table = cli_output(tmp_path, "continuous-experiment", text, "three",
                       "phase_error.csv").decode().splitlines()
    assert [row.split(",")[:2] for row in table[1:]] == [
        ["4.0", "1.0"], ["4.0", "0.5"], ["4.0", "0.3"]]


def test_negative_seed_rejected(tmp_path):
    text = MINIMAL + "[noise]\nseed = -1\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert (err.value.key, err.value.line) == ("seed", 4)
    for cfg, seed in ((write_cfg(tmp_path, text, "neg.cfg"), []),
                      (write_cfg(tmp_path, MINIMAL), ["--seed", "-1"])):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--quiet"] + seed) == 2


@pytest.mark.parametrize("subcommand, scene", [
    ("qudit-experiment", "lens"),
    ("sweep-map", "lens"),
    ("continuous-experiment", "eq6_qudit"),
])
def test_cli_subcommand_on_the_wrong_scene_type(tmp_path, subcommand, scene):
    cfg = write_cfg(tmp_path, f"[scene]\ntype = {scene}\n")
    out = tmp_path / "o"
    assert main([subcommand, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


def test_cli_continuous_labels_nsamps_like_the_sweeps(tmp_path):
    sweep = "[sweep]\nilluminations = 4.0\nnsamps = 1,9\n"
    table = cli_output(tmp_path, "continuous-experiment",
                       "[scene]\ntype = lens\n" + sweep
                       + "reference_illumination = 100\n", "lens",
                       "phase_error.csv").decode().splitlines()
    fidelity = cli_output(tmp_path, "qudit-experiment",
                          MINIMAL + sweep + "n_bins = 1\nrepetitions = 5\n",
                          "qudit", "fidelity.csv").decode().splitlines()
    assert [row.split(",")[1] for row in table[1:]] == ["1", "9"]
    assert [row.split(",")[1] for row in fidelity[1:]] == ["1", "9"]


def test_config_roundtrip_of_wrapped_step_and_amplitude_map(tmp_path):
    phase, amplitude = tmp_path / "p.phmap", tmp_path / "a.ammap"
    pio.write_phase_map(phase, np.zeros((8, 8)))
    pio.write_amplitude_map(amplitude, np.ones((8, 8)))
    for text in (MINIMAL + "state_step = 4.0\n",
                 f"[scene]\ntype = phmap\nphase_map = {phase}\n"
                 f"amplitude_map = {amplitude}\n"):
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert serialize_config(again) == serialize_config(cfg)
        if isinstance(cfg.scene, QuditScene):
            assert np.allclose(again.scene.state.coeffs, cfg.scene.state.coeffs)
        else:
            assert again.scene == cfg.scene


LENS = "[scene]\ntype = lens\n"


@pytest.mark.parametrize("subcommand, text", [
    *[pytest.param("continuous-experiment", LENS + f"[sweep]\n{line}\n",
                   id=f"continuous-{line.split()[0]}")
      for line in ("n_bins = 1", "repetitions = 5")],
    *[pytest.param(sweep, MINIMAL + f"[{section}]\n{line}\n",
                   id=f"{sweep}-{line.split()[0]}")
      for sweep in ("qudit-experiment", "sweep-map")
      for section, line in (("psi", "illumination = 2"),
                            ("sweep", "reference_illumination = 100"),
                            ("noise", "readout_sigma = 0.5"),
                            ("noise", "nsamp = 9"))],
    *[pytest.param("simulate", MINIMAL + f"[sweep]\n{line}\n",
                   id=f"simulate-{line.split()[0]}")
      for line in ("illuminations = 3.0", "sigmas = 0.5", "nsamps = 9",
                   "n_bins = 1", "repetitions = 5", "reference_illumination = 100")],
])
def test_cli_rejects_a_key_the_subcommand_does_not_read(tmp_path, capsys, subcommand,
                                                        text):
    key = text.splitlines()[-1].split(" =")[0]
    with pytest.raises(ConfigError) as err:
        parse_config(text, subcommand)
    assert (err.value.key, err.value.line) == (key, 4)
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main([subcommand, "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"key '{key}', line 4" in err and subcommand in err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, text", [
    pytest.param("qudit-experiment",
                 MINIMAL + "[sweep]\nilluminations = 600\nsigmas = 0.5\n"
                 "n_bins = 1\nrepetitions = 5\n", id="sweep-above-default-reference"),
    pytest.param("simulate", MINIMAL + "slit_width_px = 1\nslit_length_px = 2\n",
                 id="simulate-two-pixel-slits"),
])
def test_cross_key_checks_skip_keys_the_subcommand_does_not_read(tmp_path, subcommand,
                                                                 text):
    with pytest.raises(ConfigError):
        parse_config(text)
    cfg = write_cfg(tmp_path, text)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "o"),
                 "--quiet"]) == 0


QUDIT_KEYS = ["type", "d", "slit_width_px", "slit_gap_px", "slit_length_px",
              "grid_width", "grid_height", "background_amplitude",
              "background_phase", "state_step"]


@pytest.mark.parametrize("subcommand, text, keys", [
    pytest.param("simulate", MINIMAL + "[noise]\nnsamp = 9\n",
                 QUDIT_KEYS + ["n_steps", "illumination", "readout_sigma", "nsamp",
                               "quantize", "seed"], id="simulate"),
    pytest.param("sweep-map", MINIMAL + "[noise]\nseed = 2\n" + SMALL_SWEEP,
                 QUDIT_KEYS + ["n_steps", "quantize", "seed", "illuminations",
                               "sigmas", "n_bins", "repetitions"], id="sweep-map"),
    pytest.param("qudit-experiment", MINIMAL + SMALL_SWEEP,
                 QUDIT_KEYS + ["n_steps", "quantize", "seed", "illuminations",
                               "sigmas", "n_bins", "repetitions"],
                 id="qudit-experiment-without-noise"),
    pytest.param("continuous-experiment", LENS + "[psi]\nreference_re = 0.5\n",
                 ["type", "curvature", "amplitude", "grid_width", "grid_height",
                  "n_steps", "reference_re", "reference_im", "quantize", "seed",
                  "illuminations", "sigmas", "reference_illumination"],
                 id="continuous-experiment"),
])
def test_cli_manifest_lists_exactly_the_keys_read(tmp_path, subcommand, text, keys):
    manifest = cli_output(tmp_path, subcommand, text, "run", "manifest.txt")
    body = manifest.decode().split("\n\n", 1)[1]
    assert [line.split(" = ")[0] for line in body.splitlines()
            if " = " in line] == keys
    assert serialize_config(parse_config(body, subcommand), subcommand) == body


@pytest.mark.parametrize("subcommand, text", [
    ("simulate", MINIMAL),
    ("reconstruct", None),
    ("qudit-experiment", MINIMAL + SMALL_SWEEP),
    ("sweep-map", MINIMAL + SMALL_SWEEP),
    ("continuous-experiment", LENS)])
def test_cli_run_without_out_is_a_config_error(tmp_path, capsys, monkeypatch,
                                               subcommand, text):
    monkeypatch.chdir(tmp_path)
    if text is None:
        args = [subcommand, "manifest.txt"]
    else:
        args = [subcommand, "--config", write_cfg(tmp_path, text)]
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main(args + ["--quiet"]) == 2
    assert capsys.readouterr().err == (
        f"config error: --out is required for {subcommand}\n")
    assert sorted(os.listdir(tmp_path)) == before


def test_cli_output_section_is_an_unknown_section(tmp_path, capsys):
    text = MINIMAL + "[output]\ndirectory = out\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.line == 3
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown section [output]")
    assert "line 3" in err and err.count("\n") == 1
    assert not out.exists() and not (tmp_path / "out").exists()


def readme_configs():
    """(subcommand, text) of each ini block of the README, whose first line
    names the command it is for."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        blocks = fh.read().split("```ini\n")[1:]
    return [pytest.param(block.split()[2], block.split("```")[0],
                         id=block.split()[2]) for block in blocks]


@pytest.mark.parametrize("subcommand, text", readme_configs())
def test_readme_configs_parse_under_their_subcommand(subcommand, text):
    assert text.startswith(f"# pdisim {subcommand} ")
    once = serialize_config(parse_config(text, subcommand), subcommand)
    assert serialize_config(parse_config(once, subcommand), subcommand) == once
