"""Experiment runner: schemas, artifacts, determinism, exit codes."""

import csv
import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import tfcomm.cli as cli
from tfcomm import __version__
from tfcomm.wh_frames import gaussian_pulse, write_pulse_csv


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def digest_tree(directory, skip=("manifest.json",)):
    out = {}
    for path in sorted(Path(directory).iterdir()):
        if path.name in skip:
            continue
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


SPREAD_CFG = {
    "kind": "spread-analyze",
    "n_dim": 16,
    "channel": {"kind": "specular",
                "paths": [[0, 0, 1.0, 0.0], [2, -1, 0.5, 0.25]]},
}

SIM_CFG = {
    "kind": "ofdm-sim",
    "n_dim": 48,
    "system": {"kind": "cp_ofdm", "n_subcarriers": 12, "cp_len": 4},
    "channel": {"kind": "wssus",
                "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1}},
    "n_frames": 3,
    "noise_psd": 0.01,
    "seed": 7,
}


# ---------------------------------------------------------------------------
# run_experiment and the manifest


def test_manifest_contents(tmp_path):
    out = tmp_path / "run"
    manifest = cli.run_experiment("spread-analyze", SPREAD_CFG, out)
    assert manifest["kind"] == "spread-analyze"
    assert manifest["tool_version"] == __version__
    assert manifest["seed"] == 0
    assert set(manifest["outputs"]) == {
        "spreading.csv", "spreading_db.csv", "transfer_db.csv", "spread_report.json"}
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    on_disk = json.loads((out / "manifest.json").read_text())
    assert isinstance(on_disk.pop("wall_time_seconds"), float)
    roundtrip = dict(manifest)
    roundtrip.pop("wall_time_seconds")
    assert on_disk == roundtrip


def test_seed_argument_overrides_config(tmp_path):
    manifest = cli.run_experiment("ofdm-sim", SIM_CFG, tmp_path / "a", seed=99)
    assert manifest["seed"] == 99
    assert manifest["config"]["seed"] == 99


def test_kind_mismatch_rejected(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.run_experiment("capacity", SPREAD_CFG, tmp_path / "x")
    with pytest.raises(cli.ConfigError):
        cli.run_experiment("no-such-kind", {}, tmp_path / "y")


def test_unknown_and_missing_keys_rejected(tmp_path):
    bad = dict(SPREAD_CFG, extra=1)
    with pytest.raises(cli.ConfigError):
        cli.run_experiment("spread-analyze", bad, tmp_path / "x")
    with pytest.raises(cli.ConfigError):
        cli.run_experiment("spread-analyze", {"n_dim": 16}, tmp_path / "y")


def test_bool_is_not_an_int(tmp_path):
    bad = dict(SPREAD_CFG, n_dim=True)
    with pytest.raises(cli.ConfigError):
        cli.run_experiment("spread-analyze", bad, tmp_path / "x")


# ---------------------------------------------------------------------------
# per-kind artifacts


def test_spread_analyze_artifacts(tmp_path):
    cli.run_experiment("spread-analyze", SPREAD_CFG, tmp_path)
    report = json.loads((tmp_path / "spread_report.json").read_text())
    assert report["n_dim"] == 16
    assert report["support_count"] == 2
    assert report["underspread"] is True
    with open(tmp_path / "spreading.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = {(int(r["m"]), int(r["l"])): complex(float(r["re"]), float(r["im"]))
             for r in rows}
    assert cells[(0, 0)] == 1.0
    assert cells[(2, -1)] == 0.5 + 0.25j


def test_frame_analyze_artifacts(tmp_path):
    cfg = {"kind": "frame-analyze", "n_dim": 24, "time_step": 4, "freq_step": 4,
           "pulse": {"kind": "gaussian"}}
    cli.run_experiment("frame-analyze", cfg, tmp_path)
    report = json.loads((tmp_path / "frame_report.json").read_text())
    assert report["is_frame"] is True
    assert report["wexler_raz_dual"] is True
    assert report["biorthogonality_defect"] <= 1e-10
    assert report["redundancy"] == pytest.approx(1.5)
    assert (tmp_path / "dual_window.csv").exists()
    assert (tmp_path / "tight_window.csv").exists()


def test_pulse_design_artifacts(tmp_path):
    cfg = {"kind": "pulse-design", "n_dim": 48, "time_step": 8, "freq_step": 8,
           "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1},
           "baseline": {"n_subcarriers": 6, "cp_len": 2}}
    cli.run_experiment("pulse-design", cfg, tmp_path)
    report = json.loads((tmp_path / "design_report.json").read_text())
    assert report["biorthogonality_defect"] <= 1e-10
    assert report["baseline"]["tf_product"] == pytest.approx(report["tf_product"])
    assert report["interference_power"] < report["baseline"]["interference_power"]
    header = (tmp_path / "ambiguity_db.csv").read_text().splitlines()[0]
    assert header == "x,y,value_db"


def test_ofdm_sim_artifacts(tmp_path):
    cli.run_experiment("ofdm-sim", SIM_CFG, tmp_path)
    with open(tmp_path / "frames.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["frame"] for r in rows] == ["0", "1", "2"]
    report = json.loads((tmp_path / "sim_report.json").read_text())
    assert report["n_frames"] == 3
    assert report["predicted_interference_power"] > 0
    assert report["mean_interference_energy"] == pytest.approx(
        np.mean([float(r["interference_energy"]) for r in rows]), rel=1e-12)


def test_ofdm_sim_specular_has_no_prediction(tmp_path):
    cfg = dict(SIM_CFG, channel={"kind": "specular", "paths": [[0, 0, 1.0, 0.0]]})
    cli.run_experiment("ofdm-sim", cfg, tmp_path)
    report = json.loads((tmp_path / "sim_report.json").read_text())
    assert "predicted_interference_power" not in report


def test_identify_artifacts(tmp_path):
    cfg = {"kind": "identify", "n_dim": 32, "period": 4,
           "support": {"n_delay": 4, "n_doppler": 4}}
    cli.run_experiment("identify", cfg, tmp_path)
    report = json.loads((tmp_path / "identify_report.json").read_text())
    assert report["n_unknowns"] == 16
    assert report["relative_error"] <= 1e-10
    assert report["condition_number"] == pytest.approx(1.0, abs=1e-9)
    with open(tmp_path / "estimate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    for r in rows:
        assert float(r["re"]) == pytest.approx(float(r["true_re"]), abs=1e-9)


def test_identify_explicit_support_and_noise(tmp_path):
    cfg = {"kind": "identify", "n_dim": 32, "period": 4,
           "support": [[0, 0], [1, 2], [-1, -2]], "noise_psd": 1e-6, "seed": 3}
    cli.run_experiment("identify", cfg, tmp_path)
    report = json.loads((tmp_path / "identify_report.json").read_text())
    assert report["n_unknowns"] == 3
    assert 0 < report["residual"] < 1e-2


def test_capacity_artifacts(tmp_path):
    cfg = {"kind": "capacity", "n_dim": 64,
           "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1},
           "snr": 0.5, "power_budget": 1.0,
           "bandwidths": {"min": 0.05, "max": 50.0, "count": 40}}
    cli.run_experiment("capacity", cfg, tmp_path)
    report = json.loads((tmp_path / "capacity_report.json").read_text())
    assert report["point"]["capacity"] < report["point"]["awgn_reference"]
    assert report["sweep"]["interior_maximum"] is True
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    rates = [float(r["rate"]) for r in rows]
    assert max(rates) == pytest.approx(report["sweep"]["best_rate"], rel=1e-12)


def test_capacity_needs_some_request(tmp_path):
    cfg = {"kind": "capacity", "n_dim": 16,
           "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1}}
    with pytest.raises(cli.ConfigError):
        cli.run_experiment("capacity", cfg, tmp_path)
    with pytest.raises(cli.ConfigError):
        cli.run_experiment("capacity", dict(cfg, power_budget=1.0), tmp_path)


def test_pulse_pair_system_with_csv_pulse(tmp_path):
    pulse = gaussian_pulse(48, 16, 4)
    write_pulse_csv(tmp_path / "win.csv", pulse)
    cfg = {"kind": "ofdm-sim", "n_dim": 48,
           "system": {"kind": "pulse_pair", "time_step": 16, "freq_step": 4,
                      "tx": {"kind": "csv", "path": "win.csv"},
                      "rx": {"kind": "csv", "path": "win.csv"}},
           "channel": {"kind": "time_invariant", "gains": [1.0]},
           "n_frames": 1}
    config_path = write_config(tmp_path, "sim.json", cfg)
    code = cli.run(["ofdm-sim", "--config", str(config_path),
                    "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_OK
    assert (tmp_path / "out" / "sim_report.json").exists()


# ---------------------------------------------------------------------------
# determinism


@pytest.mark.parametrize("kind,cfg", [
    ("spread-analyze", SPREAD_CFG),
    ("ofdm-sim", SIM_CFG),
])
def test_repeat_runs_are_byte_identical(tmp_path, kind, cfg):
    cli.run_experiment(kind, cfg, tmp_path / "a")
    cli.run_experiment(kind, cfg, tmp_path / "b")
    assert digest_tree(tmp_path / "a") == digest_tree(tmp_path / "b")
    m_a = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m_b = json.loads((tmp_path / "b" / "manifest.json").read_text())
    m_a.pop("wall_time_seconds"), m_b.pop("wall_time_seconds")
    assert m_a == m_b


def test_different_seeds_differ(tmp_path):
    cli.run_experiment("ofdm-sim", SIM_CFG, tmp_path / "a", seed=1)
    cli.run_experiment("ofdm-sim", SIM_CFG, tmp_path / "b", seed=2)
    assert digest_tree(tmp_path / "a")["frames.csv"] \
        != digest_tree(tmp_path / "b")["frames.csv"]


# ---------------------------------------------------------------------------
# command-line surface


def test_cli_happy_path_and_set_override(tmp_path):
    config_path = write_config(tmp_path, "spread.json", SPREAD_CFG)
    out = tmp_path / "out"
    code = cli.run(["spread-analyze", "--config", str(config_path),
                    "--out", str(out), "--seed", "5",
                    "--set", "channel.paths=[[1, 0, 1.0, 0.0]]"])
    assert code == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["config"]["channel"]["paths"] == [[1, 0, 1.0, 0.0]]
    report = json.loads((out / "spread_report.json").read_text())
    assert report["support_count"] == 1


def test_cli_out_dir_from_environment(tmp_path, monkeypatch):
    config_path = write_config(tmp_path, "spread.json", SPREAD_CFG)
    target = tmp_path / "env-out"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(target))
    assert cli.run(["spread-analyze", "--config", str(config_path)]) == cli.EXIT_OK
    assert (target / "manifest.json").exists()


def test_cli_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert cli.run(["capacity", "--config", str(missing)]) == cli.EXIT_CONFIG
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert cli.run(["capacity", "--config", str(bad_json)]) == cli.EXIT_CONFIG
    bad_value = write_config(tmp_path, "neg.json", dict(SPREAD_CFG, n_dim=-4))
    assert cli.run(["spread-analyze", "--config", str(bad_value),
                    "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    bad_set = write_config(tmp_path, "ok.json", SPREAD_CFG)
    assert cli.run(["spread-analyze", "--config", str(bad_set),
                    "--set", "oops"]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_identify_negative_noise_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "neg_noise.json", {
        "kind": "identify", "n_dim": 32, "period": 4,
        "support": {"n_delay": 4, "n_doppler": 4}, "noise_psd": -1.0})
    assert cli.run(["identify", "--config", str(path),
                    "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    assert "noise_psd" in capsys.readouterr().err


def test_non_finite_json_literals_exit_2(tmp_path, capsys):
    cfg = {"kind": "capacity", "n_dim": 64,
           "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1}, "snr": 0.5}
    infinite = write_config(tmp_path, "inf.json", dict(cfg, snr=float("inf")))
    assert "Infinity" in infinite.read_text()
    assert cli.run(["capacity", "--config", str(infinite),
                    "--out", str(tmp_path / "a")]) == cli.EXIT_CONFIG
    finite = write_config(tmp_path, "ok.json", cfg)
    assert cli.run(["capacity", "--config", str(finite), "--set", "snr=NaN",
                    "--out", str(tmp_path / "b")]) == cli.EXIT_CONFIG
    assert "non-finite number" in capsys.readouterr().err
    assert cli.run(["capacity", "--config", str(finite),
                    "--out", str(tmp_path / "c")]) == cli.EXIT_OK


def test_cli_numerical_failures_exit_3(tmp_path, capsys):
    sparse = write_config(tmp_path, "sparse.json", {
        "kind": "frame-analyze", "n_dim": 24, "time_step": 6, "freq_step": 6,
        "pulse": {"kind": "gaussian"}})
    assert cli.run(["frame-analyze", "--config", str(sparse),
                    "--out", str(tmp_path / "f")]) == cli.EXIT_NUMERICAL
    overspread = write_config(tmp_path, "over.json", {
        "kind": "identify", "n_dim": 32, "period": 4,
        "support": {"n_delay": 5, "n_doppler": 8}})
    assert cli.run(["identify", "--config", str(overspread),
                    "--out", str(tmp_path / "i")]) == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("kind, cfg, report", [
    # the demodulator output overflows: the decomposition check fails
    ("ofdm-sim", dict(SIM_CFG, channel={"kind": "time_invariant", "gains": [1e308, 1e308]}),
     "sim_report.json"),
    # finite estimates whose energies overflow
    ("ofdm-sim", dict(SIM_CFG, channel={"kind": "time_invariant", "gains": [1e160]}),
     "sim_report.json"),
    # a finite run whose report holds an overflowed norm
    ("spread-analyze", dict(SPREAD_CFG, channel={
        "kind": "specular", "paths": [[0, 0, 1e308, 0.0], [1, 0, 1e308, 0.0]]}),
     "spread_report.json"),
])
def test_non_finite_results_exit_3(tmp_path, capsys, kind, cfg, report):
    path = write_config(tmp_path, "huge.json", cfg)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    assert not (out / report).exists() and not (out / "manifest.json").exists()
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# plot data


def test_plotdata_normalization_and_floor(tmp_path):
    grid = np.zeros((4, 4), dtype=complex)
    grid[0, 0] = 2.0
    grid[1, 1] = 0.2
    grid[2, 2] = 1e-9
    path = tmp_path / "heat.csv"
    cli.emit_plotdata("spreading-heatmap", grid, path)
    with open(path, newline="") as fh:
        rows = {(r["x"], r["y"]): float(r["value_db"]) for r in csv.DictReader(fh)}
    assert rows[("0", "0")] == pytest.approx(0.0)
    assert rows[("1", "1")] == pytest.approx(20 * np.log10(0.1), abs=1e-9)
    assert rows[("2", "2")] == pytest.approx(cli.DB_FLOOR)  # tiny value, clamped
    assert rows[("-1", "-1")] == pytest.approx(cli.DB_FLOOR)  # exact zero
    assert min(rows.values()) >= cli.DB_FLOOR


def test_plotdata_transfer_axes_uncentered(tmp_path):
    grid = np.eye(3, dtype=complex)
    path = tmp_path / "t.csv"
    cli.emit_plotdata("transfer-heatmap", grid, path)
    with open(path, newline="") as fh:
        xs = {int(r["x"]) for r in csv.DictReader(fh)}
    assert xs == {0, 1, 2}


def test_plotdata_unknown_kind(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.emit_plotdata("pie-chart", np.ones((2, 2)), tmp_path / "x.csv")
