"""Experiment runner: schemas, artifacts, determinism, exit codes."""

import contextlib
import copy
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import tfcomm.cli as cli
import tfcomm.identification as ident
import tfcomm.ofdm as ofdm
import tfcomm.wh_frames as wh
from tfcomm import __version__
from tfcomm.tf_core import centered_index
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

FRAME_CFG = {"kind": "frame-analyze", "n_dim": 24, "time_step": 4, "freq_step": 4,
             "pulse": {"kind": "gaussian"}}

IDENTIFY_CFG = {"kind": "identify", "n_dim": 32, "period": 4,
                "support": {"n_delay": 4, "n_doppler": 4}}

CAPACITY_CFG = {"kind": "capacity", "n_dim": 64,
                "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1},
                "snr": 0.5}


# ---------------------------------------------------------------------------
# run_experiment and the manifest


@pytest.mark.parametrize("kind, cfg, outputs", [
    ("spread-analyze", SPREAD_CFG,
     {"spreading.csv", "spreading_db.csv", "transfer_db.csv", "spread_report.json"}),
    ("frame-analyze", FRAME_CFG, {"dual_window.csv", "tight_window.csv", "frame_report.json"}),
    ("pulse-design", {"kind": "pulse-design", "n_dim": 24, "time_step": 4, "freq_step": 8,
                      "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1}},
     {"tx_pulse.csv", "rx_pulse.csv", "ambiguity_db.csv", "design_report.json"}),
    ("ofdm-sim", SIM_CFG, {"frames.csv", "sim_report.json"}),
    ("identify", IDENTIFY_CFG, {"estimate.csv", "identify_report.json"}),
    ("capacity", CAPACITY_CFG, {"capacity_report.json"}),
    ("capacity", dict(CAPACITY_CFG, power_budget=1.0, bandwidths=[0.5, 1.0, 2.0]),
     {"sweep.csv", "capacity_curve_db.csv", "capacity_report.json"}),
], ids=["spread-analyze", "frame-analyze", "pulse-design", "ofdm-sim", "identify",
        "capacity-point", "capacity-sweep"])
def test_manifest_contents(tmp_path, kind, cfg, outputs):
    out = tmp_path / "run"
    manifest = cli.run_experiment(kind, cfg, out)
    assert manifest["kind"] == kind
    assert manifest["tool_version"] == __version__
    assert manifest["seed"] == cfg.get("seed", 0)
    assert set(manifest["outputs"]) == outputs
    assert {path.name for path in out.iterdir()} == outputs | {"manifest.json"}
    report = next(name for name in outputs if name.endswith("_report.json"))
    assert json.loads((out / report).read_text())["n_dim"] == cfg["n_dim"]
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
    # ||H||_F = sqrt(N) ||S||_F = sqrt(16 * (1 + 0.5^2 + 0.25^2))
    assert report["channel_frobenius_norm"] == pytest.approx(np.sqrt(21.0), rel=1e-15)


def test_frame_analyze_artifacts(tmp_path):
    cli.run_experiment("frame-analyze", FRAME_CFG, tmp_path)
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


@pytest.mark.parametrize("n_sweeps, step", [(0, 0.02), (1, 0.02), (3, 0.5), (2, 1.0)])
def test_matched_gaussian_tight_is_local_search_with_no_sweeps(tmp_path, n_sweeps, step):
    cfg = {"kind": "pulse-design", "n_dim": 32, "time_step": 8, "freq_step": 8,
           "profile": {"kind": "flat_rect", "max_delay": 2, "max_doppler": 1}}
    cli.run_experiment("pulse-design", dict(cfg, method="matched_gaussian_tight",
                                            n_sweeps=n_sweeps, step=step), tmp_path / "tight")
    cli.run_experiment("pulse-design", dict(cfg, method="local_search", n_sweeps=0),
                       tmp_path / "search")
    for name in ("tx_pulse.csv", "rx_pulse.csv"):
        tight = (tmp_path / "tight" / name).read_bytes()
        assert tight == (tmp_path / "search" / name).read_bytes()
    tight, search = (json.loads((tmp_path / side / "design_report.json").read_text())
                     for side in ("tight", "search"))
    assert tight["interference_power"] == search["interference_power"]


def test_local_search_reports_descent_powers(tmp_path):
    cfg = {"kind": "pulse-design", "n_dim": 32, "time_step": 8, "freq_step": 8,
           "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1},
           "method": "local_search", "step": 0.05}
    cli.run_experiment("pulse-design", cfg, tmp_path / "search")
    report = json.loads((tmp_path / "search" / "design_report.json").read_text())
    powers = report["descent_powers"]
    assert len(powers) == 33  # the start, then one entry per window sample
    assert all(p >= q for p, q in zip(powers, powers[1:])) and powers[-1] < powers[0]
    assert powers[-1] == report["interference_power"]
    decreases = sum(p > q for p, q in zip(powers, powers[1:]))
    assert report["descent_accepted_trials"] >= decreases > 0
    cli.run_experiment("pulse-design", dict(cfg, n_sweeps=0), tmp_path / "none")
    report = json.loads((tmp_path / "none" / "design_report.json").read_text())
    assert report["descent_accepted_trials"] == 0 and len(report["descent_powers"]) == 1
    cli.run_experiment("pulse-design", dict(cfg, method="matched_gaussian_tight"),
                       tmp_path / "gauss")
    report = json.loads((tmp_path / "gauss" / "design_report.json").read_text())
    assert "descent_powers" not in report and "descent_accepted_trials" not in report


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
    cli.run_experiment("identify", IDENTIFY_CFG, tmp_path)
    report = json.loads((tmp_path / "identify_report.json").read_text())
    assert report["n_unknowns"] == 16
    assert report["relative_error"] <= 1e-10
    assert report["condition_number"] == pytest.approx(1.0, abs=1e-9)
    assert report["numerical_rank"] == 16
    assert report["smallest_singular_value"] == pytest.approx(1.0, abs=1e-12)
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


@pytest.mark.parametrize("module", ["tfcomm", "tfcomm.cli"])
def test_module_entry_points_run(tmp_path, module):
    config_path = write_config(tmp_path, "identify.json", {
        "kind": "identify", "n_dim": 16, "period": 4,
        "support": {"n_delay": 2, "n_doppler": 2}})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", module, "identify", "--config",
                           str(config_path), "--out", str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert proc.stderr == ""
    manifest = json.loads((out / "manifest.json").read_text())
    assert sorted(manifest["outputs"]) == ["estimate.csv", "identify_report.json"]


def test_cli_config_errors_exit_2(tmp_path, capsys):
    out = ["--out", str(tmp_path / "x")]
    missing = tmp_path / "nope.json"
    assert cli.run(["capacity", "--config", str(missing), *out]) == cli.EXIT_CONFIG
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert cli.run(["capacity", "--config", str(bad_json), *out]) == cli.EXIT_CONFIG
    bad_value = write_config(tmp_path, "neg.json", dict(SPREAD_CFG, n_dim=-4))
    assert cli.run(["spread-analyze", "--config", str(bad_value), *out]) == cli.EXIT_CONFIG
    bad_set = write_config(tmp_path, "ok.json", SPREAD_CFG)
    assert cli.run(["spread-analyze", "--config", str(bad_set),
                    "--set", "oops", *out]) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("kind, cfg, key", [
    ("frame-analyze", FRAME_CFG, "pulse"),
    ("spread-analyze", SPREAD_CFG, "channel"),
    ("ofdm-sim", SIM_CFG, "system"),
])
@pytest.mark.parametrize("desc, message", [
    ([1], "config.{key}: expected dict, got list"),
    ({}, "config.{key}: expected an object with a 'kind' key"),
    ({"kind": "nope"}, "config.{key}.kind: unknown {key} kind 'nope'"),
    ({"kind": 5}, "config.{key}.kind: unknown {key} kind 5"),
    ({"kind": ["a"]}, "config.{key}.kind: unknown {key} kind ['a']"),
])
def test_bad_descriptors_exit_2(tmp_path, capsys, kind, cfg, key, desc, message):
    path = write_config(tmp_path, "bad.json", dict(cfg, **{key: desc}))
    out = tmp_path / "out"
    assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"tfcomm: config error: {message.format(key=key)}\n"
    assert not out.exists()


BIG = "<1e400>"  # stands for the JSON number 1e400, which parses to inf


@pytest.mark.parametrize("kind, cfg, where", [
    ("identify", dict(IDENTIFY_CFG, noise_psd=BIG), "config.noise_psd"),
    ("spread-analyze", dict(SPREAD_CFG, sample_rate=BIG), "config.sample_rate"),
    ("ofdm-sim", dict(SIM_CFG, noise_psd=BIG), "config.noise_psd"),
    ("capacity", dict(CAPACITY_CFG, snr=BIG), "config.snr"),
    ("capacity", dict(CAPACITY_CFG, power_budget=1.0, bandwidths=[1.0, BIG]),
     "config.bandwidths[1]"),
    ("spread-analyze", dict(SPREAD_CFG, channel={"kind": "specular",
                                                 "paths": [[0, 0, BIG, 0.0]]}),
     "config.channel.paths[0][2]"),
])
def test_overflowing_config_numbers_exit_2(tmp_path, capsys, kind, cfg, where):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg).replace(f'"{BIG}"', "1e400"), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"tfcomm: config error: {where}: non-finite number inf is not allowed\n"
    assert not out.exists()


DESIGN_CFG = {"kind": "pulse-design", "n_dim": 24, "time_step": 4, "freq_step": 8,
              "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1}}


LONG_INT = "<10**400>"  # stands for a 401-digit JSON integer literal, past float range


def write_long_int_config(tmp_path, cfg):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg).replace(f'"{LONG_INT}"', str(10 ** 400)), encoding="utf-8")
    return path


@pytest.mark.parametrize("kind, cfg, where", [
    ("capacity", dict(CAPACITY_CFG, snr=LONG_INT), "config.snr"),
    ("capacity", dict(CAPACITY_CFG, power_budget=LONG_INT, bandwidths=[1.0]),
     "config.power_budget"),
    ("capacity", dict(CAPACITY_CFG, power_budget=1.0, bandwidths=[1.0, LONG_INT]),
     "config.bandwidths[1]"),
    ("spread-analyze", dict(SPREAD_CFG, channel={"kind": "time_invariant",
                                                 "gains": [1.0, LONG_INT]}),
     "config.channel.gains[1]"),
    ("pulse-design", dict(DESIGN_CFG, profile=dict(DESIGN_CFG["profile"], total_gain=LONG_INT)),
     "config.profile.total_gain"),
])
def test_integers_past_float_range_exit_2(tmp_path, capsys, kind, cfg, where):
    # these used to exit 3 as "int too large to convert to float", naming no key
    path = write_long_int_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"tfcomm: config error: {where}: integer beyond float range is not allowed\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["seed", "n_sweeps"])
def test_integer_keys_take_integers_past_float_range(tmp_path, key):
    # an int key never becomes a float, so only the float-valued keys above are refused
    path = write_long_int_config(tmp_path, dict(DESIGN_CFG, **{key: LONG_INT}))
    assert cli.run(["pulse-design", "--config", str(path),
                    "--out", str(tmp_path / "out")]) == cli.EXIT_OK


@pytest.mark.parametrize("kind, cfg, key", [
    ("spread-analyze", dict(SPREAD_CFG, n_dim=LONG_INT), "n_dim"),
    ("identify", dict(IDENTIFY_CFG, period=LONG_INT), "period"),
    ("capacity", dict(CAPACITY_CFG, profile={"kind": "flat_rect", "max_delay": LONG_INT,
                                             "max_doppler": 1}), "max_delay"),
    ("frame-analyze", dict(FRAME_CFG, time_step=LONG_INT), "time_step"),
    ("spread-analyze", dict(SPREAD_CFG, channel={"kind": "specular",
                                                 "paths": [[LONG_INT, 0, 1.0, 0.0]]}), "paths"),
    ("capacity", dict(CAPACITY_CFG, profile={"kind": "drm_like", "tap_delays": [0, LONG_INT]}),
     "tap_delays"),
], ids=["n_dim", "period", "max_delay", "time_step", "path-delay", "tap_delays"])
def test_huge_integers_are_echoed_short(tmp_path, capsys, kind, cfg, key):
    # the first four used to print all 401 digits of the value
    path = write_long_int_config(tmp_path, cfg)
    assert cli.run([kind, "--config", str(path),
                    "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("tfcomm: config error: config") and err.count("\n") == 1
    assert key in err and len(err) < 200, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind, cfg", [
    ("spread-analyze", SPREAD_CFG), ("frame-analyze", FRAME_CFG),
    ("pulse-design", DESIGN_CFG), ("ofdm-sim", SIM_CFG),
    ("identify", IDENTIFY_CFG), ("capacity", CAPACITY_CFG),
])
def test_n_dim_above_cap_exits_2(tmp_path, capsys, kind, cfg):
    # 2**40 is far beyond anything a run could allocate: the cap must stop it
    # before the first array is built
    path = write_config(tmp_path, "huge_n.json", dict(cfg, n_dim=2**40))
    out = tmp_path / "out"
    assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "tfcomm: config error: config.n_dim: " \
        f"expected 1 <= n_dim <= {cli._MAX_N_DIM}, got {2**40}\n"
    assert not out.exists()


HUGE = 10**12
SWEEP_CFG = dict(CAPACITY_CFG, power_budget=1.0,
                 bandwidths={"min": 0.05, "max": 50.0, "count": 40})


def wssus_sim(profile):
    return dict(SIM_CFG, channel={"kind": "wssus", "profile": profile})


@pytest.mark.parametrize("kind, cfg, message", [
    # each of these used to allocate without bound (MemoryError, IndexError) or
    # enumerate HUGE cells before the library saw a value
    ("ofdm-sim", dict(SIM_CFG, n_frames=HUGE),
     f"config.n_frames: expected 1 <= n_frames <= {4096**2}, got {HUGE}"),
    ("capacity", dict(SWEEP_CFG, bandwidths=dict(SWEEP_CFG["bandwidths"], count=2**63)),
     f"config.bandwidths.count: expected 2 <= count <= {4096**2}, got {2**63}"),
    ("capacity", dict(SWEEP_CFG, bandwidths=dict(SWEEP_CFG["bandwidths"], count=HUGE)),
     f"config.bandwidths.count: expected 2 <= count <= {4096**2}, got {HUGE}"),
    ("identify", dict(IDENTIFY_CFG, support={"n_delay": HUGE, "n_doppler": 4}),
     f"config.support.n_delay: expected 1 <= n_delay <= 32, got {HUGE}"),
    ("identify", dict(IDENTIFY_CFG, support={"n_delay": 4, "n_doppler": 33}),
     "config.support.n_doppler: expected 1 <= n_doppler <= 32, got 33"),
    ("pulse-design", dict(DESIGN_CFG, profile={"kind": "flat_rect", "max_delay": HUGE,
                                               "max_doppler": 1}),
     f"config.profile: max_delay {HUGE} outside centered range [-11, 12] for N = 24"),
    ("ofdm-sim", wssus_sim({"kind": "flat_rect", "max_delay": 1, "max_doppler": HUGE}),
     f"config.channel.profile: max_doppler {HUGE} outside centered range [-23, 24] for N = 48"),
    ("capacity", dict(CAPACITY_CFG, profile={"kind": "flat_rect", "max_delay": HUGE,
                                             "max_doppler": 1}),
     f"config.profile: max_delay {HUGE} outside centered range [-31, 32] for N = 64"),
    ("ofdm-sim", wssus_sim({"kind": "exponential_jakes", "delay_decay": 1.0,
                            "max_doppler": HUGE}),
     f"config.channel.profile: max_doppler {HUGE} outside centered range [-23, 24] for N = 48"),
    ("capacity", dict(CAPACITY_CFG, profile={"kind": "exponential_jakes", "delay_decay": 1.0,
                                             "max_doppler": 1, "max_delay": HUGE}),
     f"config.profile: max_delay {HUGE} outside centered range [-31, 32] for N = 64"),
    ("capacity", dict(CAPACITY_CFG, profile={"kind": "drm_like",
                                             "doppler_halfwidths": [0, 1, 1, HUGE]}),
     f"config.profile: doppler_halfwidths {HUGE} outside centered range [-31, 32] for N = 64"),
], ids=["n_frames", "count-2**63", "count", "n_delay", "n_doppler", "flat_rect-design",
        "flat_rect-sim", "flat_rect-capacity", "jakes-doppler", "jakes-delay", "drm_like"])
def test_unbounded_sizes_exit_2(tmp_path, capsys, kind, cfg, message):
    path = write_config(tmp_path, "huge.json", cfg)
    out = tmp_path / "out"
    assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"tfcomm: config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, cfg, message", [
    ("identify", dict(IDENTIFY_CFG, noise_psd=-1.0),
     "config.noise_psd: expected 0 <= noise_psd, got -1.0"),
    ("ofdm-sim", dict(SIM_CFG, noise_psd=-1), "config.noise_psd: expected 0 <= noise_psd, got -1.0"),
    ("ofdm-sim", dict(SIM_CFG, n_frames=0),
     f"config.n_frames: expected 1 <= n_frames <= {4096**2}, got 0"),
    ("capacity", dict(SWEEP_CFG, bandwidths=dict(SWEEP_CFG["bandwidths"], min=0.0)),
     "config.bandwidths.min: expected 0 < min, got 0.0"),
    ("capacity", dict(SWEEP_CFG, bandwidths=dict(SWEEP_CFG["bandwidths"], count=1)),
     f"config.bandwidths.count: expected 2 <= count <= {4096**2}, got 1"),
    ("capacity", dict(SWEEP_CFG, bandwidths=dict(SWEEP_CFG["bandwidths"], max=0.05)),
     "config.bandwidths: bandwidth grid must be strictly increasing"),
    ("spread-analyze", dict(SPREAD_CFG, n_dim=0), "config.n_dim: expected 1 <= n_dim <= 4096, got 0"),
    # seed used to reach numpy, which printed a bare "expected non-negative integer"
    ("identify", dict(IDENTIFY_CFG, seed=-1), "config.seed: expected 0 <= seed, got -1"),
    ("ofdm-sim", dict(SIM_CFG, seed=-1), "config.seed: expected 0 <= seed, got -1"),
    ("spread-analyze", dict(SPREAD_CFG, seed=-1, channel=SIM_CFG["channel"]),
     "config.seed: expected 0 <= seed, got -1"),
    # n_sweeps -1 used to pass with the default method and fail late with local_search
    ("pulse-design", dict(DESIGN_CFG, n_sweeps=-1),
     "config.n_sweeps: expected 0 <= n_sweeps, got -1"),
    ("ofdm-sim", dict(SIM_CFG, n_dim=24, system={
        "kind": "designed", "time_step": 4, "freq_step": 8, "profile": DESIGN_CFG["profile"],
        "method": "local_search", "n_sweeps": -1}),
     "config.system.n_sweeps: expected 0 <= n_sweeps, got -1"),
    ("capacity", dict(SWEEP_CFG, power_budget=0.0),
     "config.power_budget: expected 0 < power_budget, got 0.0"),
    ("capacity", dict(SWEEP_CFG, delay_cell=-1.0),
     "config.delay_cell: expected 0 < delay_cell, got -1.0"),
    ("capacity", dict(SWEEP_CFG, doppler_cell=0),
     "config.doppler_cell: expected 0 < doppler_cell, got 0.0"),
    # these three used to be refused by the library, in messages that named no key
    ("capacity", dict(CAPACITY_CFG, snr=-1.0), "config.snr: expected 0 < snr, got -1.0"),
    ("spread-analyze", dict(SPREAD_CFG, sample_rate=0),
     "config.sample_rate: expected 0 < sample_rate, got 0.0"),
    ("frame-analyze", dict(FRAME_CFG, pulse={"kind": "gaussian", "sigma": -1.0}),
     "config.pulse.sigma: expected 0 < sigma, got -1.0"),
], ids=["identify-noise_psd", "sim-noise_psd", "n_frames", "bandwidths-min", "bandwidths-count",
        "bandwidths-max", "n_dim", "identify-seed", "sim-seed", "wssus-seed", "n_sweeps",
        "system-n_sweeps", "power_budget", "delay_cell", "doppler_cell", "snr", "sample_rate",
        "sigma"])
def test_declared_bounds_name_the_key(tmp_path, capsys, kind, cfg, message):
    path = write_config(tmp_path, "bounds.json", cfg)
    out = tmp_path / "out"
    assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"tfcomm: config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, cfg", [
    ("capacity", dict(CAPACITY_CFG, snr=float("inf"))),
    ("identify", dict(IDENTIFY_CFG, period="4")),
    ("ofdm-sim", dict(SIM_CFG, n_frames=0)),
    ("frame-analyze", dict(FRAME_CFG, extra=1)),
    ("identify", {k: v for k, v in IDENTIFY_CFG.items() if k != "period"}),
    ("ofdm-sim", dict(SIM_CFG, constellation="qam1024")),
    # n_subcarriers 5 does not divide N = 48: a check that needs N, made by the runner
    ("ofdm-sim", dict(SIM_CFG, system={"kind": "cp_ofdm", "n_subcarriers": 5, "cp_len": 4})),
], ids=["non-finite", "type", "bound", "unknown-key", "missing-key", "choice", "runner"])
def test_a_refusal_leaves_no_output_directory_or_parent(tmp_path, kind, cfg):
    path = write_config(tmp_path, "refused.json", cfg)
    out = tmp_path / "a" / "b" / "out"
    assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("cfg, code", [
    (dict(SIM_CFG, system={"kind": "cp_ofdm", "n_subcarriers": 5, "cp_len": 4}), cli.EXIT_CONFIG),
    (dict(SIM_CFG, channel={"kind": "time_invariant", "gains": [1e308, 1e308]}),
     cli.EXIT_NUMERICAL),
], ids=["config", "numerical"])
def test_a_failed_run_keeps_what_was_there(tmp_path, cfg, code):
    path = write_config(tmp_path, "failed.json", cfg)
    full, empty = tmp_path / "full", tmp_path / "empty"
    (full / "old").mkdir(parents=True)
    (full / "keep.txt").write_text("kept", encoding="utf-8")
    empty.mkdir()
    for out in (full, empty, full / "old" / "new" / "out"):
        assert cli.run(["ofdm-sim", "--config", str(path), "--out", str(out)]) == code
    assert sorted(p.name for p in full.iterdir()) == ["keep.txt", "old"]
    assert (full / "keep.txt").read_text(encoding="utf-8") == "kept"
    assert list((full / "old").iterdir()) == [] and list(empty.iterdir()) == []


def test_a_directory_written_into_during_a_failed_run_stays(tmp_path, monkeypatch):
    out = tmp_path / "a" / "out"

    def write_beside(*args, **kwargs):
        (tmp_path / "a" / "other.txt").write_text("", encoding="utf-8")
        raise ArithmeticError("refused")

    monkeypatch.setattr(cli, "simulate_frames", write_beside)
    path = write_config(tmp_path, "sim.json", SIM_CFG)
    assert cli.run(["ofdm-sim", "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["other.txt"]


@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
def test_unusable_out_exits_2(tmp_path, capsys, under):
    # both used to end in a traceback from out.mkdir (FileExistsError, NotADirectoryError)
    taken = tmp_path / "taken"
    taken.write_text("a file", encoding="utf-8")
    out = taken / "sub" if under else taken
    assert cli.run(["capacity", "--config", str(CONFIGS / "capacity.json"),
                    "--out", str(out)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("tfcomm: config error: --out: cannot create the output directory: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert taken.read_text(encoding="utf-8") == "a file"


def test_bounds_are_inclusive(tmp_path):
    cli.run_experiment("identify", dict(IDENTIFY_CFG, n_dim=9, period=9,
                                        support={"n_delay": 9, "n_doppler": 1}), tmp_path / "id")
    assert json.loads((tmp_path / "id" / "identify_report.json").read_text())["n_unknowns"] == 9
    cli.run_experiment("capacity", dict(SWEEP_CFG, bandwidths=dict(SWEEP_CFG["bandwidths"],
                                                                   count=2)), tmp_path / "cap")
    assert (tmp_path / "cap" / "sweep.csv").read_text().count("\n") == 3


def specular(*paths):
    return dict(SPREAD_CFG, channel={"kind": "specular", "paths": list(paths)})


@pytest.mark.parametrize("kind, cfg, message", [
    # each of these library messages used to reach the user without its config location
    ("identify", dict(IDENTIFY_CFG, period=-1),
     "config.period: period must divide N = 32, got -1"),
    ("spread-analyze", specular([99999, 0, 1.0, 0.0]),
     "config.channel.paths: path delay 99999 outside centered range [-7, 8] for N = 16"),
    ("pulse-design", dict(DESIGN_CFG, method="foo"), "config.method: unknown method 'foo'"),
    ("ofdm-sim", dict(SIM_CFG, n_dim=24, system={
        "kind": "designed", "time_step": 4, "freq_step": 8, "profile": DESIGN_CFG["profile"],
        "method": "foo"}), "config.system.method: unknown method 'foo'"),
    ("ofdm-sim", dict(SIM_CFG, constellation="qam1024"),
     "config.constellation: unknown constellation 'qam1024'"),
    ("frame-analyze", dict(FRAME_CFG, pulse={"kind": "rect", "length": 99}),
     "config.pulse: length must be in [1, 24], got 99"),
    ("frame-analyze", dict(FRAME_CFG, time_step=5),
     "config: time_step 5 does not divide N = 24"),
    ("ofdm-sim", dict(SIM_CFG, system={"kind": "cp_ofdm", "n_subcarriers": 5, "cp_len": 4}),
     "config.system: n_subcarriers 5 must divide N = 48"),
    ("ofdm-sim", dict(SIM_CFG, system={"kind": "pulse_pair", "time_step": 4, "freq_step": 4,
                                       "tx": {"kind": "rect", "length": 99},
                                       "rx": {"kind": "gaussian"}}),
     "config.system.tx: length must be in [1, 48], got 99"),
    ("ofdm-sim", dict(SIM_CFG, channel={"kind": "time_invariant", "gains": [1.0] * 30}),
     "config.channel.gains: path delay 25 outside centered range [-23, 24] for N = 48"),
    ("ofdm-sim", dict(SIM_CFG, channel={"kind": "time_invariant", "gains": []}),
     "config.channel.gains: expected a nonempty list"),
    ("identify", dict(IDENTIFY_CFG, support=[[0, 0], [0, 0]]),
     "config.support: support contains duplicate cells"),
    # N + 1 entries but N distinct cells: a duplicate, not an overspread support
    ("identify", dict(IDENTIFY_CFG, support=[[m, 0] for m in range(-15, 17)] + [[0, 0]]),
     "config.support: support contains duplicate cells"),
    ("identify", dict(IDENTIFY_CFG, support=[[0, 99]]),
     "config.support: support cell (0, 99) outside centered range [-15, 16]"),
    ("capacity", dict(SWEEP_CFG, bandwidths=[2.0, 1.0]),
     "config.bandwidths: bandwidth grid must be strictly increasing"),
    # booleans and strings inside list-valued keys used to run (exit 0)
    ("identify", dict(IDENTIFY_CFG, support=[[True, 0]]),
     "config.support[0]: expected [delay, doppler]"),
    ("identify", dict(IDENTIFY_CFG, support=[[0, 0], [1]]),
     "config.support[1]: expected [delay, doppler]"),
    ("spread-analyze", specular([True, False, True, 0]),
     "config.channel.paths[0]: expected [delay, doppler, re, im]"),
    ("spread-analyze", specular([0, 0, 1.0, 0.0], [1, 0, "1", 0.0]),
     "config.channel.paths[1]: expected [delay, doppler, re, im]"),
    ("capacity", dict(SWEEP_CFG, bandwidths=[True, 2.0, 3.0]),
     "config.bandwidths[0]: expected a number"),
    ("capacity", dict(SWEEP_CFG, bandwidths=["1", "2"]),
     "config.bandwidths[0]: expected a number"),
    ("ofdm-sim", dict(SIM_CFG, channel={"kind": "time_invariant", "gains": [1.0, [True, 0]]}),
     "config.channel.gains[1]: expected a number or [re, im]"),
    ("ofdm-sim", dict(SIM_CFG, channel={"kind": "time_invariant", "gains": ["1"]}),
     "config.channel.gains[0]: expected a number or [re, im]"),
    # an extent of 24 at N = 48 is in [-23, 24], but the cells down to -24 are not; these
    # used to name min_doppler, min_delay or doppler, which the config never set
    ("ofdm-sim", wssus_sim({"kind": "flat_rect", "max_delay": 1, "max_doppler": 24}),
     "config.channel.profile: -max_doppler -24 outside centered range [-23, 24] for N = 48"),
    ("ofdm-sim", wssus_sim({"kind": "flat_rect", "max_delay": 24, "max_doppler": 1}),
     "config.channel.profile: -max_delay -24 outside centered range [-23, 24] for N = 48"),
    ("ofdm-sim", wssus_sim({"kind": "exponential_jakes", "delay_decay": 1.0, "max_doppler": 24}),
     "config.channel.profile: -max_doppler -24 outside centered range [-23, 24] for N = 48"),
    ("ofdm-sim", wssus_sim({"kind": "drm_like", "doppler_halfwidths": [0, 1, 1, 24]}),
     "config.channel.profile: -doppler_halfwidths -24 outside centered range "
     "[-23, 24] for N = 48"),
], ids=["period", "paths", "method", "system-method", "constellation", "pulse", "time_step",
        "system", "system-tx", "gains", "gains-empty", "support-duplicates",
        "support-duplicates-over-n", "support-range", "bandwidths", "support-bool",
        "support-short", "paths-bool", "paths-str", "bandwidths-bool", "bandwidths-str",
        "gains-bool", "gains-str", "flat_rect-doppler-extent", "flat_rect-delay-extent",
        "jakes-doppler-extent", "drm_like-doppler-extent"])
def test_config_errors_name_their_location(tmp_path, capsys, kind, cfg, message):
    path = write_config(tmp_path, "located.json", cfg)
    out = tmp_path / "out"
    assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"tfcomm: config error: {message}\n"
    assert not out.exists()


def test_unknown_constellation_refused_before_design(tmp_path, capsys, monkeypatch):
    calls, descent = [], cli.interference_descent
    monkeypatch.setattr(cli, "interference_descent",
                        lambda *args: calls.append(args) or descent(*args))
    cfg = dict(SIM_CFG, n_dim=24, constellation="qam1024", system={
        "kind": "designed", "time_step": 4, "freq_step": 8, "profile": DESIGN_CFG["profile"],
        "method": "local_search"})
    path = write_config(tmp_path, "qam.json", cfg)
    out = tmp_path / "out"
    assert cli.run(["ofdm-sim", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "tfcomm: config error: config.constellation: unknown constellation 'qam1024'\n"
    assert calls == [] and not out.exists()
    # the same config with a known constellation designs its system once
    cfg["constellation"] = "gaussian"
    path = write_config(tmp_path, "gauss.json", cfg)
    assert cli.run(["ofdm-sim", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    assert len(calls) == 1


DESIGNED_SIM_CFG = dict(SIM_CFG, n_dim=24, system={
    "kind": "designed", "time_step": 4, "freq_step": 8, "profile": DESIGN_CFG["profile"],
    "method": "local_search"})


@pytest.mark.parametrize("kind, cfg, message", [
    ("pulse-design", dict(DESIGN_CFG, method="local_search",
                          baseline={"n_subcarriers": 4, "cp_len": 3}),
     "config.baseline: symbol length 7 must divide N = 24"),
    ("pulse-design", dict(DESIGN_CFG, method="local_search",
                          baseline={"n_subcarriers": 4, "cp": 3}),
     "config.baseline: unknown keys ['cp']; allowed ['cp_len', 'n_subcarriers']"),
    ("ofdm-sim", dict(DESIGNED_SIM_CFG, channel={"kind": "wssus", "profile": {
        "kind": "flat_rect", "max_delay": 1, "max_doppler": 99}}),
     "config.channel.profile: max_doppler 99 outside centered range [-11, 12] for N = 24"),
    ("ofdm-sim", dict(DESIGNED_SIM_CFG, channel={"kind": "specular", "paths": [[0, 0, 1.0]]}),
     "config.channel.paths[0]: expected [delay, doppler, re, im]"),
], ids=["baseline-symbol", "baseline-key", "channel-doppler", "channel-path"])
def test_config_errors_refused_before_design(tmp_path, capsys, monkeypatch, kind, cfg, message):
    # these used to be found only after the descent had run (about 1 s at N = 512)
    calls, descent = [], cli.interference_descent
    monkeypatch.setattr(cli, "interference_descent",
                        lambda *args: calls.append(args) or descent(*args))
    path = write_config(tmp_path, "late.json", cfg)
    out = tmp_path / "out"
    assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"tfcomm: config error: {message}\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("n_dim, period, support, n_unknowns", [
    # the 255 x 255 rectangle used to take seconds and hundreds of MB to reach this verdict
    (255, 5, {"n_delay": 255, "n_doppler": 255}, 255 * 255),
    (32, 4, [[m, 0] for m in range(-16, 17)], 33),
])
def test_overspread_identify_exits_3_before_building(tmp_path, capsys, monkeypatch, n_dim,
                                                     period, support, n_unknowns):
    def refuse(*args):
        raise AssertionError("an overspread support must be refused before it is built")

    monkeypatch.setattr(cli, "centered_rect_support", refuse)
    monkeypatch.setattr(cli, "_canonical_support", refuse)
    monkeypatch.setattr(cli, "_cell_filter", refuse)  # the observation X s
    path = write_config(tmp_path, "over.json", dict(IDENTIFY_CFG, n_dim=n_dim, period=period,
                                                    support=support))
    out = tmp_path / "out"
    started = time.monotonic()
    assert cli.run(["identify", "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert time.monotonic() - started < 1.0
    assert capsys.readouterr().err == (
        f"tfcomm: numerical failure: {n_unknowns} unknowns > N = {n_dim}: overspread supports "
        "with |S| > N are never identifiable\n")
    assert not out.exists()


def test_run_level_messages_name_their_location(tmp_path, capsys):
    root = tmp_path / "root.json"
    root.write_text("[1, 2]", encoding="utf-8")
    assert cli.run(["identify", "--config", str(root), "--out", str(tmp_path / "r")]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "tfcomm: config error: config: expected an object, got list\n"
    other = write_config(tmp_path, "other.json", SPREAD_CFG)
    assert cli.run(["capacity", "--config", str(other), "--out", str(tmp_path / "x")]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err == "tfcomm: config error: " \
        "config.kind: declared 'spread-analyze' but 'capacity' was requested\n"
    assert not (tmp_path / "r").exists() and not (tmp_path / "x").exists()


def test_unreadable_config_text_exits_2(tmp_path, capsys):
    # each of these used to end in a traceback: UnicodeDecodeError and the int-string
    # limit's ValueError are ValueErrors, but neither is a JSONDecodeError
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"kind": "identify", "note": "caf\u00e9"}'.encode("latin-1"))
    huge = "1" + "0" * 5000
    digits = tmp_path / "digits.json"
    digits.write_text(json.dumps(dict(IDENTIFY_CFG, seed=0)).replace('"seed": 0',
                                                                      f'"seed": {huge}'))
    plain = write_config(tmp_path, "plain.json", IDENTIFY_CFG)
    for args, message in [
            (["--config", str(latin1)], "config is not valid JSON: 'utf-8' codec can't decode"),
            (["--config", str(digits)], "config is not valid JSON: Exceeds the limit"),
            (["--config", str(plain), "--set", f"seed={huge}"],
             "config.seed: expected int, got str")]:
        out = tmp_path / "out"
        assert cli.run(["identify", *args, "--out", str(out)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"tfcomm: config error: {message}") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("step", [1e308, 1.5, 0.0, -0.02])
@pytest.mark.parametrize("kind, where", [("pulse-design", "config"),
                                         ("ofdm-sim", "config.system")])
def test_design_step_out_of_range_exits_2(tmp_path, capsys, step, kind, where):
    # step 1e308 used to reach the descent and fail in its eigensolver (exit 3)
    design = {"time_step": 6, "freq_step": 6, "profile": DESIGN_CFG["profile"],
              "method": "local_search", "step": step}
    cfg = dict(design, kind="pulse-design", n_dim=24) if kind == "pulse-design" else \
        dict(SIM_CFG, n_dim=24, system=dict(design, kind="designed"))
    path = write_config(tmp_path, "step.json", cfg)
    out = tmp_path / "out"
    assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"tfcomm: config error: {where}.step: expected 0 < step <= 1, got {step!r}\n"
    assert not out.exists()


def test_design_step_of_one_is_accepted(tmp_path):
    cfg = dict(DESIGN_CFG, time_step=6, freq_step=6, method="local_search", step=1.0)
    cli.run_experiment("pulse-design", cfg, tmp_path / "out")
    assert (tmp_path / "out" / "design_report.json").exists()


def test_tiny_gaussian_sigma_is_named(tmp_path, capsys):
    path = write_config(tmp_path, "tiny.json",
                        dict(FRAME_CFG, pulse={"kind": "gaussian", "sigma": 1e-300}))
    assert cli.run(["frame-analyze", "--config", str(path),
                    "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err and "sigma" in err and "pulse samples" not in err
    assert not (tmp_path / "out").exists()


def test_missing_pulse_file_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "csv.json",
                        dict(FRAME_CFG, pulse={"kind": "csv", "path": "missing.csv"}))
    out = tmp_path / "out"
    assert cli.run(["frame-analyze", "--config", str(path), "--out", str(out)]) == \
        cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("tfcomm: config error: config.pulse.path: cannot read pulse file")
    assert "missing.csv" in err
    assert not out.exists()


@pytest.mark.parametrize("n_dim, name, header, indices, message", [
    # indices 0, 1, 2, 3, 3 used to run as a length-4 pulse whose last sample was the second 3
    (4, "repeat.csv", "index,re,im", [0, 1, 2, 3, 3], "repeat.csv: index 3 is repeated"),
    (16, "short.csv", "index,re,im", range(8), "pulse file has length 8, expected 16"),
    (4, "gap.csv", "index,re,im", [0, 2], "gap.csv: indices must cover 0..N-1"),
    # spaced names used to pass the header check and end in a KeyError traceback
    (4, "spaced.csv", "index, re, im", range(4), "spaced.csv: expected header index,re,im"),
], ids=["repeated", "length", "gap", "spaced-header"])
def test_bad_pulse_files_exit_2(tmp_path, capsys, n_dim, name, header, indices, message):
    (tmp_path / name).write_text(header + "\n" + "".join(f"{i},0.5,0\n" for i in indices))
    cfg = dict(FRAME_CFG, n_dim=n_dim, time_step=2, freq_step=2,
               pulse={"kind": "csv", "path": name})
    path = write_config(tmp_path, "csv.json", cfg)
    out = tmp_path / "out"
    assert cli.run(["frame-analyze", "--config", str(path), "--out", str(out)]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"tfcomm: config error: config.pulse: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("assignment, message", [
    ("oops", "--set expects key=value, got 'oops'"),
    ("a..b=1", "--set: bad key path 'a..b'"),
    # the override builds {"x": {"y": 1}}, which the key tables then refuse
    ("x.y=1", "config: unknown keys ['x']; allowed ['kind', 'n_dim', 'noise_psd', 'period', "
              "'seed', 'support']"),
], ids=["no-value", "empty-key", "unknown-key"])
def test_bad_set_overrides_exit_2(tmp_path, capsys, assignment, message):
    path = write_config(tmp_path, "plain.json", IDENTIFY_CFG)
    out = tmp_path / "out"
    assert cli.run(["identify", "--config", str(path), "--set", assignment,
                    "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"tfcomm: config error: {message}\n"
    assert not out.exists()


DEEP = "[" * 3000 + "]" * 3000  # deeper than json's recursion limit


@pytest.mark.parametrize("where", ["file", "--set"])
def test_deeply_nested_config_exits_2(tmp_path, capsys, where):
    path = tmp_path / "deep.json"
    text = json.dumps(dict(CAPACITY_CFG, snr="<deep>")).replace('"<deep>"', DEEP)
    path.write_text(text if where == "file" else json.dumps(CAPACITY_CFG), encoding="utf-8")
    extra = [] if where == "file" else ["--set", f"snr={DEEP}"]
    out = tmp_path / "out"
    assert cli.run(["capacity", "--config", str(path), "--out", str(out), *extra]) == \
        cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("tfcomm: config error: ")
    assert not out.exists()


def test_identify_negative_noise_exits_2(tmp_path, capsys):
    path = write_config(tmp_path, "neg_noise.json", dict(IDENTIFY_CFG, noise_psd=-1.0))
    assert cli.run(["identify", "--config", str(path),
                    "--out", str(tmp_path / "x")]) == cli.EXIT_CONFIG
    assert "noise_psd" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
    assert cli.run(["capacity", "--config", str(finite),
                    "--out", str(tmp_path / "c")]) == cli.EXIT_OK


CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"


def test_no_shipped_config_builds_a_lattice_matrix(monkeypatch, tmp_path):
    calls = []
    build = wh.lattice_matrix

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(wh, "lattice_matrix", counting)
    monkeypatch.setattr(ofdm, "lattice_matrix", counting)
    paths = sorted(CONFIGS.glob("*.json"))
    assert len(paths) == len(cli.KINDS)
    for path in paths:
        cfg = json.loads(path.read_text(encoding="utf-8"))
        cli.run_experiment(cfg["kind"], cfg, tmp_path / path.stem, base_dir=CONFIGS)
    assert calls == []


def test_frame_analyze_runs_one_eigensolve(monkeypatch, tmp_path):
    # bounds, dual and tight window are read off one batched eigh of the Walnut blocks
    calls = []
    solve = np.linalg.eigh

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    cli.run_experiment("frame-analyze", FRAME_CFG, tmp_path)
    assert len(calls) == 1


@pytest.mark.parametrize("cell", ["1e200", "1e-200"])
def test_capacity_cell_area_out_of_range_exits_2(tmp_path, capsys, cell):
    # each cell size is in range, but their product overflows to inf or underflows to 0
    out = tmp_path / "out"
    assert cli.run(["capacity", "--config", str(CONFIGS / "capacity.json"), "--out", str(out),
                    "--set", f"delay_cell={cell}", "--set", f"doppler_cell={cell}"]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("tfcomm: config error: config: grid cell area") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("cfg, message", [
    (dict(CAPACITY_CFG, power_budget=1.0),
     "config: bandwidth sweeps need both 'power_budget' and 'bandwidths'"),
    (dict(SWEEP_CFG, bandwidths=dict(SWEEP_CFG["bandwidths"], spacing="cubic")),
     "config.bandwidths.spacing: unknown spacing 'cubic'"),
], ids=["no-bandwidths", "spacing"])
def test_capacity_sweep_keys_refused_before_the_point_query(tmp_path, capsys, monkeypatch, cfg,
                                                            message):
    # these used to be found only after the point query had run
    calls = []
    monkeypatch.setattr(cli, "capacity_low_snr", lambda *args: calls.append(args))
    path = write_config(tmp_path, "sweep.json", cfg)
    out = tmp_path / "out"
    assert cli.run(["capacity", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"tfcomm: config error: {message}\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("overrides, message", [
    # the cell area is not a bandwidth, so a sweep without snr says config, as one with snr does
    (["delay_cell=1e200", "doppler_cell=1e200"],
     "config: grid cell area delay_cell * doppler_cell must be positive and finite, got inf"),
    (["power_budget=1e-300", "bandwidths=[1.0, 1e300]"],
     "config.bandwidths: snr must be positive and finite, got 0.0"),
    (["power_budget=1e10", "bandwidths=[1e-300, 1.0]"],
     "config.bandwidths: snr must be positive and finite, got inf"),
], ids=["cell-area", "grid-snr-underflow", "grid-snr-overflow"])
def test_capacity_sweep_without_snr_locates_cells_and_grid(tmp_path, capsys, overrides, message):
    path = write_config(tmp_path, "sweep.json", {k: v for k, v in SWEEP_CFG.items() if k != "snr"})
    out = tmp_path / "out"
    argv = ["capacity", "--config", str(path), "--out", str(out)]
    assert cli.run(argv + [arg for o in overrides for arg in ("--set", o)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"tfcomm: config error: {message}\n"
    assert not out.exists()


def test_cli_numerical_failures_exit_3(tmp_path, capsys):
    sparse = write_config(tmp_path, "sparse.json", {
        "kind": "frame-analyze", "n_dim": 24, "time_step": 6, "freq_step": 6,
        "pulse": {"kind": "gaussian"}})
    assert cli.run(["frame-analyze", "--config", str(sparse),
                    "--out", str(tmp_path / "f")]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith(
        "tfcomm: numerical failure: window does not generate a frame on "
        "WHGrid(n_dim=24, time_step=6, freq_step=6): extreme eigenvalues (")
    assert err.count("\n") == 1 and err.endswith("\n")
    overspread = write_config(tmp_path, "over.json", {
        "kind": "identify", "n_dim": 32, "period": 4,
        "support": {"n_delay": 5, "n_doppler": 8}})
    assert cli.run(["identify", "--config", str(overspread),
                    "--out", str(tmp_path / "i")]) == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err
    assert not (tmp_path / "f").exists() and not (tmp_path / "i").exists()


def test_eigensolver_failure_exits_3(tmp_path, capsys):
    # LinAlgError subclasses ValueError; it must not be reported as a config error
    pulse = tmp_path / "huge.csv"
    pulse.write_text("index,re,im\n" + "".join(f"{i},1e308,0.0\n" for i in range(16)))
    path = write_config(tmp_path, "frame.json", {
        "kind": "frame-analyze", "n_dim": 16, "time_step": 2, "freq_step": 4,
        "pulse": {"kind": "csv", "path": "huge.csv"}})
    out = tmp_path / "out"
    assert cli.run(["frame-analyze", "--config", str(path),
                    "--out", str(out)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("target, kind, cfg, error, line", [
    ("simulate_frames", "ofdm-sim", SIM_CFG,
     MemoryError("Unable to allocate 256. MiB for an array with shape (4096, 8192)"),
     "tfcomm: out of memory: Unable to allocate 256. MiB for an array with shape (4096, 8192)"),
    ("identify", "identify", IDENTIFY_CFG, MemoryError(),
     "tfcomm: out of memory: an allocation was refused"),
], ids=["numpy-message", "bare"])
def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch, target, kind, cfg, error, line):
    def refuse(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, target, refuse)
    path = write_config(tmp_path, "big.json", cfg)
    out = tmp_path / "out"
    assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert capsys.readouterr().err == line + "\n"
    assert not out.exists()


def test_identify_run_never_forms_the_sounding_matrix(tmp_path):
    # the N x |S| complex matrix alone would take 16 MiB here
    cfg = {"kind": "identify", "n_dim": 1024, "period": 32,
           "support": {"n_delay": 32, "n_doppler": 32}}
    tracemalloc.start()
    try:
        cli.run_experiment("identify", cfg, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024 * 16
    report = json.loads((tmp_path / "identify_report.json").read_text())
    assert report["numerical_rank"] == 1024 and report["relative_error"] < 1e-12


@pytest.mark.parametrize("kind, cfg, message", [
    # the demodulator output overflows: the decomposition check fails
    ("ofdm-sim", dict(SIM_CFG, channel={"kind": "time_invariant", "gains": [1e308, 1e308]}),
     "demodulator decomposition failed: non-finite output"),
    # finite estimates whose energies overflow
    ("ofdm-sim", dict(SIM_CFG, channel={"kind": "time_invariant", "gains": [1e160]}),
     "frame energies overflowed to non-finite values"),
    # a finite run whose transfer grid overflows
    ("spread-analyze", dict(SPREAD_CFG, channel={
        "kind": "specular", "paths": [[0, 0, 1e308, 0.0], [1, 0, 1e308, 0.0]]}),
     "non-finite value in the CSV artifact transfer_db.csv"),
    # a delay spread of 2 samples at sample_rate 1e-308 is inf seconds: refused by the
    # report writer, not by a check of its own
    ("spread-analyze", dict(SPREAD_CFG, sample_rate=1e-308, channel={
        "kind": "specular", "paths": [[2, 0, 1.0, 0.0]]}),
     "spread_report.json: non-finite value in the report"),
], ids=["demodulator", "energies", "csv", "report"])
def test_non_finite_results_exit_3(tmp_path, capsys, kind, cfg, message):
    path = write_config(tmp_path, "huge.json", cfg)
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.run([kind, "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"tfcomm: numerical failure: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("kind", ["pie-chart", "capacity-curve"])
def test_plotdata_unknown_kind(tmp_path, kind):
    with pytest.raises(cli.ConfigError, match=f"unknown plotdata kind '{kind}'"):
        cli.emit_plotdata(kind, np.ones((2, 2)), tmp_path / "x.csv")


# ---------------------------------------------------------------------------
# the column-wise CSV writer against the row writer it replaced


def write_rows_oracle(path, header, rows):
    """csv.writer over cells that are ready strings, ints, or floats as repr(float(x))."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([cell if isinstance(cell, (str, int)) else repr(float(cell))
                          for cell in row] for row in rows)


def heatmap_oracle(kind, grid, path):
    n = grid.shape[0]
    db = cli._grid_db(grid)
    axis = np.arange(n) if kind == "transfer-heatmap" else centered_index(np.arange(n), n)
    write_rows_oracle(path, ["x", "y", "value_db"],
                      [[int(axis[i]), int(axis[j]), db[i, j]] for i in range(n) for j in range(n)])


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e16, -1e16, 1e-05, 1e22,
               0.1, 1.0 / 3.0, 1.7976931348623157e308]
FLOAT_CELLS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_column_writer_matches_row_oracle(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("csv")
    block = data.draw(st.sampled_from([1, 2, 3, 8192]), label="block rows")
    n_rows = data.draw(st.integers(0, 20), label="rows")
    columns, rows_by_col = [], []
    for kind in data.draw(st.lists(st.sampled_from(["int", "float"]), min_size=1, max_size=5),
                          label="column kinds"):
        if kind == "float":
            cells = data.draw(st.lists(FLOAT_CELLS, min_size=n_rows, max_size=n_rows))
            columns.append(np.array(cells, dtype=float))
        else:
            cells = data.draw(st.lists(st.integers(-2**40, 2**40), min_size=n_rows,
                                       max_size=n_rows))
            columns.append(np.array(cells, dtype=np.int64))
        rows_by_col.append(cells)
    header = [f"c{j}" for j in range(len(columns))]
    with mock.patch.object(wh, "_CSV_BLOCK_ROWS", block):
        wh._write_csv(tmp / "new.csv", header, columns)
    write_rows_oracle(tmp / "old.csv", header, list(zip(*rows_by_col)))
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(FLOAT_CELLS, FLOAT_CELLS), min_size=1, max_size=20))
@example([(-0.0, 5e-324), (1e16, -0.0), (-2.2250738585072014e-308, -1e16), (0.1, 1e22)])
def test_pulse_writer_matches_row_oracle(tmp_path_factory, samples):
    """``write_pulse_csv``, now one table write, matches the csv.writer loop it replaced."""
    tmp = tmp_path_factory.mktemp("pulse")
    g = np.empty(len(samples), dtype=complex)
    g.real, g.imag = np.array(samples).T
    write_pulse_csv(tmp / "new.csv", g)
    write_rows_oracle(tmp / "old.csv", ["index", "re", "im"],
                      [(i, re, im) for i, (re, im) in enumerate(samples)])
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


HEATMAP_KINDS = ["spreading-heatmap", "ambiguity-heatmap", "transfer-heatmap"]


def heatmap_grid(pattern, n, seed):
    """An n x n complex grid: all zero, one nonzero cell, sparse with whole rows and
    cells at zero over a random scale, or dense within 40 dB of its peak (no floor cell)."""
    rng = np.random.default_rng(seed)
    cells = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if pattern == "zero":
        return np.zeros((n, n), dtype=complex)
    if pattern == "single":
        grid = np.zeros((n, n), dtype=complex)
        grid[rng.integers(n), rng.integers(n)] = cells[0, 0]
        return grid
    if pattern == "sparse":
        return cells * (rng.random((n, 1)) < 0.5) * (rng.random((n, n)) < 0.6) \
            * 10.0 ** rng.uniform(-300, 300)
    return np.exp(2j * np.pi * rng.random((n, n))) * rng.uniform(0.1, 1.0, (n, n))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(HEATMAP_KINDS), st.sampled_from([1, 2, 3]), st.integers(1, 40),
       st.sampled_from(["zero", "single", "sparse", "dense"]), st.integers(0, 2**32 - 1))
@example("spreading-heatmap", 3, 40, "zero", 0)
@example("transfer-heatmap", 2, 39, "single", 1)
@example("ambiguity-heatmap", 1, 7, "sparse", 2)
@example("spreading-heatmap", 3, 37, "dense", 3)
def test_heatmap_row_blocks_match_row_oracle(tmp_path_factory, kind, block, n, pattern, seed):
    """Written by blocks of 1-3 grid rows, across block edges, every heatmap kind
    is byte-identical to the whole-grid dB scale written one cell per row."""
    tmp = tmp_path_factory.mktemp("heat")
    grid = heatmap_grid(pattern, n, seed)
    with mock.patch.object(cli, "_HEATMAP_BLOCK_ROWS", block):
        cli.emit_plotdata(kind, grid, tmp / "new.csv")
    heatmap_oracle(kind, grid, tmp / "old.csv")
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


@pytest.mark.parametrize("kind", HEATMAP_KINDS)
# |1e308 + 1e308j| is 1.41e308, still finite; |1.5e308 + 1.5e308j| overflows
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5e308 + 1.5e308j],
                         ids=["nan", "inf", "abs-overflow"])
def test_heatmap_non_finite_writes_nothing(tmp_path, kind, bad):
    grid = np.ones((5, 5), dtype=complex)
    grid[4, 2] = bad  # in the last block of two rows
    path = tmp_path / "heat.csv"
    with mock.patch.object(cli, "_HEATMAP_BLOCK_ROWS", 2), pytest.raises(ArithmeticError):
        cli.emit_plotdata(kind, grid, path)
    assert not path.exists()


def test_heatmap_memory_is_bounded_by_a_row_block(tmp_path):
    # the whole-grid writer built N^2-entry label lists and a dB grid: 25 MiB here
    grid = np.zeros((1024, 1024), dtype=complex)
    grid[0, 0], grid[3, 1000], grid[700, 5] = 1.0, 0.5j, 1e-3
    tracemalloc.start()
    try:
        cli.emit_plotdata("spreading-heatmap", grid, tmp_path / "heat.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024 * 4


def test_spread_analyze_memory_is_bounded_by_a_row_block(tmp_path):
    # a dense run held the coefficient grid, the transfer grid and its inverse FFT:
    # about 3 x 16 MiB here
    cfg = dict(SPREAD_CFG, n_dim=1024)
    tracemalloc.start()
    try:
        cli.run_experiment("spread-analyze", cfg, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024 * 4
    report = json.loads((tmp_path / "spread_report.json").read_text())
    assert report["support_count"] == len(SPREAD_CFG["channel"]["paths"])


def capacity_curve_oracle(sweep, path):
    """The capacity curve with its former inline dB formula, written row by row."""
    rates = np.asarray(sweep.rates, dtype=float)
    peak = rates.max()
    with np.errstate(all="ignore"):  # the inline formula also overflowed on -1e296 / 1e-12
        rel = np.fmax(20.0 * np.log10(rates / peak), cli.DB_FLOOR) if peak > 0 \
            else np.full(rates.shape, cli.DB_FLOOR)
    write_rows_oracle(path, ["x", "y", "value_db"], list(zip(sweep.bandwidths, rates, rel)))


RATE_CELLS = FLOAT_CELLS | st.sampled_from([0.0, -1.0, 1e-300, -1e-300, 1e300, -1e300])


@settings(max_examples=60, deadline=None)
@given(st.lists(RATE_CELLS, min_size=1, max_size=12), st.booleans())
@example([0.0, 0.0], False)
@example([-1.0, 0.0, -1e300], False)
@example([1e-300, 1e300, 0.0, -2.0], False)
@example([1e-12, -1.797693134862316e+296], False)  # -inf from the inline division
def test_capacity_curve_db_matches_inline_oracle(tmp_path_factory, rates, nonpositive):
    """The capacity run's curve, its dB column the heatmaps' scale on rates clamped at 0,
    matches the inline formula it replaced, zero and negative rates included."""
    tmp = tmp_path_factory.mktemp("curve")
    rates = -np.abs(rates) if nonpositive else np.array(rates)
    bandwidths = np.arange(1.0, rates.size + 1.0)
    sweep = SimpleNamespace(bandwidths=bandwidths, snrs=bandwidths, capacities=rates,
                            penalties=rates, rates=rates, best_index=0, best_bandwidth=1.0,
                            has_interior_maximum=False)
    with mock.patch.object(cli, "bandwidth_sweep", return_value=sweep):
        cli.run_experiment("capacity", SWEEP_CFG, tmp / "run")
    capacity_curve_oracle(sweep, tmp / "old.csv")
    assert (tmp / "run" / "capacity_curve_db.csv").read_bytes() == \
        (tmp / "old.csv").read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_column_writer_rejects_non_finite_floats(tmp_path, bad):
    path = tmp_path / "x.csv"
    with pytest.raises(ArithmeticError):
        wh._write_csv(path, ["i", "a", "b"],
                      [np.arange(3), np.array([1.0, 2.0, 3.0]), np.array([0.5, bad, 0.5])])
    assert not path.exists()


# ---------------------------------------------------------------------------
# config-mutation fuzzing: whatever a config holds, a run exits 0, 2 or 3


FUZZ_PROFILE = {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1}
FUZZ_BASES = [  # N <= 32, every descriptor variant
    {"kind": "spread-analyze", "n_dim": 16, "sample_rate": 1000.0,
     "channel": {"kind": "specular", "paths": [[0, 0, 1.0, 0.0], [2, -1, 0.5, 0.25]]}},
    {"kind": "spread-analyze", "n_dim": 16, "seed": 1,
     "channel": {"kind": "wssus", "profile": {"kind": "drm_like", "tap_delays": [0, 1],
                                              "tap_gains": [1.0, 0.5],
                                              "doppler_halfwidths": [0, 1]}}},
    {"kind": "frame-analyze", "n_dim": 24, "time_step": 4, "freq_step": 4,
     "pulse": {"kind": "gaussian", "sigma": 3.0}},
    {"kind": "frame-analyze", "n_dim": 16, "time_step": 2, "freq_step": 4,
     "pulse": {"kind": "rect", "length": 4, "offset": 1}},
    {"kind": "pulse-design", "n_dim": 16, "time_step": 4, "freq_step": 8,
     "method": "local_search", "n_sweeps": 0, "step": 0.02, "profile": FUZZ_PROFILE,
     "baseline": {"n_subcarriers": 4, "cp_len": 4}},
    {"kind": "ofdm-sim", "n_dim": 24, "n_frames": 3, "noise_psd": 0.01, "seed": 7,
     "constellation": "qpsk", "system": {"kind": "cp_ofdm", "n_subcarriers": 4, "cp_len": 2},
     "channel": {"kind": "wssus", "profile": {"kind": "exponential_jakes", "delay_decay": 1.0,
                                              "max_doppler": 1, "max_delay": 2}}},
    {"kind": "ofdm-sim", "n_dim": 16, "n_frames": 2,
     "system": {"kind": "designed", "time_step": 4, "freq_step": 8, "profile": FUZZ_PROFILE},
     "channel": {"kind": "time_invariant", "gains": [1.0, [0.5, 0.5]]}},
    {"kind": "ofdm-sim", "n_dim": 16,
     "system": {"kind": "pulse_pair", "time_step": 4, "freq_step": 4,
                "tx": {"kind": "gaussian"}, "rx": {"kind": "gaussian"}},
     "channel": {"kind": "specular", "paths": [[0, 0, 1.0, 0.0]]}},
    {"kind": "identify", "n_dim": 32, "period": 4, "noise_psd": 1e-6, "seed": 3,
     "support": {"n_delay": 4, "n_doppler": 4}},
    {"kind": "identify", "n_dim": 32, "period": 4, "support": [[0, 0], [1, 2], [-1, -2]]},
    {"kind": "capacity", "n_dim": 32, "profile": dict(FUZZ_PROFILE, min_delay=0), "snr": 0.5,
     "delay_cell": 1.0, "doppler_cell": 0.5, "power_budget": 1.0,
     "bandwidths": {"min": 0.05, "max": 50.0, "count": 5, "spacing": "linear"}},
    {"kind": "capacity", "n_dim": 32, "profile": FUZZ_PROFILE, "power_budget": 1.0,
     "bandwidths": [0.5, 1.0, 2.0]},
]
MUTANTS = [-1, 0, 2**40, 2**63, 1e300, -1e300, 1e-300, "nope", None, True, [], {}, [1, 2]]


def config_paths(node, prefix=()):
    """Every key path into a config, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from config_paths(child, prefix + (key,))


def test_fuzz_bases_run(tmp_path):
    for j, cfg in enumerate(FUZZ_BASES):
        cli.run_experiment(cfg["kind"], cfg, tmp_path / str(j))


def test_no_kind_builds_the_sounding_matrix(monkeypatch, tmp_path):
    calls = []
    dense = ident.build_sounding_matrix

    def counted(*args):
        calls.append(args)
        return dense(*args)

    for module in (ident, cli):
        monkeypatch.setattr(module, "build_sounding_matrix", counted, raising=False)
    assert {cfg["kind"] for cfg in FUZZ_BASES} == set(cli.KINDS)
    for j, cfg in enumerate(FUZZ_BASES):
        cli.run_experiment(cfg["kind"], cfg, tmp_path / str(j))
    assert calls == []


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_config_mutations_exit_cleanly(tmp_path_factory, data):
    base = data.draw(st.sampled_from(FUZZ_BASES), label="base")
    cfg = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        path = data.draw(st.sampled_from(list(config_paths(cfg))), label="path")
        mutant = copy.deepcopy(data.draw(st.sampled_from(["drop", *MUTANTS]), label="mutant"))
        if not path:
            cfg = {} if mutant == "drop" else mutant
            break
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if mutant == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = mutant
    tmp = tmp_path_factory.mktemp("fuzz")
    config_path = write_config(tmp, "cfg.json", cfg)
    out = tmp / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run([base["kind"], "--config", str(config_path), "--out", str(out)])
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)
    message = err.getvalue()
    assert "Traceback" not in message
    if code == cli.EXIT_OK:
        assert message == ""
    else:
        assert message.startswith("tfcomm: ") and message.count("\n") == 1, message
        assert not out.exists()
    if code == cli.EXIT_CONFIG:  # every config error starts with its location
        assert re.match(r"tfcomm: config error: config[.\[:]", message), message
