"""The config schema: every key at every depth is declared in the key tables, and a wrongly
typed, out-of-range or undeclared-choice value is refused at its own location before anything
is computed or created."""

import copy
import json
from pathlib import Path

import pytest

import tfcomm.cli as cli
from tfcomm.wh_frames import gaussian_pulse, write_pulse_csv

CONFIGS = Path(__file__).resolve().parent.parent / "scripts" / "configs"

# the shipped configs, plus configs that set every key of a designed system, of each profile
# kind, of each pulse kind, of the time-invariant channel and of the pulse-design descent
BASES = {
    **{path.stem: json.loads(path.read_text(encoding="utf-8"))
       for path in sorted(CONFIGS.glob("*.json"))},
    "designed": {"kind": "ofdm-sim", "n_dim": 24, "seed": 1, "n_frames": 2, "noise_psd": 0.01,
                 "constellation": "qpsk",
                 "system": {"kind": "designed", "time_step": 4, "freq_step": 8,
                            "method": "local_search", "n_sweeps": 1, "step": 0.02,
                            "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1}},
                 "channel": {"kind": "wssus", "profile": {
                     "kind": "exponential_jakes", "delay_decay": 1.0, "max_doppler": 1,
                     "max_delay": 2, "total_gain": 1.5}}},
    "flat_rect": {"kind": "capacity", "n_dim": 64, "seed": 0, "snr": 0.5, "power_budget": 1.0,
                  "delay_cell": 1.0, "doppler_cell": 0.5,
                  "bandwidths": {"min": 0.05, "max": 50.0, "count": 5, "spacing": "linear"},
                  "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 2,
                              "min_delay": 0, "min_doppler": -1, "total_gain": 2.0}},
    "drm_like": {"kind": "spread-analyze", "n_dim": 32, "seed": 2, "sample_rate": 1000.0,
                 "channel": {"kind": "wssus", "profile": {
                     "kind": "drm_like", "tap_delays": [0, 1], "tap_gains": [1.0, 0.5],
                     "doppler_halfwidths": [0, 1], "total_gain": 1.0}}},
    "pulse_pair": {"kind": "ofdm-sim", "n_dim": 16,
                   "system": {"kind": "pulse_pair", "time_step": 4, "freq_step": 4,
                              "tx": {"kind": "rect", "length": 4, "offset": 1},
                              "rx": {"kind": "gaussian", "sigma": 3.0}},
                   "channel": {"kind": "time_invariant", "gains": [1.0, [0.5, 0.5]]}},
    "csv_pulse": {"kind": "frame-analyze", "n_dim": 24, "time_step": 4, "freq_step": 4,
                  "seed": 0, "pulse": {"kind": "csv", "path": "window.csv"}},
    "descent": {"kind": "pulse-design", "n_dim": 24, "time_step": 4, "freq_step": 8,
                "method": "local_search", "n_sweeps": 0, "step": 0.5, "seed": 0,
                "profile": {"kind": "flat_rect", "max_delay": 1, "max_doppler": 1},
                "baseline": {"n_subcarriers": 4, "cp_len": 2}},
}
COMPUTE = ["interference_descent", "simulate_frames", "identify", "_frame_analysis",
           "bandwidth_sweep", "emit_plotdata"]


def declared_keys(cfg):
    """(path, _Key) for every key ``cfg`` sets, at every depth, with the table entry declaring it.

    The top level's own keys are those ``run_experiment`` puts around the kind's keys.
    """
    top = [cli._Key("kind", (str,)), cli._Key("n_dim", (int,), lo=1, hi=cli._MAX_N_DIM),
           *cli._RUNNERS[cfg["kind"]][2], cli._Key("seed", (int,), 0, lo=0)]
    stack = [((), cfg, top)]
    while stack:
        path, node, keys = stack.pop()
        by_name = {key.name: key for key in keys}
        for name, value in node.items():
            key = by_name[name]
            yield path + (name,), key
            schema = key.schema
            if isinstance(schema, cli._Variants):
                schema = [cli._Key("kind", (str,)), *schema.kinds[value["kind"]]]
            if isinstance(value, dict):
                stack.append((path + (name,), value, schema))


def bad_values(cfg, key):
    """One wrongly typed value, one value past each bound the key declares, and a string
    outside its choices."""
    yield "type", 5 if str in key.types else "x"
    if key.choices:
        yield "choice", "x"
    if key.lo is not None:
        yield "lo", key.lo - 1
    if key.gt is not None:
        yield "gt", key.gt
    if key.hi is not None:
        yield "hi", (cfg[key.hi] if isinstance(key.hi, str) else key.hi) + 1


def at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


CASES = [pytest.param(name, path, value, id=f"{name}-{'.'.join(path)}-{how}")
         for name, cfg in BASES.items() for path, key in declared_keys(cfg)
         for how, value in bad_values(cfg, key)]


def test_cases_cover_every_nested_object_and_profile_kind():
    # declared_keys raises KeyError on a key that no table declares
    paths = [(cfg, path) for cfg in BASES.values() for path, _ in declared_keys(cfg)]
    assert {"profile", "pulse", "tx", "rx", "channel", "system", "baseline", "support",
            "bandwidths"} <= {path[-1] for _, path in paths}
    assert {at(cfg, path)["kind"] for cfg, path in paths if path[-1] == "profile"} \
        == set(cli._PROFILES.kinds)
    assert {path[-1] for cfg in BASES.values() for path, key in declared_keys(cfg)
            if key.choices} == {"method", "constellation", "spacing"}


def test_bases_run(tmp_path):
    # each case below differs from a config that runs in the one value it sets
    write_pulse_csv(tmp_path / "window.csv", gaussian_pulse(24, 4, 4))
    for name, cfg in BASES.items():
        cli.run_experiment(cfg["kind"], cfg, tmp_path / name, base_dir=tmp_path)


@pytest.mark.parametrize("name, path, value", CASES)
def test_every_key_refused_at_its_location_before_compute(tmp_path, capsys, monkeypatch,
                                                          name, path, value):
    calls = []
    for fn in COMPUTE:
        monkeypatch.setattr(cli, fn, lambda *args, _fn=fn, **kwargs: calls.append(_fn))
    cfg = copy.deepcopy(BASES[name])
    at(cfg, path[:-1])[path[-1]] = value
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.run([BASES[name]["kind"], "--config", str(config), "--out", str(out)]) \
        == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"tfcomm: config error: config.{'.'.join(path)}: "), err
    assert err.count("\n") == 1
    assert not out.exists()
    assert calls == []
