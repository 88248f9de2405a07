"""The example scripts run against the package sources and exit cleanly."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("tf_tradeoff.py", []),
    ("run_all.py", ["--out", "{tmp}"]),
    # this checkout against itself: the shipped and the tfbench configs, every digest the same
    ("compare_artifacts.py", [str(REPO), "{tmp}/other", "{tmp}/this"]),
    # every shipped config at N = 64, the two whose lattices do not divide 64 adjusted
    ("peak_memory.py", ["64", "--set", "ofdm-sim:system.n_subcarriers=16",
                        "--set", "ofdm-sim:system.cp_len=16", "--set", "pulse-design:time_step=16",
                        "--set", "pulse-design:baseline.n_subcarriers=8",
                        "--set", "pulse-design:baseline.cp_len=0"]),
], ids=["tf_tradeoff", "run_all", "compare_artifacts", "peak_memory"])
def test_script_exits_0(tmp_path, script, args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = [sys.executable, str(REPO / "scripts" / script),
            *(arg.format(tmp=tmp_path / "out") for arg in args)]
    proc = subprocess.run(argv, env=env, cwd=tmp_path, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    if script == "peak_memory.py":  # one line per shipped config; every run wrote artifacts
        lines = proc.stdout.splitlines()
        assert len(lines) == len(list((REPO / "scripts" / "configs").glob("*.json")))
        for line in lines:
            match = re.fullmatch(r"\S+ +exit 0 +[\d.]+ s +[\d.]+ MiB +(\d+) bytes written", line)
            assert match and int(match[1]) > 0, line
