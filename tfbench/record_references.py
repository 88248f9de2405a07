#!/usr/bin/env python3
"""Record the seed-independent reference values the output checks compare against.

Runs every deterministic workload variant once through
``tfcomm.cli.run_experiment`` and writes ``references.json`` next to this
file.  Run it from the repository root, on a commit whose numerics are
trusted, and only then:

    python3 tfbench/record_references.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tfcomm.cli import run_experiment  # noqa: E402


def _run(cfg: dict, report_name: str) -> dict:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        run_experiment(cfg["kind"], cfg, tmp)
        return json.loads((Path(tmp) / report_name).read_text(encoding="utf-8"))


def main() -> None:
    refs = {"pulse-design": [], "capacity": []}
    for variant in range(len(workloads.PULSE_DESIGN_PROFILES)):
        report = _run(workloads.pulse_design_config(variant), "design_report.json")
        refs["pulse-design"].append({
            "interference_power": report["interference_power"],
            "baseline_interference_power": report["baseline"]["interference_power"]})
    report = _run(workloads.frame_analyze_config(), "frame_report.json")
    refs["frame-analyze"] = {"lower_bound": report["lower_bound"],
                             "upper_bound": report["upper_bound"]}
    for variant in range(len(workloads.CAPACITY_PROFILES)):
        report = _run(workloads.capacity_config(variant), "capacity_report.json")
        refs["capacity"].append({"best_rate": report["sweep"]["best_rate"],
                                 "interior_maximum": report["sweep"]["interior_maximum"]})
    workloads.REFERENCES.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(refs, indent=2))


if __name__ == "__main__":
    main()
