#!/usr/bin/env python3
"""Run every experiment kind once and print a one-screen summary.

Each config in ``scripts/configs/`` runs as the kind its ``kind`` key names.
Each run writes its artifacts plus a manifest under OUT/<kind>/ and is
fully determined by its config; pass --seed to redirect every random
stream at once and compare artifact digests across runs.
"""

import argparse
import json
from pathlib import Path

from tfcomm import cli

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def scalar_items(report: dict):
    for key in sorted(report):
        value = report[key]
        if isinstance(value, (bool, int, float, str)):
            yield key, value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="tfcomm-out", help="artifact root directory")
    parser.add_argument("--seed", type=int, default=None, help="override every config seed")
    args = parser.parse_args()

    root = Path(args.out)
    for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
        cfg = json.loads(cfg_path.read_text(encoding="utf-8"))
        kind = cfg["kind"]
        out = root / kind
        manifest = cli.run_experiment(kind, cfg, out, seed=args.seed,
                                      base_dir=cfg_path.parent)
        print(f"== {kind} -> {out} ({manifest['wall_time_seconds']:.2f}s)")
        for path in sorted(out.glob("*_report.json")):
            report = json.loads(path.read_text(encoding="utf-8"))
            for key, value in scalar_items(report):
                print(f"   {key}: {value}")
    print("done.")


if __name__ == "__main__":
    main()
