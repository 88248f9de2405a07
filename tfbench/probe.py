"""Fresh-process probe started by run.py, one process at a time.

    python3 tfbench/probe.py setup WORKLOAD SEED
        imports tfcomm's CLI module, generates the workload's inputs, prints
        "ready" and exits; run.py times it from process start to that line.
    python3 tfbench/probe.py rss WORKLOAD SEED WORKDIR
        does the same, runs one pass of the workload with its output checks,
        and prints {"maxrss_kb", "attempted", "failed", "problems"} as one
        JSON line.
"""

from __future__ import annotations

import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> None:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    from tfcomm.cli import run_experiment
    import workloads

    ops = workloads.operations(workload, seed)
    if mode == "setup":
        print("ready", flush=True)
        return
    problems, failed = [], 0
    for kind, cfg in ops:
        out = tempfile.mkdtemp(dir=argv[3])
        try:
            run_experiment(kind, cfg, out)
            found = workloads.check(kind, cfg, Path(out))
        except Exception as exc:  # a failed operation is counted, not fatal
            found = [f"raised {type(exc).__name__}: {exc}"]
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failed += bool(found)
        problems += [f"{kind}: {p}" for p in found]
    print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      "attempted": len(ops), "failed": failed, "problems": problems}),
          flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
