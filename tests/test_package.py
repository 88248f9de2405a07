"""The package: every module's public names re-exported once, and its source size."""

from pathlib import Path

import tfcomm
from tfcomm import capacity, channel_models, identification, ofdm, tf_core, wh_frames

MODULES = (tf_core, wh_frames, channel_models, ofdm, identification, capacity)


def test_module_exports_resolve_at_top_level():
    names = [name for mod in MODULES for name in mod.__all__]
    assert len(names) == len(set(names))
    for mod in MODULES:
        for name in mod.__all__:
            assert getattr(tfcomm, name) is getattr(mod, name), f"{mod.__name__}.{name}"
    assert sorted(tfcomm.__all__) == sorted(["__version__", *names])


SRC_LINE_BUDGET = 2850


def test_source_stays_within_line_budget():
    modules = sorted((Path(__file__).resolve().parent.parent / "src" / "tfcomm").glob("*.py"))
    total = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in modules)
    assert modules and total <= SRC_LINE_BUDGET, f"src/tfcomm has {total} lines"
