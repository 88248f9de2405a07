"""The package namespace: every module's public names, re-exported once."""

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
