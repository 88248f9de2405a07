"""The package: every module's public names re-exported once, its source size, how its
array-holding records compare, and how its scalar checks treat nan."""

from pathlib import Path

import numpy as np
import pytest

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, message", [
    # nan used to pass each of these checks: nan spreads with underspread True, a nan box
    # spread at inf, numpy's "cannot convert float NaN to integer", a nan sounding
    (lambda: tf_core.spread_metrics(channel_models.from_specular([(1, 1, 1.0)], 8), np.nan),
     "sample_rate must be positive and finite"),
    (lambda: tf_core.spread_metrics(channel_models.from_specular([(1, 1, 1.0)], 8), np.inf),
     "sample_rate must be positive and finite"),
    (lambda: wh_frames.gaussian_pulse(8, sigma=np.nan), "sigma must be positive"),
    (lambda: identification.dirac_train(8, 2, [1, np.nan, 1, 1]), "weights must be unit modulus"),
], ids=["sample_rate-nan", "sample_rate-inf", "sigma-nan", "weight-nan"])
def test_scalar_checks_refuse_nan(call, message):
    with pytest.raises(ValueError, match=message):
        call()


SRC_LINE_BUDGET = 2850


def test_source_stays_within_line_budget():
    modules = sorted((Path(__file__).resolve().parent.parent / "src" / "tfcomm").glob("*.py"))
    total = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in modules)
    assert modules and total <= SRC_LINE_BUDGET, f"src/tfcomm has {total} lines"


def _array_records():
    """One builder per frozen record that holds arrays, each array of several entries."""
    cfg = ofdm.cp_ofdm_config(8, 4, 0)
    ones = np.ones(3)
    return {
        "ScatteringProfile": lambda: channel_models.flat_rect_profile(8, 1, 1),
        "SpreadingFunction": lambda: channel_models.from_specular([(0, 0, 1.0), (1, 1, 0.5)], 8),
        "DiscreteChannel": lambda: tf_core.DiscreteChannel(np.eye(4)),
        "TransferFunction": lambda: tf_core.TransferFunction(np.eye(4)),
        "TFCorrelation": lambda: channel_models.tf_correlation(
            channel_models.flat_rect_profile(8, 1, 1)),
        "Pulse": lambda: wh_frames.gaussian_pulse(8, sigma=2.0),
        "OFDMConfig": lambda: ofdm.cp_ofdm_config(8, 4, 0),
        "SymbolFrame": lambda: ofdm.SymbolFrame(np.ones((2, 2))),
        "DemodResult": lambda: ofdm.transmit_through(ofdm.random_symbols(cfg, 1), cfg, np.eye(8)),
        "BandwidthSweepResult": lambda: capacity.BandwidthSweepResult(*[ones] * 5),
        "IdentificationResult": lambda: identification.IdentificationResult(
            ((0, 0), (1, 0)), np.ones(2), 0.0, 1.0, 2, 1.0),
    }


@pytest.mark.parametrize("name, build", list(_array_records().items()),
                         ids=list(_array_records()))
def test_array_holding_records_compare_by_identity(name, build):
    """``==`` on two equal records answers False instead of raising on an array truth value."""
    x, y = build(), build()
    assert type(x).__name__ == name
    assert (x == y) is False and (x != y) is True
    assert (x == x) is True
    assert hash(x) == hash(x) and len({x, y}) == 2
