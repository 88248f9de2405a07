"""The package: every module's public names re-exported once, its source size, how its
array-holding records compare, how its public functions and records treat nan and inf, and
the message of each refusal no other test reaches."""

import functools
import inspect
import os
import re
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


N, GRID = 8, wh_frames.WHGrid(8, 2, 2)
ONES = np.ones(N, dtype=complex)


def _spoilt(bad, shape=(N,)):
    """Ones of ``shape``, complex, with ``bad`` at the last entry."""
    x = np.ones(shape, dtype=complex)
    x.flat[-1] = bad
    return x


def _profile():
    return channel_models.flat_rect_profile(N, 1, 1)


# (function, argument, call with a bad value in that argument, what the ValueError says): every
# public function and record constructor that takes a vector or a float, the integer and index
# arguments left out, as are tf_shift, dd_to_tf_grid and tf_to_dd_grid, which map non-finite
# input to non-finite output as numpy's FFT does
CONTRACT = [
    # a nan grid was accepted, then refused by scattering_from_correlation as "intensities"
    ("TFCorrelation", "values", lambda v: channel_models.TFCorrelation(N, _spoilt(v, (N, N))),
     "non-finite entries in values"),
    ("Pulse", "samples", lambda v: wh_frames.Pulse(_spoilt(v)), "non-finite entries in samples"),
    ("SpreadingFunction.from_cells", "values", lambda v: tf_core.SpreadingFunction.from_cells(
        N, [0, 1], [0, 1], _spoilt(v, (2,))), "non-finite entries in values"),
    ("as_matrix", "channel", lambda v: tf_core.as_matrix(_spoilt(v, (N, N))),
     "channel matrix contains non-finite entries"),
    ("as_samples", "pulse", lambda v: tf_core.as_samples(_spoilt(v), "x"),
     "non-finite entries in x"),
    ("cross_ambiguity", "tx_pulse", lambda v: tf_core.cross_ambiguity(_spoilt(v), ONES),
     "non-finite entries in tx_pulse"),
    ("cross_ambiguity", "rx_pulse", lambda v: tf_core.cross_ambiguity(ONES, _spoilt(v)),
     "non-finite entries in rx_pulse"),
    ("spreading_function", "channel", lambda v: tf_core.spreading_function(_spoilt(v, (N, N))),
     "channel matrix contains non-finite entries"),
    ("spreading_of_product", "channel_a", lambda v: tf_core.spreading_of_product(
        _spoilt(v, (N, N)), np.eye(N)), "channel matrix contains non-finite entries"),
    ("spreading_of_product", "channel_b", lambda v: tf_core.spreading_of_product(
        np.eye(N), _spoilt(v, (N, N))), "channel matrix contains non-finite entries"),
    ("approx_eigen_defect", "channel", lambda v: tf_core.approx_eigen_defect(
        _spoilt(v, (N, N)), ONES, 0, 0), "channel matrix contains non-finite entries"),
    ("approx_eigen_defect", "pulse", lambda v: tf_core.approx_eigen_defect(
        np.eye(N), _spoilt(v), 0, 0), "non-finite entries in pulse"),
    # nan spreads with underspread True
    ("spread_metrics", "sample_rate", lambda v: tf_core.spread_metrics(
        channel_models.from_specular([(1, 1, 1.0)], N), v),
     "sample_rate must be positive and finite"),
    # nan returned a nan product
    ("box_spread", "tau_max", lambda v: tf_core.box_spread(v, 1.0),
     "tau_max and nu_max must be nonnegative"),
    ("box_spread", "nu_max", lambda v: tf_core.box_spread(1.0, v),
     "tau_max and nu_max must be nonnegative"),
    ("lattice_matrix", "pulse", lambda v: wh_frames.lattice_matrix(_spoilt(v), GRID),
     "non-finite entries in pulse"),
    ("frame_operator", "pulse", lambda v: wh_frames.frame_operator(_spoilt(v), GRID),
     "non-finite entries in pulse"),
    ("frame_power", "pulse", lambda v: wh_frames.frame_power(_spoilt(v), GRID, -1.0),
     "non-finite entries in pulse"),
    ("frame_power", "power", lambda v: wh_frames.frame_power(ONES, GRID, v, 1e-10),
     "need a finite power"),
    ("frame_power", "rank_rtol", lambda v: wh_frames.frame_power(ONES, GRID, -1.0, v),
     "0 <= rank_rtol < inf"),
    ("frame_bounds", "pulse", lambda v: wh_frames.frame_bounds(_spoilt(v), GRID),
     "non-finite entries in pulse"),
    ("dual_window", "pulse", lambda v: wh_frames.dual_window(_spoilt(v), GRID),
     "non-finite entries in pulse"),
    ("tight_window", "pulse", lambda v: wh_frames.tight_window(_spoilt(v), GRID),
     "non-finite entries in pulse"),
    ("check_wexler_raz", "pulse", lambda v: wh_frames.check_wexler_raz(_spoilt(v), ONES, GRID),
     "non-finite entries in pulse"),
    ("check_wexler_raz", "dual", lambda v: wh_frames.check_wexler_raz(ONES, _spoilt(v), GRID),
     "non-finite entries in dual"),
    ("localization_metrics", "pulse", lambda v: wh_frames.localization_metrics(_spoilt(v)),
     "non-finite entries in pulse"),
    # nan failed as numpy's "cannot convert float NaN to integer"; inf is the flat window
    ("gaussian_pulse", "sigma", lambda v: wh_frames.gaussian_pulse(N, sigma=v),
     "sigma must be positive"),
    ("write_pulse_csv", "pulse", lambda v: wh_frames.write_pulse_csv(os.devnull, _spoilt(v)),
     "non-finite entries in pulse"),
    ("from_specular", "paths", lambda v: channel_models.from_specular([(0, 0, v)], N),
     "non-finite path gains"),
    ("time_invariant", "gains", lambda v: channel_models.time_invariant(_spoilt(v), N),
     "non-finite entries in gains"),
    ("frequency_dispersive", "mod_signal", lambda v: channel_models.frequency_dispersive(
        _spoilt(v)), "non-finite entries in mod_signal"),
    ("oscillator_impairment", "phase_noise_spectrum", lambda v: channel_models.
     oscillator_impairment(0, 0, _spoilt(v), N), "non-finite entries in phase_noise_spectrum"),
    ("preset_profile", "params", lambda v: channel_models.preset_profile(
        "flat_rect", N, max_delay=1, max_doppler=1, total_gain=v),
     "total_gain must be nonnegative and finite"),
    ("flat_rect_profile", "total_gain", lambda v: channel_models.flat_rect_profile(
        N, 1, 1, total_gain=v), "total_gain must be nonnegative and finite"),
    ("exponential_jakes_profile", "delay_decay", lambda v: channel_models.
     exponential_jakes_profile(N, v, 1), "delay_decay must be positive and finite"),
    ("exponential_jakes_profile", "total_gain", lambda v: channel_models.
     exponential_jakes_profile(N, 1.0, 1, total_gain=v), "total_gain must be nonnegative"),
    ("drm_like_profile", "tap_gains", lambda v: channel_models.drm_like_profile(
        N, tap_gains=(1.0, v, 0.5, 0.25)), "tap gains must be nonnegative and finite"),
    ("drm_like_profile", "total_gain", lambda v: channel_models.drm_like_profile(
        N, total_gain=v), "total_gain must be nonnegative and finite"),
    # a nan signal sample used to fail later, in the symbol grid; an inf one warned in matmul
    ("demodulate", "signal", lambda v: ofdm.demodulate(
        _spoilt(v, (48,)), ofdm.cp_ofdm_config(48, 12, 4)), "non-finite entries in signal"),
    ("transmit_through", "channel", lambda v: ofdm.transmit_through(ofdm.random_symbols(
        ofdm.cp_ofdm_config(N, 4, 0), 0), ofdm.cp_ofdm_config(N, 4, 0), _spoilt(v, (N, N))),
     "channel matrix contains non-finite entries"),
    ("transmit_through", "noise_psd", lambda v: ofdm.transmit_through(ofdm.random_symbols(
        ofdm.cp_ofdm_config(N, 4, 0), 0), ofdm.cp_ofdm_config(N, 4, 0), np.eye(N), v),
     "noise_psd must be nonnegative and finite"),
    ("simulate_frames", "noise_psd", lambda v: ofdm.simulate_frames(
        ofdm.cp_ofdm_config(N, 4, 0), _profile(), 1, 0, v),
     "noise_psd must be nonnegative and finite"),
    ("gain_transfer_agreement", "channel", lambda v: ofdm.gain_transfer_agreement(
        _spoilt(v, (N, N)), ofdm.cp_ofdm_config(N, 4, 0)),
     "channel matrix contains non-finite entries"),
    ("interference_descent", "step", lambda v: ofdm.interference_descent(
        _profile(), wh_frames.WHGrid(N, 4, 4), 1, v), "a finite step > 0"),
    # a nan weight passed the unit-modulus check
    ("dirac_train", "weights", lambda v: identification.dirac_train(N, 2, _spoilt(v, (4,))),
     "non-finite entries in weights"),
    ("build_sounding_matrix", "sounding", lambda v: identification.build_sounding_matrix(
        _spoilt(v), [(0, 0)], N), "non-finite entries in sounding"),
    ("identify", "observation", lambda v: identification.identify(_spoilt(v), ONES, [(0, 0)]),
     "non-finite entries in observation"),
    ("identify", "sounding", lambda v: identification.identify(ONES, _spoilt(v), [(0, 0)]),
     "non-finite entries in sounding"),
    ("offgrid_ambiguity", "sounding", lambda v: identification.offgrid_ambiguity(
        _spoilt(v), [(0, 0)]), "non-finite entries in sounding"),
    ("bandwidth_sweep", "power_budget", lambda v: capacity.bandwidth_sweep(
        _profile(), v, [1.0, 2.0]), "power_budget must be positive and finite"),
    ("bandwidth_sweep", "bandwidths", lambda v: capacity.bandwidth_sweep(
        _profile(), 1.0, [1.0, v]), "bandwidth grid must be nonempty, positive and finite"),
    ("bandwidth_sweep", "delay_cell", lambda v: capacity.bandwidth_sweep(
        _profile(), 1.0, [1.0, 2.0], v), "delay_cell and doppler_cell must be positive"),
    ("bandwidth_sweep", "doppler_cell", lambda v: capacity.bandwidth_sweep(
        _profile(), 1.0, [1.0, 2.0], 1.0, v), "delay_cell and doppler_cell must be positive"),
]
# inf arguments a docstring gives a meaning: gaussian_pulse's sigma >= 4N is the flat window,
# box_spread's inf extent an unbounded rectangle (spread_metrics' extents past float range)
INF_MEANS_SOMETHING = {("gaussian_pulse", "sigma"), ("box_spread", "tau_max"),
                       ("box_spread", "nu_max")}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, argument, call, message", [
    pytest.param(name, argument, lambda call=call, bad=bad: call(bad), message,
                 id=f"{name}-{argument}-{bad}")
    for name, argument, call, message in CONTRACT for bad in (np.nan, np.inf)
    if np.isnan(bad) or (name, argument) not in INF_MEANS_SOMETHING])
def test_public_inputs_refuse_non_finite(name, argument, call, message):
    """A nan or inf in a public function's or record's vector or float argument raises a
    ValueError that names the argument, before any warning."""
    assert argument in inspect.signature(functools.reduce(getattr, name.split("."), tfcomm)
                                         ).parameters
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# (refusal, call that reaches it, exception, its whole message): every raise branch in src/
# that no other test reaches, each called through the public function that owns it
REFUSALS = [
    ("TFCorrelation-shape", lambda: channel_models.TFCorrelation(N, np.ones((N, N - 1))),
     ValueError, "correlation grid must be 8x8, got shape (8, 7)"),
    ("time_invariant-delays", lambda: channel_models.time_invariant([1.0, 0.5], N, delays=[0]),
     ValueError, "delays and gains must have matching lengths"),
    ("jakes_doppler_masses-max_doppler", lambda: channel_models.jakes_doppler_masses(1.5),
     ValueError, "max_doppler must be a nonnegative integer, got 1.5"),
    ("drm_like_profile-taps", lambda: channel_models.drm_like_profile(N, tap_delays=(0, 1)),
     ValueError, "tap parameter tuples must have equal lengths"),
    ("build_sounding_matrix-length", lambda: identification.build_sounding_matrix(
        np.ones(N - 1), [(0, 0)], N), ValueError, "sounding length 7 does not match N = 8"),
    ("OFDMConfig-grid", lambda: ofdm.OFDMConfig((N, 4, 4), ONES, ONES),
     TypeError, "grid must be a WHGrid"),
    ("OFDMConfig-pulses", lambda: ofdm.OFDMConfig(wh_frames.WHGrid(N, 4, 4), ONES, ONES[:4]),
     ValueError, "pulse lengths must match the grid dimension"),
    ("SymbolFrame-shape", lambda: ofdm.SymbolFrame(ONES), ValueError,
     "symbol grid must be 2-D and nonempty, got shape (8,)"),
    ("SymbolFrame-non-finite", lambda: ofdm.SymbolFrame(_spoilt(np.nan, (2, 2))), ValueError,
     "symbol grid contains non-finite entries"),
    ("cp_ofdm_config-subcarriers", lambda: ofdm.cp_ofdm_config(N, 0, 0), ValueError,
     "need n_subcarriers >= 1 and cp_len >= 0"),
    ("demodulate-length", lambda: ofdm.demodulate(ONES[:7], ofdm.cp_ofdm_config(N, 4, 0)),
     ValueError, "signal length 7 does not match N = 8"),
    ("centered_index-dimension", lambda: tf_core.centered_index(0, 0), ValueError,
     "dimension must be a positive integer, got 0"),
    ("cross_ambiguity-lengths", lambda: tf_core.cross_ambiguity(ONES, ONES[:4]), ValueError,
     "pulse lengths differ"),
    ("spreading_of_product-dimensions", lambda: tf_core.spreading_of_product(
        np.eye(N), np.eye(4)), ValueError, "channel dimensions do not match"),
    ("approx_eigen_defect-pulse", lambda: tf_core.approx_eigen_defect(np.eye(N), ONES[:4], 0, 0),
     ValueError, "pulse must have shape (8,), got (4,)"),
    ("lattice_matrix-pulse", lambda: wh_frames.lattice_matrix(ONES[:4], GRID), ValueError,
     "pulse length 4 does not match grid N = 8"),
    ("frame_bounds-pulse", lambda: wh_frames.frame_bounds(ONES[:4], GRID), ValueError,
     "pulse length 4 does not match grid N = 8"),
    ("check_wexler_raz-dual", lambda: wh_frames.check_wexler_raz(ONES, ONES[:4], GRID),
     ValueError, "pulse lengths 8, 4 do not match grid N = 8"),
]


@pytest.mark.parametrize("call, error, message", [refusal[1:] for refusal in REFUSALS],
                         ids=[refusal[0] for refusal in REFUSALS])
def test_each_refusal_raises_its_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


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
