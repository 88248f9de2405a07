"""Finite-dimensional time-frequency toolkit for doubly dispersive channels.

Everything lives on the cyclic group of order N: channels are N x N
matrices expanded in the orthonormal basis of delay-Doppler shift
operators, Weyl-Heisenberg frames supply modem pulses via duality between
a lattice and its adjoint, and WSSUS statistics drive interference
prediction, identification, and noncoherent rate estimates.
"""

from .tf_core import (
    DiscreteChannel,
    SpreadingFunction,
    TransferFunction,
    SpreadMetrics,
    centered_index,
    time_shift_op,
    modulation_op,
    tf_shift_op,
    spreading_function,
    synthesize_channel,
    tf_transfer,
    transfer_to_spreading,
    dd_to_tf_grid,
    tf_to_dd_grid,
    commutation_defect,
    spreading_of_product,
    approx_eigen_defect,
    box_spread,
    spread_metrics,
)
from .wh_frames import (
    NotAFrameError,
    WHGrid,
    Pulse,
    FrameReport,
    gaussian_pulse,
    rect_pulse,
    lattice_matrix,
    frame_operator,
    frame_power,
    frame_bounds,
    dual_window,
    tight_window,
    check_wexler_raz,
    localization_metrics,
)
from .channel_models import (
    ScatteringProfile,
    TFCorrelation,
    SpecularPath,
    from_specular,
    time_invariant,
    frequency_dispersive,
    oscillator_impairment,
    wssus_sample,
    tf_correlation,
    preset_profile,
)
from .ofdm import (
    OFDMConfig,
    SymbolFrame,
    DemodResult,
    cp_ofdm_config,
    random_symbols,
    modulate,
    demodulate,
    transmit_through,
    simulate_frames,
    cross_ambiguity,
    interference_power,
    gain_transfer_agreement,
    design_pulses,
)
from .identification import (
    IdentifiabilityError,
    SoundingProblem,
    IdentificationResult,
    dirac_train,
    centered_rect_support,
    build_sounding_matrix,
    identify,
    sounding_quality,
)
from .capacity import (
    CapacityQuery,
    BandwidthSweepResult,
    capacity_low_snr,
    bandwidth_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tf_core
    "DiscreteChannel", "SpreadingFunction", "TransferFunction", "SpreadMetrics",
    "centered_index", "time_shift_op", "modulation_op", "tf_shift_op",
    "spreading_function", "synthesize_channel", "tf_transfer",
    "transfer_to_spreading", "dd_to_tf_grid", "tf_to_dd_grid",
    "commutation_defect", "spreading_of_product", "approx_eigen_defect",
    "box_spread", "spread_metrics",
    # wh_frames
    "NotAFrameError", "WHGrid", "Pulse", "FrameReport", "gaussian_pulse",
    "rect_pulse", "lattice_matrix", "frame_operator", "frame_power", "frame_bounds",
    "dual_window", "tight_window", "check_wexler_raz", "localization_metrics",
    # channel_models
    "ScatteringProfile", "TFCorrelation", "SpecularPath", "from_specular",
    "time_invariant", "frequency_dispersive", "oscillator_impairment",
    "wssus_sample", "tf_correlation", "preset_profile",
    # ofdm
    "OFDMConfig", "SymbolFrame", "DemodResult", "cp_ofdm_config",
    "random_symbols", "modulate", "demodulate", "transmit_through",
    "simulate_frames", "cross_ambiguity", "interference_power", "gain_transfer_agreement",
    "design_pulses",
    # identification
    "IdentifiabilityError", "SoundingProblem", "IdentificationResult",
    "dirac_train", "centered_rect_support", "build_sounding_matrix",
    "identify", "sounding_quality",
    # capacity
    "CapacityQuery", "BandwidthSweepResult", "capacity_low_snr",
    "bandwidth_sweep",
]
