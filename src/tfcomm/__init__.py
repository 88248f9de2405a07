"""Finite-dimensional time-frequency toolkit for doubly dispersive channels.

Everything lives on the cyclic group of order N: channels are N x N
matrices expanded in the orthonormal basis of delay-Doppler shift
operators, Weyl-Heisenberg frames supply modem pulses via duality between
a lattice and its adjoint, and WSSUS statistics drive interference
prediction, identification, and noncoherent rate estimates.
"""

from . import capacity, channel_models, identification, ofdm, tf_core, wh_frames
from .capacity import *
from .channel_models import *
from .identification import *
from .ofdm import *
from .tf_core import *
from .wh_frames import *

__version__ = "0.1.0"

__all__ = ["__version__", *tf_core.__all__, *wh_frames.__all__, *channel_models.__all__,
           *ofdm.__all__, *identification.__all__, *capacity.__all__]
