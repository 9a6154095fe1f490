"""Signal layer: pseudorange synthesis and receiver-side correction.

This is where the paper's measurement model (eq. 3-5):

    rho_e_i = rho_i + eps_S_i + eps_R

comes to life: the simulator produces pseudoranges containing the true
geometric range, the receiver clock bias ``eps_R`` (from a clock model),
and the satellite-dependent error ``eps_S`` (satellite clock residual,
atmospheric residuals, thermal noise).
"""

from repro.signals.sagnac import sagnac_rotation, signal_travel_time
from repro.signals.noise import PseudorangeNoiseModel
from repro.signals.pseudorange import (
    PseudorangeSimulator,
    RawPseudorange,
    MeasurementCorrector,
)
from repro.signals.smoothing import HatchFilter
from repro.signals.multipath import MultipathModel
from repro.signals.dualfreq import (
    ionosphere_free_epoch,
    ionosphere_free_pseudorange,
    NOISE_AMPLIFICATION,
)
from repro.signals.features import (
    SignalFeatureConfig,
    SignalFeatureModel,
    elevations_from_geometry,
    nominal_cn0_dbhz,
)

__all__ = [
    "sagnac_rotation",
    "signal_travel_time",
    "PseudorangeNoiseModel",
    "PseudorangeSimulator",
    "RawPseudorange",
    "MeasurementCorrector",
    "HatchFilter",
    "MultipathModel",
    "ionosphere_free_epoch",
    "ionosphere_free_pseudorange",
    "NOISE_AMPLIFICATION",
    "SignalFeatureConfig",
    "SignalFeatureModel",
    "elevations_from_geometry",
    "nominal_cn0_dbhz",
]
