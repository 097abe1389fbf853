"""Quantumness decay of OAM-entangled photon pairs in Kolmogorov turbulence.

Channel survival/crosstalk integrals, two-qubit X-state evolution, the three
quantumness measures (concurrence, relative entropy of coherence, LQU),
parameter sweeps with ESD / sudden-change detection, and fits of the two
universal decay laws.
"""

from .lgmath import BeamParams, laguerre, phase_correlation_length, radial_profile
from .measures import (
    MeasureTriple,
    concurrence_analytic,
    concurrence_x,
    lqu,
    measure_triple,
    rel_entropy_coherence,
    von_neumann_entropy,
)
from .qstate import (
    DegenerateChannel,
    WernerParams,
    XState,
    apply_channel,
    eigenvalues_x,
    werner_like,
)
from .sweepfit import (
    EsdResult,
    FitResult,
    GridMismatch,
    SweepRow,
    collapse_check,
    detect_sudden_change,
    exp_form,
    find_esd,
    find_sudden_change,
    fit_exp_form,
    fit_poly_form,
    poly_form,
    sweep,
)
from .turbulence import (
    ChannelCoefficients,
    ConvergenceFailure,
    TurbulenceParams,
    channel_ab,
    fried_parameter,
    phase_structure,
    r0_from_x,
    x_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "BeamParams", "ChannelCoefficients", "ConvergenceFailure", "DegenerateChannel",
    "EsdResult", "FitResult", "GridMismatch", "MeasureTriple", "SweepRow",
    "TurbulenceParams", "WernerParams", "XState",
    "apply_channel", "channel_ab", "collapse_check", "concurrence_analytic",
    "concurrence_x", "detect_sudden_change", "eigenvalues_x", "exp_form",
    "find_esd", "find_sudden_change", "fit_exp_form", "fit_poly_form", "fried_parameter",
    "laguerre", "lqu", "measure_triple", "phase_correlation_length",
    "phase_structure", "poly_form", "r0_from_x", "radial_profile",
    "rel_entropy_coherence", "sweep", "von_neumann_entropy", "werner_like",
    "x_ratio",
]
