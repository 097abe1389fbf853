"""Quantumness decay of OAM-entangled photon pairs in Kolmogorov turbulence.

Channel survival/crosstalk integrals, two-qubit X-state evolution, the three
quantumness measures (concurrence, relative entropy of coherence, LQU),
parameter sweeps with ESD / sudden-change detection, and fits of the two
universal decay laws.

The state and measure layers use the standard library only and load with the
package.  The layers that need numpy (beam math, channel, sweeps and fits, CLI)
load on first use of one of their names (PEP 562).
"""

import importlib

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
    ChannelCoefficients,
    WernerParams,
    XState,
    apply_channel,
    eigenvalues_x,
    werner_like,
)

__version__ = "0.1.0"

__all__ = [
    "BeamParams", "ChannelCoefficients", "ConvergenceFailure",
    "EsdResult", "FitResult", "GridMismatch", "MeasureTriple", "SweepRow",
    "TurbulenceParams", "WernerParams", "XState",
    "apply_channel", "channel_ab", "collapse_check", "concurrence_analytic",
    "concurrence_x", "detect_sudden_change", "eigenvalues_x", "exp_form",
    "find_esd", "find_sudden_change", "fit_exp_form", "fit_poly_form", "fried_parameter",
    "laguerre", "lqu", "measure_triple", "phase_correlation_length",
    "phase_structure", "poly_form", "r0_from_x",
    "rel_entropy_coherence", "sweep", "von_neumann_entropy", "werner_like",
    "x_ratio",
]

# lazily loaded name -> the submodule that defines it; a submodule maps to itself
_LAZY = {
    **dict.fromkeys(("lgmath", "BeamParams", "laguerre", "phase_correlation_length"), "lgmath"),
    **dict.fromkeys(("sweepfit", "EsdResult", "FitResult", "GridMismatch", "SweepRow",
                     "collapse_check", "detect_sudden_change", "exp_form", "find_esd",
                     "find_sudden_change", "fit_exp_form", "fit_poly_form", "poly_form",
                     "sweep"), "sweepfit"),
    **dict.fromkeys(("turbulence", "ConvergenceFailure", "TurbulenceParams", "channel_ab",
                     "fried_parameter", "phase_structure", "r0_from_x", "x_ratio"), "turbulence"),
    "cli": "cli",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # later lookups, and rebinding by callers, bypass this hook
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
