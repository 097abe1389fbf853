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

from . import measures, qstate

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "cli": (),
    "lgmath": ("BeamParams", "laguerre", "phase_correlation_length"),
    "measures": ("MeasureTriple", "concurrence_analytic", "concurrence_x", "lqu",
                 "measure_triple", "rel_entropy_coherence", "von_neumann_entropy"),
    "qstate": ("ChannelCoefficients", "WernerParams", "XState", "apply_channel",
               "eigenvalues_x", "werner_like"),
    "sweepfit": ("EsdResult", "FitResult", "GridMismatch", "SweepRow", "collapse_check",
                 "detect_sudden_change", "exp_form", "find_esd", "find_sudden_change",
                 "fit_exp_form", "fit_poly_form", "poly_form", "sweep"),
    "turbulence": ("ConvergenceFailure", "TurbulenceParams", "channel_ab", "fried_parameter",
                   "phase_structure", "r0_from_x", "x_ratio"),
}

__all__ = sorted(name for names in _PUBLIC.values() for name in names)

# public name -> the submodule that defines it; a submodule maps to itself
_LAZY = {name: module for module, names in _PUBLIC.items() for name in (module, *names)}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # later lookups, and rebinding by callers, bypass this hook
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
