"""Laguerre-Gauss beam math: special functions and beam geometry.

Everything here is evaluated at the beam waist (z = 0); no propagation
factors (Gouy phase, curvature) enter the model.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BeamParams:
    """LG mode description: waist, azimuthal and radial quantum numbers.

    The qubit lives in the {+l0, -l0} OAM subspace, so |l0| >= 1.
    """

    waist: float = 1.0
    l0: int = 1
    p0: int = 0

    def __post_init__(self):
        if not (isinstance(self.l0, numbers.Integral) and isinstance(self.p0, numbers.Integral)):
            raise ValueError(f"beam indices must be integers, got l0={self.l0!r}, p0={self.p0!r}")
        if not 0 < self.waist < math.inf:
            raise ValueError(f"beam waist must be positive and finite, got {self.waist}")
        if abs(self.l0) < 1:
            raise ValueError("azimuthal index l0 = 0 gives no two-dimensional OAM subspace")
        if self.p0 < 0:
            raise ValueError(f"radial index p0 must be non-negative, got {self.p0}")


def laguerre(p: int, alpha: int, x):
    """Generalized Laguerre polynomial L_p^alpha(x), elementwise on arrays.

    Evaluated by the three-term recurrence
        (k+1) L_{k+1} = (2k + alpha + 1 - x) L_k - (k + alpha) L_{k-1},
    which is stable for large p where the alternating factorial sum is not.
    """
    if p < 0:
        raise ValueError(f"polynomial degree p must be non-negative, got {p}")
    if alpha < 0:
        raise ValueError(f"order alpha must be non-negative, got {alpha}")
    if not np.isfinite(x).all():
        raise ValueError(f"argument must be finite, got {x}")
    if p == 0:
        return 1.0 + 0.0 * x  # 1, shaped like x
    lm1 = 1.0
    lcur = 1.0 + alpha - x
    for k in range(1, p):
        lnext = ((2.0 * k + alpha + 1.0 - x) * lcur - (k + alpha) * lm1) / (k + 1.0)
        lm1 = lcur
        lcur = lnext
    return lcur


def phase_correlation_length(beam: BeamParams) -> float:
    """Phase correlation length xi(l0): the transverse distance over which the
    helical phase advances by pi/2, averaged over the mode cross-section.

        xi(l0) = sin(pi/(2|l0|)) (w0/2) Gamma(|l0| + 3/2) / Gamma(|l0| + 1)

    Gamma ratio computed via lgamma so large |l0| does not overflow.
    """
    labs = abs(beam.l0)
    ratio = math.exp(math.lgamma(labs + 1.5) - math.lgamma(labs + 1.0))
    return math.sin(math.pi / (2.0 * labs)) * 0.5 * beam.waist * ratio
