"""Bit-identity check of channel_ab over a fixed grid of beams, x and tol.

Prints 16 hex digits of a SHA-256 over the records of every call, once from
a cold beam cache per call, once warm in grid order and once warm in reverse
order; the three must agree, and a change that keeps every bit keeps them.
Each record is [l0, p0, x, tol] and the hex of (a, b, err_a, err_b), or the
name and text of the exception the call raised.  numpy only; pytest does not
collect this file.  Run from the repository root:

    python tests/record_hash.py
"""

import hashlib
import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from oamturb import turbulence  # noqa: E402
from oamturb.lgmath import BeamParams  # noqa: E402

INPUTS = [(l0, p0, x, tol)
          for l0 in (1, 2, 5, 10, 20, 40, 61, 97)
          for p0 in (0, 1, 2, 5, 8, 12, 20)
          for x in [float(v) for v in 10.0 ** np.linspace(-3, 4, 29)]
          for tol in (1e-6, 1e-9, 1e-11)]
# around the largest radial index the rules resolve, p0 = 60, and past it
INPUTS += [(1, p0, 1.0, 1e-9) for p0 in (60, 61, 250, 284, 285, 300)]


def record(l0, p0, x, tol):
    beam = BeamParams(waist=1.0, l0=l0, p0=p0)
    try:
        cc = turbulence.channel_ab(beam, turbulence.r0_from_x(beam, x), tol)
    except (turbulence.ConvergenceFailure, ValueError) as e:
        return [l0, p0, x, tol, type(e).__name__, str(e)]
    return [l0, p0, x, tol] + [float(v).hex() for v in cc]


def digest(records):
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]


def cold():
    records = []
    for args in INPUTS:
        turbulence._beam_rules.cache_clear()
        records.append(record(*args))
    return records


def warm(order):
    turbulence._beam_rules.cache_clear()
    records = {args: record(*args) for args in order}
    return [records[args] for args in INPUTS]


if __name__ == "__main__":
    print("cold   ", digest(cold()))
    print("forward", digest(warm(INPUTS)))
    print("reverse", digest(warm(INPUTS[::-1])))
    print("records", len(INPUTS))
