"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.  The
heavy sweeps (l0 in {1, 5, 10, 15}, 61-point grid, tol 1e-8) are computed
once per session and shared.
"""

import math
import time

import numpy as np
import pytest

from conftest import concurrence_wootters_oracle, populations, random_x_state, to_dense
from oamturb.cli import main as cli_main
from oamturb.lgmath import BeamParams
from oamturb.measures import block_sqrt, concurrence_analytic, lqu, measure_triple
from oamturb.qstate import WernerParams, apply_channel, werner_like
from oamturb.sweepfit import (
    collapse_check,
    detect_sudden_change,
    find_esd,
    fit_exp_form,
    fit_poly_form,
    sweep,
)
from oamturb.turbulence import ChannelCoefficients, TurbulenceParams, channel_ab, r0_from_x

BELL = WernerParams(gamma=1.0, theta=math.pi / 2)
GRID = np.linspace(0.0, 3.0, 61)

F_REFERENCE = np.array([0.183, 3.78, 0.21, 0.131])
G_REFERENCE = np.array([0.92, 3.50, 1.90, 0.08])


def report(num: str, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {label}: {status}{suffix}")


@pytest.fixture(scope="module")
def bell_sweeps():
    sweeps = {}
    t0 = time.perf_counter()
    for l0 in (10, 15):
        sweeps[l0] = sweep(BeamParams(waist=1.0, l0=l0), BELL, GRID, tol=1e-8)
    sweeps["hi_l0_seconds"] = time.perf_counter() - t0
    for l0 in (1, 5):
        sweeps[l0] = sweep(BeamParams(waist=1.0, l0=l0), BELL, GRID, tol=1e-8)
    return sweeps


def test_criterion_01_identity_channel_limit():
    t0 = time.perf_counter()
    beam = BeamParams(waist=1.0, l0=1)
    cc = channel_ab(beam, r0_from_x(beam, 0.0))
    exact = (cc.a, cc.b) == (1.0, 0.0)
    m = measure_triple(apply_channel(werner_like(BELL), cc))
    vals = (m.concurrence, m.coherence_rel_ent, m.lqu)
    close = all(abs(v - 1.0) <= 1e-10 for v in vals)
    elapsed = time.perf_counter() - t0
    ok = exact and close and elapsed < 1.0
    report("1", "identity-channel limit", ok,
           f"(a,b)=({cc.a},{cc.b}), measures={vals}, {elapsed:.3f}s")
    assert exact, f"(a, b) = ({cc.a}, {cc.b}) != (1, 0)"
    assert close, f"Bell measures {vals} not all 1 within 1e-10"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_separability_threshold():
    identity = ChannelCoefficients(1.0, 0.0)
    bad = []
    for gamma in np.linspace(0.0, 1.0, 21):
        for theta in np.linspace(0.0, math.pi, 17):
            margin = gamma * (1.0 + 2.0 * math.sin(theta)) - 1.0
            if abs(margin) <= 1e-9:
                continue  # boundary band
            c = concurrence_analytic(WernerParams(float(gamma), float(theta)), identity)
            if (c == 0.0) != (margin < 0.0):
                bad.append((gamma, theta, c))
    report("2", "separability threshold", not bad, f"{len(bad)} grid violations")
    assert not bad, f"threshold mismatches at {bad[:5]}"


def test_criterion_03_analytic_oracle_equivalence():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        gamma = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, math.pi))
        a = float(rng.uniform(1e-3, 1.0))
        b = float(rng.uniform(0.0, a))
        w = WernerParams(gamma, theta)
        cc = ChannelCoefficients(a, b)
        dense = to_dense(apply_channel(werner_like(w), cc))
        diff = abs(concurrence_analytic(w, cc) - concurrence_wootters_oracle(dense))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    report("3", "analytic vs spin-flip oracle", ok,
           f"max |diff| = {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10, f"max deviation {worst}"
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_04_esd_reproduction(bell_sweeps):
    beam = BeamParams(waist=1.0, l0=1)
    res = find_esd(beam, BELL, tol=1e-10)
    finite = res.x_star is not None and 0.0 < res.x_star < 3.0
    assert finite, f"no finite death point: {res}"
    later = [r.concurrence for r in bell_sweeps[1] if r.x > res.x_star]
    dead = all(c == 0.0 for c in later)
    cc = channel_ab(beam, r0_from_x(beam, res.x_star), 1e-11)
    identity_gap = abs(cc.a - 2.0 * cc.b)
    ok = finite and dead and identity_gap <= 1e-6
    report("4", "entanglement sudden death", ok,
           f"x* = {res.x_star:.6f}, |a - 2b| = {identity_gap:.2e}")
    assert dead, "concurrence revived past the death point"
    assert identity_gap <= 1e-6, f"|a - 2b| = {identity_gap} at x*"


def test_criterion_05_asymptotic_nonvanishing(bell_sweeps):
    tail = bell_sweeps[1][-1]
    assert tail.x == 3.0
    ok = tail.coherence > 0.05 and tail.lqu > 0.02 and tail.concurrence == 0.0
    report("5", "asymptotic non-vanishing", ok,
           f"coherence(3) = {tail.coherence:.4f}, lqu(3) = {tail.lqu:.4f}, "
           f"concurrence(3) = {tail.concurrence}")
    assert tail.coherence > 0.05
    assert tail.lqu > 0.02
    assert tail.concurrence == 0.0


def test_criterion_06_sudden_change():
    beam = BeamParams(waist=1.0, l0=1)
    w = WernerParams(1.0, math.pi / 3)
    rows = sweep(beam, w, np.linspace(0.0, 1.0, 21), tol=1e-9)
    x_star = detect_sudden_change(rows, beam, w, tol=1e-10, refine_to=1e-6)
    found = x_star is not None and x_star < 1.0
    assert found, "no branch switch detected below x = 1"

    def lqu_at(x):
        cc = channel_ab(beam, r0_from_x(beam, x), 1e-10)
        return lqu(apply_channel(werner_like(w), cc))

    delta = 1e-7
    lo_val, lo_branch = lqu_at(x_star - delta)
    hi_val, hi_branch = lqu_at(x_star + delta)
    jump = abs(hi_val - lo_val)
    ok = found and jump < 1e-6
    report("6", "LQU sudden change", ok,
           f"x* = {x_star:.6f}, branches {lo_branch}->{hi_branch}, jump = {jump:.2e}")
    assert jump < 1e-6, f"LQU jump {jump} across the branch switch"


def test_criterion_07_universal_collapse(bell_sweeps):
    pair = [bell_sweeps[10], bell_sweeps[15]]
    dev_coh = collapse_check(pair, "coherence")
    dev_lqu = collapse_check(pair, "lqu")
    elapsed = bell_sweeps["hi_l0_seconds"]
    ok = dev_coh <= 0.03 and dev_lqu <= 0.03 and elapsed < 300.0
    report("7", "universal collapse (l0 = 10 vs 15)", ok,
           f"coherence dev = {dev_coh:.4f}, lqu dev = {dev_lqu:.4f}, sweeps {elapsed:.1f}s")
    assert dev_coh <= 0.03
    assert dev_lqu <= 0.03
    assert elapsed < 300.0


def test_criterion_07_fitted_decay_laws(bell_sweeps):
    f = fit_poly_form(bell_sweeps[10])
    g = fit_exp_form(bell_sweeps[10])
    f_ratio = f.params / F_REFERENCE
    g_ratio = g.params / G_REFERENCE
    f_ok = bool(np.all(np.abs(f_ratio - 1.0) <= 0.2))
    g_ok = bool(np.all(np.abs(g_ratio - 1.0) <= 0.2))
    report("7", "fitted decay-law constants", f_ok and g_ok,
           f"f = {np.round(f.params, 4).tolist()} vs {F_REFERENCE.tolist()} "
           f"(ratios {np.round(f_ratio, 3).tolist()}); "
           f"g = {np.round(g.params, 4).tolist()} vs {G_REFERENCE.tolist()} "
           f"(ratios {np.round(g_ratio, 3).tolist()})")
    assert f.converged and g.converged
    assert f_ok, (
        f"poly-form constants {f.params.tolist()} deviate from {F_REFERENCE.tolist()} "
        f"by ratios {f_ratio.tolist()}; outside +-20%")
    assert g_ok, (
        f"exp-form constants {g.params.tolist()} deviate from {G_REFERENCE.tolist()} "
        f"by ratios {g_ratio.tolist()}; outside +-20%")


def test_criterion_08_decay_speed_ordering(bell_sweeps):
    mask = (GRID >= 0.3) & (GRID <= 2.0)
    coh = {l0: np.array([r.coherence for r in bell_sweeps[l0]])[mask] for l0 in (1, 5, 10)}
    gap_15 = float(np.min(coh[5] - coh[1]))
    gap_510 = float(np.min(coh[10] - coh[5]))
    ok = gap_15 >= 0.0 and gap_510 >= 0.0
    report("8", "decay-speed ordering (l0 = 1 <= 5 <= 10)", ok,
           f"min(coh5 - coh1) = {gap_15:.4f}, min(coh10 - coh5) = {gap_510:.4f}")
    assert gap_15 >= 0.0, f"l0=1 curve above l0=5 by {-gap_15}"
    assert gap_510 >= 0.0, f"l0=5 curve above l0=10 by {-gap_510}"


def test_criterion_09_numerical_hygiene(bell_sweeps):
    rng = np.random.default_rng(11)
    # sqrt self-consistency of the two block roots behind lqu
    worst_sqrt = 0.0
    for _ in range(200):
        s = random_x_state(rng)
        sq_err = 0.0
        for p, q, c in ((s.d11, s.d44, s.c14), (s.d22, s.d33, s.c23)):
            rp, rq, rc = block_sqrt(p, q, c)
            root = np.array([[rp, rc], [rc.conjugate(), rq]])
            sq_err += float(np.linalg.norm(root @ root - np.array([[p, c], [c.conjugate(), q]]))) ** 2
        worst_sqrt = max(worst_sqrt, math.sqrt(sq_err))
    # channel trace and positivity
    worst_trace = 0.0
    min_eig = np.inf
    for _ in range(1000):
        s = random_x_state(rng)
        a = float(rng.uniform(1e-3, 1.0))
        out = apply_channel(s, ChannelCoefficients(a, float(rng.uniform(0.0, a))))
        worst_trace = max(worst_trace, abs(float(populations(out).sum()) - 1.0))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(to_dense(out)).min()))
    # monotone survival coefficient
    monotone = True
    for l0 in (1, 2, 5):
        beam = BeamParams(waist=1.0, l0=l0)
        a_vals = [channel_ab(beam, r0_from_x(beam, float(x)), 1e-8).a
                  for x in np.arange(0.1, 3.01, 0.1)]
        monotone = monotone and all(u > v for u, v in zip(a_vals, a_vals[1:]))
    # joint scale invariance
    base = channel_ab(BeamParams(waist=1.0, l0=2), TurbulenceParams(0.4), 1e-10)
    scaled = channel_ab(BeamParams(waist=5.0, l0=2), TurbulenceParams(2.0), 1e-10)
    scale_dev = max(abs(base.a - scaled.a), abs(base.b - scaled.b))
    ok = (worst_sqrt <= 1e-10 and worst_trace <= 1e-12 and min_eig >= -1e-12
          and monotone and scale_dev <= 1e-9)
    report("9", "numerical hygiene", ok,
           f"sqrt dev = {worst_sqrt:.1e}, trace dev = {worst_trace:.1e}, "
           f"min eig = {min_eig:.1e}, monotone a = {monotone}, scale dev = {scale_dev:.1e}")
    assert worst_sqrt <= 1e-10
    assert worst_trace <= 1e-12
    assert min_eig >= -1e-12
    assert monotone
    assert scale_dev <= 1e-9


def test_criterion_10_deterministic_output(tmp_path, capsys):
    args = ["sweep", "--x-max", "1.0", "--x-points", "21", "--tol", "1e-8"]
    f1, f2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert cli_main(args + ["--out", str(f1)]) == 0
    assert cli_main(args + ["--out", str(f2)]) == 0
    capsys.readouterr()
    identical = f1.read_bytes() == f2.read_bytes()
    report("10", "byte-identical sweep output", identical,
           f"{f1.stat().st_size} bytes each")
    assert identical
