"""End-to-end acceptance runs.

One test per criterion; each records a single pass/fail line (printed in the
terminal summary) with the measured quantity and its stated tolerance, then
asserts. Criteria with runtime budgets assert elapsed wall time too.
"""

import io
import math
import time

import numpy as np
import pytest

from erkn import (
    METHODS,
    Partition,
    State,
    adjoint_defect,
    check_symmetry,
    check_symplecticity,
    conjugacy_check,
    drift_series,
    drift_stats,
    fpu_system,
    linear_system,
    non_resonance_max_N,
    sigma,
    stepper,
    symplecticity_defect,
    upsilon_from,
)
from erkn.cli import ExperimentConfig, cmd_run
from erkn.methods import COEFF_TOL
from erkn.verify import FD_EPS

SYMMETRIC = ("ERKN2", "ERKN3", "ERKN4")
SYMPLECTIC = ("ERKN2", "ERKN5", "ERKN6")


def test_criterion_01_registry_classification(acceptance_log):
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    for name, m in METHODS.items():
        sym = check_symmetry(m)
        sp = check_symplecticity(m)
        ok &= sym.passed == (name in SYMMETRIC)
        ok &= sp.passed == (name in SYMPLECTIC)
        if sym.passed:
            worst = max(worst, sym.max_residual)
        if sp.passed:
            worst = max(worst, sp.max_residual)
    dt = time.monotonic() - t0
    assert COEFF_TOL == 1e-12  # the checkers' one tolerance
    acceptance_log(
        f"1 registry classification: {'PASS' if ok and dt < 1 else 'FAIL'} "
        f"(6/6 rows, worst passing residual {worst:.2e} <= 1e-12, {dt:.2f}s < 1s)"
    )
    assert ok
    assert worst <= 1e-12
    assert dt < 1.0


def test_criterion_02_free_flow_exactness(acceptance_log):
    """10^4 steps of the force-free problem against the closed rotation."""
    t0 = time.monotonic()
    part = Partition(d1=1, d2=1, omega=50.0)
    sys = linear_system(part)
    h, n = 0.1, 10_000
    # bounded trajectory: tiny slow momentum so q1 stays O(1) while still
    # exercising both blocks
    start = State(q=np.array([1.0, 1.0 / 50.0]), p=np.array([1e-3, 1.0]))
    worst = 0.0
    for m in METHODS.values():
        step = stepper(m, sys, h)
        s = start
        for _ in range(n):
            s = step(s)
        t = n * h
        nu = 50.0 * t
        want_q = np.array(
            [
                start.q[0] + t * start.p[0],
                math.cos(nu) * start.q[1] + math.sin(nu) / 50.0 * start.p[1],
            ]
        )
        want_p = np.array(
            [start.p[0], -50.0 * math.sin(nu) * start.q[1] + math.cos(nu) * start.p[1]]
        )
        err = max(np.max(np.abs(s.q - want_q)), np.max(np.abs(s.p - want_p)))
        worst = max(worst, err)
    dt = time.monotonic() - t0
    acceptance_log(
        f"2 free-flow exactness: {'PASS' if worst <= 1e-10 and dt < 1 else 'FAIL'} "
        f"(max err {worst:.2e} <= 1e-10 over 10^4 steps, {dt:.2f}s < 1s)"
    )
    assert worst <= 1e-10
    assert dt < 1.0


def test_criterion_03_conjugacy(acceptance_log, fpu3):
    t0 = time.monotonic()
    worst = 0.0
    for name in SYMMETRIC:
        rep = conjugacy_check(METHODS[name], fpu3, 0.1, fpu3.initial, 100)
        worst = max(worst, rep.max_deviation)
    dt = time.monotonic() - t0
    acceptance_log(
        f"3 splitting conjugacy: {'PASS' if worst <= 1e-9 and dt < 1 else 'FAIL'} "
        f"(n=100 max deviation {worst:.2e} <= 1e-9, {dt:.2f}s < 1s)"
    )
    assert worst <= 1e-9
    assert dt < 1.0


def test_criterion_04_structure_probes(acceptance_log, fpu3):
    t0 = time.monotonic()
    s = fpu3.initial
    adj_sym = max(adjoint_defect(METHODS[k], fpu3, 0.1, s) for k in SYMMETRIC)
    adj_other = min(
        adjoint_defect(METHODS[k], fpu3, 0.1, s) for k in ("ERKN1", "ERKN5", "ERKN6")
    )
    sp_good = max(symplecticity_defect(METHODS[k], fpu3, 0.1, s) for k in SYMPLECTIC)
    rough = fpu_system(3, 2.0)
    sp_bad = min(
        symplecticity_defect(METHODS[k], rough, 0.5, rough.initial)
        for k in ("ERKN1", "ERKN3", "ERKN4")
    )
    dt = time.monotonic() - t0
    assert FD_EPS == 1e-5  # the symplecticity probe's one central-difference step
    ok = adj_sym <= 1e-11 and adj_other >= 1e-8 and sp_good <= 1e-5 and sp_bad >= 1e-4
    acceptance_log(
        f"4 structure probes: {'PASS' if ok and dt < 5 else 'FAIL'} "
        f"(adjoint {adj_sym:.1e} <= 1e-11 vs {adj_other:.1e} >= 1e-8; "
        f"symplectic {sp_good:.1e} <= 1e-5 vs {sp_bad:.1e} >= 1e-4, {dt:.2f}s < 5s)"
    )
    assert adj_sym <= 1e-11
    assert adj_other >= 1e-8
    assert sp_good <= 1e-5
    assert sp_bad >= 1e-4
    assert dt < 5.0


def test_criterion_05_long_time_drift(acceptance_log, fpu3):
    t0 = time.monotonic()
    ok = True
    detail = []
    for name in ("ERKN2", "ERKN3", "ERKN4", "ERKN5", "ERKN6"):
        st = drift_stats(drift_series(METHODS[name], fpu3, 0.1, 1000.0))
        ratios_ok = all(
            0.3 <= r <= 3.0 for r in (st.window_ratio_H, st.window_ratio_I)
        )
        bounded = st.max_dH <= 1.0 and st.max_dI <= 1.0
        ok &= ratios_ok and bounded
        detail.append(f"{name} dH {st.max_dH:.2f}")
    dt = time.monotonic() - t0
    acceptance_log(
        f"5 long-time drift: {'PASS' if ok and dt <= 30 else 'FAIL'} "
        f"({'; '.join(detail)}; ratios in [0.3, 3.0], max <= 10h = 1.0, {dt:.1f}s <= 30s)"
    )
    assert ok
    assert dt <= 30.0


def test_criterion_06_h_scaling(acceptance_log, fpu3):
    t0 = time.monotonic()
    coarse = drift_stats(drift_series(METHODS["ERKN2"], fpu3, 0.1, 200.0)).max_dH
    fine = drift_stats(drift_series(METHODS["ERKN2"], fpu3, 0.01, 200.0)).max_dH
    dt = time.monotonic() - t0
    ok = fine <= 0.5 * coarse
    acceptance_log(
        f"6 stepsize scaling: {'PASS' if ok and dt <= 60 else 'FAIL'} "
        f"(max dH {fine:.2e} at h=0.01 <= 0.5 x {coarse:.2e} at h=0.1, {dt:.1f}s <= 60s)"
    )
    assert ok
    assert dt <= 60.0


def test_criterion_07_frequency_sensitivity(acceptance_log, fpu3):
    t0 = time.monotonic()
    stiff = fpu_system(3, 200.0)
    d1_50 = drift_stats(drift_series(METHODS["ERKN1"], fpu3, 0.1, 1000.0)).max_dH
    d1_200 = drift_stats(drift_series(METHODS["ERKN1"], stiff, 0.1, 1000.0)).max_dH
    d2_50 = drift_stats(drift_series(METHODS["ERKN2"], fpu3, 0.1, 1000.0)).max_dH
    d2_200 = drift_stats(drift_series(METHODS["ERKN2"], stiff, 0.1, 1000.0)).max_dH
    r1, r2 = d1_200 / d1_50, d2_200 / d2_50
    dt = time.monotonic() - t0
    ok = r1 >= 2.0 and 0.3 <= r2 <= 3.0
    acceptance_log(
        f"7 frequency sensitivity: {'PASS' if ok and dt <= 20 else 'FAIL'} "
        f"(ERKN1 ratio {r1:.1f} >= 2; ERKN2 ratio {r2:.2f} in [0.3, 3.0], {dt:.1f}s <= 20s)"
    )
    assert ok
    assert dt <= 20.0


def test_criterion_08_assumption_checkers(acceptance_log):
    t0 = time.monotonic()
    n_ok = non_resonance_max_N(0.1, 50.0, 1.0) == 4
    sig_dev = max(abs(sigma(METHODS["ERKN2"], nu) - 1.0) for nu in (0.0, 5.0))
    grid = [0.1 * k for k in range(101)]
    u2 = upsilon_from(METHODS["ERKN2"])
    u3 = upsilon_from(METHODS["ERKN3"])
    f_dev = max(
        max(abs(u2(nu) - 1.0) for nu in grid),
        max(abs(u3(nu) - math.cos(nu / 2) ** 2) for nu in grid),
    )
    dt = time.monotonic() - t0
    ok = n_ok and sig_dev <= 1e-12 and f_dev <= 1e-12
    acceptance_log(
        f"8 assumption checkers: {'PASS' if ok and dt < 1 else 'FAIL'} "
        f"(N = 4; sigma dev {sig_dev:.1e} <= 1e-12; filter dev {f_dev:.1e} <= 1e-12, "
        f"{dt:.2f}s < 1s)"
    )
    assert ok
    assert dt < 1.0


def test_criterion_09_gradient_oracle(acceptance_log):
    t0 = time.monotonic()
    rng = np.random.default_rng(20260817)
    eps = 1e-5
    worst = 0.0
    for m in (1, 2, 3):
        sys = fpu_system(m, 50.0)
        for _ in range(100):
            q = rng.uniform(-1.0, 1.0, size=2 * m)
            g = sys.force(q)
            fd = np.empty_like(g)
            for i in range(2 * m):
                qp, qm = q.copy(), q.copy()
                qp[i] += eps
                qm[i] -= eps
                fd[i] = -(sys.potential(qp) - sys.potential(qm)) / (2 * eps)
            rel = float(np.max(np.abs(g - fd))) / max(1.0, float(np.max(np.abs(g))))
            worst = max(worst, rel)
    dt = time.monotonic() - t0
    acceptance_log(
        f"9 gradient oracle: {'PASS' if worst <= 1e-6 and dt < 1 else 'FAIL'} "
        f"(rel err {worst:.1e} <= 1e-6 at 100 points x m in {{1,2,3}}, {dt:.2f}s < 1s)"
    )
    assert worst <= 1e-6
    assert dt < 1.0


def test_criterion_10_determinism(acceptance_log, tmp_path):
    a = tmp_path / "first.csv"
    b = tmp_path / "second.csv"
    for out in (a, b):
        cfg = ExperimentConfig(
            method="ERKN2", omega=50.0, h=0.1, t_end=50.0, output=str(out)
        )
        assert cmd_run(cfg, out=io.StringIO()) == 0
    same = a.read_bytes() == b.read_bytes()
    acceptance_log(
        f"10 determinism: {'PASS' if same else 'FAIL'} "
        f"(two identical runs, byte-identical CSVs: {same})"
    )
    assert same
