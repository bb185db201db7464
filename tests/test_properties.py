"""Properties of the one step kernel at random (h, omega, state), and of the
drift CSV.

For the FPU lattice h is drawn log-uniform in [0.005, 0.4] and omega
log-uniform in [5, 400], the ranges of the structure benchmark; points within
1e-3 of a kick-filter pole (cos(h*omega/2) = 0) are skipped. States are the
benchmark start plus an O(0.1) perturbation. The FPU lattice is chaotic, so
trajectories are compared pointwise over 10 steps only, against the splitting
compositions that serve as independent oracles. The examples are drawn from a
fixed seed, so every run checks the same cases.
"""

import math
import struct
from functools import partial

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from erkn import (
    METHODS,
    DriftRecord,
    Partition,
    State,
    adjoint_defect,
    fpu_system,
    linear_system,
    stepper,
    strang_lnl_step,
    trig_method_from,
    trig_step_composed,
    trig_stepper,
    upsilon_from,
)
from erkn.cli import write_drift_csv

SYMMETRIC = ("ERKN2", "ERKN3", "ERKN4")
M = 3
STEPS = 10
ORACLE_TOL = 1e-10
ADJOINT_TOL = 1e-11  # the bound of acceptance gate 4


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


perturbation = st.lists(st.floats(-0.1, 0.1), min_size=2 * M, max_size=2 * M)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def operating_point(h: float, omega: float, dq: list, dp: list):
    assume(abs(math.cos(0.5 * h * omega)) >= 1e-3)
    sys = fpu_system(M, omega)
    return sys, State(sys.initial.q + np.array(dq), sys.initial.p + np.array(dp))


def sup_dev(a: State, b: State) -> float:
    return max(np.max(np.abs(a.q - b.q)), np.max(np.abs(a.p - b.p)))


def assert_tracks(step, oracle, s: State, label: str) -> None:
    """step and oracle agree over STEPS steps from s. Rounding scales with the
    state, and at the large-h, small-omega corner a perturbed state can grow
    by many orders within 10 steps, so the bound is relative to
    max(1, |oracle state|)."""
    a = b = s
    for i in range(STEPS):
        a, b = step(a), oracle(b)
        scale = max(1.0, float(np.max(np.abs(b.q))), float(np.max(np.abs(b.p))))
        assert sup_dev(a, b) <= ORACLE_TOL * scale, (label, i, sup_dev(a, b), scale)


@PROPERTY
@given(log_uniform(0.005, 0.4), log_uniform(5.0, 400.0), perturbation, perturbation)
def test_kernel_matches_the_compositions(h, omega, dq, dp):
    sys, s = operating_point(h, omega, dq, dp)
    for name in SYMMETRIC:
        m = METHODS[name]
        ups = upsilon_from(m)
        strang = partial(strang_lnl_step, m, sys, h, upsilon=ups)
        assert_tracks(stepper(m, sys, h), strang, s, name)
        tm = trig_method_from(m)
        assert_tracks(trig_stepper(tm, sys, h), partial(trig_step_composed, tm, sys, h), s, tm.name)


@PROPERTY
@given(log_uniform(0.005, 0.4), log_uniform(5.0, 400.0), perturbation, perturbation)
def test_symmetric_methods_are_their_own_adjoint(h, omega, dq, dp):
    sys, s = operating_point(h, omega, dq, dp)
    for name in SYMMETRIC:
        defect = adjoint_defect(METHODS[name], sys, h, s)
        assert defect <= ADJOINT_TOL, (name, defect)


def closed_rotation(part: Partition, t: float, q0: np.ndarray, p0: np.ndarray) -> State:
    """The force-free flow over time t, one component at a time: free motion
    on the slow block, the harmonic oscillator of frequency omega on the fast
    one (free motion again when omega = 0)."""
    q, p = [], []
    for i, (x, v) in enumerate(zip(q0, p0)):
        w = part.omega if i >= part.d1 else 0.0
        sin_over_w = math.sin(w * t) / w if w > 0.0 else t
        q.append(math.cos(w * t) * x + sin_over_w * v)
        p.append(-w * math.sin(w * t) * x + math.cos(w * t) * v)
    return State(np.array(q), np.array(p))


@PROPERTY
@given(
    st.integers(0, 3),
    st.integers(1, 3),
    st.one_of(st.just(0.0), st.floats(0.1, 400.0)),
    st.floats(0.005, 0.5) | st.floats(-0.5, -0.005),
)
def test_steppers_are_exact_on_the_force_free_problem(d1, d2, omega, h):
    part = Partition(d1, d2, omega)
    sys = linear_system(part)
    for name, m in METHODS.items():
        step = stepper(m, sys, h)
        s = sys.initial
        for i in range(1, STEPS + 1):
            s = step(s)
            exact = closed_rotation(part, i * h, sys.initial.q, sys.initial.p)
            scale = max(1.0, float(np.max(np.abs(exact.q))), float(np.max(np.abs(exact.p))))
            assert sup_dev(s, exact) <= ORACLE_TOL * scale, (name, i, sup_dev(s, exact))


finite_or_infinite = st.floats(allow_nan=False)


def bits(records: list) -> list[bytes]:
    return [struct.pack("<5d", r.t, r.H, r.I, r.dH, r.dI) for r in records]


@PROPERTY
@given(st.lists(st.builds(DriftRecord, *[finite_or_infinite] * 5), max_size=20))
def test_drift_csv_round_trips_every_field(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("csv") / "drift.csv"
    write_drift_csv(path, records)
    header, *rows = path.read_text().splitlines()
    assert header == "t,H,I,dH,dI"
    back = [DriftRecord(*map(float, row.split(","))) for row in rows]
    assert bits(back) == bits(records)  # the sign of zero included
