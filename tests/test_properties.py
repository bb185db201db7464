"""Properties of the one step kernel at random (h, omega, state).

h is drawn log-uniform in [0.005, 0.4] and omega log-uniform in [5, 400],
the ranges of the structure benchmark; points within 1e-3 of a kick-filter
pole (cos(h*omega/2) = 0) are skipped. States are the benchmark start plus an
O(0.1) perturbation. The FPU lattice is chaotic, so trajectories are compared
pointwise over 10 steps only, against the splitting compositions that serve
as independent oracles.
"""

import math
from functools import partial

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from erkn import (
    METHODS,
    State,
    adjoint_defect,
    fpu_system,
    stepper,
    strang_lnl_step,
    trig_method_from,
    trig_step_composed,
    trig_stepper,
    upsilon_from,
)

SYMMETRIC = ("ERKN2", "ERKN3", "ERKN4")
M = 3
STEPS = 10
ORACLE_TOL = 1e-10
ADJOINT_TOL = 1e-11  # the bound of acceptance gate 4


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


perturbation = st.lists(st.floats(-0.1, 0.1), min_size=2 * M, max_size=2 * M)
PROPERTY = settings(max_examples=30, deadline=None)


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
