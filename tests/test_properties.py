"""Properties of the one step kernel at random (h, omega, state), and of the
drift CSV and drift statistics.

For the FPU lattice h is drawn log-uniform in [0.005, 0.4] and omega
log-uniform in [5, 400], the ranges of the structure benchmark; points within
1e-3 of a kick-filter pole (cos(h*omega/2) = 0) are skipped. States are the
benchmark start plus an O(0.1) perturbation. The FPU lattice is chaotic, so
trajectories are compared pointwise over 10 steps only, against the splitting
compositions that serve as independent oracles. The conjugacy property runs
up to 50 steps from the benchmark start and skips trajectories that blow up.
The examples are drawn from a fixed seed, so every run checks the same cases.
"""

import math
import struct
from dataclasses import astuple
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from erkn import (
    METHODS,
    Partition,
    State,
    adjoint_defect,
    conjugacy_check,
    drift_stats,
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
CONJUGACY_TOL = 1e-9  # the bound of acceptance gate 3
BOUNDED = 100.0  # a trajectory that leaves |state| <= BOUNDED is blowing up


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


@PROPERTY
@given(log_uniform(0.005, 0.4), log_uniform(5.0, 400.0), st.integers(1, 50))
def test_n_steps_equal_both_conjugate_wrappings(h, omega, n):
    """conjugacy_check's interior and shifted forms equal n method steps.

    At large h and small omega some trajectories from the benchmark start
    blow up within 50 steps (ERKN2 at h = 0.357, omega = 5.75 grows from 11
    to 8e6 in steps 10 to 12 and overflows at step 15). Once a state leaves
    BOUNDED the forms part by rounding amplified by that growth, so such
    trajectories are skipped: the identity is checked where it is numerically
    meaningful. A perturbed start blows up more often, hence the start itself.
    """
    assume(abs(math.cos(0.5 * h * omega)) >= 1e-3)
    sys = fpu_system(M, omega)
    for name in SYMMETRIC:
        s = sys.initial
        step = stepper(METHODS[name], sys, h)
        largest = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n):
                s = step(s)
                largest = max(largest, float(np.max(np.abs(s.q))), float(np.max(np.abs(s.p))))
        if not largest <= BOUNDED:
            continue
        scale = max(1.0, float(np.max(np.abs(s.q))), float(np.max(np.abs(s.p))))
        deviation = conjugacy_check(METHODS[name], sys, h, sys.initial, n).max_deviation
        assert deviation <= CONJUGACY_TOL * scale, (name, n, deviation, scale)


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


def bits(rows: list) -> list[bytes]:
    return [struct.pack("<5d", *row) for row in rows]


@PROPERTY
@given(st.lists(st.tuples(*[finite_or_infinite] * 5), max_size=20))
def test_drift_csv_round_trips_every_field(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "drift.csv"
    write_drift_csv(path, rows)
    header, *lines = path.read_text().splitlines()
    assert header == "t,H,I,dH,dI"
    back = [tuple(map(float, line.split(","))) for line in lines]
    assert bits(back) == bits(rows)  # the sign of zero included


def window_ratio(t: list, dev: list) -> float:
    """The second-half/first-half ratio of max |dev|, written out per sample."""
    mid = 0.5 * (t[0] + t[-1])
    first = max(abs(d) for ti, d in zip(t, dev) if ti <= mid)
    second = max([abs(d) for ti, d in zip(t, dev) if ti > mid], default=0.0)
    if first == 0.0:
        return 1.0 if second == 0.0 else math.inf
    return second / first


# zeros are drawn often, so that zero windows come up
deviation = st.just(0.0) | st.floats(-1e6, 1e6)


@PROPERTY
@given(st.lists(st.tuples(st.floats(0.0, 1e4), st.floats(-1e6, 1e6),
                          st.floats(-1e6, 1e6), deviation, deviation), min_size=1, max_size=30)
       .map(sorted))
def test_drift_stats_reads_records_and_rows_alike(records):
    """A list of (t, H, I, dH, dI) tuples and the same rows as an array."""
    rows = np.array(records)
    assert rows.shape == (len(records), 5)
    stats = drift_stats(records)
    assert drift_stats(rows) == stats
    t, _, _, dh, di = zip(*records)
    assert stats.max_dH == max(map(abs, dh))
    assert stats.max_dI == max(map(abs, di))
    assert stats.window_ratio_H == window_ratio(t, dh)
    assert stats.window_ratio_I == window_ratio(t, di)


def test_drift_stats_edge_rules_for_records_and_rows():
    """One sample has an empty second window; a zero first window gives 1.0
    when the second is zero too, else inf; empty input raises."""
    cases = [
        ([(0.0, 1.0, 1.0, 0.0, 0.0)], (0.0, 0.0, 1.0, 1.0)),
        ([(2.0, 1.0, 1.0, -0.5, 0.0)], (0.5, 0.0, 0.0, 1.0)),
        ([(t, 1.0, 1.0, 0.0, 0.0) for t in range(5)], (0.0, 0.0, 1.0, 1.0)),
        ([(t, 1.0, 1.0, 0.0 if t < 3 else -2.0, 0.0) for t in range(5)],
         (2.0, 0.0, math.inf, 1.0)),
    ]
    for rows, want in cases:
        for given_ in (rows, np.array(rows, dtype=float)):
            assert astuple(drift_stats(given_)) == want, rows
    for empty in ([], np.empty((0, 5))):
        with pytest.raises(ValueError):
            drift_stats(empty)
