"""Properties of the one step kernel at random (h, omega, state), of the
drift CSV and drift statistics, the drift ordering of the symplectic family,
and near conservation of H and I over random non-resonant operating points.

For the FPU lattice h is drawn log-uniform in [0.005, 0.4] and omega
log-uniform in [5, 400], the ranges of the structure benchmark. States are the
benchmark start plus an O(0.1) perturbation. The FPU lattice is chaotic, so
trajectories are compared pointwise over 10 steps only, against the splitting
compositions that serve as independent oracles. The conjugacy property runs
up to 50 steps from the benchmark start and skips trajectories that blow up.
The examples are drawn from a fixed seed, so every run checks the same cases.
"""

import math
import struct
from dataclasses import astuple, replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erkn import (
    METHODS,
    NU_GRID,
    Partition,
    State,
    adjoint_defect,
    check_symmetry,
    check_symplecticity,
    conjugacy_check,
    drift_engine,
    drift_stats,
    fpu_system,
    linear_system,
    non_resonance_max_N,
    stepper,
    strang_lnl_step,
    symmetric,
    symplectic,
    symplecticity_defect,
    trig_method_from,
    trig_step_composed,
    trig_stepper,
    upsilon_from,
)
from erkn.cli import write_drift_csv
from erkn.oscfun import cos, power, sinc

SYMMETRIC = ("ERKN2", "ERKN3", "ERKN4")
SYMPLECTIC = ("ERKN2", "ERKN5", "ERKN6")
M = 3
STEPS = 10
ORACLE_TOL = 1e-10
ADJOINT_TOL = 1e-11  # the bound of acceptance gate 4
CONJUGACY_TOL = 1e-9  # the bound of acceptance gate 3
SYMPLECTIC_TOL = 1e-5  # the bound of acceptance gate 4 on the symplectic methods
DRIFT_FACTOR = 3.0  # how much less c1 = 1/2 drifts in H than c1 = 0.05 and 0.95
BOUNDED = 100.0  # a trajectory that leaves |state| <= BOUNDED is blowing up


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


perturbation = st.lists(st.floats(-0.1, 0.1), min_size=2 * M, max_size=2 * M)
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def operating_point(h: float, omega: float, dq: list, dp: list):
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
@given(st.one_of(st.floats(0.05, 0.45), st.floats(0.55, 0.95)))
def test_the_symplectic_family_is_its_own_adjoint_only_at_one_half(c1):
    """At FPU m = 3, omega = 50 and h = 0.1 from the benchmark start, the
    adjoint defect of `symplectic(c1)` is roundoff at c1 = 1/2 and at least
    1e-3 for |c1 - 1/2| >= 0.05."""
    sys = fpu_system(M, 50.0)
    assert adjoint_defect(symplectic("half", 0.5), sys, 0.1, sys.initial) <= 1e-14
    assert adjoint_defect(symplectic("s", c1), sys, 0.1, sys.initial) >= 1e-3, c1


@PROPERTY
@given(log_uniform(0.005, 0.4), log_uniform(5.0, 400.0), perturbation, perturbation,
       st.floats(0.05, 0.95))
def test_symplectic_methods_keep_the_symplectic_form(h, omega, dq, dp, c1):
    """ERKN2, ERKN5, ERKN6 and a drawn member `symplectic(c1)` of their family
    have a step Jacobian M with max |M^T J M - J| within gate 4's bound.
    (The defect of ERKN1, ERKN3 and ERKN4 falls to a few 1e-9 at some points,
    so no lower bound is asserted for them here.)"""
    sys, s = operating_point(h, omega, dq, dp)
    for m in (*(METHODS[name] for name in SYMPLECTIC), symplectic("s", c1)):
        defect = symplecticity_defect(m, sys, h, s)
        assert defect <= SYMPLECTIC_TOL, (m.name, c1, defect)


def test_the_symmetric_symplectic_member_drifts_least():
    """On FPU m = 3, omega = 200, h = 0.01 to t = 100 from the benchmark start,
    `symplectic(1/2)`, symmetric and symplectic, keeps max|dH| below a third of
    that of c1 = 0.05 and 0.95, which are symplectic only. The factor was fixed
    before the first run. max|dI| does not order this way and is not tested."""
    sys, h, t_end, stride = fpu_system(M, 200.0), 0.01, 100.0, 10
    methods = [symplectic(f"c1={c1:g}", c1) for c1 in (0.5, 0.05, 0.95)]
    results = drift_engine([(m, sys) for m in methods], h, t_end, stride)
    assert all(message is None for _, message in results)
    half, *others = (drift_stats(rows).max_dH for rows, _ in results)
    assert all(DRIFT_FACTOR * half < other for other in others), (half, others)


# The near-conservation verdict below: the median over non-resonant points of
# the member-median max|dH|/h and max|dI|/h. Fixed before the first run.
CONSERVING_AT_MOST = (3.0, 3.5)  # ERKN2-6: symmetric or symplectic
DRIFTING_AT_LEAST = (4.0, 5.0)  # ERKN1: neither


def test_symmetric_or_symplectic_methods_nearly_conserve_h_and_i():
    """The paper's theorem as a statistical property: at 16 points drawn from
    a fixed seed, h log-uniform in [0.01, 0.1] and omega in [20, 400], that
    pass the non-resonance condition up to N = 2 (c = 1), 4 starts a point
    (member k scaled by 1 + 1e-8 k) run to t = 100 at stride 10, every method
    and member of a point in one engine call. One chaotic trajectory carries
    no verdict; the median over points of the median over members does. A
    member that blows up counts as inf."""
    rng, names, members, stats = np.random.default_rng(0), list(METHODS), 4, []
    while len(stats) < 16:
        h, omega = np.exp(rng.uniform(np.log([0.01, 20.0]), np.log([0.1, 400.0])))
        if non_resonance_max_N(h, omega, 1.0) < 2:
            continue
        base = fpu_system(M, omega)
        starts = [replace(base, initial=State(*base.initial.z * (1 + 1e-8 * k)))
                  for k in range(members)]
        results = drift_engine([(METHODS[name], s) for name in names for s in starts],
                               h, 100.0, 10)
        drift = [(math.inf, math.inf) if message else astuple(drift_stats(rows))[:2]
                 for rows, message in results]
        stats.append(np.median(np.reshape(drift, (len(names), members, 2)), axis=1) / h)
    medians = np.median(stats, axis=0)  # (dH, dI) per method, ERKN1 first
    assert (medians[1:] <= CONSERVING_AT_MOST).all() and (medians[0] >= DRIFTING_AT_LEAST).all(), \
        dict(zip(names, medians.tolist()))


FILTER_TOL = 1e-12  # relative, upsilon_from against the filter a method was built from


def test_the_symmetric_family_is_its_kick_filters():
    """`symmetric(name, upsilon)` for Gaussian filters exp(-a nu^2), a drawn
    log-uniform in [1e-3, 1] from a fixed seed, and for cos(nu/2)^k (k = 0..3)
    and sinc(nu/2)^k (k = 1, 2): each passes check_symmetry, passes
    check_symplecticity exactly when its filter is constant (k = 0), gives its
    filter back through upsilon_from on NU_GRID off the poles, and stays
    conjugate to its kick-first scheme over 20 steps at two drawn (h, omega).
    ERKN3 and ERKN4 are the members with cos(nu/2)^2 and sinc(nu/2). The
    bounds were fixed before the first run."""
    rng = np.random.default_rng(24)
    gaussians = [lambda nu, a=a: np.exp(-a * nu * nu)
                 for a in np.exp(rng.uniform(np.log(1e-3), 0.0, 4))]
    filters = [*((f"exp{k}", f, False) for k, f in enumerate(gaussians)),
               *((f"cos^{k}", lambda nu, k=k: power(cos(0.5 * nu), k), k == 0) for k in range(4)),
               *((f"sinc^{k}", lambda nu, k=k: power(sinc(0.5 * nu), k), False) for k in (1, 2))]
    points = np.exp(rng.uniform(np.log([0.01, 10.0]), np.log([0.1, 200.0]), (2, 2)))
    nu = np.array(NU_GRID)
    off_poles = nu[np.abs(np.cos(0.5 * nu)) >= 1e-3]
    for name, upsilon, constant in filters:
        m = symmetric(name, upsilon)
        assert check_symmetry(m).passed, name
        assert check_symplecticity(m).passed == constant, name
        extracted = upsilon_from(m)
        for x in off_poles.tolist():
            assert abs(extracted(x) - upsilon(x)) <= FILTER_TOL * abs(upsilon(x)), (name, x)
        for h, omega in points:
            sys = fpu_system(M, omega)
            deviation = conjugacy_check(m, sys, h, sys.initial, n=20).max_deviation
            assert deviation <= CONJUGACY_TOL, (name, h, omega, deviation)
    by_name = {name: upsilon for name, upsilon, _ in filters}
    for name, member in (("ERKN3", "cos^2"), ("ERKN4", "sinc^1")):
        m, built = METHODS[name], symmetric(name, by_name[member])
        assert all(np.array_equal(getattr(m, w)(nu), getattr(built, w)(nu)) for w in ("b", "bbar"))


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
