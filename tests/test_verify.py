"""Structure probes, assumption checkers, and drift bookkeeping."""

import dataclasses
import inspect
import io
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erkn import (
    METHODS,
    NonFiniteState,
    Partition,
    State,
    System,
    ZeroCoefficient,
    adjoint_defect,
    assumption_report,
    check_symmetry,
    check_symplecticity,
    conjugacy_check,
    drift_check,
    drift_engine,
    drift_series,
    drift_stats,
    erkn_step,
    flow_kick,
    flow_linear,
    fpu_system,
    hamiltonian,
    linear_system,
    non_resonance_max_N,
    oscillatory_energy,
    sigma,
    sinc,
    stepper,
    strang_lnl_step,
    structure_defects,
    symplecticity_defect,
    trig_method_from,
    trig_step_composed,
    verify,
)
from erkn import cli
from erkn.methods import structure_reports


def test_adjoint_defect_separates_the_family(fpu3):
    s = fpu3.initial
    for name in ("ERKN2", "ERKN3", "ERKN4"):
        assert adjoint_defect(METHODS[name], fpu3, 0.1, s) <= 1e-11
    for name in ("ERKN1", "ERKN5", "ERKN6"):
        assert adjoint_defect(METHODS[name], fpu3, 0.1, s) >= 1e-3


def test_adjoint_defect_for_trig_scheme(fpu3):
    tm = trig_method_from(METHODS["ERKN2"])
    assert adjoint_defect(tm, fpu3, 0.1, fpu3.initial) <= 1e-11


def test_symplecticity_defect_small_for_symplectic(fpu3):
    for name in ("ERKN2", "ERKN5", "ERKN6"):
        assert symplecticity_defect(METHODS[name], fpu3, 0.1, fpu3.initial) <= 1e-5


def test_symplecticity_defect_large_for_others():
    sys = fpu_system(3, 2.0)
    for name in ("ERKN1", "ERKN3", "ERKN4"):
        assert symplecticity_defect(METHODS[name], sys, 0.5, sys.initial) >= 1e-4


def loop_symplecticity_defect(m, sys, h, s, fd_eps=1e-5):
    """The probe written as 4*dim single `State` steps, one per perturbation."""
    d = sys.partition.dim
    step = stepper(m, sys, h)
    z0 = np.concatenate([s.q, s.p])
    jac = np.empty((2 * d, 2 * d))
    for j in range(2 * d):
        zp, zm = z0.copy(), z0.copy()
        zp[j] += fd_eps
        zm[j] -= fd_eps
        out_p, out_m = step(State(zp[:d], zp[d:])), step(State(zm[:d], zm[d:]))
        diff = np.concatenate([out_p.q, out_p.p]) - np.concatenate([out_m.q, out_m.p])
        jac[:, j] = diff / (2.0 * fd_eps)
    jj = np.zeros((2 * d, 2 * d))
    jj[:d, d:] = np.eye(d)
    jj[d:, :d] = -np.eye(d)
    return float(np.max(np.abs(jac.T @ jj @ jac - jj)))


def test_symplecticity_defect_is_a_loop_of_single_steps():
    """The batched probe equals the per-perturbation loop bit for bit, for
    both kinds of method, from a perturbed start and for h of either sign."""
    rng = np.random.default_rng(3)
    methods = [*METHODS.values(), trig_method_from(METHODS["ERKN3"])]
    for sys in (fpu_system(3, 50.0), fpu_system(2, 7.0)):
        s = State(sys.initial.q + rng.normal(0.0, 0.1, sys.partition.dim),
                  sys.initial.p + rng.normal(0.0, 0.1, sys.partition.dim))
        for m in methods:
            for h in (0.1, -0.37):
                want = loop_symplecticity_defect(m, sys, h, s)
                assert symplecticity_defect(m, sys, h, s) == want, (m.name, sys.label, h)


def test_probes_reject_a_state_of_another_size(fpu3):
    """Every entry point that takes a `State` refuses one of another size: a
    1-d state would broadcast against the 6-d lattice's coefficients (or the
    stepper would spread it over the whole lattice)."""
    small = State([1.0], [1.0])
    m = METHODS["ERKN2"]
    tm = trig_method_from(m)
    short = dataclasses.replace(fpu3, initial=small)
    probes = [
        lambda: drift_check(short, 0.1, 1.0),
        lambda: flow_linear(fpu3.partition, 0.1, small),
        lambda: flow_kick(fpu3, tm.upsilon, 0.1, small),
        lambda: strang_lnl_step(m, fpu3, 0.1, small),
        lambda: trig_step_composed(tm, fpu3, 0.1, small),
        lambda: conjugacy_check(m, fpu3, 0.1, small, 2),
        lambda: oscillatory_energy(fpu3.partition, small),
        lambda: hamiltonian(fpu3, small),
    ]
    for method in (m, tm):  # one-stage and kick-first; a default binds each
        probes += [
            lambda method=method: stepper(method, fpu3, 0.1)(small),
            lambda method=method: erkn_step(method, fpu3, 0.1, small),
            lambda method=method: adjoint_defect(method, fpu3, 0.1, small),
            lambda method=method: symplecticity_defect(method, fpu3, 0.1, small),
            lambda method=method: structure_defects(method, fpu3, 0.1, small),
        ]
    for probe in probes:
        with pytest.raises(ValueError, match="does not match"):
            probe()


def test_structure_defects_bundle(fpu3):
    reports = structure_defects(METHODS["ERKN2"], fpu3, 0.1, fpu3.initial)
    kinds = {r.kind for r in reports}
    assert kinds == {"adjoint", "symplecticity"}
    for r in reports:
        assert r.method == "ERKN2"
        assert r.h == 0.1
        assert np.isfinite(r.defect)


def test_non_resonance_count():
    # |sin(k*2.5)| for k=1..4 clears 0.316..., k=5 gives |sin(12.5)| ~ 0.066
    assert non_resonance_max_N(0.1, 50.0, 1.0) == 4
    assert non_resonance_max_N(0.1, 50.0, 0.1) > 4


def test_non_resonance_counts_the_exact_phases():
    """The count is for the exact phases k*(h*omega)/2 of the double h*omega:
    these counts match 3000-bit arithmetic, where the rounded products
    k*(h*omega/2) gave 1000 and 414 at the first two points."""
    assert non_resonance_max_N(1.0, 728255167046.2643, 1e-3) == 259
    assert non_resonance_max_N(1.0, 1e100, 1e-3) == 176
    assert non_resonance_max_N(1.0, 3e5, 1e-3) == 204


def test_non_resonance_below_1e6_counts_as_the_rounded_phases():
    """Below h*omega = 1e6 the exact phases give the count of the rounded
    products, the former formula, which is the oracle here; down to a
    subnormal h*omega/2, whose ratio's denominator exceeds the largest double."""
    def rounded(h: float, omega: float, c: float) -> int:
        threshold, half, n = c * math.sqrt(h), 0.5 * h * omega, 0
        while n < 1000 and abs(math.sin((n + 1) * half)) >= threshold:
            n += 1
        return n

    rng = np.random.default_rng(21)
    draws = np.exp(rng.uniform(np.log([1e-3, 1e-3, 1e-4]), np.log([1.0, 1e6, 1.0]), (200, 3)))
    points = [(h, nu / h, c) for h, nu, c in draws.tolist()]
    points += [(1e-300, 1.0, 1.0), (5e-324, 50.0, 1.0), (1.0, 1e-300, 1e-310),
               (1.0, 5e-322, 1e-323)]
    for h, omega, c in points:
        assert h * omega < 1e6
        assert non_resonance_max_N(h, omega, c) == rounded(h, omega, c), (h, omega, c)


def test_non_resonance_caps_at_k_max():
    """The scan stops at k = 1000, the bound `check` states."""
    assert non_resonance_max_N(0.1, 50.0, 1e-12) == 1000


def test_structure_checks_take_no_tolerance_or_step():
    """Each check runs at its one setting: COEFF_TOL, FD_EPS and k <= 1000. The
    probes take (m, sys, h, s) and the coefficient checkers (m, grid)."""
    for f in (adjoint_defect, symplecticity_defect, structure_defects):
        assert list(inspect.signature(f).parameters) == ["m", "sys", "h", "s"], f
    for f in (structure_reports, check_symmetry, check_symplecticity):
        assert list(inspect.signature(f).parameters) == ["m", "grid"], f
    assert list(inspect.signature(non_resonance_max_N).parameters) == ["h", "omega", "c"]


def test_non_resonance_validation():
    for h, omega, c in ((0.0, 50.0, 1.0), (0.1, 50.0, 0.0), (math.nan, 50.0, 1.0),
                        (0.1, 50.0, math.nan), (0.1, math.nan, 1.0), (math.inf, 50.0, 1.0),
                        (0.1, math.inf, 1.0), (0.1, -math.inf, 1.0), (0.1, 50.0, math.inf),
                        (1e200, 1e200, 1.0)):
        with pytest.raises(ValueError, match="need finite h, omega"):
            non_resonance_max_N(h, omega, c)
    # h*omega is finite, but the scan reaches a phase k*h*omega/2 that is not
    with pytest.raises(ValueError, match=r"the phase k\*h\*omega/2 = 4\*5e\+307 overflows"):
        non_resonance_max_N(1.0, 1e308, 1e-3)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.floats(1e-3, 1.0), st.floats(0.0, 1e4) | st.sampled_from([0.0, 2.0 * math.pi]),
       st.floats(1e-3, 2.0))
def test_the_kept_non_resonance_counts_equal_the_scan(h, nu, c):
    """A kept count is the uncached scan's, on its first call and after."""
    omega, scan = nu / h, non_resonance_max_N.__wrapped__
    want = scan(h, omega, c)
    assert non_resonance_max_N(h, omega, c) == want
    assert non_resonance_max_N(h, omega, c) == want


def test_an_input_that_raises_raises_again():
    for args in ((0.0, 50.0, 1.0), (0.1, math.nan, 1.0), (1.0, 1e308, 1e-3)):
        for _ in range(3):
            with pytest.raises(ValueError):
                non_resonance_max_N(*args)


def test_one_probe_point_makes_one_phase_scan():
    """`check` and `assumption_report` for every registry method at one
    (h, omega) share one scan: one miss, and eleven hits."""
    h, omega = 0.0731, 91.37  # a point no other test asks for
    before = non_resonance_max_N.cache_info()
    for name, m in METHODS.items():
        assert cli.cmd_check(name, h=h, omega=omega, out=io.StringIO()) == cli.EXIT_OK
        assumption_report(m, h, omega)
    after = non_resonance_max_N.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 11)


def test_sigma_of_impulse_method_is_one():
    m = METHODS["ERKN2"]
    for nu in (0.0, 1.0, 5.0, 9.3):
        assert abs(sigma(m, nu) - 1.0) <= 1e-12


def test_sigma_frozen_sample_values():
    assert sigma(METHODS["ERKN3"], 5.0) == pytest.approx(1.5580423125717253, rel=1e-13)
    assert sigma(METHODS["ERKN4"], 5.0) == pytest.approx(4.177303863896699, rel=1e-13)


def test_sigma_evaluates_sinc_once_per_argument(monkeypatch):
    """sigma reuses sinc(nu) in both terms: one sinc call at nu and one at
    nu/2, with the bits of the formula that evaluates sinc(nu) twice."""
    calls = []
    monkeypatch.setattr(verify, "sinc", lambda x: calls.append(x) or sinc(x))
    for m in METHODS.values():
        for nu in (0.0, 0.3, 5.0, 9.3):
            calls.clear()
            bb, bw = m.bbar(nu), m.b(nu)
            want = (sinc(nu) * math.cos(0.5 * nu) / (2.0 * bb)
                    + nu * nu * sinc(nu) * (0.5 * sinc(0.5 * nu)) / (2.0 * bw))
            assert sigma(m, nu).hex() == want.hex(), (m.name, nu)
            assert calls == [nu, 0.5 * nu]


def test_sigma_rejects_vanishing_weights():
    # at nu = pi the weight cos(nu/2) crosses zero
    with pytest.raises(ZeroCoefficient):
        sigma(METHODS["ERKN2"], math.pi)


def test_sigma_bound_check():
    assert assumption_report(METHODS["ERKN2"], 0.1, 50.0).sigma_pass
    # sigma(ERKN4, 5) = 4.18 lies outside [0.1, 2]
    assert not assumption_report(METHODS["ERKN4"], 0.1, 50.0, sigma_hi=2.0).sigma_pass


def test_assumption_report_fields():
    rep = assumption_report(METHODS["ERKN2"], 0.1, 50.0)
    assert rep.max_N == 4
    assert rep.h_omega == 5.0
    assert rep.h_condition_pass
    assert rep.sigma_at_0 == pytest.approx(1.0, abs=1e-12)
    assert rep.sigma_at_nu == pytest.approx(1.0, abs=1e-12)
    assert rep.sigma_pass
    assert rep.sigma_error is None


@pytest.mark.parametrize("name", list(METHODS))
@pytest.mark.parametrize("lo, hi", [(0.1, 10.0), (0.1, 2.0), (-5.0, -0.5)])
def test_assumption_report_evaluates_sigma_once_per_point(name, lo, hi):
    """sigma(0) and sigma(h*omega) are evaluated once each (one b and one bbar
    call per point), and the verdict is the bound test on those two values:
    sigma or -sigma in [lo, hi] at both."""
    m, calls = METHODS[name], []
    counted = dataclasses.replace(m, b=lambda nu: calls.append(nu) or m.b(nu))
    for h, omega in ((0.1, 50.0), (0.03, 333.0), (0.2, 7.0)):
        calls.clear()
        rep = assumption_report(counted, h, omega, sigma_lo=lo, sigma_hi=hi)
        assert calls == [0.0, h * omega]
        s0, s1 = sigma(m, 0.0), sigma(m, h * omega)
        assert rep.sigma_pass == (lo <= s0 <= hi and lo <= s1 <= hi
                                  or lo <= -s0 <= hi and lo <= -s1 <= hi)
        assert (rep.sigma_at_0, rep.sigma_at_nu) == (s0, s1)


@pytest.mark.parametrize("h, omega, bounds", [
    (math.nan, 50.0, {}), (0.0, 50.0, {}), (-0.1, 50.0, {}), (0.1, -1.0, {}),
    (0.1, math.inf, {}), (1e200, 1e200, {}), (0.1, 50.0, {"c": 0.0}), (0.1, 50.0, {"c": -1.0}),
    (0.1, 50.0, {"c0": math.nan}), (0.1, 50.0, {"sigma_lo": math.nan}),
    (0.1, 50.0, {"sigma_hi": math.nan}),
])
def test_assumption_report_refuses_invalid_input(h, omega, bounds):
    msg = "need finite numbers with h > 0, omega >= 0 and c > 0"
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        assumption_report(METHODS["ERKN2"], h, omega, **bounds)


def test_assumption_report_survives_resonant_nu():
    rep = assumption_report(METHODS["ERKN2"], math.pi, 1.0)
    assert rep.sigma_error is not None
    assert not rep.sigma_pass
    assert math.isnan(rep.sigma_at_nu)


def test_drift_series_time_grid(fpu3):
    rows = drift_series(METHODS["ERKN2"], fpu3, 0.1, 1.0)
    assert rows.shape == (11, 5)
    assert tuple(rows[0]) == (0.0, 2.00120008, 1.0, 0.0, 0.0)  # t, H, I, dH, dI
    assert rows[-1, 0] == pytest.approx(1.0)


def test_drift_series_stride_keeps_final_row(fpu3):
    rows = drift_series(METHODS["ERKN2"], fpu3, 0.1, 1.0, stride=3)
    assert rows[:, 0] == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])


def test_drift_series_validation(fpu3):
    with pytest.raises(ValueError):
        drift_series(METHODS["ERKN2"], fpu3, -0.1, 1.0)
    with pytest.raises(ValueError):
        drift_series(METHODS["ERKN2"], fpu3, 0.1, 0.05)
    with pytest.raises(ValueError):
        drift_series(METHODS["ERKN2"], fpu3, 0.1, 1.0, stride=0)
    bare = System(
        partition=fpu3.partition,
        potential=fpu3.potential,
        force=fpu3.force,
        label="no-start",
    )
    with pytest.raises(ValueError):
        drift_series(METHODS["ERKN2"], bare, 0.1, 1.0)


def test_a_start_of_the_wrong_size_is_refused_before_any_step(fpu3):
    calls = []
    short = dataclasses.replace(fpu3, initial=State([1.0], [1.0]),
                                force=lambda q: calls.append(q) or fpu3.force(q))
    with pytest.raises(ValueError, match="state does not match system partition"):
        drift_check(short, 0.1, 1.0)
    for method in (METHODS["ERKN2"], trig_method_from(METHODS["ERKN2"])):
        with pytest.raises(ValueError, match="state does not match system partition"):
            drift_series(method, short, 0.1, 1.0)
    assert calls == []


def test_the_engine_checks_its_own_step_count_before_any_step(fpu3):
    """`drift_engine` checks its cells with `drift_check` at its own h, t_end
    and stride: 10^13 steps exceed MAX_STEPS, refused before the force is called."""
    calls = []
    counted = dataclasses.replace(fpu3, force=lambda q: calls.append(q) or fpu3.force(q))
    with pytest.raises(ValueError, match=f"need at most {verify.MAX_STEPS} steps"):
        drift_engine([(METHODS["ERKN2"], counted)], 0.1, 1e12)
    assert calls == []


def test_a_nan_start_is_refused_before_any_step():
    """A nan entry in the start was reported as a blow-up at step 1; it is an
    invalid start, refused with the system's name before the force is called."""
    calls = []
    lattice = fpu_system(3, 50.0)
    nan_start = dataclasses.replace(
        lattice, initial=State([math.nan, 0, 0, 0.02, 0, 0], [1, 0, 0, 1, 0, 0]),
        force=lambda q: calls.append(q) or lattice.force(q))
    for method in (METHODS["ERKN2"], trig_method_from(METHODS["ERKN2"])):
        with pytest.raises(ValueError, match=r"'fpu\(m=3, omega=50\)' has a non-finite initial"):
            drift_series(method, nan_start, 0.1, 1.0)
    assert calls == []


def test_an_inf_start_is_refused_before_any_step():
    rotation = linear_system(Partition(1, 2, 4.0))
    for q, p in (([0.0, math.inf, 0.0], [1.0, 0.0, 0.0]), ([0.0, 0.0, 0.0], [0.0, 0.0, -math.inf])):
        inf_start = dataclasses.replace(rotation, initial=State(q, p))
        with pytest.raises(ValueError, match=re.escape(f"{rotation.label!r} has a non-finite")):
            drift_check(inf_start, 0.1, 1.0)
        with pytest.raises(ValueError, match="non-finite initial state"):
            drift_series(METHODS["ERKN3"], inf_start, 0.1, 1.0)


def test_drift_series_reports_blow_up():
    """An unstable stepsize overflows the quartic force; the partial series
    up to the last finite state is preserved on the exception. The energies
    of the last finite states may already overflow to inf, so only the time
    column is checked: the sampled grid, ending before the blow-up."""
    sys = fpu_system(3, 50.0)
    with pytest.raises(NonFiniteState) as exc_info:
        drift_series(METHODS["ERKN2"], sys, 1.0, 50.0)
    rows = exc_info.value.rows
    t_blowup = float(re.search(r"\(t = ([^)]*)\)", str(exc_info.value)).group(1))
    assert rows.shape[0] >= 1 and rows.shape[1] == 5
    assert rows[:, 0].tolist() == [float(i) for i in range(len(rows))]  # stride 1, h = 1
    assert rows[-1, 0] < t_blowup


def test_drift_stats_windows():
    rows = np.array([
        (0.0, 1.0, 1.0, 0.0, 0.0),
        (1.0, 1.0, 1.0, 1.0, 0.5),
        (2.0, 1.0, 1.0, -0.5, 0.5),
        (3.0, 1.0, 1.0, 0.25, 0.5),
        (4.0, 1.0, 1.0, -2.0, 0.5),
    ])
    st = drift_stats(rows)
    assert st.max_dH == 2.0
    assert st.max_dI == 0.5
    # first window covers t <= 2 (max 1.0), second t in (2, 4] (max 2.0)
    assert st.window_ratio_H == 2.0
    assert st.window_ratio_I == 1.0


def test_drift_stats_edge_rules():
    flat = [(float(t), 1.0, 1.0, 0.0, 0.0) for t in range(5)]
    st = drift_stats(flat)
    assert st.window_ratio_H == 1.0
    grow = [(float(t), 1.0, 1.0, 0.0 if t < 3 else 1.0, 0.0) for t in range(5)]
    assert drift_stats(grow).window_ratio_H == math.inf
    with pytest.raises(ValueError):
        drift_stats([])


def old_drift_stats(rows):
    """The implementation that came before, four maxima and an any() per series."""
    if len(rows) == 0:
        raise ValueError("empty drift series")
    t, _, _, dh, di = np.asarray(rows, dtype=float).T
    abs_dh = np.abs(dh)
    abs_di = np.abs(di)
    first = t <= 0.5 * (t[0] + t[-1])

    def window_ratio(vals):
        a = float(np.max(vals[first]))
        b = float(np.max(vals[~first])) if (~first).any() else 0.0
        if a == 0.0:
            return 1.0 if b == 0.0 else math.inf
        return b / a

    return verify.DriftStats(float(np.max(abs_dh)), float(np.max(abs_di)),
                             window_ratio(abs_dh), window_ratio(abs_di))


def stats_outcome(fn, rows):
    """fn(rows) as float.hex strings, or the type of the error it raises."""
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            return [x.hex() for x in dataclasses.astuple(fn(rows))]
        except ValueError as exc:
            return type(exc)


ODD = st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])


@PROPERTY
@given(st.lists(st.tuples(st.floats(-10.0, 10.0) | ODD, st.floats(-1e3, 1e3) | ODD,
                          st.floats(-1e3, 1e3) | ODD),
                min_size=1, max_size=12),
       st.sampled_from(["random", "zero first", "zero second", "sorted"]))
@example([(0.0, 0.5, -0.25)], "random")  # a single row
@example([(0.0, 1.0, 0.0), (1.0, math.inf, 2.0), (2.0, math.nan, 1.0)], "zero first")
@example([(3.0, 1.0, 0.0), (1.0, -2.0, math.nan), (2.0, 0.0, -math.inf)], "random")
def test_drift_stats_equals_the_former_implementation(draws, shape):
    """Random rows (unsorted t, nan and inf anywhere, a single row), and rows
    whose first or second window is all zero; the former implementation, on
    the same rows, is the oracle, bit for bit and error for error."""
    rows = np.array([(t, 1.0, 2.0, dh, di) for t, dh, di in draws])
    if shape != "random":
        rows[:, 0] = np.arange(len(rows), dtype=float)
        first = rows[:, 0] <= 0.5 * (len(rows) - 1)
        if shape != "sorted":
            rows[first if shape == "zero first" else ~first, 3:] = 0.0
    want = stats_outcome(old_drift_stats, rows)
    assert stats_outcome(drift_stats, rows) == want
    assert stats_outcome(drift_stats, rows.tolist()) == want


def test_trig_scheme_runs_through_drift_series(fpu3):
    tm = trig_method_from(METHODS["ERKN2"])
    rows = drift_series(tm, fpu3, 0.1, 5.0)
    assert rows.shape == (51, 5)
    assert np.isfinite(rows[:, 3]).all()
