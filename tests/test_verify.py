"""Structure probes, assumption checkers, and drift bookkeeping."""

import dataclasses
import math
import re

import numpy as np
import pytest

from erkn import (
    METHODS,
    NonFiniteState,
    Partition,
    State,
    System,
    ZeroCoefficient,
    adjoint_defect,
    assumption_report,
    conjugacy_check,
    drift_coefficients,
    drift_series,
    drift_stats,
    fpu_system,
    hamiltonian,
    linear_system,
    non_resonance_max_N,
    oscillatory_energy,
    sigma,
    sigma_bound_check,
    stepper,
    structure_defects,
    symplecticity_defect,
    trig_method_from,
)


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


def test_symplecticity_defect_validates_eps(fpu3):
    for eps in (0.0, -1e-5, math.nan, math.inf):
        with pytest.raises(ValueError):
            symplecticity_defect(METHODS["ERKN2"], fpu3, 0.1, fpu3.initial, fd_eps=eps)


def test_probes_reject_a_state_of_another_size(fpu3):
    """A 1-d state would broadcast against the 6-d lattice's coefficients."""
    small = State([1.0], [1.0])
    probes = [
        lambda: adjoint_defect(METHODS["ERKN2"], fpu3, 0.1, small),
        lambda: symplecticity_defect(METHODS["ERKN2"], fpu3, 0.1, small),
        lambda: conjugacy_check(METHODS["ERKN2"], fpu3, 0.1, small, 2),
        lambda: oscillatory_energy(fpu3.partition, small),
        lambda: hamiltonian(fpu3, small),
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


def test_non_resonance_caps_at_k_max():
    assert non_resonance_max_N(0.1, 50.0, 1e-12, k_max=500) == 500


def test_non_resonance_validation():
    with pytest.raises(ValueError):
        non_resonance_max_N(0.0, 50.0, 1.0)
    with pytest.raises(ValueError):
        non_resonance_max_N(0.1, 50.0, 0.0)


def test_sigma_of_impulse_method_is_one():
    m = METHODS["ERKN2"]
    for nu in (0.0, 1.0, 5.0, 9.3):
        assert abs(sigma(m, nu) - 1.0) <= 1e-12


def test_sigma_frozen_sample_values():
    assert sigma(METHODS["ERKN3"], 5.0) == pytest.approx(1.5580423125717253, rel=1e-13)
    assert sigma(METHODS["ERKN4"], 5.0) == pytest.approx(4.177303863896699, rel=1e-13)


def test_sigma_rejects_vanishing_weights():
    # at nu = pi the weight cos(nu/2) crosses zero
    with pytest.raises(ZeroCoefficient):
        sigma(METHODS["ERKN2"], math.pi)


def test_sigma_bound_check():
    assert sigma_bound_check(METHODS["ERKN2"], 5.0)
    assert not sigma_bound_check(METHODS["ERKN4"], 5.0, lo=0.1, hi=2.0)


def test_assumption_report_fields():
    rep = assumption_report(METHODS["ERKN2"], 0.1, 50.0)
    assert rep.max_N == 4
    assert rep.h_omega == 5.0
    assert rep.h_condition_pass
    assert rep.sigma_at_0 == pytest.approx(1.0, abs=1e-12)
    assert rep.sigma_at_nu == pytest.approx(1.0, abs=1e-12)
    assert rep.sigma_pass
    assert rep.sigma_error is None


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
    for method in (METHODS["ERKN2"], trig_method_from(METHODS["ERKN2"])):
        with pytest.raises(ValueError, match="state does not match system partition"):
            drift_coefficients(method, short, 0.1, 1.0)
        with pytest.raises(ValueError, match="state does not match system partition"):
            drift_series(method, short, 0.1, 1.0)
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
            drift_coefficients(METHODS["ERKN3"], inf_start, 0.1, 1.0)
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


def test_trig_scheme_runs_through_drift_series(fpu3):
    tm = trig_method_from(METHODS["ERKN2"])
    rows = drift_series(tm, fpu3, 0.1, 5.0)
    assert rows.shape == (51, 5)
    assert np.isfinite(rows[:, 3]).all()
