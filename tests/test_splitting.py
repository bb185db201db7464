"""Splitting flows, the kick filter, and the conjugate trigonometric scheme."""

import dataclasses
import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erkn import (
    METHODS,
    NU_GRID,
    ErknMethod,
    NonSymmetricMethod,
    Partition,
    State,
    check_symmetry,
    conjugacy_check,
    erkn_step,
    flow_kick,
    flow_linear,
    fpu_system,
    linear_system,
    sinc,
    strang_lnl_step,
    trig_method_from,
    trig_step_composed,
    trig_stepper,
    upsilon_from,
)
from erkn.cli import cmd_check
from erkn.methods import nu_grid_reports
from erkn.splitting import FILTER_POLE_TOL, filter_refusal

SYMMETRIC = ("ERKN2", "ERKN3", "ERKN4")


def sup_dev(a, b):
    return max(np.max(np.abs(a.q - b.q)), np.max(np.abs(a.p - b.p)))


def test_linear_flow_quarter_rotation():
    part = Partition(d1=0, d2=1, omega=50.0)
    s = State(q=np.array([1.0]), p=np.array([0.0]))
    out = flow_linear(part, (math.pi / 2) / 50.0, s)
    assert abs(out.q[0]) < 1e-15
    assert out.p[0] == -50.0


def test_linear_flow_preserves_oscillatory_energy():
    part = Partition(d1=1, d2=2, omega=50.0)
    rng = np.random.default_rng(23)
    s = State(q=rng.standard_normal(3), p=rng.standard_normal(3))
    e0 = 0.5 * float(s.p @ s.p) + 0.5 * 50.0**2 * float(s.q[1:] @ s.q[1:])
    for _ in range(50):
        s = flow_linear(part, 0.07, s)
        e = 0.5 * float(s.p @ s.p) + 0.5 * 50.0**2 * float(s.q[1:] @ s.q[1:])
        assert abs(e - e0) <= 1e-14 * e0
        e0 = e


def test_linear_flow_composes(fpu3):
    part = fpu3.partition
    s = fpu3.initial
    a = flow_linear(part, 0.05, flow_linear(part, 0.05, s))
    b = flow_linear(part, 0.1, s)
    for got, want in ((a.q, b.q), (a.p, b.p)):
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)) + 5e-324)


def test_linear_flow_mode_jacobian_is_symplectic():
    # per fast mode the map is [[cos, h sinc], [-w sin, cos]]; its determinant
    # is cos^2 + sin^2 since h sinc(hw) w = sin(hw)
    for h, w in ((0.1, 50.0), (0.5, 2.0), (0.013, 200.0)):
        nu = h * w
        det = math.cos(nu) ** 2 + (h * sinc(nu)) * (w * math.sin(nu))
        assert abs(det - 1.0) <= 4 * np.spacing(1.0)


def test_kick_leaves_positions_alone(fpu3):
    ups = upsilon_from(METHODS["ERKN2"])
    s = fpu3.initial
    out = flow_kick(fpu3, ups, 0.1, s)
    assert out.q.tobytes() == s.q.tobytes()
    assert np.any(out.p != s.p)


def test_kick_uses_caller_supplied_filter_argument(fpu3):
    """Half-increment kicks still evaluate the filter at the full step's nu."""
    ups = upsilon_from(METHODS["ERKN3"])
    s = fpu3.initial
    h, nu = 0.1, 5.0
    half = flow_kick(fpu3, ups, h / 2, s, nu=nu)
    g = fpu3.force(s.q)
    want = s.p.copy()
    want[:3] += (h / 2) * ups(0.0) * g[:3]
    want[3:] += (h / 2) * ups(nu) * g[3:]
    np.testing.assert_allclose(half.p, want, rtol=1e-15)


def test_filter_identities():
    grid = [0.1 * k for k in range(101)]
    u2 = upsilon_from(METHODS["ERKN2"])
    u3 = upsilon_from(METHODS["ERKN3"])
    u4 = upsilon_from(METHODS["ERKN4"])
    for nu in grid:
        assert abs(u2(nu) - 1.0) <= 1e-12
        assert abs(u3(nu) - math.cos(nu / 2) ** 2) <= 1e-12
        assert abs(u4(nu) - sinc(nu / 2)) <= 1e-12


def test_filter_rejects_unsuitable_methods():
    """ERKN1 fails the symmetry relation and is refused with its residual;
    ERKN5 and ERKN6 are refused for their node, which is tested first."""
    residual = check_symmetry(METHODS["ERKN1"]).max_residual
    with pytest.raises(NonSymmetricMethod,
                       match=f"^symmetry residual {residual:.3e} exceeds 1e-12 on the grid$"):
        upsilon_from(METHODS["ERKN1"])
    for name in ("ERKN5", "ERKN6"):
        with pytest.raises(NonSymmetricMethod, match="^the kick filter needs c1 = 1/2, got c1 = "):
            upsilon_from(METHODS[name])


def test_the_default_grid_is_scanned_once_per_method(fpu3):
    """The NU_GRID report is memoised per method (`nu_grid_reports`, which
    `check` reads too): a second `upsilon_from` makes no grid scan, and
    neither do the trig scheme, the Strang step and the conjugacy check."""
    calls = []
    erkn2 = METHODS["ERKN2"]
    m = dataclasses.replace(erkn2, name="counted",
                            b=lambda nu: calls.append(nu) or erkn2.b(nu))
    upsilon_from(m)
    assert sum(map(np.size, calls)) > len(NU_GRID)  # the first call scans the grid's points
    calls.clear()
    ups = upsilon_from(m)
    trig_method_from(m)
    strang_lnl_step(m, fpu3, 0.1, fpu3.initial)
    conjugacy_check(m, fpu3, 0.1, fpu3.initial, 2)
    assert set(calls) == {0.0, 0.1 * fpu3.partition.omega}  # the two blocks' nu only
    calls.clear()
    assert ups(1.0) == erkn2.b(1.0) / math.cos(0.5) and calls == [1.0]
    assert nu_grid_reports.cache_info().maxsize == len(METHODS)


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_conjugacy_check_makes_n_plus_one_force_calls(n):
    """A kick after a kick reuses g(q): n + 1 force calls for both wrapped
    forms, counted with a force that has no `bind` (so the plain-force
    fallback copies its results), with the bits of the bound force."""
    sys_ = fpu_system(3, 80.0)
    calls = []

    def counted(q):
        calls.append(q.copy())
        return sys_.force(q)

    plain = dataclasses.replace(sys_, force=counted)
    for name in SYMMETRIC:
        m, s = METHODS[name], sys_.initial
        calls.clear()
        got = conjugacy_check(m, plain, 0.07, s, n)
        assert len(calls) == n + (n + 1), name  # n method steps, then the wrapped forms
        assert got == conjugacy_check(m, sys_, 0.07, s, n)


def test_conjugacy_check_streams_its_moves():
    """The wrapped forms' 3n moves are streamed, not held: the traced peak of
    a 2000-step check exceeds that of a 500-step one by less than 16 KiB,
    where holding every move adds about 74 KiB."""
    sys_, m = fpu_system(3, 80.0), METHODS["ERKN2"]
    conjugacy_check(m, sys_, 0.07, sys_.initial, 1)  # the memoised filter scan, untraced
    peaks = []
    for n in (500, 2000):
        tracemalloc.start()
        try:
            conjugacy_check(m, sys_, 0.07, sys_.initial, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * 1024, peaks


def perturbed_erkn2(eps: float, freq: float, phase: float):
    """ERKN2 with b scaled by 1 + eps g(nu), g(nu) = cos(freq nu + phase)."""
    erkn2 = METHODS["ERKN2"]
    return dataclasses.replace(
        erkn2, name="perturbed", b=lambda nu: erkn2.b(nu) * (1.0 + eps * math.cos(freq * nu + phase)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.just(0.0), st.floats(1e-10, 1.0)), st.floats(0.0, 3.0),
       st.floats(0.0, 2.0 * math.pi), st.floats(10.0, 200.0, exclude_min=True))
def test_the_kick_filter_exists_exactly_when_the_method_is_symmetric(check_grid, eps, freq,
                                                                    phase, nu):
    """On NU_GRID `upsilon_from` returns exactly when `check_symmetry` passes,
    on `check`'s grid to nu `filter_refusal` refuses exactly when it fails, and
    `check`'s kick-filter line says what `filter_refusal` does on that grid."""
    m = perturbed_erkn2(eps, freq, phase)
    try:
        ups = upsilon_from(m)
    except NonSymmetricMethod:
        ups = None
    assert (ups is not None) == check_symmetry(m, NU_GRID).passed, eps
    sym = check_symmetry(m, check_grid(nu))
    refusal = filter_refusal(m, sym)
    assert (refusal is None) == sym.passed, (nu, eps)
    line = (f"kick filter: NonSymmetricMethod: perturbed: {refusal}" if refusal is not None
            else f"kick filter: available (Upsilon(0) = {ups(0.0):g})")
    buf = io.StringIO()
    with mock.patch.dict(METHODS, perturbed=m):
        assert cmd_check("perturbed", h=1.0, omega=nu, out=buf) == 0
    assert line in buf.getvalue().splitlines()


def test_filter_inconsistency_size():
    # the two extraction routes disagree by |1 - sinc(1)| at nu = 2
    m = METHODS["ERKN1"]
    dev = abs(m.b(2.0) / math.cos(1.0) - 2.0 * m.bbar(2.0) / sinc(1.0))
    assert dev == pytest.approx(1.0 - sinc(1.0), rel=1e-12)


def test_impulse_filter_is_one_at_pi():
    """At nu = pi, where cos(nu/2) vanishes, ERKN2's filter is 2 bbar/sinc(nu/2) = 1."""
    assert upsilon_from(METHODS["ERKN2"])(math.pi) == 1.0


# A symmetric method written by hand, with filter exp(-nu^2/100): b = Upsilon cos(nu/2)
# and bbar = Upsilon sinc(nu/2)/2, on float weights only
HAND = ErknMethod("hand", 0.5, bbar=lambda nu: 0.5 * sinc(0.5 * nu) * math.exp(-0.01 * nu * nu),
                  b=lambda nu: math.cos(0.5 * nu) * math.exp(-0.01 * nu * nu))


def test_the_filter_and_both_routes_hold_where_cos_half_nu_vanishes():
    """At h*omega = (2k+1) pi the filter is 2 bbar(nu)/sinc(nu/2), bit for bit,
    and the Strang step and the conjugate scheme match the method there; off
    that band it is b(nu)/cos(nu/2), bit for bit, as before."""
    h = 0.1
    for m in [*(METHODS[n] for n in SYMMETRIC), HAND]:
        ups = upsilon_from(m)
        for k in (0, 1, 5):
            nu = (2 * k + 1) * math.pi
            sys = fpu_system(3, nu / h)
            assert abs(math.cos(0.5 * h * sys.partition.omega)) < FILTER_POLE_TOL
            assert ups(nu).hex() == (2 * m.bbar(nu) / sinc(nu / 2)).hex(), (m.name, k)
            assert conjugacy_check(m, sys, h, sys.initial, n=100).max_deviation <= 1e-9, (m.name, k)
            a, b = strang_lnl_step(m, sys, h, sys.initial), erkn_step(m, sys, h, sys.initial)
            assert sup_dev(a, b) <= 1e-14, (m.name, k)
        for nu in (0.01 * k for k in range(10001)):
            if abs(math.cos(nu / 2)) >= FILTER_POLE_TOL:
                assert ups(nu).hex() == (m.b(nu) / math.cos(nu / 2)).hex(), (m.name, nu)


def test_connection_identities_on_grid():
    """The filter reproduces both weight functions off the poles."""
    grid = [0.1 * k for k in range(101)]
    for name in SYMMETRIC:
        m = METHODS[name]
        ups = upsilon_from(m)
        for nu in grid:
            if abs(math.cos(nu / 2)) < 1e-6 or abs(sinc(nu / 2)) < 1e-6:
                continue
            u = ups(nu)
            assert abs(0.5 * sinc(nu / 2) * u - m.bbar(nu)) <= 1e-12
            assert abs(math.cos(nu / 2) * u - m.b(nu)) <= 1e-12


def test_strang_step_equals_one_stage_step(fpu3):
    s = fpu3.initial
    for name in SYMMETRIC:
        m = METHODS[name]
        a = strang_lnl_step(m, fpu3, 0.1, s)
        b = erkn_step(m, fpu3, 0.1, s)
        assert sup_dev(a, b) <= 1e-12


def test_strang_step_equals_one_stage_step_random_states(fpu3):
    rng = np.random.default_rng(11)
    for name in SYMMETRIC:
        m = METHODS[name]
        ups = upsilon_from(m)
        for _ in range(20):
            s = State(q=rng.standard_normal(6), p=rng.standard_normal(6))
            a = strang_lnl_step(m, fpu3, 0.1, s, upsilon=ups)
            b = erkn_step(m, fpu3, 0.1, s)
            assert sup_dev(a, b) <= 1e-12


def test_strang_without_force_is_pure_rotation():
    sys = linear_system(Partition(d1=1, d2=1, omega=50.0))
    s = sys.initial
    a = strang_lnl_step(METHODS["ERKN2"], sys, 0.1, s)
    b = flow_linear(sys.partition, 0.1, s)
    for got, want in ((a.q, b.q), (a.p, b.p)):
        assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)) + 5e-324)


def assert_kick_first_diagonals(tm, nu: float, u: float) -> None:
    """The step-map diagonals of a kick-first scheme with filter value u at
    nu (and Upsilon(0) = 1 on the slow block) at h = 0.1: its stage is the new
    position, it adds no force to q, its closing and carried half kicks are
    h/2 Upsilon, and the opening kick reaches q+ as h^2/2 sinc Upsilon and
    p+ as h/2 cos Upsilon."""
    h = 0.1
    c = tm.coefficients(Partition(d1=1, d2=1, omega=nu / h), h)
    assert np.array_equal(c.stage_q, c.cos) and np.array_equal(c.stage_p, c.hsinc)
    assert np.array_equal(c.wq, np.zeros(2)) and np.array_equal(c.kick, c.wp)
    assert c.wp == pytest.approx([0.5 * h, 0.5 * h * u], rel=1e-14)
    assert c.hsinc * c.kick == pytest.approx([0.5 * h * h, 0.5 * h * h * sinc(nu) * u],
                                             rel=1e-14)
    assert c.cos * c.kick == pytest.approx([0.5 * h, 0.5 * h * math.cos(nu) * u], rel=1e-14)


def test_trig_method_construction():
    tm = trig_method_from(METHODS["ERKN2"])
    assert tm.name == "trig:ERKN2"
    assert [f.name for f in dataclasses.fields(tm)] == ["name", "upsilon"]
    # impulse scheme: no inner filtering at all
    for nu in (0.0, 1.0, 5.0):
        assert tm.upsilon(nu) == pytest.approx(1.0, abs=1e-15)
        assert_kick_first_diagonals(tm, nu, 1.0)


def test_trig_filtered_variant_coefficients():
    tm = trig_method_from(METHODS["ERKN3"])
    nu = 5.0
    u = math.cos(nu / 2) ** 2
    assert tm.upsilon(nu) == pytest.approx(u, rel=1e-14)
    assert_kick_first_diagonals(tm, nu, u)


def test_trig_closed_form_matches_composition(fpu3):
    s = fpu3.initial
    for name in SYMMETRIC:
        tm = trig_method_from(METHODS[name])
        a = erkn_step(tm, fpu3, 0.1, s)
        b = trig_step_composed(tm, fpu3, 0.1, s)
        for got, want in ((a.q, b.q), (a.p, b.p)):
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)) + 5e-324)


def test_trig_forms_agree_on_random_states():
    """On arbitrary states individual components can cancel, so agreement is
    measured in ulps of the largest component rather than per entry."""
    rng = np.random.default_rng(7)
    for name in SYMMETRIC:
        tm = trig_method_from(METHODS[name])
        for _ in range(30):
            m = int(rng.integers(1, 4))
            w = float(rng.choice([2.0, 50.0, 200.0]))
            h = float(rng.choice([0.01, 0.1, 0.5]))
            sysr = fpu_system(m, w)
            s = State(q=rng.standard_normal(2 * m), p=rng.standard_normal(2 * m))
            a = erkn_step(tm, sysr, h, s)
            b = trig_step_composed(tm, sysr, h, s)
            for x, y in ((a.q, b.q), (a.p, b.p)):
                scale = np.spacing(max(np.max(np.abs(x)), np.max(np.abs(y))))
                assert np.max(np.abs(x - y)) <= 16 * scale


def test_trig_step_without_force_is_pure_rotation():
    sys = linear_system(Partition(d1=1, d2=1, omega=50.0))
    tm = trig_method_from(METHODS["ERKN2"])
    s = sys.initial
    a = erkn_step(tm, sys, 0.1, s)
    b = flow_linear(sys.partition, 0.1, s)
    assert sup_dev(a, b) <= 1e-15


def test_trig_step_is_symmetric(fpu3):
    s = fpu3.initial
    norm = max(np.max(np.abs(s.q)), np.max(np.abs(s.p)))
    for name in SYMMETRIC:
        tm = trig_method_from(METHODS[name])
        fwd = trig_stepper(tm, fpu3, 0.1)
        bwd = trig_stepper(tm, fpu3, -0.1)
        back = bwd(fwd(s))
        assert sup_dev(back, s) <= 1e-10 * (1.0 + norm)


def test_conjugacy_single_step(fpu3):
    for name in SYMMETRIC:
        rep = conjugacy_check(METHODS[name], fpu3, 0.1, fpu3.initial, 1)
        assert rep.max_deviation <= 1e-12


def test_conjugacy_long_product(fpu3):
    for name in SYMMETRIC:
        rep = conjugacy_check(METHODS[name], fpu3, 0.1, fpu3.initial, 100)
        assert rep.max_deviation <= 1e-9
        assert rep.max_deviation == max(rep.deviation_shifted, rep.deviation_interior)


def test_conjugacy_without_force():
    sys = linear_system(Partition(d1=1, d2=1, omega=50.0))
    rep = conjugacy_check(METHODS["ERKN2"], sys, 0.1, sys.initial, 50)
    assert rep.max_deviation <= 1e-12


def test_conjugacy_rejects_bad_step_count(fpu3):
    with pytest.raises(ValueError):
        conjugacy_check(METHODS["ERKN2"], fpu3, 0.1, fpu3.initial, 0)


def test_conjugacy_refuses_asymmetric_methods(fpu3):
    with pytest.raises(NonSymmetricMethod):
        conjugacy_check(METHODS["ERKN5"], fpu3, 0.1, fpu3.initial, 10)
