"""Method registry, structure checkers, and the one-stage step itself."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erkn import (
    METHODS,
    NU_GRID,
    Partition,
    State,
    System,
    check_symmetry,
    check_symplecticity,
    erkn_step,
    fpu_system,
    hamiltonian,
    sinc,
    stepper,
    symplectic,
)

SYMMETRIC = ("ERKN2", "ERKN3", "ERKN4")
SYMPLECTIC = ("ERKN2", "ERKN5", "ERKN6")


def test_registry_contents():
    assert tuple(METHODS) == ("ERKN1", "ERKN2", "ERKN3", "ERKN4", "ERKN5", "ERKN6")
    for name, m in METHODS.items():
        assert m.name == name
        assert m.b(0.0) == 1.0  # consistency: b1(0) = 1 for the whole family
    assert [METHODS[k].c1 for k in METHODS] == [0.5, 0.5, 0.5, 0.5, 0.4, 0.2]


def test_coefficients_at_sample_point():
    nu = 5.0
    assert METHODS["ERKN1"].bbar(nu) == pytest.approx(0.5 * sinc(2.5) ** 2, rel=1e-15)
    assert METHODS["ERKN2"].bbar(nu) == pytest.approx(0.5 * sinc(2.5), rel=1e-15)
    assert METHODS["ERKN3"].b(nu) == pytest.approx(math.cos(2.5) ** 3, rel=1e-15)
    assert METHODS["ERKN4"].b(nu) == pytest.approx(sinc(2.5) * math.cos(2.5), rel=1e-15)
    assert METHODS["ERKN5"].bbar(nu) == pytest.approx(0.6 * sinc(3.0), rel=1e-15)
    assert METHODS["ERKN6"].b(nu) == pytest.approx(math.cos(4.0), rel=1e-15)


def test_symmetry_classification():
    for name, m in METHODS.items():
        rep = check_symmetry(m)
        assert rep.passed == (name in SYMMETRIC), name
        if rep.passed:
            assert rep.max_residual <= 1e-12


def test_symmetry_residual_value():
    # frozen: |(1 + cos 2) bbar(2) - sinc(2) b(2)| for the double-filtered method
    m = METHODS["ERKN1"]
    res = abs((1 + math.cos(2.0)) * m.bbar(2.0) - sinc(2.0) * m.b(2.0))
    assert res == pytest.approx(0.03894229560898946, rel=1e-12)
    assert check_symmetry(m).max_residual >= res


def test_symplecticity_classification():
    for name, m in METHODS.items():
        rep = check_symplecticity(m)
        assert rep.passed == (name in SYMPLECTIC), name
        if rep.passed:
            assert rep.d1 == 1.0
            assert rep.max_residual <= 1e-12


def test_symplecticity_residual_value():
    # frozen: |cos^3(1) - cos(1)| = cos(1) sin^2(1)
    rep = check_symplecticity(METHODS["ERKN3"], grid=[2.0])
    assert not rep.passed
    assert rep.max_residual == pytest.approx(0.3825737006171463, rel=1e-12)


def test_checkers_include_nu_zero():
    """The checkers must see nu = 0 even when the caller's grid omits it."""
    rep = check_symmetry(METHODS["ERKN2"], grid=[1.0, 2.0])
    assert rep.passed
    # a made-up method that is fine on the grid but wrong at 0
    from erkn import ErknMethod

    bad = ErknMethod(name="bad", c1=0.5, bbar=lambda nu: 0.75 if nu == 0.0 else 0.5 * sinc(nu / 2), b=lambda nu: math.cos(nu / 2))
    assert not check_symmetry(bad, grid=[1.0, 2.0]).passed


def test_step_reduces_to_classical_rkn_when_omega_zero():
    """With no fast block the step is the classical one-stage explicit form."""
    part = Partition(d1=1, d2=1, omega=0.0)
    pot = lambda q: 0.5 * float(q @ q)
    force = lambda q: -q
    sys = System(partition=part, potential=pot, force=force, label="test")
    h = 0.3
    s = State(q=np.array([0.7, -0.2]), p=np.array([0.1, 0.4]))
    out = erkn_step(METHODS["ERKN2"], sys, h, s)
    mid = s.q + 0.5 * h * s.p
    np.testing.assert_allclose(out.q, s.q + h * s.p + 0.5 * h * h * (-mid), rtol=1e-15)
    np.testing.assert_allclose(out.p, s.p + h * (-mid), rtol=1e-15)


def test_step_is_exact_rotation_without_force():
    from erkn import linear_system

    part = Partition(d1=1, d2=1, omega=50.0)
    sys = linear_system(part)
    h = 0.1
    s = sys.initial
    nu = 5.0
    for m in METHODS.values():
        out = erkn_step(m, sys, h, s)
        want_q = np.array([s.q[0] + h * s.p[0], math.cos(nu) * s.q[1] + h * sinc(nu) * s.p[1]])
        want_p = np.array([s.p[0], -50.0 * math.sin(nu) * s.q[1] + math.cos(nu) * s.p[1]])
        for got, want in ((out.q, want_q), (out.p, want_p)):
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)) + 5e-324)


def test_single_step_energy_change_is_small(fpu3):
    s = fpu3.initial
    out = erkn_step(METHODS["ERKN2"], fpu3, 0.1, s)
    assert abs(hamiltonian(fpu3, out) - hamiltonian(fpu3, s)) <= 0.05


def test_one_step_error_decays_with_h():
    """Halving h cuts the one-step error by ~8x for the symmetric methods
    (third-order local error) and by ~2.8-4.5x for the two asymmetric ones.
    Measured on the soft-frequency lattice where nothing is stiff."""
    sys = fpu_system(3, 1.0)
    s0 = sys.initial

    def reference(t):
        n = 4000
        step = stepper(METHODS["ERKN2"], sys, t / n)
        s = s0
        for _ in range(n):
            s = step(s)
        return s

    refs = {h: reference(h) for h in (0.05, 0.025)}

    def err(m, h):
        a = erkn_step(m, sys, h, s0)
        b = refs[h]
        return max(np.max(np.abs(a.q - b.q)), np.max(np.abs(a.p - b.p)))

    for name in ("ERKN1", "ERKN2", "ERKN3", "ERKN4"):
        ratio = err(METHODS[name], 0.05) / err(METHODS[name], 0.025)
        assert 6.0 <= ratio <= 12.0, (name, ratio)
    for name in ("ERKN5", "ERKN6"):
        ratio = err(METHODS[name], 0.05) / err(METHODS[name], 0.025)
        assert 1.7 <= ratio <= 4.6, (name, ratio)


def test_step_is_deterministic(fpu3):
    s = fpu3.initial
    a = erkn_step(METHODS["ERKN4"], fpu3, 0.1, s)
    b = erkn_step(METHODS["ERKN4"], fpu3, 0.1, s)
    assert a.q.tobytes() == b.q.tobytes()
    assert a.p.tobytes() == b.p.tobytes()


def test_stepper_matches_single_step(fpu3):
    step = stepper(METHODS["ERKN3"], fpu3, 0.1)
    s = fpu3.initial
    a = step(s)
    b = erkn_step(METHODS["ERKN3"], fpu3, 0.1, s)
    assert a.q.tobytes() == b.q.tobytes()
    assert a.p.tobytes() == b.p.tobytes()


def test_step_rejects_wrong_dimension(fpu3):
    s = State(q=np.zeros(4), p=np.zeros(4))
    with pytest.raises(ValueError):
        erkn_step(METHODS["ERKN2"], fpu3, 0.1, s)


def test_default_grid():
    assert len(NU_GRID) == 101
    assert NU_GRID[0] == 0.0
    assert NU_GRID[-1] == pytest.approx(10.0)


FAMILY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@FAMILY
@given(st.one_of(st.just(0.5), st.floats(0.05, 0.95)), st.floats(0.5, 2.0))
def test_every_member_of_the_symplectic_family_is_symplectic(c1, d1):
    """`symplectic(name, c1, d1)` passes `check_symplecticity` with residual
    exactly 0 and d1 recovered; it is symmetric only at c1 = 1/2."""
    m = symplectic("s", c1, d1)
    rep = check_symplecticity(m)
    assert rep.passed and rep.max_residual == 0.0 and rep.d1 == d1
    assert check_symmetry(m).passed == (c1 == 0.5), c1


# ERKN2, ERKN5 and ERKN6 as the registry wrote them before they became
# `symplectic` members: test-only oracles of their (bbar, b) bits.
WRITTEN_OUT = {
    "ERKN2": (lambda nu: 0.5 * sinc(0.5 * nu), lambda nu: math.cos(0.5 * nu)),
    "ERKN5": (lambda nu: 0.6 * sinc(0.6 * nu), lambda nu: math.cos(0.6 * nu)),
    "ERKN6": (lambda nu: 0.8 * sinc(0.8 * nu), lambda nu: math.cos(0.8 * nu)),
}


def assert_written_out_bits(nus) -> None:
    for name, (bbar, b) in WRITTEN_OUT.items():
        m = METHODS[name]
        for nu in nus:
            got, want = (m.bbar(nu), m.b(nu)), (bbar(nu), b(nu))
            assert [x.hex() for x in got] == [x.hex() for x in want], (name, nu)


def test_the_symplectic_registry_members_keep_their_bits():
    assert_written_out_bits([40.0 * k / 4000 for k in range(4001)])


@FAMILY
@given(st.lists(st.floats(-200.0, 200.0), min_size=1, max_size=100))
def test_the_symplectic_registry_members_keep_their_bits_at_drawn_nu(nus):
    assert_written_out_bits(nus)
