"""Problem definitions: partition/state plumbing, energies, the quartic lattice."""

import numpy as np
import pytest

from erkn import (
    Partition,
    State,
    fpu_initial,
    fpu_system,
    hamiltonian,
    linear_system,
    oscillatory_energy,
)


def test_partition_validation():
    p = Partition(d1=2, d2=3, omega=50.0)
    assert p.dim == 5
    with pytest.raises(ValueError):
        Partition(d1=0, d2=0, omega=1.0)
    with pytest.raises(ValueError):
        Partition(d1=1, d2=1, omega=-2.0)
    with pytest.raises(ValueError):
        Partition(d1=-1, d2=1, omega=1.0)
    # omega = 0 degenerates to a plain second-order system, still allowed
    assert Partition(d1=1, d2=1, omega=0.0).omega == 0.0


def test_state_copies_its_arrays():
    q = np.array([1.0, 2.0])
    p = np.array([3.0, 4.0])
    s = State(q=q, p=p)
    q[0] = 99.0
    assert s.q[0] == 1.0
    # q and p are the rows of one (2, dim) array
    np.testing.assert_array_equal(s.z, [[1.0, 2.0], [3.0, 4.0]])
    assert np.shares_memory(s.q, s.z) and np.shares_memory(s.p, s.z)
    assert State([1, 2], [3, 4]).z.dtype == float


def test_states_compare_by_value_and_are_unhashable():
    a = State([1.0, 2.0], [3.0, 4.0])
    assert a == State(np.array([1.0, 2.0]), [3.0, 4.0])
    assert a != State([1.0, 2.0], [3.0, 5.0])
    assert a != State([1.0, 2.0, 0.0], [3.0, 4.0, 0.0])
    assert a != "state" and a != [[1.0, 2.0], [3.0, 4.0]]
    assert State([0.0], [1.0]) == State([-0.0], [1.0])
    assert State([np.nan], [1.0]) != State([np.nan], [1.0])
    with pytest.raises(TypeError):
        hash(a)


def test_state_shape_checks():
    with pytest.raises(ValueError):
        State(q=np.zeros(2), p=np.zeros(3))
    with pytest.raises(ValueError):
        State(q=np.zeros((2, 2)), p=np.zeros((2, 2)))


def test_fpu_initial_vectors():
    s = fpu_initial(3, 50.0)
    np.testing.assert_array_equal(s.q, [1.0, 0.0, 0.0, 1.0 / 50.0, 0.0, 0.0])
    np.testing.assert_array_equal(s.p, [1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        fpu_initial(0, 50.0)
    with pytest.raises(ValueError):
        fpu_initial(3, 0.0)


def test_fpu_initial_energies():
    """Starting energies of the benchmark configuration.

    H = 1/2(1 + 1) + 1/2*(omega * 1/omega)^2 + U0 with
    U0 = 1/4((1 - 1/50)^4 + (0 - 0 - 1 - 1/50)^4) = 0.50120008.
    """
    sys = fpu_system(3, 50.0)
    s = sys.initial
    assert hamiltonian(sys, s) == 2.00120008
    assert oscillatory_energy(sys.partition, s) == 1.0
    assert sys.potential(s.q) == pytest.approx(0.50120008, abs=1e-15)


def test_hamiltonian_is_the_sum_of_its_parts(fpu3):
    rng = np.random.default_rng(17)
    for _ in range(10):
        s = State(q=rng.standard_normal(6), p=rng.standard_normal(6))
        slow_kin = 0.5 * float(s.p[:3] @ s.p[:3])
        want = oscillatory_energy(fpu3.partition, s) + slow_kin + fpu3.potential(s.q)
        got = hamiltonian(fpu3, s)
        assert abs(got - want) <= 2 * np.spacing(abs(want))


def test_fpu_potential_hand_value():
    # q = e1: only the first and (i=1) middle terms survive, each equal to 1
    sys = fpu_system(3, 50.0)
    q = np.zeros(6)
    q[0] = 1.0
    assert sys.potential(q) == 0.5


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fpu_force_matches_central_difference(m):
    sys = fpu_system(m, 50.0)
    rng = np.random.default_rng(100 + m)
    eps = 1e-5
    for _ in range(100):
        q = rng.uniform(-1.0, 1.0, size=2 * m)
        g = sys.force(q)
        for i in range(2 * m):
            qp, qm = q.copy(), q.copy()
            qp[i] += eps
            qm[i] -= eps
            fd = (sys.potential(qp) - sys.potential(qm)) / (2 * eps)
            assert abs(g[i] + fd) <= 1e-6


def test_fpu_labels_and_validation():
    assert fpu_system(3, 50.0).label == "fpu(m=3, omega=50)"
    with pytest.raises(ValueError):
        fpu_system(0, 50.0)
    with pytest.raises(ValueError):
        fpu_system(2, -1.0)


def test_linear_system_has_zero_force():
    part = Partition(d1=1, d2=1, omega=50.0)
    sys = linear_system(part)
    rng = np.random.default_rng(2)
    q = rng.standard_normal(2)
    np.testing.assert_array_equal(sys.force(q), np.zeros(2))
    assert sys.potential(q) == 0.0
    np.testing.assert_array_equal(sys.initial.q, [1.0, 1.0 / 50.0])
    np.testing.assert_array_equal(sys.initial.p, [1.0, 1.0])
