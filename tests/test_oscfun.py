"""Scalar oscillatory functions and the two-block diagonal calculus."""

import math
from fractions import Fraction

import numpy as np
import pytest

from erkn import Partition, block_expand, sinc


def phi_series(j: int, v: float, terms: int) -> float:
    """Truncated series sum_{k<terms} (-1)^k v^k / (2k+j)!.

    Independent oracle for the closed forms: j=0 tends to cos(sqrt(v)) and
    j=1 to sinc(sqrt(v)). Terms are built by recurrence, so neither v**k nor
    the factorial is ever formed on its own.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    if terms < 1:
        raise ValueError("need at least one term")
    term = 1.0 / math.factorial(j)
    total = term
    for k in range(1, terms):
        term *= -v / ((2 * k + j - 1) * (2 * k + j))
        total += term
    return total


def sinc_rational(x: float) -> float:
    # exact-rational Taylor sum, plenty of terms for |x| <= 1e-2
    fx = Fraction(x)
    x2 = fx * fx
    acc, term = Fraction(0), Fraction(1)
    for k in range(1, 12):
        acc += term
        term *= -x2 / (2 * k * (2 * k + 1))
    return float(acc + term)


def test_sinc_reference_points():
    assert sinc(0.0) == 1.0
    assert abs(sinc(math.pi)) < 1e-16
    assert sinc(5.0) == pytest.approx(-0.1917848549326277, abs=1e-15)


def test_sinc_equals_ratio_above_switch():
    for x in (0.02, 0.5, 1.0, 3.0, 9.7):
        assert sinc(x) == math.sin(x) / x


def test_sinc_accurate_below_switch():
    xs = np.linspace(-9.9e-3, 9.9e-3, 201)
    for x in xs:
        got = sinc(float(x))
        want = sinc_rational(float(x))
        assert abs(got - want) <= 2 * np.spacing(abs(want))


def test_sinc_is_even_bitwise():
    for x in np.linspace(0.0, 10.0, 501):
        assert sinc(float(x)) == sinc(float(-x))


def test_phi_series_matches_cos_and_sinc():
    # truncation at 30 terms is comfortably below 1e-12 on nu in [0, 10]
    grid = [0.1 * k for k in range(101)]
    for nu in grid:
        v = nu * nu
        assert phi_series(0, v, 30) == pytest.approx(math.cos(nu), abs=1e-12)
        assert phi_series(1, v, 30) == pytest.approx(sinc(nu), abs=1e-12)


def test_phi_series_second_kind():
    for nu in (0.5, 1.0, 4.0, 8.0):
        v = nu * nu
        want = (1.0 - math.cos(nu)) / v
        assert phi_series(2, v, 30) == pytest.approx(want, abs=1e-12)


def test_phi_series_at_zero_is_inverse_factorial():
    for j in range(6):
        assert phi_series(j, 0.0, 5) == pytest.approx(1.0 / math.factorial(j), rel=1e-15)


def test_phi_series_rejects_bad_arguments():
    with pytest.raises(ValueError):
        phi_series(-1, 1.0, 10)
    with pytest.raises(ValueError):
        phi_series(0, 1.0, 0)


def test_block_expand_layout():
    part = Partition(d1=2, d2=3, omega=4.0)
    arr = block_expand(part, 7.0, lambda nu: 1.5 - 0.5 * nu)  # f(0) slow, f(nu) fast
    np.testing.assert_array_equal(arr, [[1.5, 1.5, -2.0, -2.0, -2.0]])
    # one row per function, in order
    arr = block_expand(part, 7.0, lambda nu: 1.5 - 0.5 * nu, lambda nu: nu)
    np.testing.assert_array_equal(arr, [[1.5, 1.5, -2.0, -2.0, -2.0], [0, 0, 7, 7, 7]])
    # an empty slow block leaves only the fast value
    arr = block_expand(Partition(d1=0, d2=2, omega=4.0), 7.0, lambda nu: 1.5 - 0.5 * nu)
    np.testing.assert_array_equal(arr, [[-2.0, -2.0]])
