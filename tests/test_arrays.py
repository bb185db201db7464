"""Float-or-array weights: one numpy call over a grid gives the bits of the
scalar calls, point by point.

`sinc`, `cos` and `power` take a scalar (by `math`) or an ndarray (by libm's
functions through numpy), and the registry's weights are written with them,
so `structure_reports` evaluates each weight once on the grid array. A weight
that rejects arrays is evaluated point by point instead.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erkn import METHODS, NU_GRID, check_symmetry, check_symplecticity, symplectic
from erkn.methods import structure_reports
from erkn.oscfun import cos, power, sinc

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SWITCH = 1e-2  # the Taylor switch of sinc
EDGES = [0.0, -0.0, SWITCH, -SWITCH, math.nextafter(SWITCH, 0.0), math.nextafter(SWITCH, 1.0),
         -math.nextafter(SWITCH, 0.0), 5e-324, -5e-324, 2.2250738585072014e-308, 1e-160,
         1e4, -1e4, math.pi, 2.0 * math.pi]
nus = st.lists(st.sampled_from(EDGES) | st.floats(-1e4, 1e4) | st.floats(-0.05, 0.05)
               | st.floats(0.0095, 0.0105) | st.floats(-0.0105, -0.0095), max_size=40)


def same_bits(f, xs: list) -> None:
    """f on the array of xs equals f on each x, by bytes, and gives an array."""
    got = f(np.array(xs, dtype=float))
    assert isinstance(got, np.ndarray) and got.shape == (len(xs),)
    want = np.array([f(x) for x in xs], dtype=float)
    assert got.tobytes() == want.tobytes(), [(x, a.hex(), b.hex()) for x, a, b in
                                             zip(xs, got.tolist(), want.tolist()) if a != b]


@PROPERTY
@given(nus)
def test_the_primitives_give_the_scalar_bits_on_arrays(xs):
    for f in (sinc, cos, lambda x: power(x, 2), lambda x: power(x, 3), lambda x: power(sinc(x), 2)):
        same_bits(f, xs)


@PROPERTY
@given(nus, st.floats(0.05, 0.95), st.floats(-3.0, 3.0))
def test_every_registry_weight_gives_the_scalar_bits_on_arrays(xs, c1, d1):
    members = [*METHODS.values(), symplectic("S", c1), symplectic("S", c1, d1)]
    for m in members:
        same_bits(m.b, xs)
        same_bits(m.bbar, xs)


def test_scalars_keep_the_math_path():
    """A float, an int and an np.float64 go through `math`: the result is a
    Python float (or int for an int power) equal to the math expression."""
    for x in (0.7, 3, np.float64(0.7), 0.004):
        assert type(cos(x)) is float and cos(x) == math.cos(x)
        assert type(sinc(x)) in (float, np.float64) and not isinstance(sinc(x), np.ndarray)
        assert power(x, 3) == x ** 3
    assert sinc(0.7) == math.sin(0.7) / 0.7 and sinc(-0.0) == 1.0
    for x in (0.7, 0.004, -0.0):  # a 0-d array is a scalar here
        assert sinc(np.array(x)) == sinc(x) and cos(np.array(x)) == cos(x)


@pytest.mark.parametrize("name", list(METHODS))
def test_a_scalar_only_weight_is_evaluated_point_by_point(name):
    """A weight that raises on an array (TypeError from math.cos, ValueError
    from a branch on nu) or returns a float for it is called once per grid
    point with a float, and the report equals that of the array path."""
    m, seen = METHODS[name], []

    def b(nu):
        seen.append(type(nu))
        return math.cos(0.0 * nu) * m.b(nu)

    scalar = dataclasses.replace(m, b=b, bbar=lambda nu: m.bbar(nu) if nu >= 0.0 else math.nan)
    constant = dataclasses.replace(m, bbar=lambda nu: m.bbar(0.0))
    per_point = dataclasses.replace(m, bbar=lambda nu: math.cos(0.0 * nu) * m.bbar(0.0))
    for grid in (NU_GRID, np.linspace(10.1, 90.0, 300)):
        seen.clear()
        assert structure_reports(scalar, grid) == structure_reports(m, grid)
        assert seen == [float, np.ndarray] + [float] * len(grid)  # b(0), the array, each point
        assert structure_reports(constant, grid) == structure_reports(per_point, grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_grid_point_is_refused(bad):
    """Both checkers and the reports that bundle them refuse a grid with a nan
    or inf point, naming the first one, instead of skipping it or failing in
    `math`."""
    m = METHODS["ERKN3"]
    for grid in ([bad], [0.5, bad, 2.0, -bad], np.array([1.0, 2.0, bad])):
        for checker in (check_symmetry, check_symplecticity, structure_reports):
            with pytest.raises(ValueError, match=f"^non-finite grid point nu = {bad}$"):
                checker(m, grid)
