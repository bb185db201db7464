"""Scalar trigonometric kernels and their blockwise use as matrix functions.

The frequency matrix of the problem is Omega = diag(0, omega*I), so every
matrix function f(h*Omega) that the integrators need reduces to exactly two
scalar values: f(0) for the slow block and f(h*omega) for the fast one.
Nothing in this package ever materializes a matrix.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .systems import Partition

# Below this the Taylor polynomial is already accurate to ~1e-18, and the
# direct quotient starts to waste digits.
_SINC_SWITCH = 1e-2


def sinc(x: float) -> float:
    """sin(x)/x, continued through x = 0.

    Evaluated on |x| so the result is even in x bit-for-bit; near zero a
    4-term Taylor polynomial replaces the quotient.
    """
    ax = abs(x)
    if ax < _SINC_SWITCH:
        x2 = ax * ax
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    return math.sin(ax) / ax


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


def block_expand(f: Callable[[float], float], part: Partition, nu: float) -> np.ndarray:
    """Diagonal of f(h*Omega) at nu = h*omega: f(0) on the slow block and
    f(nu) on the fast one, expanded for repeated elementwise use."""
    out = np.full(part.dim, f(nu))
    out[: part.d1] = f(0.0)
    return out
