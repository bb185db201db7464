"""Float-or-array trigonometric kernels and their blockwise use as matrix functions.

The frequency matrix of the problem is Omega = diag(0, omega*I), so every
matrix function f(h*Omega) that the integrators need reduces to exactly two
scalar values: f(0) for the slow block and f(h*omega) for the fast one.
Nothing in this package ever materializes a matrix.

`sinc`, `cos` and `power` take a scalar (float, int or np.float64), by `math`,
or an ndarray, by libm through numpy: one call each, with the scalar bits.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .systems import Partition

# Below this the Taylor polynomial is already accurate to ~1e-18, and the
# direct quotient starts to waste digits.
_SINC_SWITCH = 1e-2


def sinc(x: float | np.ndarray) -> float | np.ndarray:
    """sin(x)/x, continued through x = 0.

    Evaluated on |x| so the result is even in x bit-for-bit; near zero a
    4-term Taylor polynomial replaces the quotient (for an array, at those
    points by the scalar path).
    """
    if isinstance(x, np.ndarray) and x.ndim > 0:  # a 0-d array is a scalar
        ax = np.abs(x)
        small, out = ax < _SINC_SWITCH, np.sin(ax)
        np.divide(out, ax, out=out, where=~small)
        if small.any():
            out[small] = [sinc(a) for a in ax[small].tolist()]
        return out
    ax = abs(x)
    if ax < _SINC_SWITCH:
        x2 = ax * ax
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0 - x2 * x2 * x2 / 5040.0
    return math.sin(ax) / ax


def cos(x: float | np.ndarray) -> float | np.ndarray:
    """cos(x), by `math` for a scalar and np.cos for an array."""
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def power(x: float | np.ndarray, k: int) -> float | np.ndarray:
    """x ** k by libm's pow (np.power's bits depend on the SIMD level)."""
    return np.float_power(x, k) if isinstance(x, np.ndarray) else x ** k


def expand_pairs(part: Partition, pairs: Sequence[float]) -> np.ndarray:
    """One row of diagonals per (slow, fast) pair of the flat sequence pairs:
    the slow value on the d1 slow entries and the fast one on the d2 fast ones."""
    return np.array(pairs, dtype=float).reshape(-1, 2).repeat((part.d1, part.d2), axis=1)


def block_expand(part: Partition, nu: float, *fs: Callable[[float], float]) -> np.ndarray:
    """Diagonals of f(h*Omega) at nu = h*omega, one row per f in fs: f(0) on
    the slow block and f(nu) on the fast one, from one expansion of the pairs."""
    return expand_pairs(part, [y for f in fs for y in (f(0.0), f(nu))])
