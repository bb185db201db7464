"""One-stage explicit integrators that treat the linear oscillation exactly.

A method is a node c1 plus two scalar weight functions bbar(nu), b(nu) of
nu = h*omega. One step from (q, p):

    Q  = cos(c1*h*Omega) q + c1*h sinc(c1*h*Omega) p
    q+ = cos(h*Omega) q + h sinc(h*Omega) p + h^2 bbar(h*Omega) g(Q)
    p+ = -Omega sin(h*Omega) q + cos(h*Omega) p + h b(h*Omega) g(Q)

where every matrix function is two scalars via the block structure. The
momentum coefficient is computed as -omega*sin(nu), never as nu^2*sinc(nu)/h,
so no cancellation path exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .oscfun import block_expand, sinc
from .systems import Partition, State, System

# Default nu grid for the algebraic condition checkers: 0(0.1)10.
NU_GRID: tuple[float, ...] = tuple(0.1 * k for k in range(101))

COEFF_TOL = 1e-12


@dataclass(frozen=True)
class ErknMethod:
    """Node and weight functions of a one-stage method."""

    name: str
    c1: float
    bbar: Callable[[float], float]
    b: Callable[[float], float]

    def coefficients(self, part: Partition, h: float) -> Coefficients:
        """The step-map diagonals of this method at step h."""
        nu = h * part.omega
        stage_cos, stage_hsinc, _ = rotation(part, h, self.c1)
        return Coefficients(*rotation(part, h), stage_cos, stage_hsinc,
                            (h * h) * block_expand(self.bbar, part, nu),
                            h * block_expand(self.b, part, nu))


METHODS: dict[str, ErknMethod] = {
    "ERKN1": ErknMethod(
        "ERKN1",
        0.5,
        bbar=lambda nu: 0.5 * sinc(0.5 * nu) ** 2,
        b=lambda nu: math.cos(0.5 * nu),
    ),
    "ERKN2": ErknMethod(
        "ERKN2",
        0.5,
        bbar=lambda nu: 0.5 * sinc(0.5 * nu),
        b=lambda nu: math.cos(0.5 * nu),
    ),
    "ERKN3": ErknMethod(
        "ERKN3",
        0.5,
        bbar=lambda nu: 0.5 * sinc(nu) * math.cos(0.5 * nu),
        b=lambda nu: math.cos(0.5 * nu) ** 3,
    ),
    "ERKN4": ErknMethod(
        "ERKN4",
        0.5,
        bbar=lambda nu: 0.5 * sinc(0.5 * nu) ** 2,
        b=lambda nu: sinc(0.5 * nu) * math.cos(0.5 * nu),
    ),
    "ERKN5": ErknMethod(
        "ERKN5",
        0.4,
        bbar=lambda nu: 0.6 * sinc(0.6 * nu),
        b=lambda nu: math.cos(0.6 * nu),
    ),
    "ERKN6": ErknMethod(
        "ERKN6",
        0.2,
        bbar=lambda nu: 0.8 * sinc(0.8 * nu),
        b=lambda nu: math.cos(0.8 * nu),
    ),
}


def rotation(
    part: Partition, h: float, c: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals of the exact force-free flow over time c*h (h may be negative):
    cos(c*h*Omega), c*h sinc(c*h*Omega) and Omega sin(c*h*Omega). The stage
    node c multiplies nu = h*omega, not h, so the stage argument is c1 * nu."""
    nu = c * (h * part.omega)
    ch = c * h
    return (
        block_expand(math.cos, part, nu),
        block_expand(lambda x: ch * sinc(x), part, nu),
        block_expand(lambda x: part.omega * math.sin(x), part, nu),
    )


class Coefficients(NamedTuple):
    """Diagonals of one step map (see `step_map`): length-dim vectors, or
    (dim, B) blocks with a column per trajectory. wp_new is None for a
    one-stage method and set for a kick-first scheme."""

    cos: np.ndarray
    hsinc: np.ndarray
    omega_sin: np.ndarray
    stage_q: np.ndarray
    stage_p: np.ndarray
    wq: np.ndarray
    wp: np.ndarray
    wp_new: Optional[np.ndarray] = None

    @classmethod
    def columns(cls, coefs: Sequence["Coefficients"]) -> "Coefficients":
        """The (dim, B) coefficients of B step maps of one kind, a column
        each, for one `step_map` over a (2, dim, B) block of states."""
        if len({c.wp_new is None for c in coefs}) > 1:
            raise ValueError("a batch mixes one-stage and kick-first methods")
        return cls(*(x[0] if x[0] is None else np.stack(x, axis=1) for x in zip(*coefs)))


def step_map(force: Callable[[np.ndarray], np.ndarray], c: Coefficients) -> Callable:
    """The one step kernel z -> z+ on z = (q, p) stacked on axis 0: the exact
    rotation over h plus a weighted force g at the stage point
    Q = stage_q q + stage_p p,

        q+ = cos(h*Omega) q + h sinc(h*Omega) p + wq g(Q)
        p+ = -Omega sin(h*Omega) q + cos(h*Omega) p + wp g(Q) [+ wp_new g(stage_q q+)]

    z is (2, dim) for one state, or (2, dim, B) for a block of B states with
    coefficient columns to match. Both rows of z go through each operation
    at once, and every sum is formed in the order written above. The
    bracketed second force evaluation, at the new position, is what the
    kick-first scheme adds to a one-stage method. It is chosen here, once, so
    the one-stage step carries no per-step test for it.
    """
    same = np.array((c.cos, c.cos))  # multiplies (q, p)
    swapped = np.array((c.hsinc, -c.omega_sin))  # multiplies (p, q)
    stage = np.array((c.stage_q, c.stage_p))
    weight = np.array((c.wq, c.wp))
    stage_q, wp_new = c.stage_q, c.wp_new

    if wp_new is None:

        def step(z: np.ndarray) -> np.ndarray:
            x = stage * z
            return same * z + swapped * z[::-1] + weight * force(x[0] + x[1])

        return step

    def step_kick_first(z: np.ndarray) -> np.ndarray:
        x = stage * z
        zn = same * z + swapped * z[::-1] + weight * force(x[0] + x[1])
        zn[1] += wp_new * force(stage_q * zn[0])
        return zn

    return step_kick_first


def stepper(m, sys: System, h: float) -> Callable[[State], State]:
    """Bind (method, system, h) into a one-step map on `State`s, for an
    `ErknMethod` or a kick-first `TrigMethod` alike. All h-dependent
    coefficients (the method's `coefficients`) are evaluated once here; the
    returned closure is what trajectory loops should call."""
    kernel = step_map(sys.force, m.coefficients(sys.partition, h))

    def step(s: State) -> State:
        return State.of(kernel(s.z))  # the kernel's output is fresh

    return step


def erkn_step(m, sys: System, h: float, s: State) -> State:
    """One step of the method from state s (h may be negative)."""
    return stepper(m, sys, h)(s)


@dataclass(frozen=True)
class SymmetryReport:
    passed: bool
    max_residual: float


@dataclass(frozen=True)
class SymplecticityReport:
    passed: bool
    d1: float
    max_residual: float


def check_symmetry(
    m: ErknMethod, grid: Optional[Sequence[float]] = None, tol: float = COEFF_TOL
) -> SymmetryReport:
    """Exact-coefficient symmetry test.

    Passes iff c1 = 1/2 and (1 + cos nu) bbar(nu) = sinc(nu) b(nu) on the
    grid; nu = 0 is always included.
    """
    pts = NU_GRID if grid is None else grid
    worst = abs(2.0 * m.bbar(0.0) - m.b(0.0))
    for nu in pts:
        r = abs((1.0 + math.cos(nu)) * m.bbar(nu) - sinc(nu) * m.b(nu))
        if r > worst:
            worst = r
    return SymmetryReport(m.c1 == 0.5 and worst <= tol, worst)


def check_symplecticity(
    m: ErknMethod, grid: Optional[Sequence[float]] = None, tol: float = COEFF_TOL
) -> SymplecticityReport:
    """Exact-coefficient symplecticity test.

    The constant d1 is pinned at nu = 0 (where the cosine factor is 1);
    passes iff b(nu) = d1 cos((1-c1) nu) and
    bbar(nu) = d1 (1-c1) sinc((1-c1) nu) on the grid.
    """
    pts = NU_GRID if grid is None else grid
    d1 = m.b(0.0)
    c2 = 1.0 - m.c1
    worst = 0.0
    for nu in pts:
        rb = abs(m.b(nu) - d1 * math.cos(c2 * nu))
        rbb = abs(m.bbar(nu) - d1 * c2 * sinc(c2 * nu))
        r = rb if rb > rbb else rbb
        if r > worst:
            worst = r
    return SymplecticityReport(worst <= tol, d1, worst)
