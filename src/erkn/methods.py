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

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

# block_expand stays an attribute of this module, where perfbench's tracer wraps it
from .oscfun import block_expand, cos, expand_pairs, power, sinc  # noqa: F401
from .systems import Partition, State, System

# Default nu grid for the algebraic condition checkers: 0(0.1)10.
NU_GRID: tuple[float, ...] = tuple(0.1 * k for k in range(101))

COEFF_TOL = 1e-12  # the largest residual at which a structure check passes


@dataclass(frozen=True)
class ErknMethod:
    """Node and weight functions of a one-stage method. A weight takes a
    float or an ndarray of nu (see `oscfun`); one that takes only floats is
    evaluated point by point where a grid is scanned."""

    name: str
    c1: float
    bbar: Callable[[float], float]
    b: Callable[[float], float]

    def coefficients(self, part: Partition, h: float) -> Coefficients:
        """The step-map diagonals of this method at step h, from one expansion of their pairs."""
        nu, hh = h * part.omega, h * h
        return Coefficients(*expand_pairs(part, (
            *_turn_pairs(part.omega, h), *_turn_pairs(part.omega, h, self.c1)[:4],
            hh * self.bbar(0.0), hh * self.bbar(nu), h * self.b(0.0), h * self.b(nu))))


def symplectic(name: str, c1: float, d1: float = 1.0) -> ErknMethod:
    """The symplectic method with node c1 and weight constant d1:
    b(nu) = d1 cos((1-c1) nu) and bbar(nu) = d1 (1-c1) sinc((1-c1) nu)."""
    c2 = 1.0 - c1
    return ErknMethod(name, c1, bbar=lambda nu: d1 * c2 * sinc(c2 * nu),
                      b=lambda nu: d1 * cos(c2 * nu))


def symmetric(name: str, upsilon: Callable[[float], float]) -> ErknMethod:
    """The symmetric method with kick filter Upsilon (c1 = 1/2):
    b(nu) = Upsilon(nu) cos(nu/2) and bbar(nu) = Upsilon(nu) sinc(nu/2)/2."""
    return ErknMethod(name, 0.5, bbar=lambda nu: 0.5 * upsilon(nu) * sinc(0.5 * nu),
                      b=lambda nu: upsilon(nu) * cos(0.5 * nu))


METHODS: dict[str, ErknMethod] = {m.name: m for m in (
    ErknMethod(
        "ERKN1",
        0.5,
        bbar=lambda nu: 0.5 * power(sinc(0.5 * nu), 2),
        b=lambda nu: cos(0.5 * nu),
    ),
    symplectic("ERKN2", 0.5),
    symmetric("ERKN3", lambda nu: power(cos(0.5 * nu), 2)),
    symmetric("ERKN4", lambda nu: sinc(0.5 * nu)),
    symplectic("ERKN5", 0.4),
    symplectic("ERKN6", 0.2),
)}


def _turn_pairs(omega: float, h: float, c: float = 1.0) -> tuple[float, ...]:
    """The (slow, fast) pairs, in a row, of cos(c nu), c*h sinc(c nu) and omega sin(c nu)
    at nu = 0 and nu = h*omega: the node c multiplies nu, not h, so a stage argument is c1 * nu."""
    ch, slow, fast = c * h, c * 0.0, c * (h * omega)
    return (math.cos(slow), math.cos(fast), ch * sinc(slow), ch * sinc(fast),
            omega * math.sin(slow), omega * math.sin(fast))


def rotation(part: Partition, h: float) -> np.ndarray:
    """Diagonals of the exact force-free flow over time h (h may be negative),
    the rows cos(h*Omega), h sinc(h*Omega) and Omega sin(h*Omega)."""
    return expand_pairs(part, _turn_pairs(part.omega, h))


class Coefficients(NamedTuple):
    """Diagonals of one step map (see `step_map`): length-dim vectors, or
    (dim, B) blocks with a column per trajectory. kick is None for a
    one-stage method and the half kick's weight for a kick-first scheme
    (`columns` gives a one-stage column of a mixed batch kick = 0)."""

    cos: np.ndarray
    hsinc: np.ndarray
    omega_sin: np.ndarray
    stage_q: np.ndarray
    stage_p: np.ndarray
    wq: np.ndarray
    wp: np.ndarray
    kick: Optional[np.ndarray] = None

    @classmethod
    def columns(cls, coefs: Sequence["Coefficients"]) -> "Coefficients":
        """The (dim, B) coefficients of B step maps, a column each, for one
        `step_map` over a (2, dim, B) block of states."""
        if any(c.kick is not None for c in coefs):
            coefs = [c if c.kick is not None else c._replace(kick=np.zeros_like(c.cos))
                     for c in coefs]
        return cls(*(x[0] if x[0] is None else np.stack(x, axis=-1) for x in zip(*coefs)))


def bound_force(force: Callable[[np.ndarray], np.ndarray], q: np.ndarray,
                out: np.ndarray) -> Callable[[], None]:
    """A call that writes g(q) into out: the force's `bind` (see `fpu_system`),
    or else a copy of its result."""
    return force.bind(q, out) if hasattr(force, "bind") else lambda: np.copyto(out, force(q))


def step_map(force: Callable[[np.ndarray], np.ndarray], c: Coefficients,
             z: np.ndarray) -> Callable[[], None]:
    """The step kernel bound to z = (q, p) stacked on axis 0; a call advances
    z in place by the exact rotation over h plus a weighted force g at the
    stage point Q = stage_q q + stage_p p,

        q+ = cos(h*Omega) q + h sinc(h*Omega) p + wq g(Q)
        p+ = -Omega sin(h*Omega) q + cos(h*Omega) p + wp g(Q)

    z is (2, dim) for one state, or (2, dim, B) for a block of B states with
    coefficient columns to match; every sum is formed in the order written
    above. Views and work arrays are made once, here; g(Q) is written into
    them by `bound_force`.

    With kick set, z = (q, p, k) (see `lift`) carries the half kick k that
    closed the last step, and a step is that kick followed by the step above:

        p' = p + k,  then (q+, p+) from (q, p') with F = g(Q),  k+ = kick F

    A kick-first scheme's stage is the new position (wq = 0), so k+ is the
    opening half kick of the next step; a one-stage column has kick = 0.
    A non-finite F spoils its column (0 inf = nan).
    """
    same = np.array((c.cos, c.cos))  # multiplies (q, p)
    stage = np.array((c.stage_q, c.stage_p))
    hsinc, minus_omega_sin, wq, wp = c.hsinc, -c.omega_sin, c.wq, c.wp
    y = z[:2]
    (q, p), b, f = y, np.empty(y.shape), np.empty(y.shape[1:])
    b_q, b_p = b  # the stage point Q is formed in b_q
    evaluate = bound_force(force, b_q, f)
    # row by row where rows mix or F broadcasts: ufuncs on same-shape operands cost half
    multiply, add = np.multiply, np.add  # the third argument is out

    def step() -> None:
        multiply(stage, y, b)
        add(b_q, b_p, b_q)
        evaluate()
        multiply(hsinc, p, b_q)
        multiply(minus_omega_sin, q, b_p)
        multiply(same, y, y)  # the old y is not needed after this
        add(y, b, y)
        multiply(wq, f, b_q)
        multiply(wp, f, b_p)
        add(y, b, y)

    if c.kick is None:
        return step
    k, kick = z[2], c.kick

    def step_kicked() -> None:
        add(p, k, p)
        step()
        multiply(kick, f, k)

    return step_kicked


def lift(force: Callable[[np.ndarray], np.ndarray], c: Coefficients, z: np.ndarray) -> np.ndarray:
    """The state that `step_map(force, c, z)` advances, from z = (q, p): z itself
    if kick is None, else (q, p, kick g(q)). A column with kick = 0 carries an
    exact 0 even where g(q) is not finite, so a one-stage column of a mixed
    batch steps as it does alone. One force call per trajectory start."""
    if c.kick is None:
        return z
    return np.concatenate((z, np.where(c.kick == 0.0, 0.0, c.kick * force(z[0]))[None]))


def advance(force: Callable[[np.ndarray], np.ndarray], c: Coefficients,
            z: np.ndarray, n: int = 1) -> np.ndarray:
    """(q, p) n steps on from z, (2, dim) or (2, dim, B), in a fresh array:
    z lifted (see `lift`) or copied, then one kernel bound and called n times."""
    z = lift(force, c, z) if c.kick is not None else z.copy()
    step = step_map(force, c, z)
    for _ in range(n):
        step()
    return z[:2]


def stepper(m, sys: System, h: float) -> Callable[[State], State]:
    """Bind (method, system, h) into a one-step map on `State`s, for an
    `ErknMethod` or a kick-first `TrigMethod` alike. All h-dependent
    coefficients (the method's `coefficients`) are evaluated once here; the
    returned closure is what trajectory loops should call (lifting each state
    of a kick-first scheme for its opening half kick: two force calls). States
    are checked and copied in and out, so none shares memory with the kernel's buffer."""
    c, force, check = m.coefficients(sys.partition, h), sys.force, sys.partition.check_state
    z = np.empty((2 if c.kick is None else 3, sys.partition.dim))
    y, kernel = z[:2], step_map(force, c, z)

    def step(s: State) -> State:
        z[...] = lift(force, c, check(s))
        kernel()
        return State.of(y.copy())

    return step


def erkn_step(m, sys: System, h: float, s: State) -> State:
    """One step of the method from state s (h may be negative): `stepper`'s."""
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


def _on_grid(f: Callable, nu: np.ndarray) -> np.ndarray:
    """f on the grid array in one call, or point by point if f rejects arrays
    (raises TypeError or ValueError, or returns no array of the grid's shape)."""
    try:
        y = f(nu)
    except (TypeError, ValueError):
        y = None
    return y if isinstance(y, np.ndarray) and y.shape == nu.shape else \
        np.fromiter(map(f, nu.tolist()), float, len(nu))


def structure_reports(m: ErknMethod, grid: Sequence[float] = NU_GRID
                      ) -> tuple[SymmetryReport, SymplecticityReport]:
    """`check_symmetry` and `check_symplecticity` of m on the grid, from one
    evaluation of each weight on the grid array (`_on_grid`); the residuals
    are elementwise, so with the bits of a scalar loop, and a nan one is
    skipped. A non-finite grid point is refused (ValueError)."""
    nu = np.asarray(grid, dtype=float)
    if not np.isfinite(nu).all():
        raise ValueError(f"non-finite grid point nu = {nu[~np.isfinite(nu)][0]}")
    b0 = m.b(0.0)
    ref = symplectic(m.name, m.c1, b0)
    b, bbar, ref_b, ref_bbar, cosine, sn = (_on_grid(f, nu)
                                            for f in (m.b, m.bbar, ref.b, ref.bbar, cos, sinc))
    with np.errstate(invalid="ignore", over="ignore"):
        rb, rbb = np.abs(b - ref_b), np.abs(bbar - ref_bbar)
        sym, sp = (float(np.max(r, initial=first, where=~np.isnan(r))) for first, r in (
            (abs(2.0 * m.bbar(0.0) - b0), np.abs((1.0 + cosine) * bbar - sn * b)),
            (0.0, np.where(rb > rbb, rb, rbb))))  # a nan first stays, as r > nan is false
    return (SymmetryReport(m.c1 == 0.5 and sym <= COEFF_TOL, sym),
            SymplecticityReport(sp <= COEFF_TOL, b0, sp))


def check_symmetry(m: ErknMethod, grid: Sequence[float] = NU_GRID) -> SymmetryReport:
    """Exact-coefficient symmetry test.

    Passes iff c1 = 1/2 and (1 + cos nu) bbar(nu) = sinc(nu) b(nu) to
    COEFF_TOL on the grid; nu = 0 is always included.
    """
    return structure_reports(m, grid)[0]


def check_symplecticity(m: ErknMethod, grid: Sequence[float] = NU_GRID) -> SymplecticityReport:
    """Exact-coefficient symplecticity test.

    The constant d1 is pinned at nu = 0 (where the cosine factor is 1);
    passes iff m's weights equal those of `symplectic(m.name, m.c1, d1)` to
    COEFF_TOL on the grid.
    """
    return structure_reports(m, grid)[1]


@functools.lru_cache(maxsize=len(METHODS))
def nu_grid_reports(m: ErknMethod) -> tuple[SymmetryReport, SymplecticityReport]:
    """`structure_reports` of m on NU_GRID, scanned once per method (the last
    len(METHODS) methods asked for are kept)."""
    return structure_reports(m)


def check_reports(m: ErknMethod, nu: float) -> tuple[SymmetryReport, SymplecticityReport]:
    """`check`'s structure reports at the operating point nu: `nu_grid_reports`,
    joined beyond 10 (passing on both, keeping the larger residual) with one scan
    of at most 1000 evenly spaced points on (10, nu], the last nu itself (each offset
    (nu - 10) k/n formed at scale 2^-10, which keeps its bits and keeps it finite)."""
    reports = nu_grid_reports(m)
    n = math.ceil(10.0 * min(nu - 10.0, 100.0))
    if n <= 0:
        return reports
    stretch = nu - (nu - 10.0) / 1024.0 * np.arange(n - 1, -1, -1) / n * 1024.0
    return tuple(replace(a, passed=a.passed and b.passed,
                         max_residual=max(a.max_residual, b.max_residual))
                 for a, b in zip(reports, structure_reports(m, stretch)))
