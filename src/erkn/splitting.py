"""Splitting flows, the kick filter, and the conjugate kick-first scheme.

The vector field splits into the exact linear rotation and a momentum kick
with a filtered force. Composing rotate(h/2) . kick(h) . rotate(h/2) with the
filter Upsilon(nu) = b(nu)/cos(nu/2) reproduces a symmetric one-stage method
exactly; kick(h/2) . rotate(h) . kick(h/2) is its conjugate scheme, which
the filter alone defines: a carried half kick, then the one-stage step with
c1 = 1, bbar = 0 and b = Upsilon/2 (`TrigMethod`). Half kicks always
evaluate the filter at the OUTER step's nu; only the momentum increment halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .methods import (COEFF_TOL, NU_GRID, Coefficients, ErknMethod, SymmetryReport,
                      check_symmetry, erkn_step, nu_grid_reports, rotation, step_map, stepper)
from .oscfun import block_expand
from .systems import Partition, State, System


class NonSymmetricMethod(ValueError):
    """Kick filter requested for a method outside the symmetric family."""


class ResonantStepsize(ValueError):
    """h*omega sits on a pole of the kick filter."""


FILTER_POLE_TOL = 1e-8


# The flows on (q, p) arrays z, from the diagonals built once: r = `rotation`
# over the flow's time and u = the filter at the outer step's nu.
def _rotate(r: np.ndarray, z: np.ndarray) -> np.ndarray:
    (c, hs, osn), (q, p) = r, z
    return np.array((c * q + hs * p, c * p - osn * q))


def _kick(force: Callable[[np.ndarray], np.ndarray], u: np.ndarray, h: float,
          z: np.ndarray) -> np.ndarray:
    q, p = z  # p += h * u g(q)
    return np.array((q, p + h * (u * force(q))))


def _composed(force: Callable[[np.ndarray], np.ndarray], r: np.ndarray, u: np.ndarray,
              h: float, z: np.ndarray) -> np.ndarray:
    """kick(h/2) . rotate(h) . kick(h/2), with r the rotation over h."""
    return _kick(force, u, 0.5 * h, _rotate(r, _kick(force, u, 0.5 * h, z)))


def flow_linear(part: Partition, h: float, s: State) -> State:
    """Exact flow of the force-free problem for time h (h may be negative)."""
    return State.of(_rotate(rotation(part, h), s.z))


def flow_kick(
    sys: System,
    upsilon: Callable[[float], float],
    h: float,
    s: State,
    nu: Optional[float] = None,
) -> State:
    """Momentum kick p += h * Upsilon g(q) with q unchanged.

    nu is where the filter is evaluated; it defaults to h*omega, but
    compositions pass the outer step's value when kicking with h/2.
    """
    part = sys.partition
    u, = block_expand(part, h * part.omega if nu is None else nu, upsilon)
    return State.of(_kick(sys.force, u, h, s.z))


def filter_refusal(m: ErknMethod, sym: SymmetryReport) -> Optional[NonSymmetricMethod]:
    """Why m has no kick filter, given its `check_symmetry` report: its node is
    not 1/2 (tested first), or the report fails; None if it has one."""
    if m.c1 != 0.5:
        return NonSymmetricMethod(f"the kick filter needs c1 = 1/2, got c1 = {m.c1:g}")
    if not sym.passed:
        return NonSymmetricMethod(f"symmetry residual {sym.max_residual:.3e} exceeds "
                                  f"{COEFF_TOL:g} on the grid")
    return None


def upsilon_from(m: ErknMethod, grid: Sequence[float] = NU_GRID) -> Callable[[float], float]:
    """Extract the kick filter nu -> b(nu)/cos(nu/2) of a symmetric method.

    Refused (`filter_refusal`) exactly when `check_symmetry(m, grid)` fails,
    since its relation (1 + cos nu) bbar = sinc(nu) b is 2 bbar/sinc(nu/2) =
    b/cos(nu/2) off the poles: one filter gives both weights. On NU_GRID the
    report is `nu_grid_reports`'s. The returned function refuses arguments on
    a pole of cos(nu/2).
    """
    refusal = filter_refusal(m, nu_grid_reports(m)[0] if grid is NU_GRID
                             else check_symmetry(m, grid))
    if refusal is not None:
        raise refusal

    def upsilon(nu: float) -> float:
        cc = math.cos(0.5 * nu)
        if abs(cc) < FILTER_POLE_TOL:
            raise ResonantStepsize(
                f"filter pole: |cos(nu/2)| = {abs(cc):.2e} at nu = {nu:g}"
            )
        return m.b(nu) / cc

    return upsilon


def strang_lnl_step(
    m: ErknMethod,
    sys: System,
    h: float,
    s: State,
    upsilon: Optional[Callable[[float], float]] = None,
) -> State:
    """rotate(h/2) . kick(h) . rotate(h/2) with the method's filter.

    Identical to erkn_step for symmetric methods, up to roundoff. Pass a
    prevalidated `upsilon` to skip re-extraction in loops.
    """
    part, ups = sys.partition, upsilon_from(m) if upsilon is None else upsilon
    (u,), half = block_expand(part, h * part.omega, ups), rotation(part, 0.5 * h)
    return State.of(_rotate(half, _kick(sys.force, u, h, _rotate(half, s.z))))


@dataclass(frozen=True)
class TrigMethod:
    """The kick-first scheme kick(h/2) . rotate(h) . kick(h/2) with the kick
    filter Upsilon, evaluated at the outer step's nu for both half kicks."""

    name: str
    upsilon: Callable[[float], float]

    def coefficients(self, part: Partition, h: float) -> Coefficients:
        """The step-map diagonals: the one-stage step whose stage is the new
        position (c1 = 1, bbar = 0) and whose weight b = Upsilon/2 is the
        closing half kick, carried as `kick` to open the next step."""
        half = ErknMethod(self.name, 1.0, lambda nu: 0.0, lambda nu: 0.5 * self.upsilon(nu))
        c = half.coefficients(part, h)
        return c._replace(kick=c.wp)


def trig_method_from(m: ErknMethod, grid: Sequence[float] = NU_GRID) -> TrigMethod:
    """Conjugate kick-first scheme of a symmetric one-stage method."""
    return TrigMethod(f"trig:{m.name}", upsilon_from(m, grid=grid))


# The kick-first step is the one step kernel with the scheme's
# coefficients (`TrigMethod.coefficients`): `stepper` and `erkn_step` serve it.
trig_stepper = stepper
trig_step = erkn_step


def trig_step_composed(tm: TrigMethod, sys: System, h: float, s: State) -> State:
    """The same map assembled as kick(h/2) . rotate(h) . kick(h/2)."""
    part = sys.partition
    u, = block_expand(part, h * part.omega, tm.upsilon)
    return State.of(_composed(sys.force, rotation(part, h), u, h, s.z))


@dataclass(frozen=True)
class ConjugacyReport:
    """Deviations between n method steps and the wrapped kick-first scheme."""

    max_deviation: float
    deviation_shifted: float
    deviation_interior: float


def _state_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def conjugacy_check(m: ErknMethod, sys: System, h: float, s: State, n: int) -> ConjugacyReport:
    """Drive n steps through the method and through both conjugate wrappings.

    interior form:  rotate(h/2) kick(h/2) [hat]^{n-1} kick(h/2) rotate(h/2)
    shifted form:   rotate(-h/2) kick(-h/2) [hat]^n kick(h/2) rotate(h/2)

    where hat is the kick-first step, `trig_step_composed`; both equal n method
    steps exactly in real arithmetic. Returns the max componentwise deviation seen.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    part = sys.partition
    part.check_state(s)
    force, full = sys.force, rotation(part, h)
    half, back = rotation(part, 0.5 * h), rotation(part, -0.5 * h)
    u, = block_expand(part, h * part.omega, upsilon_from(m))

    ref = s.z.copy()  # the kernel's buffer (no kick row: m is one-stage)
    step = step_map(force, m.coefficients(part, h), ref)
    for _ in range(n):
        step()

    inner = _kick(force, u, 0.5 * h, _rotate(half, s.z))
    for _ in range(n - 1):
        inner = _composed(force, full, u, h, inner)
    interior = _rotate(half, _kick(force, u, 0.5 * h, inner))
    shifted = _rotate(back, _kick(force, u, -0.5 * h, _composed(force, full, u, h, inner)))

    dev_interior, dev_shifted = _state_dev(ref, interior), _state_dev(ref, shifted)
    return ConjugacyReport(max(dev_interior, dev_shifted), dev_shifted, dev_interior)
