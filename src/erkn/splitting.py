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
from itertools import chain, repeat
from typing import Callable, Iterable, Optional

import numpy as np

from .methods import (COEFF_TOL, Coefficients, ErknMethod, SymmetryReport, advance, bound_force,
                      nu_grid_reports, rotation, stepper)
from .oscfun import block_expand, sinc
from .systems import Partition, State, System


class NonSymmetricMethod(ValueError):
    """Kick filter requested for a method outside the symmetric family."""


FILTER_POLE_TOL = 1e-8


def _flow(force: Callable[[np.ndarray], np.ndarray], z: np.ndarray, moves: Iterable) -> np.ndarray:
    """A copy of z = (q, p) advanced by the moves in order: r = `rotation` over
    the flow's time maps (q, p) to (c q + hs p, c p - osn q), and (h, u), u the
    filter at the outer step's nu, kicks p += h (u g(q)). The force (None without
    kicks) is bound once; a kick after a kick reuses g(q), as q has not moved."""
    z = z.copy()
    (q, p), g, moved = z, np.empty(z.shape[1:]), True
    evaluate = bound_force(force, q, g)
    for move in moves:
        if isinstance(move, tuple):
            h, u = move
            if moved:
                evaluate()
            p += h * (u * g)
        else:
            c, hs, osn = move
            z[...] = (c * q + hs * p, c * p - osn * q)
        moved = not isinstance(move, tuple)
    return z


def flow_linear(part: Partition, h: float, s: State) -> State:
    """Exact flow of the force-free problem for time h (h may be negative)."""
    return State.of(_flow(None, part.check_state(s), (rotation(part, h),)))


def flow_kick(
    sys: System,
    upsilon: Callable[[float], float],
    h: float,
    s: State,
    nu: Optional[float] = None,
) -> State:
    """Momentum kick p += h * Upsilon g(q) with q unchanged.

    nu is where the filter is evaluated; it defaults to h*omega. A caller who
    composes half kicks by hand passes the outer step's nu with h/2.
    """
    part = sys.partition
    u, = block_expand(part, h * part.omega if nu is None else nu, upsilon)
    return State.of(_flow(sys.force, part.check_state(s), ((h, u),)))


def filter_refusal(m: ErknMethod, sym: SymmetryReport) -> Optional[NonSymmetricMethod]:
    """Why m has no kick filter, given its `check_symmetry` report: its node is
    not 1/2 (tested first), or the report fails; None if it has one."""
    if m.c1 != 0.5:
        return NonSymmetricMethod(f"the kick filter needs c1 = 1/2, got c1 = {m.c1:g}")
    if not sym.passed:
        return NonSymmetricMethod(f"symmetry residual {sym.max_residual:.3e} exceeds "
                                  f"{COEFF_TOL:g} on the grid")
    return None


def upsilon_from(m: ErknMethod) -> Callable[[float], float]:
    """Extract the kick filter nu -> b(nu)/cos(nu/2) of a symmetric method.

    Refused (`filter_refusal`) exactly when `check_symmetry` fails on NU_GRID
    (`nu_grid_reports`), since its relation (1 + cos nu) bbar = sinc(nu) b is
    2 bbar/sinc(nu/2) = b/cos(nu/2): one filter gives both weights. It is the first
    quotient where |cos(nu/2)| < FILTER_POLE_TOL, so it is defined at every finite nu.
    """
    refusal = filter_refusal(m, nu_grid_reports(m)[0])
    if refusal is not None:
        raise refusal

    def upsilon(nu: float) -> float:
        cc = math.cos(0.5 * nu)
        if abs(cc) < FILTER_POLE_TOL:  # sin(nu/2) is +-1 here, so sinc(nu/2) is not 0
            return 2.0 * m.bbar(nu) / sinc(0.5 * nu)
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
    return State.of(_flow(sys.force, part.check_state(s), (half, (h, u), half)))


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


def trig_method_from(m: ErknMethod) -> TrigMethod:
    """Conjugate kick-first scheme of a symmetric one-stage method."""
    return TrigMethod(f"trig:{m.name}", upsilon_from(m))


# The kick-first step is the one step kernel with the scheme's
# coefficients (`TrigMethod.coefficients`): `stepper` and `erkn_step` serve it.
trig_stepper = stepper


def trig_step_composed(tm: TrigMethod, sys: System, h: float, s: State) -> State:
    """The same map assembled as kick(h/2) . rotate(h) . kick(h/2)."""
    part = sys.partition
    z, (u,) = part.check_state(s), block_expand(part, h * part.omega, tm.upsilon)
    return State.of(_flow(sys.force, z, ((0.5 * h, u), rotation(part, h), (0.5 * h, u))))


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
    The forms share their first 3n moves, and a kick after a kick reuses
    g(q) (`_flow`): n + 1 force calls in all.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    part, z = sys.partition, sys.partition.check_state(s)
    full, half, back = (rotation(part, t * h) for t in (1.0, 0.5, -0.5))
    u, = block_expand(part, h * part.omega, upsilon_from(m))

    ref = advance(sys.force, m.coefficients(part, h), z, n)
    kick = (0.5 * h, u)  # inner = kick(h/2) [hat]^{n-1} kick(h/2) rotate(h/2)
    hats = chain.from_iterable(repeat((kick, kick, full), n - 1))  # streamed, not held
    inner = _flow(sys.force, z, chain((half,), hats, (kick, kick)))
    interior = _flow(None, inner, (half,))
    shifted = _flow(sys.force, inner, (full, kick, (-0.5 * h, u), back))
    dev_interior, dev_shifted = _state_dev(ref, interior), _state_dev(ref, shifted)
    return ConjugacyReport(max(dev_interior, dev_shifted), dev_shifted, dev_interior)
