"""Splitting flows, the kick filter, and the conjugate kick-first scheme.

The vector field splits into the exact linear rotation and a momentum kick
with a filtered force. Composing rotate(h/2) . kick(h) . rotate(h/2) with the
filter Upsilon(nu) = b(nu)/cos(nu/2) reproduces a symmetric one-stage method
exactly; kick(h/2) . rotate(h) . kick(h/2) is its conjugate scheme, available
both composed and in closed form. Half kicks always evaluate the filter at
the OUTER step's nu; only the momentum increment halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .methods import COEFF_TOL, NU_GRID, Coefficients, ErknMethod, erkn_step, rotation, stepper
from .oscfun import block_expand, sinc
from .systems import Partition, State, System


class NonSymmetricMethod(ValueError):
    """Kick filter requested for a method outside the symmetric family."""


class InconsistentFilter(ValueError):
    """The two filter expressions disagree, so no single kick filter exists."""


class ResonantStepsize(ValueError):
    """h*omega sits on a pole of the kick filter."""


FILTER_POLE_TOL = 1e-8


def flow_linear(part: Partition, h: float, s: State) -> State:
    """Exact flow of the force-free problem for time h (h may be negative)."""
    c, hs, osn = rotation(part, h)
    return State(c * s.q + hs * s.p, c * s.p - osn * s.q)


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
    if nu is None:
        nu = h * part.omega
    u = block_expand(upsilon, part, nu)
    return State(s.q, s.p + h * (u * sys.force(s.q)))


def upsilon_from(
    m: ErknMethod, grid: Optional[Sequence[float]] = None
) -> Callable[[float], float]:
    """Extract the kick filter nu -> b(nu)/cos(nu/2) of a symmetric method.

    The alternative expression 2*bbar(nu)/sinc(nu/2) must agree within
    COEFF_TOL on the grid (points within FILTER_POLE_TOL of a pole skipped);
    the returned function refuses arguments on a pole of cos(nu/2).
    """
    if m.c1 != 0.5:
        raise NonSymmetricMethod(f"{m.name}: the kick filter needs c1 = 1/2, got c1 = {m.c1:g}")
    pts = NU_GRID if grid is None else grid
    worst = 0.0
    for nu in pts:
        cc = math.cos(0.5 * nu)
        ss = sinc(0.5 * nu)
        if abs(cc) < FILTER_POLE_TOL or abs(ss) < FILTER_POLE_TOL:
            continue
        r = abs(m.b(nu) / cc - 2.0 * m.bbar(nu) / ss)
        if r > worst:
            worst = r
    if worst > COEFF_TOL:
        raise InconsistentFilter(
            f"{m.name}: filter expressions b/cos(nu/2) and 2*bbar/sinc(nu/2) "
            f"disagree by {worst:.3e} on the grid"
        )

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
    part = sys.partition
    ups = upsilon_from(m) if upsilon is None else upsilon
    a = flow_linear(part, 0.5 * h, s)
    b = flow_kick(sys, ups, h, a)  # the full kick: its nu is h*omega
    return flow_linear(part, 0.5 * h, b)


@dataclass(frozen=True)
class TrigMethod:
    """Filter functions (phi, psi, psi0, psi1) of the kick-first scheme.

    Built from a symmetric one-stage method they are phi = 1,
    psi = sinc * Upsilon, psi0 = cos * Upsilon, psi1 = Upsilon.
    """

    name: str
    phi: Callable[[float], float]
    psi: Callable[[float], float]
    psi0: Callable[[float], float]
    psi1: Callable[[float], float]

    def coefficients(self, part: Partition, h: float) -> Coefficients:
        """The step-map diagonals of the kick-first scheme in closed form:

            q+ = cos(h*Omega) q + h sinc(h*Omega) p + h^2/2 psi g(phi q)
            p+ = -Omega sin(h*Omega) q + cos(h*Omega) p
                 + h/2 (psi0 g(phi q) + psi1 g(phi q+))
        """
        nu = h * part.omega
        return Coefficients(*rotation(part, h), block_expand(self.phi, part, nu),
                            np.zeros(part.dim), (0.5 * h * h) * block_expand(self.psi, part, nu),
                            (0.5 * h) * block_expand(self.psi0, part, nu),
                            (0.5 * h) * block_expand(self.psi1, part, nu))


def trig_method_from(m: ErknMethod, grid: Optional[Sequence[float]] = None) -> TrigMethod:
    """Conjugate kick-first scheme of a symmetric one-stage method."""
    ups = upsilon_from(m, grid=grid)
    return TrigMethod(
        name=f"trig:{m.name}",
        phi=lambda nu: 1.0,
        psi=lambda nu: sinc(nu) * ups(nu),
        psi0=lambda nu: math.cos(nu) * ups(nu),
        psi1=ups,
    )


# The closed-form kick-first step is the one step kernel with the scheme's
# coefficients (`TrigMethod.coefficients`): `stepper` and `erkn_step` serve it.
trig_stepper = stepper
trig_step = erkn_step


def trig_step_composed(tm: TrigMethod, sys: System, h: float, s: State) -> State:
    """The same map assembled as kick(h/2) . rotate(h) . kick(h/2)."""
    part = sys.partition
    nu = h * part.omega
    a = flow_kick(sys, tm.psi1, 0.5 * h, s, nu=nu)
    b = flow_linear(part, h, a)
    return flow_kick(sys, tm.psi1, 0.5 * h, b, nu=nu)


@dataclass(frozen=True)
class ConjugacyReport:
    """Deviations between n method steps and the wrapped kick-first scheme."""

    max_deviation: float
    deviation_shifted: float
    deviation_interior: float


def _state_dev(a: State, b: State) -> float:
    return float(np.max(np.abs(a.z - b.z)))


def conjugacy_check(m: ErknMethod, sys: System, h: float, s: State, n: int) -> ConjugacyReport:
    """Drive n steps through the method and through both conjugate wrappings.

    interior form:  rotate(h/2) kick(h/2) [hat]^{n-1} kick(h/2) rotate(h/2)
    shifted form:   rotate(-h/2) kick(-h/2) [hat]^n kick(h/2) rotate(h/2)

    where hat is the kick-first step; both equal n method steps exactly in
    real arithmetic. Returns the max componentwise deviation seen.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    part = sys.partition
    part.check_state(s)
    nu = h * part.omega
    ups = upsilon_from(m)
    step = stepper(m, sys, h)

    ref = s
    for _ in range(n):
        ref = step(ref)

    def kick(x: State, hh: float) -> State:
        return flow_kick(sys, ups, hh, x, nu=nu)

    def hat(x: State) -> State:
        return kick(flow_linear(part, h, kick(x, 0.5 * h)), 0.5 * h)

    entry = kick(flow_linear(part, 0.5 * h, s), 0.5 * h)

    inner = entry
    for _ in range(n - 1):
        inner = hat(inner)
    interior = flow_linear(part, 0.5 * h, kick(inner, 0.5 * h))
    shifted = flow_linear(part, -0.5 * h, kick(hat(inner), -0.5 * h))

    dev_interior = _state_dev(ref, interior)
    dev_shifted = _state_dev(ref, shifted)
    return ConjugacyReport(max(dev_interior, dev_shifted), dev_shifted, dev_interior)
