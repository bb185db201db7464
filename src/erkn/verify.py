"""Structure probes, stepsize-assumption checkers, and drift analytics.

The algebraic checkers in `methods` test coefficients; the probes here test
the realized one-step map numerically, which is an independent route to the
same properties. Drift series back the long-horizon energy experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .methods import ErknMethod, stepper
from .oscfun import sinc
from .splitting import TrigMethod, _state_dev, trig_stepper
from .systems import State, System, hamiltonian, oscillatory_energy


class ZeroCoefficient(ValueError):
    """A weight function vanishes where the ratio formula needs it."""


class NonFiniteState(RuntimeError):
    """Trajectory blew up; `records` holds the finite prefix."""

    def __init__(self, message: str, records: list["DriftRecord"]):
        super().__init__(message)
        self.records = records


@dataclass(frozen=True)
class DefectReport:
    """One numerical structure probe of a method's step map."""

    method: str
    kind: str  # "adjoint" | "symplecticity"
    defect: float
    h: float
    context: str


Method = Union[ErknMethod, TrigMethod]


def _stepper_for(method: Method, sys: System, h: float):
    if isinstance(method, ErknMethod):
        return stepper(method, sys, h)
    return trig_stepper(method, sys, h)


def adjoint_defect(m: Method, sys: System, h: float, s: State) -> float:
    """Sup-norm of step(-h)(step(h)(s)) - s; zero for a symmetric map."""
    fwd = _stepper_for(m, sys, h)
    bwd = _stepper_for(m, sys, -h)
    return _state_dev(bwd(fwd(s)), s)


def symplecticity_defect(
    m: Method, sys: System, h: float, s: State, fd_eps: float = 1e-5
) -> float:
    """max |M^T J M - J| for the step Jacobian M by central differences."""
    if fd_eps <= 0.0:
        raise ValueError("fd_eps must be > 0")
    part = sys.partition
    d = part.dim
    step = _stepper_for(m, sys, h)

    def apply(z: np.ndarray) -> np.ndarray:
        out = step(State(z[:d], z[d:]))
        return np.concatenate([out.q, out.p])

    z0 = np.concatenate([s.q, s.p])
    jac = np.empty((2 * d, 2 * d))
    for j in range(2 * d):
        zp = z0.copy()
        zp[j] += fd_eps
        zm = z0.copy()
        zm[j] -= fd_eps
        jac[:, j] = (apply(zp) - apply(zm)) / (2.0 * fd_eps)
    jj = np.zeros((2 * d, 2 * d))
    jj[:d, d:] = np.eye(d)
    jj[d:, :d] = -np.eye(d)
    return float(np.max(np.abs(jac.T @ jj @ jac - jj)))


def structure_defects(
    m: Method, sys: System, h: float, s: State, fd_eps: float = 1e-5
) -> list[DefectReport]:
    """Both probes bundled for reporting."""
    ctx = sys.label
    return [
        DefectReport(m.name, "adjoint", adjoint_defect(m, sys, h, s), h, ctx),
        DefectReport(
            m.name, "symplecticity", symplecticity_defect(m, sys, h, s, fd_eps), h, ctx
        ),
    ]


def non_resonance_max_N(h: float, omega: float, c: float, k_max: int = 1000) -> int:
    """Largest N with |sin(k h omega / 2)| >= c sqrt(h) for every k <= N.

    Returns 0 if the bound already fails at k = 1. The scan is capped at
    k_max since for generic h*omega the condition can persist a long time.
    """
    if h <= 0.0 or c <= 0.0:
        raise ValueError("need h > 0 and c > 0")
    threshold = c * math.sqrt(h)
    half = 0.5 * h * omega
    n = 0
    while n < k_max and abs(math.sin((n + 1) * half)) >= threshold:
        n += 1
    return n


def sigma(m: ErknMethod, nu: float, zero_tol: float = 1e-14) -> float:
    """Weight-ratio indicator sigma(nu); identically 1 for the impulse method.

        sigma = sinc(nu) cos(nu/2) / (2 bbar(nu))
                + nu^2 sinc(nu) (sinc(nu/2)/2) / (2 b(nu))
    """
    bb = m.bbar(nu)
    bw = m.b(nu)
    if abs(bb) < zero_tol or abs(bw) < zero_tol:
        raise ZeroCoefficient(f"{m.name}: weight within {zero_tol:g} of zero at nu = {nu:g}")
    first = sinc(nu) * math.cos(0.5 * nu) / (2.0 * bb)
    second = nu * nu * sinc(nu) * (0.5 * sinc(0.5 * nu)) / (2.0 * bw)
    return first + second


def sigma_bound_check(
    m: ErknMethod, h_omega: float, lo: float = 0.1, hi: float = 10.0
) -> bool:
    """True iff sigma (or -sigma) lies in [lo, hi] at both nu = 0 and h_omega."""
    s0 = sigma(m, 0.0)
    s1 = sigma(m, h_omega)
    direct = lo <= s0 <= hi and lo <= s1 <= hi
    flipped = lo <= -s0 <= hi and lo <= -s1 <= hi
    return direct or flipped


@dataclass(frozen=True)
class AssumptionReport:
    """Stepsize assumptions at one (h, omega) operating point."""

    max_N: int
    h_omega: float
    c: float
    c0: float
    h_condition_pass: bool
    sigma_at_0: float
    sigma_at_nu: float
    sigma_lo: float
    sigma_hi: float
    sigma_pass: bool
    sigma_error: Optional[str] = None


def assumption_report(
    m: ErknMethod,
    h: float,
    omega: float,
    c: float = 1.0,
    c0: float = 0.1,
    sigma_lo: float = 0.1,
    sigma_hi: float = 10.0,
) -> AssumptionReport:
    """Evaluate the non-resonance count, the stepsize floor, and the sigma bound."""
    nu = h * omega
    max_n = non_resonance_max_N(h, omega, c)
    try:
        s0 = sigma(m, 0.0)
        s1 = sigma(m, nu)
        s_pass = sigma_bound_check(m, nu, sigma_lo, sigma_hi)
        s_err = None
    except ZeroCoefficient as exc:
        s0 = math.nan
        s1 = math.nan
        s_pass = False
        s_err = str(exc)
    return AssumptionReport(
        max_N=max_n,
        h_omega=nu,
        c=c,
        c0=c0,
        h_condition_pass=nu >= c0,
        sigma_at_0=s0,
        sigma_at_nu=s1,
        sigma_lo=sigma_lo,
        sigma_hi=sigma_hi,
        sigma_pass=s_pass,
        sigma_error=s_err,
    )


@dataclass(frozen=True)
class DriftRecord:
    """One sample of the energy deviations along a trajectory."""

    t: float
    H: float
    I: float
    dH: float
    dI: float


@dataclass(frozen=True)
class DriftStats:
    max_dH: float
    max_dI: float
    window_ratio_H: float
    window_ratio_I: float


def drift_stepper(
    method: Method, sys: System, h: float, t_end: float, stride: int = 1
) -> Callable[[State], State]:
    """The one-step map of a drift series, after checking its arguments, so a
    caller can reject a run before it starts. Raises ValueError (and, for a
    kick-first scheme with h*omega on a filter pole, ResonantStepsize)."""
    if not (0.0 < h <= t_end and math.isfinite(t_end)):
        raise ValueError("need finite h and t_end with 0 < h <= t_end")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if sys.initial is None:
        raise ValueError(f"system {sys.label!r} has no designated initial state")
    return _stepper_for(method, sys, h)


def drift_series(
    method: Method, sys: System, h: float, t_end: float, stride: int = 1
) -> list[DriftRecord]:
    """Integrate from the system's designated initial state, sampling energies.

    Runs n = round(t_end/h) steps; records step 0, every stride-th step, and
    the final step. Raises NonFiniteState (carrying the finite prefix) if the
    trajectory blows up.
    """
    step = drift_stepper(method, sys, h, t_end, stride)
    n = int(round(t_end / h))
    s = sys.initial
    h0 = hamiltonian(sys, s)
    i0 = oscillatory_energy(sys.partition, s)
    records = [DriftRecord(0.0, h0, i0, 0.0, 0.0)]
    # blow-up is an expected, reported condition; silence the overflow chatter
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n + 1):
            s = step(s)
            if not (np.isfinite(s.q).all() and np.isfinite(s.p).all()):
                raise NonFiniteState(
                    f"{getattr(method, 'name', '?')} on {sys.label}: state became "
                    f"non-finite at step {i} (t = {i * h:g})",
                    records,
                )
            if i % stride == 0 or i == n:
                hh = hamiltonian(sys, s)
                ii = oscillatory_energy(sys.partition, s)
                records.append(DriftRecord(i * h, hh, ii, hh - h0, ii - i0))
    return records


def drift_stats(records: Sequence[DriftRecord]) -> DriftStats:
    """Max |dH|, |dI| and the second-half/first-half ratios of those maxima.

    A ratio near 1 means no secular growth. Edge rules: with a zero first
    window the ratio is 1.0 if the second is zero too, else inf.
    """
    if not records:
        raise ValueError("empty drift series")
    t = np.array([r.t for r in records])
    abs_dh = np.abs(np.array([r.dH for r in records]))
    abs_di = np.abs(np.array([r.dI for r in records]))
    first = t <= 0.5 * (t[0] + t[-1])

    def window_ratio(vals: np.ndarray) -> float:
        a = float(np.max(vals[first]))
        b = float(np.max(vals[~first])) if (~first).any() else 0.0
        if a == 0.0:
            return 1.0 if b == 0.0 else math.inf
        return b / a

    return DriftStats(
        max_dH=float(np.max(abs_dh)),
        max_dI=float(np.max(abs_di)),
        window_ratio_H=window_ratio(abs_dh),
        window_ratio_I=window_ratio(abs_di),
    )
