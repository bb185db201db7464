"""Structure probes, stepsize-assumption checkers, and drift analytics.

The algebraic checkers in `methods` test coefficients; the probes here test
the realized one-step map numerically, which is an independent route to the
same properties. Drift series back the long-horizon energy experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

# stepper, trig_stepper (another name for it), hamiltonian and oscillatory_energy
# stay attributes of this module, where perfbench's tracer wraps them
from .methods import Coefficients, ErknMethod, advance, lift, step_map, stepper  # noqa: F401
from .oscfun import sinc
from .splitting import TrigMethod, _state_dev, trig_stepper  # noqa: F401
from .systems import State, System, energies, hamiltonian, oscillatory_energy  # noqa: F401


class ZeroCoefficient(ValueError):
    """A weight function vanishes where the ratio formula needs it."""


class NonFiniteState(RuntimeError):
    """Trajectory blew up; `rows` holds the finite prefix's rows."""

    def __init__(self, message: str, rows: np.ndarray):
        super().__init__(message)
        self.rows = rows


@dataclass(frozen=True)
class DefectReport:
    """One numerical structure probe of a method's step map."""

    method: str
    kind: str  # "adjoint" | "symplecticity"
    defect: float
    h: float
    context: str


Method = Union[ErknMethod, TrigMethod]
FD_EPS = 1e-5  # the central-difference step of `symplecticity_defect`


def _structure_pair(m: Method, sys: System, h: float, s: State,
                    fd_eps: float) -> tuple[float, float]:
    """The (adjoint, symplecticity) defects of the three probes, from one step of s."""
    if not (math.isfinite(fd_eps) and fd_eps > 0.0):
        raise ValueError("fd_eps must be finite and > 0")
    part = sys.partition
    z, c, d = part.check_state(s), m.coefficients(part, h), part.dim
    # one step of 4*dim perturbed states, (q, p) + fd_eps e_j in column j, then - fd_eps e_j,
    # and of z itself in the last column, which the adjoint probe steps back
    eye, col = np.eye(2 * d), z.reshape(2 * d, 1)
    block = np.hstack((col + fd_eps * np.hstack((eye, -eye)), col)).reshape(2, d, 4 * d + 1)
    column = c._make(None if x is None else x[:, None] for x in c)  # broadcast over the block
    y = advance(sys.force, column, block)
    jac = (y[:, :, : 2 * d] - y[:, :, 2 * d : 4 * d]).reshape(2 * d, 2 * d) / (2.0 * fd_eps)
    jj = np.zeros((2 * d, 2 * d))
    jj[:d, d:], jj[d:, :d] = eye[:d, :d], -eye[:d, :d]
    adjoint = _state_dev(advance(sys.force, m.coefficients(part, -h), y[:, :, 4 * d]), z)
    return adjoint, float(np.max(np.abs(jac.T @ jj @ jac - jj)))


def adjoint_defect(m: Method, sys: System, h: float, s: State) -> float:
    """Sup-norm of step(-h)(step(h)(s)) - s; zero for a symmetric map."""
    return _structure_pair(m, sys, h, s, FD_EPS)[0]


def symplecticity_defect(m: Method, sys: System, h: float, s: State,
                         fd_eps: float = FD_EPS) -> float:
    """max |M^T J M - J| for the step Jacobian M by central differences."""
    return _structure_pair(m, sys, h, s, fd_eps)[1]


def structure_defects(m: Method, sys: System, h: float, s: State) -> list[DefectReport]:
    """Both probes bundled for reporting, from one step of s."""
    adjoint, sp = _structure_pair(m, sys, h, s, FD_EPS)
    return [DefectReport(m.name, "adjoint", adjoint, h, sys.label),
            DefectReport(m.name, "symplecticity", sp, h, sys.label)]


def non_resonance_max_N(h: float, omega: float, c: float, k_max: int = 1000) -> int:
    """Largest N with |sin(k h omega / 2)| >= c sqrt(h) for every k <= N, for
    the double h*omega that `check` prints and the exact phases k*(h*omega)/2.

    Returns 0 if the bound already fails at k = 1; the scan stops at k_max.
    A phase k h omega / 2 that overflows before the scan stops raises ValueError.
    """
    if not (all(map(math.isfinite, (h, omega, h * omega, c))) and h > 0.0 and c > 0.0):
        raise ValueError("need finite h, omega, h*omega and c with h > 0 and c > 0")
    threshold = c * math.sqrt(h)
    half = 0.5 * (h * omega)
    def sin_phase(k: int) -> float:  # sin(p + e), the exact k*half: p = k*half rounded, e its error
        (pn, pd), (hn, hd) = (k * half).as_integer_ratio(), half.as_integer_ratio()
        p, e = k * half, (k * hn * pd - pn * hd) / (hd * pd)  # exact: int / int rounds once
        return math.sin(p) * math.cos(e) + math.cos(p) * math.sin(e)
    n = 0
    try:
        while n < k_max and abs(sin_phase(n + 1)) >= threshold:
            n += 1
    except OverflowError:  # (k * half).as_integer_ratio() of inf
        raise ValueError(f"the phase k*h*omega/2 = {n + 1}*{half:g} overflows") from None
    return n


# A weight closer to zero than this makes sigma's ratios meaningless.
ZERO_TOL = 1e-14


def sigma(m: ErknMethod, nu: float) -> float:
    """Weight-ratio indicator sigma(nu); identically 1 for the impulse method.

        sigma = sinc(nu) cos(nu/2) / (2 bbar(nu))
                + nu^2 sinc(nu) (sinc(nu/2)/2) / (2 b(nu))
    """
    bb, bw = m.bbar(nu), m.b(nu)
    if abs(bb) < ZERO_TOL or abs(bw) < ZERO_TOL:
        raise ZeroCoefficient(f"{m.name}: weight within {ZERO_TOL:g} of zero at nu = {nu:g}")
    sn = sinc(nu)
    return (sn * math.cos(0.5 * nu) / (2.0 * bb)
            + nu * nu * sn * (0.5 * sinc(0.5 * nu)) / (2.0 * bw))


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
    """Evaluate the non-resonance count, the stepsize floor, and the sigma bound:
    it passes iff sigma (or -sigma) lies in [sigma_lo, sigma_hi] at both nu = 0
    and h*omega. A weight that vanishes there fails it and sets sigma_error;
    a non-finite number (h*omega too), h <= 0, omega < 0 or c <= 0 raises ValueError."""
    nu = h * omega
    if not (all(map(math.isfinite, (h, omega, nu, c, c0, sigma_lo, sigma_hi)))
            and h > 0.0 and omega >= 0.0 and c > 0.0):
        raise ValueError("need finite numbers with h > 0, omega >= 0 and c > 0")
    max_n = non_resonance_max_N(h, omega, c)
    try:
        s0, s1 = sigma(m, 0.0), sigma(m, nu)
        s_pass, s_err = any(all(sigma_lo <= sign * s <= sigma_hi for s in (s0, s1))
                            for sign in (1.0, -1.0)), None
    except ZeroCoefficient as exc:
        s0 = s1 = math.nan
        s_pass, s_err = False, str(exc)
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
class DriftStats:
    max_dH: float
    max_dI: float
    window_ratio_H: float
    window_ratio_I: float


def drift_check(sys: System, h: float, t_end: float, stride: int = 1) -> None:
    """ValueError, raised before any step, if a drift series of sys cannot run: a bad h,
    t_end or stride, a missing or non-finite start (naming the system), or h*omega = inf."""
    if not (0.0 < h <= t_end and math.isfinite(t_end / h)):  # round(t_end/h) steps
        raise ValueError("need 0 < h <= t_end with t_end and t_end/h finite")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if round(t_end / h) > MAX_STEPS or sample_count(h, t_end, stride) > MAX_SAMPLES:
        raise ValueError(f"need at most {MAX_STEPS} steps and {MAX_SAMPLES} samples")
    if sys.initial is None:
        raise ValueError(f"system {sys.label!r} has no designated initial state")
    if not np.isfinite(sys.partition.check_state(sys.initial)).all():
        raise ValueError(f"system {sys.label!r} has a non-finite initial state")
    if not math.isfinite(h * sys.partition.omega):
        raise ValueError("need a finite h*omega")


def sample_count(h: float, t_end: float, stride: int) -> int:
    """Rows of a drift series of round(t_end/h) steps: step 0, every
    stride-th step and the last."""
    return -(-round(t_end / h) // stride) + 1


# Samples one cell, or the cells of one sweep together, may take: rows of 40 B, 4 GB
# in all. A `drift_engine` call peaks at 2.01x its rows for one cell of 200 001 samples
# (7.6 -> 15.3 MiB; 1.48x for 8 cells of 50 001, 1.41x for 64), as its energies, t and
# dH/dI live beside the rows (tracemalloc, ERKN2, FPU m = 3): near 8 GB for one cell.
MAX_SAMPLES = 10**8
# Steps one cell may take: 1-2 days at 11-18 us a step (m = 3, stride 1, a shared Xeon core).
MAX_STEPS = 10**10
# Bytes of sampled states held before their energies are evaluated together.
SAMPLE_BUFFER_BYTES = 1 << 16
# Steps between finiteness tests. A non-finite entry stays so under every step
# map here (a finite cos scales it; nan and inf absorb sums).
FINITE_TEST_STEPS = 64
DriftCell = tuple[Method, System]


def _same_problem(a: System, b: System) -> bool:  # the rule that `drift_engine` states
    q = np.stack([b.initial.q, np.sin(1.0 + np.arange(b.partition.dim))], -1)  # q_k = sin k
    with np.errstate(all="ignore"):  # the potentials first; nan equals nan
        return (a.partition.d1, a.partition.d2) == (b.partition.d1, b.partition.d2) and all(
            f is g or np.array_equal(f(q), g(q), equal_nan=True)
            for f, g in ((a.potential, b.potential), (a.force, b.force)))


def drift_engine(
    cells: Sequence[DriftCell], h: float, t_end: float, stride: int = 1
) -> list[tuple[np.ndarray, Optional[str]]]:
    """Integrate B cells (method, system) that share h, t_end and stride, each
    from its system's initial state, at once, each checked by `drift_check`
    (ValueError before any step) and stepped by its method's coefficients at h:
    q and p are (dim, B) blocks with a column per cell, stacked into one
    (2, dim, B) state that one `step_map` over those columns advances in place.
    The cells share their problem, else ValueError: the first cell's block sizes and
    potential, then force, each the same object or (wrapped or built apart) equal at
    the cell's start and at one fixed point; omega and the start may differ. Kinds
    mix: with a kick-first cell the state carries a third row, the half kick that
    closed the last step (`lift`), and a step still makes one force call.

    Runs n = round(t_end/h) steps and samples step 0, every stride-th step
    and the final step, holding only the energies of the samples taken. A
    block of FINITE_TEST_STEPS steps that ends non-finite is stepped again
    from a copy of its start, one step at a time, to find each blow-up's
    step. The batch never changes shape: a cell whose state turns non-finite
    keeps its samples before that step and a message that says where, and
    its column is set to zero, a state that the built-in problems keep at zero.
    Returns per cell a (k, 5) array of (t, H, I, dH, dI) per sample and None,
    or for a cell that blew up its finite prefix and the message; a finite
    start whose energies overflow runs, with the inf and nan energies it gives.
    """
    if not cells:
        raise ValueError("need at least one cell")
    methods, systems = zip(*cells)
    first, same = systems[0], set()  # ids of the systems accepted
    for m, s in cells:
        drift_check(s, h, t_end, stride)
        if id(s) not in same and not _same_problem(first, s):
            raise ValueError(f"{m.name} on {s.label}: not the problem of {first.label}")
        same.add(id(s))
    stride = min(stride, n := int(round(t_end / h)))  # any stride >= n samples steps 0 and n
    ends: list = [(None, None)] * len(cells)  # samples kept (None: all), blow-up message
    energy: list = []  # (2, k, B) blocks of H and I, one per flush
    coefs = Coefficients.columns([m.coefficients(s.partition, h) for m, s in cells])
    z = np.stack([s.initial.z for s in systems], axis=-1)  # (2, dim, B)
    omega = np.array([s.partition.omega for s in systems])
    slots = max(2, SAMPLE_BUFFER_BYTES // z.nbytes)
    buf = np.zeros(z.shape[:2] + (slots, len(cells)))

    def flush(k: int) -> None:
        # at least two slots: numpy sums a lone sample of a lone cell in
        # another order, and a cell's energies must not depend on its batch
        used = buf[:, :, : max(k, 2)]
        energy.append(np.stack(energies(first, *used, omega))[:, :k])

    # blow-up is an expected, reported condition; silence the overflow chatter
    with np.errstate(over="ignore", invalid="ignore"):
        buf[:, :, 0] = z
        z = lift(first.force, coefs, z)  # the one buffer that every step advances
        y, step = z[:2], step_map(first.force, coefs, z)
        k, due = 1, min(stride, n)  # samples in the buffer, step of the next sample
        for done in range(0, n, FINITE_TEST_STEPS):
            if all(message for _, message in ends):
                break  # every cell has blown up: no step is left to take
            block, start = range(done + 1, min(done + FINITE_TEST_STEPS, n) + 1), z.copy()
            for i in block:
                step()
                if i == due:
                    if k == slots:
                        flush(k)
                        k = 0
                    buf[:, :, k] = y
                    k, due = k + 1, min(due + stride, n)
            if np.logical_and.reduce(np.isfinite(z), axis=None):  # one test per block
                continue
            z[...] = start  # replay the block from its start
            for i in block:
                step()
                bad = ~np.isfinite(z).all(axis=(0, 1))
                for j in np.flatnonzero(bad):
                    if ends[j][1] is None:  # only the first blow-up counts
                        ends[j] = (-(-i // stride),  # the samples before step i
                                   f"{methods[j].name} on {systems[j].label}: "
                                   f"state became non-finite at step {i} (t = {i * h:g})")
                z[..., bad] = 0.0
                if all(message for _, message in ends):
                    break
        flush(k)
        energy = np.concatenate(energy, axis=1)
        t, rows = np.minimum(np.arange(energy.shape[1]) * stride, n) * h, []
        for j, (kept, message) in enumerate(ends):
            e = energy[:, :kept, j]  # H and I, less their first values for dH and dI
            rows.append((np.column_stack((t[:kept], *e, *(e - e[:, :1]))), message))
    return rows


def drift_series(
    method: Method, sys: System, h: float, t_end: float, stride: int = 1
) -> np.ndarray:
    """Integrate from the system's designated initial state, sampling energies:
    the drift engine with one cell.

    Runs n = round(t_end/h) steps and returns the (t, H, I, dH, dI) rows of
    step 0, every stride-th step and the final step: from a finite start whose
    energies overflow too. Raises ValueError for a nan or inf in the start and
    NonFiniteState (carrying the finite prefix's rows) if the trajectory blows up.
    """
    rows, blowup = drift_engine([(method, sys)], h, t_end, stride)[0]
    if blowup is not None:
        raise NonFiniteState(blowup, rows)
    return rows


def drift_stats(rows: np.ndarray) -> DriftStats:
    """Max |dH|, |dI| and the second-half/first-half ratios of those maxima,
    from (t, H, I, dH, dI) rows, such as those of `drift_series`.

    A ratio near 1 means no secular growth. Edge rules: with a zero first
    window the ratio is 1.0 if the second is zero too, else inf.
    """
    if len(rows) == 0:
        raise ValueError("empty drift series")
    t, _, _, dh, di = np.asarray(rows, dtype=float).T
    abs_dh = np.abs(dh)
    abs_di = np.abs(di)
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
