"""Structure probes, stepsize-assumption checkers, and drift analytics.

The algebraic checkers in `methods` test coefficients; the probes here test
the realized one-step map numerically, which is an independent route to the
same properties. Drift series back the long-horizon energy experiments.
"""

from __future__ import annotations

import functools
import math
import numbers
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


@functools.lru_cache(maxsize=8)
def _probe_constants(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """FD_EPS (I, -I), a perturbation per column, and J = ((0, I), (-I, 0)), read-only."""
    eye = np.eye(2 * dim)
    jj = np.zeros((2 * dim, 2 * dim))
    jj[:dim, dim:], jj[dim:, :dim] = eye[:dim, :dim], -eye[:dim, :dim]
    moves = FD_EPS * np.hstack((eye, -eye))
    moves.flags.writeable = jj.flags.writeable = False
    return moves, jj


def _structure_pair(m: Method, sys: System, h: float, s: State) -> tuple[float, float]:
    """The (adjoint, symplecticity) defects of the three probes, from one step of s."""
    part = sys.partition
    z, c, d = part.check_state(s), m.coefficients(part, h), part.dim
    # one step of 4*dim perturbed states, (q, p) + FD_EPS e_j in column j, then - FD_EPS e_j,
    # and a copy of z in the last column (z + 0.0 would turn -0.0 into +0.0) to step back
    (moves, jj), col = _probe_constants(d), z.reshape(2 * d, 1)
    block = np.concatenate((col + moves, col), axis=1).reshape(2, d, 4 * d + 1)
    column = c._make(None if x is None else x[:, None] for x in c)  # broadcast over the block
    y = advance(sys.force, column, block)
    jac = (y[:, :, : 2 * d] - y[:, :, 2 * d : 4 * d]).reshape(2 * d, 2 * d) / (2.0 * FD_EPS)
    adjoint = _state_dev(advance(sys.force, m.coefficients(part, -h), y[:, :, 4 * d]), z)
    return adjoint, float(np.max(np.abs(jac.T @ jj @ jac - jj)))


def adjoint_defect(m: Method, sys: System, h: float, s: State) -> float:
    """Sup-norm of step(-h)(step(h)(s)) - s; zero for a symmetric map."""
    return _structure_pair(m, sys, h, s)[0]


def symplecticity_defect(m: Method, sys: System, h: float, s: State) -> float:
    """max |M^T J M - J| for the step Jacobian M by central differences of step FD_EPS."""
    return _structure_pair(m, sys, h, s)[1]


def structure_defects(m: Method, sys: System, h: float, s: State) -> list[DefectReport]:
    """Both probes bundled for reporting, from one step of s."""
    adjoint, sp = _structure_pair(m, sys, h, s)
    return [DefectReport(m.name, "adjoint", adjoint, h, sys.label),
            DefectReport(m.name, "symplecticity", sp, h, sys.label)]


@functools.lru_cache(maxsize=16)
def non_resonance_max_N(h: float, omega: float, c: float) -> int:
    """Largest N with |sin(k h omega / 2)| >= c sqrt(h) for every k <= N, for
    the double h*omega that `check` prints and the exact phases k*(h*omega)/2.

    Returns 0 if the bound already fails at k = 1; the scan stops at k = 1000.
    A phase k h omega / 2 that overflows before the scan stops raises ValueError.
    The last 16 results are kept: the methods checked at one (h, omega) share a scan.
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
        while n < 1000 and abs(sin_phase(n + 1)) >= threshold:
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
    t_end or stride (an integer >= 1), a missing or non-finite start (naming the system),
    or h*omega = inf."""
    if not (0.0 < h <= t_end and math.isfinite(t_end / h)):  # round(t_end/h) steps
        raise ValueError("need 0 < h <= t_end with t_end and t_end/h finite")
    if not isinstance(stride, numbers.Integral):  # samples are taken at integer steps
        raise ValueError(f"stride must be an integer, got {stride!r}")
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
# in all. A `drift_engine` call peaks at 1.82x its rows for one cell of 200 001 samples
# (7.6 -> 13.9 MiB; 1.46x for 8 cells of 50 001, 1.41x for 64), as its energies live
# beside the rows (tracemalloc, ERKN2, FPU m = 3): near 7.3 GB for one cell.
MAX_SAMPLES = 10**8
# Steps one cell may take: 1-2 days at 11-18 us a step (m = 3, stride 1, a shared Xeon core).
MAX_STEPS = 10**10
# Bytes of sampled states held before their energies are evaluated together.
SAMPLE_BUFFER_BYTES = 1 << 16
# Steps between finiteness tests. A non-finite entry stays so under every step
# map here (a finite cos scales it; nan and inf absorb sums).
FINITE_TEST_STEPS = 64
DriftCell = tuple[Method, System]


def drift_engine(
    cells: Sequence[DriftCell], h: float, t_end: float, stride: int = 1
) -> list[tuple[np.ndarray, Optional[str]]]:
    """Integrate B cells (method, system) that share h, t_end and stride, each
    from its system's initial state, at once, each system object checked by
    `drift_check` at its first cell (ValueError before any step, in cell order)
    and each cell stepped by its method's coefficients at h:
    q and p are (dim, B) blocks with a column per cell, stacked into one
    (2, dim, B) state that one `step_map` over those columns advances in place.
    The cells share their problem, else ValueError: the first cell's block sizes and
    its potential object, which names the problem, as a System's force is -grad of its
    potential; no function is evaluated, so a wrapped force (counted, traced) passes.
    Omega and the start may differ: `dataclasses.replace` one system to vary them. Kinds
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
    first, blocks = systems[0], (systems[0].partition.d1, systems[0].partition.d2)
    checked = set()  # ids of the systems that passed drift_check
    for m, s in cells:
        if id(s) not in checked:
            drift_check(s, h, t_end, stride)
            checked.add(id(s))
        if s.potential is not first.potential or (s.partition.d1, s.partition.d2) != blocks:
            raise ValueError(f"{m.name} on {s.label}: not the problem of {first.label}")
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
        rows = np.empty((len(cells), energy.shape[1], 5))  # (t, H, I, dH, dI) per cell
        rows[:, :, 0] = np.minimum(np.arange(energy.shape[1]) * stride, n) * h
        rows[:, :, 1:3] = energy.T
        np.subtract(rows[:, :, 1:3], rows[:, :1, 1:3], out=rows[:, :, 3:])
    return [(rows[j, :kept], message) for j, (kept, message) in enumerate(ends)]


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
    rows = np.asarray(rows, dtype=float)
    if len(rows) == 0:
        raise ValueError("empty drift series")
    t, dev = rows[:, 0], np.abs(rows[:, 3:5])  # |dH| and |dI|
    first = t <= 0.5 * (t[0] + t[-1])  # rows need not be sorted by t
    second = dev[~first]
    a = dev[first].max(axis=0).tolist()  # the windows' maxima of |dH| and |dI|
    b = second.max(axis=0).tolist() if len(second) else (0.0, 0.0)
    top = [math.nan if math.isnan(x + y) else max(x, y) for x, y in zip(a, b)]  # nan stays
    return DriftStats(*top, *((1.0 if y == 0.0 else math.inf) if x == 0.0 else y / x
                              for x, y in zip(a, b)))
