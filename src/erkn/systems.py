"""Oscillatory Hamiltonian test systems.

State vectors are stored with the slow block first: q = (q1, q2) with q1 of
length d1 (frequency 0) and q2 of length d2 (frequency omega), and likewise
for p. The model problem is q'' + Omega^2 q = g(q) with g = -grad U.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Partition:
    """Block sizes and stiff frequency of Omega = diag(0_{d1}, omega*I_{d2})."""

    d1: int
    d2: int
    omega: float

    def __post_init__(self) -> None:
        if not (isinstance(self.d1, numbers.Integral) and isinstance(self.d2, numbers.Integral)):
            raise ValueError(f"need integer block sizes, got d1 = {self.d1!r}, d2 = {self.d2!r}")
        if self.d1 < 0 or self.d2 < 1:
            raise ValueError("need d1 >= 0 and d2 >= 1")
        # omega = 0 is allowed: it collapses the fast block onto the slow one,
        # which the non-stiff reduction tests rely on.
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise ValueError("omega must be finite and >= 0")

    @property
    def dim(self) -> int:
        return self.d1 + self.d2

    def check_state(self, s: "State") -> np.ndarray:
        """The (2, dim) array z of the state s, where every entry point that takes
        a `State` reads it; ValueError unless s has this partition's dimension."""
        if s.z.shape != (2, self.dim):
            raise ValueError("state does not match system partition")
        return s.z


@dataclass(frozen=True, init=False, eq=False)
class State:
    """Position/momentum pair, held as one read-only (2, dim) float array z
    whose rows are q and p. Value semantics: `State(q, p)` copies its input,
    `==` compares z, and a state (its z being an array) is unhashable."""

    z: np.ndarray
    __hash__ = None  # type: ignore[assignment]

    def __eq__(self, other: object) -> bool:
        return np.array_equal(self.z, other.z) if isinstance(other, State) else NotImplemented

    def __init__(self, q, p) -> None:
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        if q.ndim != 1 or q.shape != p.shape:
            raise ValueError("q and p must be 1-d arrays of equal length")
        z = np.array((q, p))
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @classmethod
    def of(cls, z: np.ndarray) -> "State":
        """A State around a fresh (2, dim) float array that nothing else holds,
        without the copy and the checks; z is made read-only."""
        z.setflags(write=False)
        s = object.__new__(cls)
        object.__setattr__(s, "z", z)
        return s

    @property
    def q(self) -> np.ndarray:
        return self.z[0]

    @property
    def p(self) -> np.ndarray:
        return self.z[1]


@dataclass(frozen=True)
class System:
    """A partition plus potential U and force g = -grad U.

    Both take q with dim on axis 0: one state, or a block of states along
    the other axes (the drift engine passes (dim, B) blocks), and return one
    value or vector per state. `initial` is the designated starting state
    for benchmark trajectories.
    """

    partition: Partition
    potential: Callable[[np.ndarray], np.ndarray]
    force: Callable[[np.ndarray], np.ndarray]
    label: str
    initial: Optional[State] = None


def _oscillatory(d1: int, omega, q: np.ndarray, p: np.ndarray):
    q2, p2 = q[d1:], p[d1:]
    return 0.5 * np.sum(p2 * p2, axis=0) + 0.5 * omega * omega * np.sum(q2 * q2, axis=0)


def energies(sys: System, q: np.ndarray, p: np.ndarray, omega=None):
    """(H, I) of a block of states: dim on axis 0 of q and p, one state per
    index of the other axes (1-d q and p give scalars). omega defaults to the
    system's; an array that broadcasts over the other axes gives each state
    its own. H = I + 1/2 |p1|^2 + U, so the split off of I is exact."""
    part = sys.partition
    osc = _oscillatory(part.d1, part.omega if omega is None else omega, q, p)
    p1 = p[: part.d1]
    return osc + 0.5 * np.sum(p1 * p1, axis=0) + sys.potential(q), osc


def oscillatory_energy(part: Partition, s: State) -> float:
    """Energy of the fast subsystem, I = 1/2 |p2|^2 + 1/2 omega^2 |q2|^2."""
    q, p = part.check_state(s)
    return float(_oscillatory(part.d1, part.omega, q, p))


def hamiltonian(sys: System, s: State) -> float:
    """Total energy H = 1/2 |p|^2 + 1/2 omega^2 |q2|^2 + U(q)."""
    return float(energies(sys, *sys.partition.check_state(s))[0])


def fpu_initial(m: int, omega: float) -> State:
    """Benchmark starting data: unit displacement and momentum on the first
    soft spring, 1/omega displacement and unit momentum on the first stiff one."""
    if m < 1:
        raise ValueError("need m >= 1")
    if omega <= 0.0:
        raise ValueError("initial data needs omega > 0")
    return _start(Partition(d1=m, d2=m, omega=omega))


def _start(part: Partition) -> State:
    """The designated start of the built-in problems: unit data on the first slow
    coordinate, if any, and (1/omega, 1) on the first fast one ((1, 1) at omega = 0)."""
    z = np.zeros((2, part.dim))  # rows q and p
    if part.d1 > 0:
        z[:, 0] = 1.0
    z[:, part.d1] = (1.0 / part.omega if part.omega > 0.0 else 1.0, 1.0)
    return State.of(z)


def _elongations(q: np.ndarray) -> Callable[[], np.ndarray]:
    # s_0 = q_1 - q_{m+1}, s_i = q_{i+1} - q_{m+i+1} - q_i - q_{m+i} and
    # s_m = -(q_m + q_{2m}), so U = 1/4 sum_i s_i^4 (0-based s, 1-based q).
    # Returns a call that writes s from q (m = len(q) // 2) and returns it; views are made once.
    m = len(q) // 2
    s = np.empty((m + 1,) + q.shape[1:])
    slow, stiff, head, tail, pad = q[:m], q[m:], s[:m], s[1:], s[m:]

    def fill() -> np.ndarray:  # a ufunc's third argument is out
        pad.fill(0.0)  # a view: for 1-d s, s[m] would be a scalar copy
        np.subtract(slow, stiff, head)
        np.subtract(tail, slow, tail)
        np.subtract(tail, stiff, tail)
        return s

    return fill


def _fpu_potential(q: np.ndarray):
    return 0.25 * np.sum(_elongations(q)() ** 4, axis=0)


def _fpu_bind(q: np.ndarray, out: np.ndarray) -> Callable[[], None]:
    # a call that writes g(q) into out. Each s_i^4/4 contributes
    # s_i^3 * ds_i/dq: slow q_i gets s_{i+1}^3 - s_i^3 and stiff q_{m+i}
    # gets s_{i+1}^3 + s_i^3. The cubes come from one array power whatever
    # the shape of q: a scalar ** 3 can round differently, and a batched
    # column must match the single-trajectory step bit for bit.
    m = len(q) // 2
    elongate, cube = _elongations(q), np.empty((m + 1,) + q.shape[1:])
    ahead, behind, slow, stiff = cube[1:], cube[:m], out[:m], out[m:]

    def force_into() -> None:
        np.power(elongate(), _CUBE, cube)
        np.subtract(ahead, behind, slow)
        np.add(ahead, behind, stiff)

    return force_into


def _fpu_force(q: np.ndarray) -> np.ndarray:
    _fpu_bind(q, out := np.empty(q.shape))()
    return out


def _zero_potential(q: np.ndarray):
    return np.zeros(q.shape[1:])


def _zero_force(q: np.ndarray) -> np.ndarray:
    return np.zeros(q.shape)


# the in-place forms, which `step_map` binds to its buffers
_fpu_force.bind, _zero_force.bind = _fpu_bind, lambda q, out: lambda: out.fill(0.0)
_CUBE = np.array(3.0)  # the cube's exponent: np.power converts an int exponent on every call


def fpu_system(m: int, omega: float) -> System:
    """Chain of m stiff springs alternating with quartic soft couplings.

    Positions q[0:m] are the slow (soft) variables and q[m:2m] the stiff ones.
    The quartic potential is

        U(q) = 1/4 [ (q_1 - q_{m+1})^4
                     + sum_{i=1}^{m-1} (q_{i+1} - q_{m+i+1} - q_i - q_{m+i})^4
                     + (q_m + q_{2m})^4 ]

    in 1-based indexing; the force is the hand-derived negative gradient.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return System(
        partition=Partition(d1=m, d2=m, omega=omega),
        potential=_fpu_potential,
        force=_fpu_force,
        label=f"fpu(m={m}, omega={omega:g})",
        initial=fpu_initial(m, omega),
    )


def linear_system(part: Partition) -> System:
    """Force-free problem; its exact flow is the blockwise rotation.

    The designated initial state is the quartic chain's (`_start`).
    """
    return System(
        partition=part,
        potential=_zero_potential,
        force=_zero_force,
        label=f"linear(d1={part.d1}, d2={part.d2}, omega={part.omega:g})",
        initial=_start(part),
    )
