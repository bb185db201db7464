"""Output checks for the benchmark workloads.

Every check returns True when the output is right. The workloads count a
False as one failed operation, so a wrong answer can never look like a fast
one. The oracles are independent routes to the same trajectory: the Strang
composition for the symmetric methods, the composed kick-first scheme for the
trig conjugates, and a direct transcription of the one-stage formula for the
rest. The FPU lattice is chaotic, so they are compared pointwise over at most
the first 100 steps and within a tolerance, never bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from erkn import (
    METHODS,
    AssumptionReport,
    ConjugacyReport,
    DefectReport,
    State,
    System,
    hamiltonian,
    oscillatory_energy,
    strang_lnl_step,
    trig_method_from,
    trig_step_composed,
    upsilon_from,
)

CSV_HEADER = "t,H,I,dH,dI"
SUMMARY_HEADER = "method,omega,h,max_dH,max_dI,window_ratio_H,window_ratio_I"
SYMMETRIC = ("ERKN2", "ERKN3", "ERKN4")
SYMPLECTIC = ("ERKN2", "ERKN5", "ERKN6")

# Oracle energies against CSV energies, relative to max(1, |value|).
POINTWISE_TOL = 1e-9
POINTWISE_STEPS = 100
# Acceptance gate 5 bounds the drift by 10 h.
DRIFT_BOUND_PER_H = 10.0
ADJOINT_TOL = 1e-11
CONJUGACY_TOL = 1e-9


def _sinc(x: float) -> float:
    return math.sin(x) / x if x != 0.0 else 1.0


def formula_stepper(name: str, system: System, h: float):
    """The one-stage step written out from its defining formula."""
    m = METHODS[name]
    part = system.partition
    nu = h * part.omega

    def block(f):
        v = np.full(part.dim, f(nu))
        v[: part.d1] = f(0.0)
        return v

    stage_cos = block(lambda x: math.cos(m.c1 * x))
    stage_sin = block(lambda x: m.c1 * h * _sinc(m.c1 * x))
    cos_full = block(math.cos)
    sin_full = block(lambda x: h * _sinc(x))
    omega_sin = block(lambda x: part.omega * math.sin(x))
    h2_bbar = block(lambda x: h * h * m.bbar(x))
    h_b = block(lambda x: h * m.b(x))

    def step(s: State) -> State:
        g = system.force(stage_cos * s.q + stage_sin * s.p)
        q = cos_full * s.q + sin_full * s.p + h2_bbar * g
        p = cos_full * s.p - omega_sin * s.q + h_b * g
        return State(q, p)

    return step


def oracle_step(name: str, system: System, h: float):
    if name.startswith("trig:"):
        tm = trig_method_from(METHODS[name[5:]])
        return lambda s: trig_step_composed(tm, system, h, s)
    if name in SYMMETRIC:
        m = METHODS[name]
        ups = upsilon_from(m)
        return lambda s: strang_lnl_step(m, system, h, s, upsilon=ups)
    return formula_stepper(name, system, h)


def oracle_energies(name: str, system: System, h: float, steps: int) -> np.ndarray:
    """(H, I) after 0..steps oracle steps from the system's initial state."""
    step = oracle_step(name, system, h)
    s = system.initial
    out = np.empty((steps + 1, 2))
    for i in range(steps + 1):
        if i:
            s = step(s)
        out[i] = hamiltonian(system, s), oscillatory_energy(system.partition, s)
    return out


def sampled_steps(n: int, stride: int) -> list[int]:
    """Steps a drift series records: 0, every stride-th step, and the last."""
    return [0] + [i for i in range(1, n + 1) if i % stride == 0 or i == n]


def parse_drift_csv(text: str) -> Optional[np.ndarray]:
    """Rows of a drift CSV as an (n, 5) array, or None if malformed."""
    lines = text.split("\n")
    if len(lines) < 3 or lines[0] != CSV_HEADER or lines[-1] != "":
        return None
    try:
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:-1]])
    except ValueError:
        return None
    if rows.ndim != 2 or rows.shape[1] != 5:
        return None
    return rows


def check_drift_csv(
    text: str, h: float, n: int, stride: int, oracle: np.ndarray
) -> Optional[np.ndarray]:
    """Parsed rows if the CSV is exactly right, else None.

    Right means: exact header, one row per sampled step with t = i*h, every
    value finite, energies at the sampled steps up to len(oracle)-1 within
    POINTWISE_TOL of the oracle, and max |dH|, |dI| within gate 5's 10 h.
    """
    rows = parse_drift_csv(text)
    steps = sampled_steps(n, stride)
    if rows is None or len(rows) != len(steps) or not np.isfinite(rows).all():
        return None
    if any(rows[k, 0] != i * h for k, i in enumerate(steps)):
        return None
    h0, i0 = oracle[0]
    for k, i in enumerate(steps):
        if i >= len(oracle):
            break
        hh, ii = oracle[i]
        want = (hh, ii, hh - h0, ii - i0)
        for got, w in zip(rows[k, 1:], want):
            if abs(got - w) > POINTWISE_TOL * max(1.0, abs(w)):
                return None
    bound = DRIFT_BOUND_PER_H * h
    if np.max(np.abs(rows[:, 3])) > bound or np.max(np.abs(rows[:, 4])) > bound:
        return None
    return rows


def check_summary(text: str, cells: Sequence[tuple[str, str, str]], maxima: dict) -> bool:
    """summary.csv lists every cell once, with the maxima of its drift CSV."""
    lines = text.split("\n")
    if lines[0] != SUMMARY_HEADER or lines[-1] != "" or len(lines) != len(cells) + 2:
        return False
    seen = set()
    for line in lines[1:-1]:
        f = line.split(",")
        key = tuple(f[:3])
        if len(f) != 7 or key in seen or key not in maxima:
            return False
        seen.add(key)
        try:
            if (float(f[3]), float(f[4])) != maxima[key]:
                return False
        except ValueError:
            return False
    return seen == set(cells)


@dataclass(frozen=True)
class ProbeResult:
    """Everything one method produced at one operating point."""

    method: str
    exit_code: int
    check_text: str
    defects: list[DefectReport]
    report: AssumptionReport
    conjugacy: Optional[ConjugacyReport]


def check_probe(h: float, omega: float, results: Sequence[ProbeResult]) -> bool:
    """One operating point: every method's check output reproduces the
    registry table and agrees with assumption_report; the symmetric methods
    have adjoint defect <= ADJOINT_TOL and conjugacy deviation <= CONJUGACY_TOL."""
    if [r.method for r in results] != list(METHODS):
        return False
    for r in results:
        sym = "pass" if r.method in SYMMETRIC else "fail"
        spl = "pass" if r.method in SYMPLECTIC else "fail"
        lines = r.check_text.split("\n")
        if r.exit_code != 0 or r.report.h_omega != h * omega:
            return False
        if not any(x.startswith(f"symmetric: {sym} ") for x in lines):
            return False
        if not any(x.startswith(f"symplectic: {spl} ") for x in lines):
            return False
        if not any(x.startswith(f"non-resonance: max N = {r.report.max_N} ") for x in lines):
            return False
        if not all(math.isfinite(d.defect) for d in r.defects):
            return False
        if r.method in SYMMETRIC:
            adjoint = next(d.defect for d in r.defects if d.kind == "adjoint")
            if adjoint > ADJOINT_TOL or r.conjugacy is None:
                return False
            if not r.conjugacy.max_deviation <= CONJUGACY_TOL:
                return False
    return True
