"""The benchmark's three workloads.

Each is a closed loop: one caller, and the next operation starts when the
last one returns. A workload turns a seed into a stream of operation specs,
runs one operation through erkn's public entry points (`run` is the timed
part) and checks its outputs afterwards (`check` is not timed). `rate` names
the throughput it reports: trajectory steps of passing operations, or passing
probe points, per second.

The program is always called through module attributes (`cli.main`,
`verify.structure_defects`, ...) so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from erkn import METHODS, State, cli, fpu_system, splitting, systems, verify

import checks

M = 3  # the paper's FPU lattice: 3 soft and 3 stiff springs


@dataclass
class Outcome:
    """What the check of one or more operations found."""

    attempted: int = 0
    failed: int = 0
    steps: int = 0
    blowups: int = 0
    csv_bytes: int = 0

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.steps += other.steps
        self.blowups += other.blowups
        self.csv_bytes += other.csv_bytes


@dataclass
class Oracles:
    """Oracle energies per (method, omega, h); the trajectories start from
    fixed states, so each is computed once per process."""

    cache: dict = field(default_factory=dict)

    def get(self, method: str, omega: float, h: float) -> np.ndarray:
        key = (method, omega, h)
        if key not in self.cache:
            system = fpu_system(M, omega)
            self.cache[key] = checks.oracle_energies(
                method, system, h, checks.POINTWISE_STEPS
            )
        return self.cache[key]


def _quiet(fn, *args):
    """Call fn with stdout and stderr captured; returns (result, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        result = fn(*args)
    return result, buf.getvalue()


def _check_csv(path: Path, method: str, omega: float, h: float, n: int, stride: int,
               oracles: Oracles):
    """(rows or None, bytes) for one drift CSV; the file is removed."""
    try:
        text = path.read_text()
    except OSError:
        return None, 0
    path.unlink()
    rows = checks.check_drift_csv(text, h, n, stride, oracles.get(method, omega, h))
    return rows, len(text.encode())


@dataclass(frozen=True)
class RunSpec:
    method: str
    preset: str
    steps: int


class RunPresets:
    """`erkn run --preset figK`, K = 1..4, one trajectory per operation at
    stride 1: the paper's panels as a user runs them. Every step is sampled
    and written, so energy sampling, the drift loop and CSV output take about
    half the time. Each run takes STEPS steps whatever its h, so operations
    are alike and their latency is unimodal."""

    name = "run_presets"
    rate = "traj_steps_per_s"
    units_per_op = 1
    trace_ops = 8
    method = "ERKN2"
    STEPS = 2000

    def __init__(self, seed: int):
        self.seed = seed
        self.oracles = Oracles()

    def specs(self) -> Iterator[RunSpec]:
        rng = random.Random(self.seed)
        while True:
            for preset in rng.sample(sorted(cli.PRESETS), len(cli.PRESETS)):
                yield RunSpec(self.method, preset, self.STEPS)

    def first(self) -> tuple[str, float, float]:
        spec = next(self.specs())
        h, omega = cli.PRESETS[spec.preset]
        return spec.method, h, omega

    def run(self, spec: RunSpec, tmp: Path):
        h, _ = cli.PRESETS[spec.preset]
        argv = ["run", "--method", spec.method, "--preset", spec.preset,
                "--t-end", repr(spec.steps * h), "--stride", "1",
                "--output", str(tmp / "run.csv")]
        return _quiet(cli.main, argv)

    def check(self, spec: RunSpec, raw, tmp: Path) -> Outcome:
        code, text = raw
        h, omega = cli.PRESETS[spec.preset]
        rows, size = _check_csv(tmp / "run.csv", spec.method, omega, h, spec.steps, 1,
                                self.oracles)
        ok = code == cli.EXIT_OK and rows is not None and f"({len(rows)} samples)" in text
        return Outcome(1, int(not ok), spec.steps if ok else 0,
                       int(code == cli.EXIT_BLOWUP), size)


@dataclass(frozen=True)
class SweepSpec:
    methods: tuple[str, ...]
    omegas: tuple[float, ...]
    hs: tuple[float, ...]


class SweepGrid:
    """One `erkn sweep` over ERKN1-6 and trig:ERKN2/3/4, omega in {50, 200},
    h in {0.1, 0.01}: 36 cells at a coarse stride. This is dense-grid traffic;
    many (method, omega) cells share one h. Sampling and CSV output fall to a
    few percent, so the step, the force and the trig step dominate. The seed
    only changes the order of the cells."""

    name = "sweep_grid"
    rate = "traj_steps_per_s"
    units_per_op = 36
    trace_ops = 3
    GRID_METHODS = tuple(METHODS) + ("trig:ERKN2", "trig:ERKN3", "trig:ERKN4")
    OMEGAS = (50.0, 200.0)
    HS = (0.1, 0.01)
    T_END = 5.0
    STRIDE = 100

    def __init__(self, seed: int):
        self.seed = seed
        self.oracles = Oracles()

    def specs(self) -> Iterator[SweepSpec]:
        rng = random.Random(self.seed)
        while True:
            yield SweepSpec(*(tuple(rng.sample(v, len(v)))
                              for v in (self.GRID_METHODS, self.OMEGAS, self.HS)))

    def first(self) -> tuple[str, float, float]:
        spec = next(self.specs())
        return spec.methods[0], spec.hs[0], spec.omegas[0]

    def run(self, spec: SweepSpec, tmp: Path):
        argv = ["sweep", "--methods", ",".join(spec.methods),
                "--omegas", ",".join(format(w, "g") for w in spec.omegas),
                "--hs", ",".join(format(h, "g") for h in spec.hs),
                "--t-end", format(self.T_END, "g"), "--stride", str(self.STRIDE),
                "--outdir", str(tmp / "sweep")]
        return _quiet(cli.main, argv)

    def check(self, spec: SweepSpec, raw, tmp: Path) -> Outcome:
        code, _ = raw
        outdir = tmp / "sweep"
        out = Outcome(attempted=self.units_per_op)
        cells, maxima = [], {}
        for method in spec.methods:
            for omega in spec.omegas:
                for h in spec.hs:
                    n = int(round(self.T_END / h))
                    key = (method, format(omega, "g"), format(h, "g"))
                    cells.append(key)
                    rows, size = _check_csv(outdir / cli.default_output_name(method, omega, h),
                                            method, omega, h, n, self.STRIDE, self.oracles)
                    out.csv_bytes += size
                    if rows is None:
                        out.failed += 1
                        continue
                    out.steps += n
                    maxima[key] = (float(np.max(np.abs(rows[:, 3]))),
                                   float(np.max(np.abs(rows[:, 4]))))
        try:
            summary = (outdir / "summary.csv").read_text()
        except OSError:
            summary = ""
        if code != cli.EXIT_OK or not checks.check_summary(summary, cells, maxima):
            out.blowups = int(code == cli.EXIT_BLOWUP)
            out.failed, out.steps = self.units_per_op, 0
        shutil.rmtree(outdir, ignore_errors=True)
        return out


@dataclass(frozen=True)
class Point:
    h: float
    omega: float
    dq: np.ndarray
    dp: np.ndarray


class ProbeGrid:
    """Structure checks at seed-drawn operating points: h log-uniform in
    [0.005, 0.4], omega log-uniform in [5, 400], redrawn near the kick-filter
    poles. Beyond these ranges (omega < 5, or h > 0.4) a few perturbed states
    grow so much within n steps that rounding alone lifts the absolute
    conjugacy deviation past its tolerance; the check would then measure the
    growth of the state rather than the conjugacy. At each point every method runs `check`, structure_defects at a
    perturbed FPU state and assumption_report; the symmetric ones also run
    conjugacy_check. Almost all the cost is set-up of steppers, filters and
    coefficients; long stepping is absent."""

    name = "probe_grid"
    rate = "probe_points_per_s"
    units_per_op = 1
    trace_ops = 100
    H_RANGE = (0.005, 0.4)
    OMEGA_RANGE = (5.0, 400.0)
    POLE_GAP = 1e-3
    PERTURBATION = 0.1
    CONJUGACY_N = 4

    def __init__(self, seed: int):
        self.seed = seed

    def specs(self) -> Iterator[Point]:
        rng = random.Random(self.seed)
        log_uniform = lambda lo, hi: math.exp(rng.uniform(math.log(lo), math.log(hi)))
        while True:
            h, omega = log_uniform(*self.H_RANGE), log_uniform(*self.OMEGA_RANGE)
            if abs(math.cos(0.5 * h * omega)) < self.POLE_GAP:
                continue
            dq, dp = (np.array([rng.gauss(0.0, self.PERTURBATION) for _ in range(2 * M)])
                      for _ in range(2))
            yield Point(h, omega, dq, dp)

    def first(self) -> tuple[str, float, float]:
        pt = next(self.specs())
        return next(iter(METHODS)), pt.h, pt.omega

    def run(self, pt: Point, tmp: Path) -> list[checks.ProbeResult]:
        system = systems.fpu_system(M, pt.omega)
        s = State(system.initial.q + pt.dq, system.initial.p + pt.dp)
        results = []
        for name, m in METHODS.items():
            buf = io.StringIO()
            code = cli.cmd_check(name, h=pt.h, omega=pt.omega, out=buf, err=buf)
            defects = verify.structure_defects(m, system, pt.h, s)
            report = verify.assumption_report(m, pt.h, pt.omega)
            conj = (splitting.conjugacy_check(m, system, pt.h, s, self.CONJUGACY_N)
                    if name in checks.SYMMETRIC else None)
            results.append(checks.ProbeResult(name, code, buf.getvalue(), defects, report, conj))
        return results

    def check(self, pt: Point, raw, tmp: Path) -> Outcome:
        return Outcome(1, int(not checks.check_probe(pt.h, pt.omega, raw)))


WORKLOADS = {w.name: w for w in (RunPresets, SweepGrid, ProbeGrid)}

