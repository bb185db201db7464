"""Benchmark command line: single runs, structure reports, and grid sweeps.

Subcommands:
    run    integrate one (method, problem, h, omega) and write a drift CSV
    check  print the structure/assumption report for one method
    sweep  run a method x omega x h grid into a directory plus summary.csv

Exit codes: 0 success, 2 usage error, 3 I/O error (a closed stdout included),
4 trajectory blow-up.
CSV output is deterministic: 17 significant digits, '.' decimal separator,
'\\n' line endings.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys as _sys
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .methods import METHODS, NU_GRID, nu_grid_reports, structure_reports
from .splitting import NonSymmetricMethod, filter_refusal, trig_method_from
from .systems import Partition, energies, fpu_system, linear_system
from . import verify
from .verify import (  # drift_series stays a cli attribute: perfbench's tracer wraps it here
    DriftCell,
    DriftStats,
    Method,
    assumption_report,
    drift_coefficients,
    drift_engine,
    drift_series,
    drift_stats,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BLOWUP = 4

# The four benchmark panels: (h, omega).
PRESETS = {
    "fig1": (0.1, 50.0),
    "fig2": (0.1, 200.0),
    "fig3": (0.01, 50.0),
    "fig4": (0.01, 200.0),
}


@dataclass(frozen=True)
class ExperimentConfig:
    method: str
    problem: str = "fpu"
    m: int = 3
    omega: float = 50.0
    h: float = 0.1
    t_end: float = 1000.0
    stride: int = 1
    output: Optional[str] = None


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _gfmt(x: float) -> str:
    return format(float(x), "g")


def resolve_method(name: str) -> Method:
    """Registry lookup; 'trig:<name>' builds the conjugate kick-first scheme."""
    if name in METHODS:
        return METHODS[name]
    if name.startswith("trig:") and name[5:] in METHODS:
        return trig_method_from(METHODS[name[5:]])
    trig = []  # the names the branch above resolves: methods with a kick filter
    for m in METHODS.values():
        with contextlib.suppress(NonSymmetricMethod):
            trig.append(trig_method_from(m).name)
    raise KeyError(f"unknown method; valid: {', '.join([*METHODS, *trig])}")


# Largest lattice `run` and `sweep` build: a 36-cell sweep at m = 10^4 peaked at
# about 150 MB resident on a 2-core Xeon host.
MAX_M = 10**4


def build_problem(cfg: ExperimentConfig):
    """The configured system; ValueError if its start has a non-finite energy
    (omega^2 overflows in I from omega near 1e154), so that every dH would be nan."""
    if cfg.m > MAX_M:  # before anything of size m is allocated
        raise ValueError(f"need m <= {MAX_M}")
    if cfg.problem == "fpu":
        problem = fpu_system(cfg.m, cfg.omega)
    elif cfg.problem == "linear":
        problem = linear_system(Partition(d1=cfg.m, d2=cfg.m, omega=cfg.omega))
    else:
        raise KeyError(f"unknown problem {cfg.problem!r}; valid: fpu, linear")
    with np.errstate(over="ignore", invalid="ignore"):
        start = energies(problem, *problem.initial.z)
    if not np.isfinite(start).all():
        raise ValueError(f"the start of {problem.label} has non-finite energies "
                         f"(H = {start[0]:g}, I = {start[1]:g})")
    return problem


# Rows formatted by one `%` operation; the text of one block is held at a time.
CSV_BLOCK_ROWS = 1 << 14


def write_drift_csv(path: Union[str, Path], rows: np.ndarray) -> None:
    """(t, H, I, dH, dI) rows, such as those of `drift_engine`, as CSV: one `%`
    format (`%.17g` is `_fmt`) and one write per block of CSV_BLOCK_ROWS rows."""
    rows = np.asarray(rows, dtype=float)
    with open(path, "w", newline="") as fh:
        fh.write("t,H,I,dH,dI\n")
        for lo in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[lo : lo + CSV_BLOCK_ROWS]
            fh.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(block)
                     % tuple(block.ravel().tolist()))


def default_output_name(method: str, omega: float, h: float) -> str:
    return f"{method}_w{_gfmt(omega)}_h{_gfmt(h)}.csv"


def _prepare(
    cfgs: Sequence[ExperimentConfig], err: TextIO
) -> Optional[list[tuple[ExperimentConfig, DriftCell]]]:
    """Each cell's problem and coefficients for `drift_engine`, resolving each
    distinct method name and building each distinct system once; None, with one error line printed, if any cell
    is invalid (`resolve_method`, `build_problem` or `drift_coefficients`
    fails) or the cells together would take more than `verify.MAX_SAMPLES`
    samples, all of which `_run_cells` holds before its first write."""
    resolve = functools.cache(resolve_method)  # one resolution per distinct name
    build = functools.cache(  # one system per distinct (problem, m, omega)
        lambda problem, m, omega: build_problem(ExperimentConfig("", problem, m, omega)))
    cells = []
    for cfg in cfgs:
        try:
            method, problem = resolve(cfg.method), build(cfg.problem, cfg.m, cfg.omega)
            coefs = drift_coefficients(method, problem, cfg.h, cfg.t_end, cfg.stride)
        except (KeyError, ValueError) as exc:  # the splitting module's errors included
            print(f"error: {cfg.method}: {exc.args[0]}", file=err)
            return None
        cells.append((cfg, (method, problem, coefs)))
    total = sum(verify.sample_count(cfg.h, cfg.t_end, cfg.stride) for cfg in cfgs)
    if total > verify.MAX_SAMPLES:
        print(f"error: need at most {verify.MAX_SAMPLES} samples in all cells, got {total}",
              file=err)
        return None
    return cells


def _run_cells(
    cells: Sequence[tuple[ExperimentConfig, DriftCell]], out: TextIO, err: TextIO
) -> Iterator[tuple[int, Optional[DriftStats]]]:
    """The run path of `run` and `sweep`, for cells that `_prepare` built
    and that share problem, m, t_end and stride: one `drift_engine` call per
    h, one-stage and kick-first cells alike, then in cell order the drift CSV
    of the engine's rows and (exit code, drift statistics) of each cell. A
    blow-up writes the finite prefix and yields EXIT_BLOWUP with its
    statistics; a failed write yields EXIT_IO and ends the run."""
    results = {}
    for h in dict.fromkeys(cfg.h for cfg, _ in cells):
        members = [i for i, (cfg, _) in enumerate(cells) if cfg.h == h]
        cfg = cells[members[0]][0]
        batch = drift_engine([cells[i][1] for i in members], h, cfg.t_end, cfg.stride)
        results.update(zip(members, batch))

    for i, (cfg, _) in enumerate(cells):
        rows, blowup = results.pop(i)
        if blowup is not None:
            print(f"warning: {blowup}; writing partial series", file=err)
        output = cfg.output or default_output_name(cfg.method, cfg.omega, cfg.h)
        try:
            write_drift_csv(output, rows)
        except OSError as exc:
            print(f"error: cannot write {output}: {exc}", file=err)
            yield EXIT_IO, None
            return
        print(f"wrote {output} ({len(rows)} samples)", file=out)
        yield EXIT_OK if blowup is None else EXIT_BLOWUP, drift_stats(rows)


def cmd_run(
    cfg: ExperimentConfig, out: Optional[TextIO] = None, err: Optional[TextIO] = None
) -> int:
    out = out if out is not None else _sys.stdout
    err = err if err is not None else _sys.stderr
    cells = _prepare([cfg], err)
    if cells is None:
        return EXIT_USAGE
    code, stats = next(_run_cells(cells, out, err))
    if stats is not None:
        print(
            f"max|dH| = {stats.max_dH:.6g}  max|dI| = {stats.max_dI:.6g}  "
            f"window ratio H = {stats.window_ratio_H:.6g}  "
            f"window ratio I = {stats.window_ratio_I:.6g}",
            file=out,
        )
    return code


def _union(a, b):
    """A structure report on the union of two grids, from the reports on each:
    it passes on both and keeps the larger residual."""
    return replace(a, passed=a.passed and b.passed,
                   max_residual=max(a.max_residual, b.max_residual))


def _check_grid(nu: float) -> list[float]:
    """NU_GRID (0 to 10), stretched by at most 1000 evenly spaced points on
    (10, nu] when the operating point nu lies beyond it; the last point is nu
    itself, and the cost stays bounded however large h*omega is."""
    n = min(1000, math.ceil(10.0 * (nu - 10.0)))
    return [*NU_GRID, *(nu - (nu - 10.0) * np.arange(n - 1, -1, -1) / n).tolist()]


def cmd_check(
    method: str,
    h: float = 0.1,
    omega: float = 50.0,
    c: float = 1.0,
    c0: float = 0.1,
    sigma_lo: float = 0.1,
    sigma_hi: float = 10.0,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> int:
    out = out if out is not None else _sys.stdout
    err = err if err is not None else _sys.stderr
    if method not in METHODS:
        print(f"error: unknown method {method!r}; valid: {', '.join(METHODS)}", file=err)
        return EXIT_USAGE
    numbers = (h, omega, h * omega, c, c0, sigma_lo, sigma_hi)
    if not (all(map(math.isfinite, numbers)) and h > 0.0 and omega >= 0.0 and c > 0.0):
        print("error: need finite numbers with h > 0, omega >= 0 and c > 0", file=err)
        return EXIT_USAGE
    m = METHODS[method]
    sym, sp = nu_grid_reports(m)
    stretch = _check_grid(h * omega)[len(NU_GRID):]
    if stretch:
        sym, sp = map(_union, (sym, sp), structure_reports(m, stretch))
    print(f"method {m.name}: c1 = {m.c1:g}", file=out)
    print(
        f"symmetric: {'pass' if sym.passed else 'fail'} "
        f"(max residual {sym.max_residual:.3e})",
        file=out,
    )
    print(
        f"symplectic: {'pass' if sp.passed else 'fail'} "
        f"(d1 = {sp.d1:g}, max residual {sp.max_residual:.3e})",
        file=out,
    )
    refusal = filter_refusal(m, sym)
    if refusal is not None:
        print(f"kick filter: {type(refusal).__name__}: {m.name}: {refusal}", file=out)
    else:  # Upsilon(0) = b(0)/cos(0)
        print(f"kick filter: available (Upsilon(0) = {m.b(0.0):g})", file=out)

    rep = assumption_report(m, h, omega, c=c, c0=c0, sigma_lo=sigma_lo, sigma_hi=sigma_hi)
    print(
        f"non-resonance: max N = {rep.max_N} "
        f"(|sin(k*h*omega/2)| >= {c:g}*sqrt(h) up to k = N)",
        file=out,
    )
    print(
        f"stepsize floor: h*omega = {rep.h_omega:g} >= c0 = {c0:g}: "
        f"{'pass' if rep.h_condition_pass else 'fail'}",
        file=out,
    )
    if rep.sigma_error is not None:
        print(f"sigma: {rep.sigma_error}", file=out)
    else:
        print(
            f"sigma: sigma(0) = {rep.sigma_at_0:.12g}, "
            f"sigma(h*omega) = {rep.sigma_at_nu:.12g}, "
            f"bounds [{sigma_lo:g}, {sigma_hi:g}]: "
            f"{'pass' if rep.sigma_pass else 'fail'}",
            file=out,
        )
    return EXIT_OK


def cmd_sweep(
    methods: Sequence[str],
    omegas: Sequence[float],
    hs: Sequence[float],
    t_end: float,
    outdir: Union[str, Path],
    problem: str = ExperimentConfig.problem,
    m: int = ExperimentConfig.m,
    stride: int = ExperimentConfig.stride,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
) -> int:
    """One drift CSV per (method, omega, h) plus summary.csv; blow-ups get
    nan statistics rows and the sweep keeps going. Every cell is checked
    before anything is written, so invalid input returns EXIT_USAGE and
    leaves no output."""
    out = out if out is not None else _sys.stdout
    err = err if err is not None else _sys.stderr
    if not methods or not omegas or not hs:
        print("error: sweep needs at least one method, omega, and h", file=err)
        return EXIT_USAGE
    outdir = Path(outdir)
    cells = _prepare([
        ExperimentConfig(method=name, problem=problem, m=m, omega=omega, h=h, t_end=t_end,
                         stride=stride, output=str(outdir / default_output_name(name, omega, h)))
        for name in methods for omega in omegas for h in hs
    ], err)
    if cells is None:
        return EXIT_USAGE

    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create {outdir}: {exc}", file=err)
        return EXIT_IO

    any_blowup = False
    rows = []
    for (cfg, _), (code, stats) in zip(cells, _run_cells(cells, out, err)):
        if code == EXIT_IO:
            return code
        any_blowup |= code == EXIT_BLOWUP
        stat_cols = ["nan"] * 4 if code == EXIT_BLOWUP else map(_fmt, astuple(stats))
        rows.append([cfg.method, _gfmt(cfg.omega), _gfmt(cfg.h), *stat_cols])

    try:
        with open(outdir / "summary.csv", "w", newline="") as fh:
            fh.write("method,omega,h,max_dH,max_dI,window_ratio_H,window_ratio_I\n")
            for row in rows:
                fh.write(",".join(row) + "\n")
    except OSError as exc:
        print(f"error: cannot write summary: {exc}", file=err)
        return EXIT_IO
    print(f"wrote {outdir / 'summary.csv'} ({len(rows)} rows)", file=out)
    return EXIT_BLOWUP if any_blowup else EXIT_OK


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _str_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erkn",
        description="Oscillatory-Hamiltonian integrator benchmarks and structure checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # An option not given stays out of the parsed namespace, so its default
    # lives in ExperimentConfig or cmd_check alone. These trajectory settings
    # are shared by run and sweep.
    trajectory = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    trajectory.add_argument("--problem", choices=["fpu", "linear"])
    trajectory.add_argument("--m", type=int, help=f"block size (d1 = d2 = m <= {MAX_M})")
    trajectory.add_argument("--t-end", type=float)
    trajectory.add_argument("--stride", type=int)

    run = sub.add_parser("run", parents=[trajectory], argument_default=argparse.SUPPRESS,
                         help="integrate one trajectory and write a drift CSV")
    run.add_argument("--method", required=True, help="registry name or trig:<name>")
    run.add_argument("--omega", type=float)
    run.add_argument("--h", type=float)
    run.add_argument("--output", "-o")
    run.add_argument("--preset", choices=sorted(PRESETS),
                     help="benchmark panel setting (h, omega); explicit flags override")

    check = sub.add_parser("check", argument_default=argparse.SUPPRESS,
                           help="print a structure/assumption report")
    check.add_argument("method")
    check.add_argument("--h", type=float)
    check.add_argument("--omega", type=float)
    check.add_argument("--c", type=float, help="non-resonance constant")
    check.add_argument("--c0", type=float, help="stepsize floor constant")
    check.add_argument("--sigma-lo", type=float)
    check.add_argument("--sigma-hi", type=float)

    sweep = sub.add_parser("sweep", parents=[trajectory], help="run a method x omega x h grid")
    sweep.add_argument("--methods", required=True, type=_str_list, help="comma separated")
    sweep.add_argument("--omegas", required=True, type=_float_list, help="comma separated")
    sweep.add_argument("--hs", required=True, type=_float_list, help="comma separated")
    sweep.add_argument("--outdir", required=True)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = vars(parser.parse_args(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep that contract for callers
        return int(exc.code) if exc.code is not None else EXIT_USAGE

    # the option names are the parameter names, so the options pass through
    command = args.pop("command")
    if command == "run":
        fallback = (ExperimentConfig.h, ExperimentConfig.omega)
        h, omega = PRESETS.get(args.pop("preset", None), fallback)
        return cmd_run(ExperimentConfig(**{"h": h, "omega": omega, **args}))  # flags win
    if command == "check":
        return cmd_check(**args)
    return cmd_sweep(**{"t_end": ExperimentConfig.t_end, **args})  # the only other command


def console_main() -> None:
    try:
        code = main()
        _sys.stdout.flush()  # output still buffered for a pipe fails here
    except BrokenPipeError:
        # the reader left early; stdout goes to devnull so that the flush at
        # interpreter exit stays quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        code = EXIT_IO
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
