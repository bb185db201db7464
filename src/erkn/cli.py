"""Benchmark command line: single runs, structure reports, and grid sweeps.

Subcommands:
    run    integrate one (method, problem, h, omega) and write a drift CSV
    check  print the structure/assumption report for one method
    sweep  run a method x omega x h grid into a directory plus summary.csv

Exit codes: 0 success, 2 usage error, 3 I/O error (a failed write to stdout or
stderr, and a stdout closed at start, included), 4 trajectory blow-up.
CSV output is deterministic: 17 significant digits, '.' decimal separator,
'\\n' line endings.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys as _sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .methods import METHODS, check_reports, nu_grid_reports
from .splitting import filter_refusal, trig_method_from
from .systems import Partition, System, energies, fpu_system, linear_system
from . import verify
from .verify import (  # drift_series stays a cli attribute: perfbench's tracer wraps it here
    DriftCell,
    DriftStats,
    Method,
    assumption_report,
    drift_check,
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
    output: Optional[str] = None  # None: `default_output_name`


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
    trig = [f"trig:{m.name}" for m in METHODS.values()  # the names the branch above resolves:
            if filter_refusal(m, nu_grid_reports(m)[0]) is None]  # `upsilon_from`'s rule
    raise KeyError(f"unknown method; valid: {', '.join([*METHODS, *trig])}")


# Largest lattice `run` and `sweep` build: a 36-cell sweep at m = 10^4 peaked at
# about 150 MB resident on a 2-core Xeon host.
MAX_M = 10**4


def build_problem(problem: str, m: int, omega: float) -> System:
    """The problem ("fpu" or "linear") at block size m; ValueError if its start has
    a non-finite energy (omega^2 overflows in I from omega near 1e154): every dH nan."""
    if m > MAX_M:  # before anything of size m is allocated
        raise ValueError(f"need m <= {MAX_M}")
    if problem == "fpu":
        system = fpu_system(m, omega)
    elif problem == "linear":
        system = linear_system(Partition(d1=m, d2=m, omega=omega))
    else:
        raise KeyError(f"unknown problem {problem!r}; valid: fpu, linear")
    with np.errstate(over="ignore", invalid="ignore"):
        start = energies(system, *system.initial.z)
    if not np.isfinite(start).all():
        raise ValueError(f"the start of {system.label} has non-finite energies "
                         f"(H = {start[0]:g}, I = {start[1]:g})")
    return system


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
    """Each cell's (method, problem) for `drift_engine`, resolving each
    distinct method name and building each distinct system once; None, with
    one error line printed, if any cell is invalid (`resolve_method`,
    `build_problem` or `drift_check` fails), two cells would write the
    same CSV, or the cells together would take more than `verify.MAX_SAMPLES`
    samples, the most that `_run_cells` could hold at once."""
    resolve = functools.cache(resolve_method)  # one resolution per distinct name
    build = functools.cache(build_problem)  # one system per distinct (problem, m, omega)
    cells, outputs = [], set()
    for cfg in cfgs:
        if cfg.output in outputs:  # a later cell's CSV would overwrite an earlier one's
            print(f"error: two cells would write {cfg.output}", file=err)
            return None
        outputs.add(cfg.output)
        try:
            method, problem = resolve(cfg.method), build(cfg.problem, cfg.m, cfg.omega)
            drift_check(problem, cfg.h, cfg.t_end, cfg.stride)
        except (KeyError, ValueError) as exc:  # the splitting module's errors included
            print(f"error: {cfg.method}: {exc.args[0]}", file=err)
            return None
        cells.append((cfg, (method, problem)))
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
    and that share problem, m, t_end and stride: in cell order, the drift CSV
    of the engine's rows and (exit code, drift statistics) of each cell. The
    first cell of each h makes the one `drift_engine` call over every cell of
    that h, one-stage and kick-first alike, so a CSV is written before any
    later h runs. A blow-up writes the finite prefix and yields EXIT_BLOWUP
    with its statistics; a failed write yields EXIT_IO and ends the run."""
    results = {}  # the engine's rows of the cells not yet written
    for i, (cfg, _) in enumerate(cells):
        if i not in results:  # the first cell of its h
            members = [j for j, (other, _) in enumerate(cells) if other.h == cfg.h]
            batch = drift_engine([cells[j][1] for j in members], cfg.h, cfg.t_end, cfg.stride)
            results.update(zip(members, batch))
        rows, blowup = results.pop(i)
        if blowup is not None:
            print(f"warning: {blowup}; writing partial series", file=err)
        output = cfg.output if cfg.output is not None else default_output_name(
            cfg.method, cfg.omega, cfg.h)  # '' fails to open, as any unwritable path does
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


def cmd_check(
    method: str,
    h: float = ExperimentConfig.h,
    omega: float = ExperimentConfig.omega,
    out: Optional[TextIO] = None,
    err: Optional[TextIO] = None,
    **bounds: float,
) -> int:
    """One method's structure and assumption report; `bounds` go to `assumption_report`."""
    out = out if out is not None else _sys.stdout
    err = err if err is not None else _sys.stderr
    if method not in METHODS:
        print(f"error: unknown method {method!r}; valid: {', '.join(METHODS)}", file=err)
        return EXIT_USAGE
    m = METHODS[method]
    try:
        rep = assumption_report(m, h, omega, **bounds)
    except ValueError as exc:
        print(f"error: {exc}", file=err)
        return EXIT_USAGE
    sym, sp = check_reports(m, rep.h_omega)
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
    else:
        print(f"kick filter: available (Upsilon(0) = {sp.d1:g})", file=out)
    print(
        f"non-resonance: max N = {rep.max_N} "
        f"(|sin(k*h*omega/2)| >= {rep.c:g}*sqrt(h) up to k = N)",
        file=out,
    )
    print(
        f"stepsize floor: h*omega = {rep.h_omega:g} >= c0 = {rep.c0:g}: "
        f"{'pass' if rep.h_condition_pass else 'fail'}",
        file=out,
    )
    if rep.sigma_error is not None:
        print(f"sigma: {rep.sigma_error}", file=out)
    else:
        print(
            f"sigma: sigma(0) = {rep.sigma_at_0:.12g}, "
            f"sigma(h*omega) = {rep.sigma_at_nu:.12g}, "
            f"bounds [{rep.sigma_lo:g}, {rep.sigma_hi:g}]: "
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
        stat_cols = ["nan"] * 4 if code == EXIT_BLOWUP else map(_fmt, vars(stats).values())
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


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse's own ignores a failed write; this one raises
        _sys.stderr.write(f"{self.format_usage()}{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="erkn",
        description="Oscillatory-Hamiltonian integrator benchmarks and structure checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # An option not given stays out of the parsed namespace, so its default
    # lives in ExperimentConfig, cmd_check or assumption_report alone. These
    # trajectory settings are shared by run and sweep.
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
    if _sys.stdout is None:  # started with stdout closed: no report could be written
        raise SystemExit(EXIT_IO)
    if _sys.stderr is None:  # started with stderr closed: a write to it fails, as to a full device
        _sys.stderr = open(os.devnull)  # read-only, so every write raises an OSError
    try:
        code = main()
        _sys.stdout.flush()  # output still buffered for a pipe fails here
    except OSError:
        # a write to stdout or stderr failed (a reader that left early, a full device);
        # both go to devnull so that the flushes at interpreter exit stay quiet too
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (_sys.stdout, _sys.stderr):
            os.dup2(devnull, stream.fileno())
        code = EXIT_IO
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
