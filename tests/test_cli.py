"""Command line wiring: formats, filenames, exit codes, determinism."""

import contextlib
import inspect
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import erkn

from erkn.cli import (
    CSV_BLOCK_ROWS,
    EXIT_BLOWUP,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    PRESETS,
    ExperimentConfig,
    build_problem,
    cmd_check,
    cmd_run,
    cmd_sweep,
    default_output_name,
    main,
    resolve_method,
    write_drift_csv,
)
from erkn import METHODS, NU_GRID, TrigMethod, cli, methods, verify
from erkn.methods import check_reports, nu_grid_reports
from erkn.splitting import filter_refusal


def run_cfg(tmp_path, **kw):
    out = tmp_path / kw.pop("name", "out.csv")
    cfg = ExperimentConfig(output=str(out), **kw)
    return cfg, out


def test_resolve_method_registry_and_conjugates():
    assert resolve_method("ERKN3") is METHODS["ERKN3"]
    tm = resolve_method("trig:ERKN2")
    assert isinstance(tm, TrigMethod)
    assert tm.name == "trig:ERKN2"
    with pytest.raises(KeyError):
        resolve_method("ERKN9")


def test_every_method_the_error_lists_resolves():
    """The names that an unknown method's error lists as valid all resolve:
    `trig:` only for the methods that have a kick filter."""
    with pytest.raises(KeyError) as info:
        resolve_method("NOPE")
    message = info.value.args[0]
    assert "NOPE" not in message  # the CLI's error prefix names it
    names = re.fullmatch(r"unknown method; valid: (.*)", message).group(1).split(", ")
    assert names == [*METHODS, "trig:ERKN2", "trig:ERKN3", "trig:ERKN4"]
    for name in names:
        assert resolve_method(name).name == name


def test_build_problem_kinds():
    sys = build_problem("fpu", 2, 10.0)
    assert sys.partition.d1 == 2 and sys.partition.omega == 10.0
    lin = build_problem("linear", 1, 5.0)
    assert np.all(lin.force(np.ones(2)) == 0.0)
    with pytest.raises(KeyError):
        build_problem("kepler", 3, 50.0)


def test_csv_format(tmp_path):
    path = tmp_path / "f.csv"
    rows = np.array([
        (0.0, 2.00120008, 1.0, 0.0, 0.0),
        (0.1, 2.0, 1.0, 1.0 / 3.0, -0.25),
    ])
    write_drift_csv(path, rows)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().split("\n")
    assert lines[0] == "t,H,I,dH,dI"
    assert lines[1] == "0,2.0012000799999998,1,0,0"
    # 17 significant digits round-trip exactly
    assert float(lines[2].split(",")[3]) == 1.0 / 3.0


@pytest.mark.parametrize("rows", [
    np.array([(0.0, np.nan, np.inf, -np.inf, -0.0),
              (5e-324, -2.2250738585072014e-308, 1e-310, 1.0 / 3.0, -1e300)]),
    np.zeros((0, 5)),
    np.random.default_rng(3).standard_normal((2001, 5)) * 10.0 ** np.arange(-2, 3),
    np.random.default_rng(4).standard_normal((2 * CSV_BLOCK_ROWS + 3, 5)),
])
def test_csv_bytes_equal_a_per_value_format(tmp_path, rows):
    """One `%` format per block of rows writes what format(x, ".17g") gives
    value by value, for nan, +-inf, -0.0, subnormals, an empty series, a
    run's 2001 rows and rows that span three blocks."""
    path = tmp_path / "f.csv"
    write_drift_csv(path, rows)
    lines = ["t,H,I,dH,dI"] + [",".join(format(x, ".17g") for x in row) for row in rows]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_default_output_name_formatting():
    assert default_output_name("ERKN2", 50.0, 0.1) == "ERKN2_w50_h0.1.csv"
    assert default_output_name("trig:ERKN3", 200.0, 0.01) == "trig:ERKN3_w200_h0.01.csv"


def test_cmd_run_writes_expected_rows(tmp_path):
    cfg, out = run_cfg(tmp_path, method="ERKN2", omega=50.0, h=0.1, t_end=2.0)
    buf = io.StringIO()
    assert cmd_run(cfg, out=buf) == EXIT_OK
    lines = out.read_text().splitlines()
    assert len(lines) == 22  # header + 21 samples
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 2.00120008, 1.0, 0.0, 0.0]
    assert "max|dH|" in buf.getvalue()


def test_cmd_run_usage_errors(tmp_path):
    err = io.StringIO()
    cfg = ExperimentConfig(method="NOPE", output=str(tmp_path / "x.csv"))
    assert cmd_run(cfg, err=err) == EXIT_USAGE
    assert "unknown method" in err.getvalue()
    cfg = ExperimentConfig(method="ERKN2", h=-0.1, output=str(tmp_path / "x.csv"))
    assert cmd_run(cfg, err=io.StringIO()) == EXIT_USAGE


def test_cmd_run_io_error(tmp_path):
    # the destination is a directory, so the CSV open fails
    cfg = ExperimentConfig(method="ERKN2", t_end=1.0, output=str(tmp_path))
    assert cmd_run(cfg, err=io.StringIO()) == EXIT_IO


def test_an_empty_output_path_fails_to_write(tmp_path, monkeypatch, capsys):
    """`-o ''` names a path that cannot be opened, not the default CSV name."""
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--method", "ERKN2", "--t-end", "1", "-o", ""]) == EXIT_IO
    assert capsys.readouterr().err.startswith("error: cannot write : ")
    assert list(tmp_path.iterdir()) == []


def test_cmd_run_blow_up_writes_partial_series(tmp_path):
    cfg, out = run_cfg(tmp_path, method="ERKN2", omega=50.0, h=1.0, t_end=50.0)
    err = io.StringIO()
    assert cmd_run(cfg, out=io.StringIO(), err=err) == EXIT_BLOWUP
    lines = out.read_text().splitlines()
    assert lines[0] == "t,H,I,dH,dI"
    assert 2 <= len(lines) < 52
    assert "partial" in err.getvalue()


def test_cmd_run_is_deterministic(tmp_path):
    a_cfg, a = run_cfg(tmp_path, name="a.csv", method="ERKN3", omega=50.0, h=0.1, t_end=5.0)
    b_cfg, b = run_cfg(tmp_path, name="b.csv", method="ERKN3", omega=50.0, h=0.1, t_end=5.0)
    assert cmd_run(a_cfg, out=io.StringIO()) == EXIT_OK
    assert cmd_run(b_cfg, out=io.StringIO()) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_cmd_check_reports_structure():
    buf = io.StringIO()
    assert cmd_check("ERKN2", out=buf) == EXIT_OK
    text = buf.getvalue()
    assert "symmetric: pass" in text
    assert "symplectic: pass" in text
    assert "max N = 4" in text
    assert "sigma(0) = 1" in text

    buf = io.StringIO()
    assert cmd_check("ERKN1", out=buf) == EXIT_OK
    text = buf.getvalue()
    assert "symmetric: fail" in text
    assert "kick filter: NonSymmetricMethod: ERKN1: symmetry residual " in text

    buf = io.StringIO()
    assert cmd_check("ERKN5", out=buf) == EXIT_OK
    assert "NonSymmetricMethod" in buf.getvalue()


def test_cmd_check_unknown_method():
    assert cmd_check("NOPE", err=io.StringIO()) == EXIT_USAGE


def test_cmd_check_stretches_grid_beyond_default(monkeypatch):
    # operating points nu = 40 and 1e5 lie outside the default grid; the report
    # must still evaluate there rather than silently clipping, on a stretch
    # beyond NU_GRID that ends at nu and stays bounded in size and finite, up to
    # the largest nu (where (nu - 10) k and 10 (nu - 10) overflow)
    grids, scan = [], methods.structure_reports
    monkeypatch.setattr(methods, "structure_reports",
                        lambda m, grid=NU_GRID: grids.append(grid) or scan(m, grid))
    for h, omega in [(0.2, 200.0), (1.0, 1e5), (1.0, 2e305), (1.0, 1e306), (1.0, 1e307),
                     (1.0, 1.7e308)]:
        buf = io.StringIO()
        assert cmd_check("ERKN2", h=h, omega=omega, out=buf) == EXIT_OK
        text = buf.getvalue()
        assert "symmetric: pass" in text and "symplectic: pass" in text, text
        assert f"h*omega = {h * omega:g} >= c0 = 0.1: pass" in text
        assert omega > 1e300 or "sigma(h*omega)" in text  # far out, ERKN2's b(nu) is ~0
        stretch = grids[-1].tolist()
        assert 10.0 < stretch[0] and stretch[-1] == h * omega and all(map(math.isfinite, stretch))
        assert len(stretch) <= 1000 and all(a < b for a, b in zip(stretch, stretch[1:]))


def test_cmd_sweep_layout(tmp_path):
    outdir = tmp_path / "grid"
    code = cmd_sweep(
        ["ERKN2", "ERKN4"],
        [50.0],
        [0.1, 0.05],
        t_end=5.0,
        outdir=outdir,
        out=io.StringIO(),
    )
    assert code == EXIT_OK
    names = sorted(p.name for p in outdir.iterdir())
    assert names == [
        "ERKN2_w50_h0.05.csv",
        "ERKN2_w50_h0.1.csv",
        "ERKN4_w50_h0.05.csv",
        "ERKN4_w50_h0.1.csv",
        "summary.csv",
    ]
    summary = (outdir / "summary.csv").read_text().splitlines()
    assert summary[0] == "method,omega,h,max_dH,max_dI,window_ratio_H,window_ratio_I"
    assert len(summary) == 5
    assert summary[1].startswith("ERKN2,50,0.1,")


def test_cmd_sweep_records_blow_up_rows(tmp_path):
    outdir = tmp_path / "grid"
    code = cmd_sweep(
        ["ERKN2"],
        [50.0],
        [0.1, 1.0],
        t_end=30.0,
        outdir=outdir,
        out=io.StringIO(),
        err=io.StringIO(),
    )
    assert code == EXIT_BLOWUP
    rows = (outdir / "summary.csv").read_text().splitlines()[1:]
    good = [r for r in rows if r.startswith("ERKN2,50,0.1")]
    bad = [r for r in rows if r.startswith("ERKN2,50,1,")]
    assert "nan,nan,nan,nan" in bad[0]
    assert "nan" not in good[0]


def test_cmd_sweep_usage_errors(tmp_path):
    assert cmd_sweep([], [50.0], [0.1], 5.0, tmp_path, err=io.StringIO()) == EXIT_USAGE
    assert (
        cmd_sweep(["NOPE"], [50.0], [0.1], 5.0, tmp_path, err=io.StringIO())
        == EXIT_USAGE
    )


def test_a_sweep_reports_one_invalid_cell(tmp_path, capsys):
    """Of several invalid cells a sweep names the first, in one error line
    that starts with its method, and writes nothing."""
    argv = ["sweep", "--methods", "FOO,trig:ERKN5,ERKN2", "--omegas", "50", "--hs", "0.1",
            "--outdir", str(tmp_path / "grid")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: FOO: unknown method; valid: "), err
    assert not (tmp_path / "grid").exists()


@pytest.mark.parametrize("grid", [
    ["--methods", "ERKN2", "--omegas", "50", "--hs", "0.1,0.1000001"],
    ["--methods", "ERKN2", "--omegas", "50,50.0000001", "--hs", "0.1"],
    ["--methods", "ERKN2,ERKN2", "--omegas", "50", "--hs", "0.1"],
])
def test_a_sweep_refuses_cells_that_share_a_csv(tmp_path, capsys, grid):
    """Cells whose CSV names coincide (`default_output_name` keeps 6 digits
    of omega and h, and a repeated value repeats its name) would overwrite
    each other: the sweep exits 2 with one error line naming the shared file
    and creates no directory."""
    outdir = tmp_path / "d"
    assert main(["sweep", *grid, "--t-end", "1", "--outdir", str(outdir)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: two cells would write {outdir / 'ERKN2_w50_h0.1.csv'}\n"
    assert captured.out == "" and not outdir.exists()


def test_a_sweep_bounds_the_samples_of_all_its_cells(tmp_path, capsys, monkeypatch):
    """The cells of a sweep together may take at most MAX_SAMPLES samples: the
    run path runs the cells of one h when the first of them is due, but h
    varies fastest in a sweep, so the rows of every cell may be held at once;
    each cell alone fits in the bound at which the sweep is refused."""
    argv = ["sweep", "--methods", "ERKN2,trig:ERKN3", "--omegas", "50,200", "--hs", "0.1,0.05",
            "--t-end", "10", "--stride", "3", "--outdir", str(tmp_path / "grid")]
    per_cell = [verify.sample_count(h, 10.0, 3) for h in (0.1, 0.05)]  # 35 and 68
    total = 4 * sum(per_cell)
    monkeypatch.setattr(verify, "MAX_SAMPLES", total - 1)
    assert max(per_cell) <= verify.MAX_SAMPLES
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: need at most {total - 1} samples in all cells, got {total}"]
    assert not (tmp_path / "grid").exists()
    monkeypatch.setattr(verify, "MAX_SAMPLES", total)
    assert main(argv) == EXIT_OK
    assert len(list((tmp_path / "grid").iterdir())) == 9


def test_a_stride_beyond_the_step_count_samples_the_first_and_last_steps(tmp_path, capsys):
    """Any stride of at least n = round(t_end/h) steps samples steps 0 and n,
    so `run` and `sweep` write the same bytes at strides 2**63 and 2**70,
    beyond a C long, as at stride n."""
    def outputs(stride: int) -> list[bytes]:
        where = tmp_path / f"stride{stride}"
        run, grid = where / "run.csv", where / "grid"
        where.mkdir()
        assert main(["run", "--method", "trig:ERKN2", "--t-end", "1", "--stride", str(stride),
                     "-o", str(run)]) == EXIT_OK
        assert main(["sweep", "--methods", "ERKN2,trig:ERKN3", "--omegas", "50,200", "--hs", "0.1",
                     "--t-end", "1", "--stride", str(stride), "--outdir", str(grid)]) == EXIT_OK
        out = capsys.readouterr().out.replace(str(where), "D")
        return [out.encode(), run.read_bytes(),
                *(p.read_bytes() for p in sorted(grid.iterdir()))]

    at_n = outputs(10)
    assert len(at_n) == 7 and at_n[1].count(b"\n") == 3  # header, steps 0 and 10
    for stride in (2**63, 2**70):
        assert outputs(stride) == at_n


def test_the_lattice_size_is_bounded(tmp_path, capsys):
    """--m may be at most MAX_M; one step at MAX_M runs."""
    out = tmp_path / "m.csv"
    for m, code in [(cli.MAX_M + 1, EXIT_USAGE), (cli.MAX_M, EXIT_OK)]:
        argv = ["run", "--method", "ERKN2", "--m", str(m), "--h", "0.1", "--t-end", "0.1"]
        assert main([*argv, "-o", str(out)]) == code
        assert out.is_file() == (code == EXIT_OK)
    assert capsys.readouterr().err == f"error: ERKN2: need m <= {cli.MAX_M}\n"


def test_check_reuses_each_methods_nu_grid_report(check_grid):
    """`check_reports` takes NU_GRID's part of `check`'s reports from the
    per-method memo `nu_grid_reports` (and no more at nu <= 10) and the stretch
    beyond 10 from one scan; joined, the two equal the reports on the whole
    grid, also for methods whose residual is worst beyond 10, and the joined
    symmetry report refuses the kick filter as `filter_refusal` does on the
    whole grid's report, while NU_GRID's lets `upsilon_from` return."""
    def drifted(eps: float) -> erkn.ErknMethod:  # ERKN2 off by eps, more beyond nu = 10
        return erkn.ErknMethod(
            f"drift{eps:g}", 0.5, bbar=lambda nu: 0.5 * erkn.sinc(0.5 * nu),
            b=lambda nu: math.cos(0.5 * nu) * (1.0 + eps + max(0.0, nu - 10.0)))

    drifting = [drifted(0.0), drifted(0.01)]  # the stretch decides their reports
    for m in [*METHODS.values(), *drifting]:
        for nu in (0.5, 10.0, 10.05, 23.0, 4000.0):
            grid = check_grid(nu)
            joined = check_reports(m, nu)
            assert list(joined) == [erkn.check_symmetry(m, grid), erkn.check_symplecticity(m, grid)]
            assert (joined is nu_grid_reports(m)) == (nu <= 10.0)
    grid = check_grid(23.0)
    report = erkn.check_symmetry(drifting[0], grid)
    assert nu_grid_reports(drifting[0])[0].passed and not report.passed
    assert check_reports(drifting[0], 23.0)[0] == report
    refusal = filter_refusal(drifting[0], report)
    assert isinstance(refusal, erkn.NonSymmetricMethod)
    assert str(refusal).startswith(f"symmetry residual {report.max_residual:.3e} exceeds ")
    assert erkn.upsilon_from(drifting[0])(0.0) == 1.0
    assert nu_grid_reports.cache_info().maxsize == len(METHODS)


def test_a_method_without_a_kick_filter_is_named_once(tmp_path, capsys):
    """A `trig:` name whose method has no kick filter is refused in one line
    that names it once; `check` names the base method in its report."""
    for name, reason in [
        ("trig:ERKN1", "symmetry residual 1.183e-01 exceeds 1e-12 on the grid"),
        ("trig:ERKN5", "the kick filter needs c1 = 1/2, got c1 = 0.4"),
    ]:
        assert main(["run", "--method", name, "-o", str(tmp_path / "x.csv")]) == EXIT_USAGE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {name}: {reason}"), err
        assert err[0].count("ERKN") == 1, err
    assert not (tmp_path / "x.csv").exists()
    assert main(["check", "ERKN1"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "kick filter: NonSymmetricMethod: ERKN1: symmetry residual 1.183e-01 " in text


def test_prepare_resolves_each_method_name_once(tmp_path, monkeypatch):
    """The 36 cells of a 9-method x 2-omega x 2-h sweep resolve 9 names."""
    calls = []
    monkeypatch.setattr(cli, "resolve_method",
                        lambda name: calls.append(name) or resolve_method(name))
    names = [*METHODS, "trig:ERKN2", "trig:ERKN3", "trig:ERKN4"]
    code = cmd_sweep(names, [50.0, 200.0], [0.1, 0.01], t_end=1.0, outdir=tmp_path,
                     stride=100, out=io.StringIO())
    assert code == EXIT_OK
    assert calls == names
    assert len((tmp_path / "summary.csv").read_text().splitlines()) == 37
    assert len(list(tmp_path.glob("*_w*_h*.csv"))) == 36  # a CSV per cell, none shared


def test_cmd_sweep_io_errors(tmp_path):
    """A sweep exits 3 when its directory lies under a file, when a cell's
    CSV path is a directory (the later cells and the summary are then not
    written) and when summary.csv is a directory."""
    (tmp_path / "file").write_text("")
    err = io.StringIO()
    assert cmd_sweep(["ERKN2"], [50.0], [0.1], 1.0, tmp_path / "file" / "grid",
                     out=io.StringIO(), err=err) == EXIT_IO
    assert err.getvalue().startswith("error: cannot create ")

    outdir = tmp_path / "cell"
    (outdir / "ERKN2_w50_h0.05.csv").mkdir(parents=True)
    err = io.StringIO()
    assert cmd_sweep(["ERKN2"], [50.0], [0.1, 0.05, 0.01], 1.0, outdir,
                     out=io.StringIO(), err=err) == EXIT_IO
    assert err.getvalue().startswith(f"error: cannot write {outdir / 'ERKN2_w50_h0.05.csv'}: ")
    assert sorted(p.name for p in outdir.iterdir()) == ["ERKN2_w50_h0.05.csv",
                                                        "ERKN2_w50_h0.1.csv"]

    outdir = tmp_path / "summary"
    (outdir / "summary.csv").mkdir(parents=True)
    err = io.StringIO()
    assert cmd_sweep(["ERKN2"], [50.0], [0.1], 1.0, outdir,
                     out=io.StringIO(), err=err) == EXIT_IO
    assert err.getvalue().startswith("error: cannot write summary: ")
    assert (outdir / "ERKN2_w50_h0.1.csv").is_file()


def test_each_h_batch_runs_when_its_first_cell_is_due(tmp_path, monkeypatch):
    """A sweep runs the cells of one h when the first of them is due, after
    the CSVs of the cells before it are written: the h = 0.1 CSV is on disk
    when h = 0.05 runs, and a failed write of the h = 0.05 CSV ends the sweep
    before h = 0.01 runs."""
    calls = []

    def spy(cells, h, *args):
        calls.append((h, sorted(p.name for p in outdir.iterdir())))
        return verify.drift_engine(cells, h, *args)

    monkeypatch.setattr(cli, "drift_engine", spy)
    outdir = tmp_path / "blocked"
    (outdir / "ERKN2_w50_h0.05.csv").mkdir(parents=True)
    assert cmd_sweep(["ERKN2"], [50.0], [0.1, 0.05, 0.01], 1.0, outdir,
                     out=io.StringIO(), err=io.StringIO()) == EXIT_IO
    assert [h for h, _ in calls] == [0.1, 0.05]

    calls.clear()
    outdir = tmp_path / "grid"
    outdir.mkdir()
    assert cmd_sweep(["ERKN2"], [50.0], [0.1, 0.05, 0.01], 1.0, outdir,
                     out=io.StringIO(), err=io.StringIO()) == EXIT_OK
    assert calls == [(0.1, []), (0.05, ["ERKN2_w50_h0.1.csv"]),
                     (0.01, ["ERKN2_w50_h0.05.csv", "ERKN2_w50_h0.1.csv"])]


# Pools of the CLI contract property: edge floats (non-finite, negative, zero,
# subnormal, huge) beside ordinary ones, ints with the valid ones first, and method
# names of the registry, of the kick-first conjugates (ERKN1 has no kick filter),
# of a family the CLI does not offer and of none.
CLI_EDGES = [math.nan, math.inf, -math.inf, -0.5, 0.0, 5e-324, 1e308]
CLI_NUMBERS = [0.05, 0.1, 1.0, 50.0, 200.0]
CLI_NAMES = [*(f"ERKN{i}" for i in range(1, 7)), "trig:ERKN2", "trig:ERKN1", "symp:0.5", "NOPE"]
CLI_INTS = [1, 3, 7, 2**70, 0, -1]
CELL_STEPS = 3000


@st.composite
def cli_argv(draw, outdir: str) -> list[str]:
    """argv of `run`, `check` or `sweep`. A trajectory command's t_end is at
    most CELL_STEPS of its least positive finite h, or one of the non-finite,
    non-positive, 5e-324 and 1e308: with any h of the pool these take at most
    one step or are refused (t_end/h overflows or exceeds MAX_STEPS)."""
    numbers = st.sampled_from(CLI_NUMBERS) | st.sampled_from(CLI_EDGES)
    command = draw(st.sampled_from(["run", "check", "sweep"]))
    if command == "check":
        options = ["h", "omega", "c", "c0", "sigma-lo", "sigma-hi"]
        return ["check", draw(st.sampled_from(CLI_NAMES)),
                *(f"--{name}={draw(numbers)!r}" for name in options if draw(st.booleans()))]
    hs = draw(st.lists(numbers, min_size=1, max_size=1 if command == "run" else 2))
    positive = [h for h in hs if 0.0 < h < math.inf]
    if positive and draw(st.integers(0, 3)) < 3:
        t_end = draw(st.integers(1, CELL_STEPS)) * min(positive)
    else:
        t_end = draw(st.sampled_from(CLI_EDGES))
    argv = [f"--t-end={t_end!r}"]
    if draw(st.booleans()):
        argv.append(f"--problem={draw(st.sampled_from(['fpu', 'linear']))}")
    for name in ("m", "stride"):
        if draw(st.booleans()):
            argv.append(f"--{name}={draw(st.sampled_from(CLI_INTS))}")
    if command == "run":
        return ["run", f"--method={draw(st.sampled_from(CLI_NAMES))}", f"--h={hs[0]!r}",
                f"--omega={draw(numbers)!r}", f"--output={outdir}/run.csv", *argv]
    methods = draw(st.lists(st.sampled_from(CLI_NAMES), min_size=1, max_size=3))
    omegas = draw(st.lists(numbers, min_size=1, max_size=2))
    return ["sweep", f"--methods={','.join(methods)}", f"--omegas={','.join(map(repr, omegas))}",
            f"--hs={','.join(map(repr, hs))}", f"--outdir={outdir}/grid", *argv]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_the_cli_contract_holds_for_any_argv(data):
    """Whatever `run`, `check` or `sweep` is given, `main` returns an exit
    code of the contract within 2 s, and no exception or warning escapes."""
    with tempfile.TemporaryDirectory() as outdir:
        argv = data.draw(cli_argv(outdir))
        start = time.perf_counter()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_BLOWUP), argv
        assert time.perf_counter() - start < 2.0, argv


def test_main_run_with_preset(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = main(
        ["run", "--method", "ERKN2", "--preset", "fig3", "--t-end", "1", "--output", str(out)]
    )
    assert code == EXIT_OK
    rows = out.read_text().splitlines()
    assert len(rows) == 102  # fig3 means h = 0.01
    assert PRESETS["fig3"] == (0.01, 50.0)


def test_main_explicit_flag_overrides_preset(tmp_path):
    out = tmp_path / "p.csv"
    code = main(
        ["run", "--method", "ERKN2", "--preset", "fig3", "--h", "0.1", "--t-end", "1",
         "--output", str(out)]
    )
    assert code == EXIT_OK
    assert len(out.read_text().splitlines()) == 12  # h = 0.1 kept, omega from preset
    # every run option reaches the config: the same bytes as cmd_run with it
    argv = ["run", "--method", "trig:ERKN2", "--preset", "fig1", "--omega", "70", "--m", "2",
            "--t-end", "2", "--stride", "4", "-o", str(tmp_path / "main.csv")]
    assert main(argv) == EXIT_OK
    cfg = ExperimentConfig(method="trig:ERKN2", m=2, omega=70.0, h=0.1, t_end=2.0, stride=4,
                           output=str(tmp_path / "direct.csv"))
    assert cmd_run(cfg, out=io.StringIO()) == EXIT_OK
    rows = (tmp_path / "main.csv").read_text().splitlines()
    assert len(rows) == 7  # header + steps 0, 4, ..., 20
    assert (tmp_path / "main.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_main_sweep_forwards_every_option(tmp_path):
    argv = ["sweep", "--methods", "ERKN3,trig:ERKN4", "--omegas", "20", "--hs", "0.1,0.05",
            "--problem", "linear", "--m", "2", "--t-end", "1", "--stride", "5",
            "--outdir", str(tmp_path / "main")]
    assert main(argv) == EXIT_OK
    code = cmd_sweep(["ERKN3", "trig:ERKN4"], [20.0], [0.1, 0.05], t_end=1.0,
                     outdir=tmp_path / "direct", problem="linear", m=2, stride=5,
                     out=io.StringIO())
    assert code == EXIT_OK
    summary = (tmp_path / "main" / "summary.csv").read_text().splitlines()
    assert [row.split(",")[:3] for row in summary[1:]] == [
        ["ERKN3", "20", "0.1"],
        ["ERKN3", "20", "0.05"],
        ["trig:ERKN4", "20", "0.1"],
        ["trig:ERKN4", "20", "0.05"],
    ]
    assert (tmp_path / "direct" / "summary.csv").read_text().splitlines() == summary
    # stride 5 at h = 0.1: steps 0, 5 and 10
    csv = (tmp_path / "main" / "ERKN3_w20_h0.1.csv").read_text().splitlines()
    assert len(csv) == 4


def test_main_sweep_defaults_come_from_experiment_config(tmp_path, capsys):
    """Without trajectory flags a sweep runs ExperimentConfig's problem, m,
    t_end and stride, the defaults that `run` gets."""
    argv = ["sweep", "--methods", "ERKN2,trig:ERKN3", "--omegas", "50", "--hs", "0.1",
            "--outdir", str(tmp_path / "main")]
    assert main(argv) == EXIT_OK
    cfg = ExperimentConfig(method="ERKN2")
    code = cmd_sweep(["ERKN2", "trig:ERKN3"], [50.0], [0.1], cfg.t_end, tmp_path / "direct",
                     problem=cfg.problem, m=cfg.m, stride=cfg.stride, out=io.StringIO())
    assert code == EXIT_OK
    for name in ("summary.csv", "ERKN2_w50_h0.1.csv", "trig:ERKN3_w50_h0.1.csv"):
        assert (tmp_path / "main" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes()
    assert len((tmp_path / "main" / "ERKN2_w50_h0.1.csv").read_text().splitlines()) == 10002
    assert "(10001 samples)" in capsys.readouterr().out


def test_cmd_check_defaults_come_from_experiment_config():
    """`check` reports at the (h, omega) that `run` integrates by default."""
    defaults = inspect.signature(cmd_check).parameters
    assert (defaults["h"].default, defaults["omega"].default) == \
        (ExperimentConfig.h, ExperimentConfig.omega)


# Invalid numeric input, as (command, arguments): each must exit 2 with one
# error line, no traceback and no output file.
INVALID_NUMBERS = [
    ("run", ["--method", "ERKN2", "--omega", "nan"]),
    ("run", ["--method", "ERKN2", "--omega", "0"]),
    ("run", ["--method", "ERKN2", "--m", "0"]),
    ("run", ["--method", "ERKN2", "--h", "nan"]),
    ("run", ["--method", "ERKN2", "--t-end", "inf"]),
    ("run", ["--method", "ERKN2", "--h", "1e-300", "--t-end", "1e10"]),  # t_end/h overflows
    # more than MAX_SAMPLES samples: 1e210, and 1e9 at stride 1
    ("run", ["--method", "ERKN2", "--h", "1e-200", "--t-end", "1e10"]),
    ("run", ["--method", "ERKN2", "--h", "1e-6", "--t-end", "1000"]),
    # more than MAX_STEPS steps, however few samples: 1e210 steps in 2 samples
    ("run", ["--method", "ERKN2", "--h", "1e-200", "--t-end", "1e10", "--stride", "1" + "0" * 210]),
    ("run", ["--method", "ERKN2", "--problem", "linear", "--m", "-1"]),
    # m above MAX_M: refused before anything of size m is allocated
    ("run", ["--method", "ERKN2", "--m", "1000000000"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "0.1", "--omegas", "50", "--m", "1000000000"]),
    # 36 cells of at most 10^8 samples each, 1.98e9 together: more than MAX_SAMPLES
    ("sweep", ["--methods", "ERKN1,ERKN2,ERKN3,ERKN4,ERKN5,ERKN6,trig:ERKN2,trig:ERKN3,trig:ERKN4",
               "--hs", "0.1,0.01", "--omegas", "50,200", "--t-end", "999999.99", "--stride", "1"]),
    # omega^2 overflows in the start's oscillatory energy: every energy would read nan
    ("run", ["--method", "ERKN2", "--omega", "1e155", "--h", "1e-5", "--t-end", "1e-4"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "1e-5", "--omegas", "50,1e155", "--t-end", "1e-4"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "nan", "--omegas", "50"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "0.1", "--omegas", "-1"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "1e-300", "--omegas", "50", "--t-end", "1e10"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "1e-200", "--omegas", "50", "--t-end", "1e10"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "1e-6", "--omegas", "50", "--t-end", "1000"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "1e-200", "--omegas", "50", "--t-end", "1e10",
               "--stride", "1" + "0" * 210]),
    # a valid first cell before the invalid one: nothing may be written
    ("sweep", ["--methods", "ERKN2", "--hs", "0.1,nan", "--omegas", "50"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "0.1", "--omegas", "50,-1"]),
    ("check", ["ERKN2", "--h", "0"]),
    ("check", ["ERKN2", "--h", "-0.1"]),
    ("check", ["ERKN2", "--h", "nan"]),
    ("check", ["ERKN2", "--c", "0"]),
    ("check", ["ERKN2", "--omega", "inf"]),
    ("check", ["ERKN2", "--h", "1e200", "--omega", "1e200"]),  # h*omega overflows
    ("check", ["ERKN2", "--h", "1", "--omega", "1e306", "--c", "0.001"]),  # k*h*omega/2 does
]


def test_main_usage_exit_codes(tmp_path, capsys):
    assert main(["run"]) == EXIT_USAGE  # --method is required
    assert main([]) == EXIT_USAGE  # subcommand is required
    assert main(["check", "NOPE"]) == EXIT_USAGE
    capsys.readouterr()
    # a table looped inside this test rather than a parametrisation, so the
    # test keeps its id
    out = tmp_path / "out"
    dest = {
        "run": ["--t-end", "1", "-o", str(out)],
        "sweep": ["--t-end", "1", "--outdir", str(out)],
    }
    for command, args in INVALID_NUMBERS:
        argv = [command, *dest.get(command, []), *args]  # a later flag wins
        assert main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
        assert not out.is_file() and not (out.is_dir() and any(out.iterdir())), argv
    # the force-free problem needs no fast start, so omega = 0 stays valid
    argv = ["run", "--method", "ERKN2", "--problem", "linear", "--omega", "0", "--t-end", "1"]
    assert main([*argv, "-o", str(tmp_path / "lin.csv")]) == EXIT_OK
    # at h*omega = pi, where cos(h*omega/2) vanishes, the kick filter is 2 bbar/sinc(nu/2)
    argv = ["run", "--method", "trig:ERKN3", "--h", "0.1", "--omega", "31.41592653589793"]
    assert main([*argv, "--t-end", "1", "-o", str(tmp_path / "pi.csv")]) == EXIT_OK


@pytest.mark.parametrize("method", ["ERKN2", "trig:ERKN3"])
def test_an_overflowing_h_omega_is_refused_by_name(tmp_path, capsys, method):
    """h*omega = 1e310 overflows while h, omega and t_end/h are finite: `run`
    and `sweep` exit 2 with `drift_check`'s line and write nothing."""
    out = tmp_path / "out"
    numbers = ["--t-end", "1e300"]
    for argv in (["run", "--method", method, "--h", "1e300", "--omega", "1e10", "-o", str(out)],
                 ["sweep", "--methods", method, "--hs", "1e300", "--omegas", "1e10",
                  "--outdir", str(out)]):
        assert main([*argv, *numbers]) == EXIT_USAGE, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {method}: need a finite h*omega\n")
        assert not out.exists(), argv


def test_main_check_smoke(capsys):
    assert main(["check", "ERKN4", "--h", "0.1", "--omega", "50"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "symmetric: pass" in text
    assert "symplectic: fail" in text
    # each bound flag reaches cmd_check and shows in the report
    argv = ["check", "ERKN2", "--c", "2", "--c0", "0.5", "--sigma-lo", "0.2", "--sigma-hi", "5"]
    assert main(argv) == EXIT_OK
    text = capsys.readouterr().out
    assert ">= 2*sqrt(h) up to k = N" in text
    assert "h*omega = 5 >= c0 = 0.5: pass" in text
    assert "bounds [0.2, 5]: pass" in text


def test_main_check_reports_a_vanishing_weight(capsys):
    """At h*omega = 2*pi ERKN2's weight b vanishes, so sigma is undefined:
    the report says where and the check still exits 0."""
    assert main(["check", "ERKN2", "--h", "0.1", "--omega", "62.83185307179586"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "sigma: ERKN2: weight within 1e-14 of zero at nu = 6.28319"


def test_console_main_exits_3_without_a_traceback_when_stdout_closes():
    """A reader that leaves early (`erkn check ERKN3 | true`) closes the pipe
    under stdout; the CLI exits with the I/O code and prints nothing. So does
    any other failed write to stdout or stderr (a full device, argparse's usage
    error included), a stdout that is closed at start, and a write to a stderr
    that is closed at start."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(erkn.__file__).parents[1])
    commands = (["check", "ERKN3"], ["run", "--method", "ERKN2", "--t-end", "1", "-o", os.devnull])

    def erkn_exit(argv, stdout, stderr=subprocess.PIPE, **env_extra):
        proc = subprocess.run([sys.executable, "-m", "erkn", *argv], stdout=stdout,
                              stderr=stderr, env={**env, **env_extra}, timeout=120)
        return proc.returncode, proc.stderr

    try:
        # buffered, the write fails at the final flush; unbuffered, in print
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            for argv in commands:
                assert erkn_exit(argv, write_end, **unbuffered) == (EXIT_IO, b""), \
                    (argv, unbuffered)
    finally:
        os.close(write_end)

    def closing(fd, *argv):  # the erkn command line, run with fd closed at start
        return [sys.executable, "-c", f"import os, sys; os.close({fd}); os.execv(sys.argv[1], "
                "sys.argv[1:])", sys.executable, "-m", "erkn", *(argv or ("check", "ERKN3"))]

    # stdout closed at start: Python has no sys.stdout
    proc = subprocess.run(closing(1), stderr=subprocess.PIPE, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (EXIT_IO, b"")
    # stderr closed at start: an error, usage or warning line fails to be written,
    # and none of it reaches stdout; a command that writes no stderr still reports
    blowup = ["run", "--method", "ERKN2", "--h", "1", "--t-end", "50", "-o", os.devnull]
    for argv in (["check", "NOPE"], ["run"], blowup):
        proc = subprocess.run(closing(2, *argv), stdout=subprocess.PIPE, env=env, timeout=120)
        assert (proc.returncode, proc.stdout) == (EXIT_IO, b""), argv
    proc = subprocess.run(closing(2, "check", "ERKN2"), stdout=subprocess.PIPE, env=env,
                          timeout=120)
    assert proc.returncode == EXIT_OK and proc.stdout.startswith(b"method ERKN2: c1 = 0.5\n")
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this host")
    with open("/dev/full", "wb") as full:
        for argv in commands:
            assert erkn_exit(argv, full) == (EXIT_IO, b""), argv
        # a usage error whose message cannot be written
        assert erkn_exit(["check", "NOPE"], subprocess.DEVNULL, stderr=full) == (EXIT_IO, None)
        assert erkn_exit(["run"], subprocess.DEVNULL, stderr=full) == (EXIT_IO, None)  # argparse's
        # a failed write to stdout while Python has no sys.stderr
        assert subprocess.run(closing(2), stdout=full, env=env, timeout=120).returncode == EXIT_IO
