"""Command line wiring: formats, filenames, exit codes, determinism."""

import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import erkn

from erkn.cli import (
    EXIT_BLOWUP,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    PRESETS,
    ExperimentConfig,
    _check_grid,
    build_problem,
    cmd_check,
    cmd_run,
    cmd_sweep,
    default_output_name,
    main,
    resolve_method,
    write_drift_csv,
)
from erkn import METHODS, NU_GRID, TrigMethod


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


def test_build_problem_kinds():
    sys = build_problem(ExperimentConfig(method="ERKN2", problem="fpu", m=2, omega=10.0))
    assert sys.partition.d1 == 2 and sys.partition.omega == 10.0
    lin = build_problem(ExperimentConfig(method="ERKN2", problem="linear", m=1, omega=5.0))
    assert np.all(lin.force(np.ones(2)) == 0.0)
    with pytest.raises(KeyError):
        build_problem(ExperimentConfig(method="ERKN2", problem="kepler"))


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
    assert "InconsistentFilter" in text

    buf = io.StringIO()
    assert cmd_check("ERKN5", out=buf) == EXIT_OK
    assert "NonSymmetricMethod" in buf.getvalue()


def test_cmd_check_unknown_method():
    assert cmd_check("NOPE", err=io.StringIO()) == EXIT_USAGE


def test_cmd_check_stretches_grid_beyond_default():
    # operating points nu = 40 and 1e5 lie outside the default grid; the report
    # must still evaluate there rather than silently clipping, on a grid that
    # ends at nu and stays bounded in size
    for h, omega in [(0.2, 200.0), (1.0, 1e5)]:
        buf = io.StringIO()
        assert cmd_check("ERKN2", h=h, omega=omega, out=buf) == EXIT_OK
        text = buf.getvalue()
        assert "symmetric: pass" in text and "symplectic: pass" in text, text
        assert f"h*omega = {h * omega:g} >= c0 = 0.1: pass" in text
        assert "sigma(h*omega)" in text
        grid = _check_grid(h * omega)
        assert grid[:101] == list(NU_GRID) and grid[-1] == h * omega
        assert len(grid) <= 1101 and all(a < b for a, b in zip(grid, grid[1:]))


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


# Invalid numeric input, as (command, arguments): each must exit 2 with one
# error line, no traceback and no output file.
INVALID_NUMBERS = [
    ("run", ["--method", "ERKN2", "--omega", "nan"]),
    ("run", ["--method", "ERKN2", "--omega", "0"]),
    ("run", ["--method", "ERKN2", "--m", "0"]),
    ("run", ["--method", "ERKN2", "--h", "nan"]),
    ("run", ["--method", "ERKN2", "--t-end", "inf"]),
    ("run", ["--method", "ERKN2", "--problem", "linear", "--m", "-1"]),
    ("run", ["--method", "trig:ERKN3", "--h", "0.1", "--omega", "31.41592653589793"]),
    ("sweep", ["--methods", "trig:ERKN3", "--hs", "0.1", "--omegas", "31.41592653589793"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "nan", "--omegas", "50"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "0.1", "--omegas", "-1"]),
    # a valid first cell before the invalid one: nothing may be written
    ("sweep", ["--methods", "ERKN2", "--hs", "0.1,nan", "--omegas", "50"]),
    ("sweep", ["--methods", "ERKN2", "--hs", "0.1", "--omegas", "50,-1"]),
    ("sweep", ["--methods", "ERKN2,trig:ERKN3", "--hs", "0.1", "--omegas", "31.41592653589793"]),
    ("check", ["ERKN2", "--h", "0"]),
    ("check", ["ERKN2", "--h", "-0.1"]),
    ("check", ["ERKN2", "--h", "nan"]),
    ("check", ["ERKN2", "--c", "0"]),
    ("check", ["ERKN2", "--omega", "inf"]),
    ("check", ["ERKN2", "--h", "1e200", "--omega", "1e200"]),  # h*omega overflows
]


def test_main_usage_exit_codes(tmp_path, capsys):
    assert main(["run"]) == EXIT_USAGE  # --method is required
    assert main([]) == EXIT_USAGE  # subcommand is required
    assert main(["check", "NOPE"]) == EXIT_USAGE
    capsys.readouterr()
    # a table looped inside this test rather than a parametrisation, so the
    # test keeps its id; h*omega = pi is a pole of the kick filter
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


def test_console_main_exits_3_without_a_traceback_when_stdout_closes():
    """A reader that leaves early (`erkn check ERKN3 | true`) closes the pipe
    under stdout; the CLI exits with the I/O code and prints nothing."""
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(erkn.__file__).parents[1])
    commands = (["check", "ERKN3"], ["run", "--method", "ERKN2", "--t-end", "1", "-o", os.devnull])
    try:
        # buffered, the write fails at the final flush; unbuffered, in print
        for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
            for argv in commands:
                proc = subprocess.run([sys.executable, "-m", "erkn", *argv], stdout=write_end,
                                      stderr=subprocess.PIPE, env={**env, **unbuffered},
                                      timeout=120)
                assert (proc.returncode, proc.stderr) == (EXIT_IO, b""), (argv, unbuffered)
    finally:
        os.close(write_end)
