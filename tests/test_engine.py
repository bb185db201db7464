"""The batched drift engine against single trajectories.

A sweep integrates every (method, omega) cell that shares h in one (dim, B)
block; `run` is the same engine with one cell. These tests pin that a cell
comes out the same whichever batch it rides in: its CSV bytes, its blow-up
step and warning, and its states step by step against the single-trajectory
steppers.
"""

import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from erkn import (
    METHODS,
    Partition,
    State,
    System,
    drift_coefficients,
    drift_engine,
    drift_series,
    energies,
    fpu_system,
    hamiltonian,
    linear_system,
    oscillatory_energy,
    step_map,
    stepper,
    trig_method_from,
    trig_stepper,
)
from erkn import cli, verify
from erkn.cli import EXIT_BLOWUP, EXIT_OK, ExperimentConfig, cmd_run, cmd_sweep
from erkn.methods import Coefficients

ALL_METHODS = list(METHODS) + ["trig:ERKN2", "trig:ERKN3", "trig:ERKN4"]
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def off_the_filter_poles(h: float, *omegas: float) -> None:
    for omega in omegas:
        assume(abs(math.cos(0.5 * h * omega)) >= 1e-3)


def solo_run(tmp_path, method: str, omega: float, h: float, t_end: float, stride: int,
             m: int = 3):
    """(exit code, CSV bytes, stderr) of `run` on one cell."""
    out = tmp_path / f"solo_{method}_{omega:g}_{h:g}.csv"
    err = io.StringIO()
    cfg = ExperimentConfig(method=method, m=m, omega=omega, h=h, t_end=t_end, stride=stride,
                           output=str(out))
    code = cmd_run(cfg, out=io.StringIO(), err=err)
    return code, out.read_bytes(), err.getvalue()


def sweep_matches_solo_runs(tmp_path, omegas, hs, t_end, stride, m=3):
    """Run one sweep, then every cell alone; return the sweep's exit code and
    the number of cells that blew up."""
    outdir = tmp_path / f"sweep_{stride}"
    out, err = io.StringIO(), io.StringIO()
    code = cmd_sweep(ALL_METHODS, omegas, hs, t_end, outdir, m=m, stride=stride, out=out,
                     err=err)
    warnings = err.getvalue().splitlines()
    wrote = [line for line in out.getvalue().splitlines() if line.startswith("wrote ")]
    blown = 0
    cell = 0
    for method in ALL_METHODS:
        for omega in omegas:
            for h in hs:
                solo_code, solo_bytes, solo_err = solo_run(tmp_path, method, omega, h, t_end,
                                                           stride, m)
                name = f"{method}_w{omega:g}_h{h:g}.csv"
                assert (outdir / name).read_bytes() == solo_bytes, name
                # stdout lines come in cell order, and name the same sample count
                assert wrote[cell].startswith(f"wrote {outdir / name} (")
                assert wrote[cell].endswith(f"({len(solo_bytes.splitlines()) - 1} samples)")
                cell += 1
                if solo_code == EXIT_BLOWUP:
                    assert solo_err.splitlines()[0] == warnings[blown]
                    blown += 1
                else:
                    assert solo_code == EXIT_OK and solo_err == ""
    assert blown == len(warnings)
    return code, blown


def test_sweep_cells_match_single_runs_byte_for_byte(tmp_path):
    for stride in (1, 7):
        code, blown = sweep_matches_solo_runs(tmp_path, [50.0, 200.0], [0.1, 0.01], 2.0, stride)
        assert (code, blown) == (EXIT_OK, 0)


def test_energies_do_not_depend_on_how_the_buffer_fills(tmp_path, monkeypatch):
    """With a buffer of three samples for one cell of the m = 40 lattice, run
    and drift_series flush every third sample and once a lone sample (31
    samples); a sweep batch gets two slots. Every CSV still matches, and so
    do the rows of an unflushed run."""
    m, h, t_end = 40, 0.1, 3.0
    sys_ = fpu_system(m, 50.0)
    whole = drift_series(METHODS["ERKN2"], sys_, h, t_end)
    monkeypatch.setattr(verify, "SAMPLE_BUFFER_BYTES", 3 * 2 * (2 * m) * 8)
    assert drift_series(METHODS["ERKN2"], sys_, h, t_end).tobytes() == whole.tobytes()
    code, blown = sweep_matches_solo_runs(tmp_path, [50.0, 200.0], [h], t_end, 1, m)
    assert (code, blown) == (EXIT_OK, 0)


def test_rows_that_blow_up_leave_the_batch_alone(tmp_path):
    """At h = 0.5 some cells of a batch blow up at different steps while
    others finish; at h = 1.0 every cell blows up. Each keeps the finite
    prefix, the warning and the exit code of its solo run, and the cells
    that finish are unchanged by the zeroed columns beside them."""
    code, blown = sweep_matches_solo_runs(tmp_path, [50.0, 200.0], [0.5, 1.0], 50.0, 7)
    assert code == EXIT_BLOWUP
    assert 18 < blown < 36
    # the blow-up step and the finite prefix, against a plain loop of 1-d steps
    sys_, h = fpu_system(3, 200.0), 0.5
    for name in ("ERKN2", "ERKN6"):
        s, first_bad = sys_.initial, None
        step = stepper(METHODS[name], sys_, h)
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, 101):
                s = step(s)
                if not (np.isfinite(s.q).all() and np.isfinite(s.p).all()):
                    first_bad = i
                    break
        (samples, message), = drift_engine([(METHODS[name], sys_, drift_coefficients(
            METHODS[name], sys_, h, 50.0, 7))], h, 50.0, 7)
        assert f"non-finite at step {first_bad} (t = {first_bad * h:g})" in message
        assert list(samples[:, 0]) == [i * h for i in range(0, first_bad, 7)]


def growth_system(omega: float, q0: float) -> System:
    """One fast coordinate under the force g(q) = q^2 + 1, which is not zero at
    q = 0: at omega = 0.5 and h = 0.1 the start q0 = 1 overflows at step 35,
    and from the zero state again 43 steps later; at omega = 50 the
    oscillation holds it."""
    return System(Partition(0, 1, omega),
                  potential=lambda q: -np.sum(q * q * q / 3.0 + q, axis=0),
                  force=lambda q: q * q + 1.0, label=f"growth(omega={omega:g})",
                  initial=State([q0], [0.0]))


def first_blowup(step, s: State, steps: int):
    """The first step of a plain loop of 1-d steps whose state is non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            s = step(s)
            if not (np.isfinite(s.q).all() and np.isfinite(s.p).all()):
                return i
    return None


def test_a_zeroed_column_that_blows_up_again_changes_nothing(monkeypatch):
    """The column of a blown cell is set to zero; under a force that does not
    vanish at zero it blows up a second time. The first blow-up's step and
    prefix stand, the finite neighbour equals its solo run, and the engine
    builds its step map once."""
    h, t_end, stride, method = 0.1, 30.0, 4, METHODS["ERKN2"]
    blower, neighbour = growth_system(0.5, 1.0), growth_system(50.0, 0.0)
    cells = [(method, sys_, drift_coefficients(method, sys_, h, t_end, stride))
             for sys_ in (blower, neighbour)]
    step = stepper(method, blower, h)
    first = first_blowup(step, blower.initial, 300)
    assert first == 35
    assert first_blowup(step, State([0.0], [0.0]), 300 - first) is not None  # the second one
    assert first_blowup(stepper(method, neighbour, h), neighbour.initial, 300) is None

    builds = []
    monkeypatch.setattr(verify, "step_map", lambda *args: builds.append(args) or step_map(*args))
    (rows, message), (n_rows, n_message) = drift_engine(cells, h, t_end, stride)
    assert len(builds) == 1
    assert message == f"ERKN2 on {blower.label}: state became non-finite at step 35 (t = 3.5)"
    (solo_rows, solo_message), = drift_engine(cells[:1], h, t_end, stride)
    assert (rows.tobytes(), message) == (solo_rows.tobytes(), solo_message)
    assert list(rows[:, 0]) == [i * h for i in range(0, first, stride)]
    (alone, _), = drift_engine(cells[1:], h, t_end, stride)
    assert n_message is None and n_rows.shape == (76, 5)
    assert n_rows.tobytes() == alone.tobytes()


def test_the_blowup_sweep_builds_one_step_map_per_engine_call(tmp_path, monkeypatch):
    """32 of 36 cells blow up, at different steps; each (h, kind) group is one
    engine call and one step map."""
    calls, builds = [], []
    monkeypatch.setattr(cli, "drift_engine",
                        lambda *args: calls.append(args) or drift_engine(*args))
    monkeypatch.setattr(verify, "step_map", lambda *args: builds.append(args) or step_map(*args))
    err = io.StringIO()
    code = cmd_sweep(ALL_METHODS, [50.0, 200.0], [0.5, 1.0], 50.0, tmp_path, stride=7,
                     out=io.StringIO(), err=err)
    assert (code, len(err.getvalue().splitlines())) == (EXIT_BLOWUP, 32)
    assert len(calls) == len(builds) == 4


def test_a_batch_takes_one_kind_of_method():
    sys_ = fpu_system(3, 50.0)
    kinds = [METHODS["ERKN2"], trig_method_from(METHODS["ERKN2"])]
    cells = [(m, sys_, drift_coefficients(m, sys_, 0.1, 1.0)) for m in kinds]
    with pytest.raises(ValueError):
        drift_engine(cells, 0.1, 1.0)


def test_a_finite_state_near_the_largest_float_is_no_blow_up():
    """q + p would overflow here while q and p stay finite; only a non-finite
    entry ends a run."""
    rotation = linear_system(Partition(0, 1, 1.0))
    near_max = dataclasses.replace(rotation, initial=State(q=[1.2e308], p=[1.2e308]))
    rows = drift_series(METHODS["ERKN2"], near_max, 0.1, 2.0)
    assert len(rows) == 21


def batch_of(sys_by_omega: dict, names: list, h: float):
    """Engine cells for every (method, omega), and the 1-d steppers to match."""
    cells, steppers = [], []
    for name in names:
        method = METHODS[name] if name in METHODS else trig_method_from(METHODS[name[5:]])
        build = stepper if name in METHODS else trig_stepper
        for sys_ in sys_by_omega.values():
            cells.append((method, sys_, drift_coefficients(method, sys_, h, 100 * h)))
            steppers.append(build(method, sys_, h))
    return cells, steppers


def assert_rows_equal_single_steppers(sys_by_omega: dict, h: float) -> None:
    """Over 100 steps, each column of the batched kernel equals its 1-d
    stepper bit for bit, and the engine's energy samples equal the energies of
    those 1-d states."""
    steps = 100
    for names in (list(METHODS), ["trig:ERKN2", "trig:ERKN3", "trig:ERKN4"]):
        cells, steppers = batch_of(sys_by_omega, names, h)
        samples = drift_engine(cells, h, steps * h)
        coefs = [c for _, _, c in cells]
        block = Coefficients(*(x[0] if x[0] is None else np.stack(x, axis=1)
                               for x in zip(*coefs)))
        kernel = step_map(cells[0][1].force, block)
        z = np.stack([(sys_.initial.q, sys_.initial.p) for _, sys_, _ in cells], axis=-1)
        states = [sys_.initial for _, sys_, _ in cells]
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, steps + 1):
                z = kernel(z)
                states = [step(s) for step, s in zip(steppers, states)]
                for j, s in enumerate(states):
                    assert z[0, :, j].tobytes() == s.q.tobytes(), (names[j // 2], i)
                    assert z[1, :, j].tobytes() == s.p.tobytes(), (names[j // 2], i)
                    rows, blowup = samples[j]
                    if blowup is None:
                        H, I = energies(cells[j][1], s.q, s.p)
                        assert (rows[i, 1], rows[i, 2]) == (H, I), (names[j // 2], i)


@PROPERTY
@given(log_uniform(0.005, 0.4), log_uniform(5.0, 400.0), log_uniform(5.0, 400.0))
def test_engine_rows_equal_the_single_steppers_on_fpu(h, omega_a, omega_b):
    off_the_filter_poles(h, omega_a, omega_b)
    assert_rows_equal_single_steppers({w: fpu_system(3, w) for w in (omega_a, omega_b)}, h)


@PROPERTY
@given(st.integers(0, 3), st.integers(1, 3), st.floats(0.1, 400.0), st.floats(0.005, 0.5))
def test_engine_rows_equal_the_single_steppers_on_linear(d1, d2, omega, h):
    off_the_filter_poles(h, omega, 2.0 * omega)
    systems = {w: linear_system(Partition(d1, d2, w)) for w in (omega, 2.0 * omega)}
    assert_rows_equal_single_steppers(systems, h)


def test_block_energies_match_the_state_api():
    rng = np.random.default_rng(5)
    for m in (1, 3, 10):
        systems = [fpu_system(m, w) for w in (5.0, 50.0, 400.0)]
        omega = np.array([s.partition.omega for s in systems])
        q = rng.standard_normal((2 * m, 4, 3))
        p = rng.standard_normal((2 * m, 4, 3))
        H, I = energies(systems[0], q, p, omega)
        assert H.shape == I.shape == (4, 3)
        for k in range(4):
            for j, sys_ in enumerate(systems):
                s = State(q[:, k, j], p[:, k, j])
                want_h, want_i = hamiltonian(sys_, s), oscillatory_energy(sys_.partition, s)
                assert abs(H[k, j] - want_h) <= 1e-14 * abs(want_h)
                assert abs(I[k, j] - want_i) <= 1e-14 * abs(want_i)
