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
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erkn import (
    METHODS,
    Partition,
    State,
    System,
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
from erkn import cli, systems, verify
from erkn.cli import EXIT_BLOWUP, EXIT_OK, ExperimentConfig, cmd_run, cmd_sweep
from erkn.methods import Coefficients, lift
from erkn.verify import drift_check as verify_drift_check

ALL_METHODS = list(METHODS) + ["trig:ERKN2", "trig:ERKN3", "trig:ERKN4"]
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


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
        (samples, message), = drift_engine([(METHODS[name], sys_)], h, 50.0, 7)
        assert f"non-finite at step {first_bad} (t = {first_bad * h:g})" in message
        assert list(samples[:, 0]) == [i * h for i in range(0, first_bad, 7)]


def growth_potential(q: np.ndarray) -> np.ndarray:
    return -np.sum(q * q * q / 3.0 + q, axis=0)


def growth_force(q: np.ndarray) -> np.ndarray:
    return q * q + 1.0


def growth_system(omega: float, q0: float) -> System:
    """One fast coordinate under the force g(q) = q^2 + 1, which is not zero at
    q = 0: at omega = 0.5 and h = 0.1 the start q0 = 1 overflows at step 35,
    and from the zero state again 43 steps later; at omega = 50 the
    oscillation holds it. Every omega and start shares the module's two
    functions, so they are one problem to `drift_engine`."""
    return System(Partition(0, 1, omega), potential=growth_potential, force=growth_force,
                  label=f"growth(omega={omega:g})", initial=State([q0], [0.0]))


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
    cells = [(method, blower), (method, neighbour)]
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


def test_the_replay_stops_once_every_cell_has_blown_up():
    """A lone cell that blows up at step 35 of 10 000: the engine steps the
    first finiteness block, replays it up to step 35 and stops there, one
    force call a step."""
    calls, h, t_end, method = [], 0.1, 1000.0, METHODS["ERKN2"]
    sys_ = counted_force(growth_system(0.5, 1.0), calls)
    (rows, message), = drift_engine([(method, sys_)], h, t_end)
    assert message.endswith("state became non-finite at step 35 (t = 3.5)")
    assert len(rows) == 35 and len(calls) == verify.FINITE_TEST_STEPS + 35


def test_the_engine_holds_only_the_samples_it_took():
    """A lone cell that blows up at step 35 of 10^6 allocates no per-sample
    array for the steps it never took: the engine's traced peak stays far
    below the 24 MB that the step numbers and energies of 10^6 samples take."""
    h, t_end, method = 0.1, 1e5, METHODS["ERKN2"]
    sys_ = growth_system(0.5, 1.0)
    cell = (method, sys_)
    tracemalloc.start()
    try:
        (rows, message), = drift_engine([cell], h, t_end)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message.endswith("state became non-finite at step 35 (t = 3.5)")
    assert len(rows) == 35 and peak < 4 * 2**20, peak


def test_the_blowup_sweep_builds_one_step_map_per_engine_call(tmp_path, monkeypatch):
    """32 of 36 cells blow up, at different steps; the cells of each h, one-stage
    and kick-first alike, are one engine call and one step map."""
    calls, builds = [], []
    monkeypatch.setattr(cli, "drift_engine",
                        lambda *args: calls.append(args) or drift_engine(*args))
    monkeypatch.setattr(verify, "step_map", lambda *args: builds.append(args) or step_map(*args))
    err = io.StringIO()
    code = cmd_sweep(ALL_METHODS, [50.0, 200.0], [0.5, 1.0], 50.0, tmp_path, stride=7,
                     out=io.StringIO(), err=err)
    assert (code, len(err.getvalue().splitlines())) == (EXIT_BLOWUP, 32)
    assert len(calls) == len(builds) == 2


def resolve(name: str):
    return METHODS[name] if name in METHODS else trig_method_from(METHODS[name[5:]])


def test_a_batch_mixes_one_stage_and_kick_first_cells():
    """Every method of both kinds at two omegas in one batch, at h = 0.5 where
    some cells blow up: each column comes out as its solo run, rows and
    message."""
    h, t_end, stride = 0.5, 50.0, 7
    cells = [(resolve(name), sys_)
             for name in ALL_METHODS for sys_ in (fpu_system(3, 50.0), fpu_system(3, 200.0))]
    batch = drift_engine(cells, h, t_end, stride)
    blown = 0
    for cell, (rows, message) in zip(cells, batch):
        (solo_rows, solo_message), = drift_engine([cell], h, t_end, stride)
        assert (rows.tobytes(), message) == (solo_rows.tobytes(), solo_message)
        blown += message is not None
    assert 0 < blown < len(cells)
    block = Coefficients.columns([m.coefficients(s.partition, h) for m, s in cells])
    trig = np.array([name.startswith("trig:") for name in ALL_METHODS for _ in "ab"])
    assert block.kick[:, trig].all() and np.array_equal(block.kick, np.where(trig, block.wp, 0.0))


def counted_force(sys_: System, calls: list) -> System:
    return dataclasses.replace(sys_, force=lambda q: calls.append(q.shape) or sys_.force(q))


@pytest.mark.parametrize("names, lifts", [
    (["ERKN2", "ERKN5"], 0),
    (["trig:ERKN2", "trig:ERKN4"], 1),
    (["ERKN1", "trig:ERKN3", "ERKN6"], 1),
])
def test_one_force_call_per_engine_step(names, lifts):
    """One-stage, kick-first and mixed batches make one force call a step; a
    batch that holds a kick-first column adds one, to lift its start."""
    h, steps, calls = 0.1, 100, []
    sys_ = counted_force(fpu_system(3, 50.0), calls)
    cells = [(resolve(name), sys_) for name in names]
    assert all(message is None for _, message in drift_engine(cells, h, steps * h))
    assert calls == [(6, len(names))] * (steps + lifts)


@pytest.mark.parametrize("stride", [2.5, 4.0])
def test_a_stride_that_is_not_an_integer_is_refused_before_any_step(stride):
    """Samples are taken at integer steps. A stride of 2.5 would drop every
    sample but step 0, and 4.0 would fail only where a blow-up's samples are
    counted, after every step."""
    calls, method = [], METHODS["ERKN2"]
    for sys_ in (fpu_system(3, 50.0), growth_system(0.5, 1.0)):
        sys_ = counted_force(sys_, calls)
        with pytest.raises(ValueError, match=f"^stride must be an integer, got {stride}$"):
            drift_engine([(method, sys_)], 0.1, 30.0, stride)
        with pytest.raises(ValueError, match=f"^stride must be an integer, got {stride}$"):
            drift_series(method, sys_, 0.1, 1.0, stride)
    assert calls == []


def test_a_numpy_integer_stride_is_an_integer():
    method = METHODS["ERKN2"]
    cells = [(method, growth_system(0.5, 1.0)), (method, growth_system(50.0, 0.0))]
    for (rows, message), (want, want_message) in zip(drift_engine(cells, 0.1, 30.0, np.int64(4)),
                                                     drift_engine(cells, 0.1, 30.0, 4)):
        assert (rows.tobytes(), message) == (want.tobytes(), want_message)
    fpu = fpu_system(3, 50.0)
    assert (drift_series(method, fpu, 0.1, 1.0, np.int64(4)).tobytes()
            == drift_series(method, fpu, 0.1, 1.0, 4).tobytes())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 300), st.integers(1, 400))
@example(1, 1)
@example(12, 4)
@example(12, 12)
@example(12, 13)
@example(300, 400)
def test_the_samples_are_every_stride_th_step_and_the_last(n, stride):
    """The t column is h (0, stride, 2 stride, ...) followed by the last step n,
    which is not repeated when stride divides n; a stride of n or more samples
    steps 0 and n. h = 1/4 keeps every i h exact."""
    h = 0.25
    (rows, message), = drift_engine([(METHODS["ERKN2"], linear_system(Partition(1, 1, 5.0)))],
                                    h, n * h, stride)
    assert message is None
    assert rows[:, 0].tolist() == [i * h for i in range(0, n, stride)] + [n * h]
    assert len(rows) == verify.sample_count(h, n * h, stride)


def test_an_empty_cell_list_is_refused_by_name():
    with pytest.raises(ValueError, match="^need at least one cell$"):
        drift_engine([], 0.1, 1.0)


def test_cells_of_another_problem_are_refused_by_name():
    """The engine steps every cell with the first cell's force and measures it
    with the first cell's potential, so a cell whose block sizes differ, or
    whose potential is another object, is refused before any function call: a
    linear cell from the FPU start, batched after the FPU cell, would read
    max|dH| 0.2 against 1.6e-14 alone, and a linear cell at rest at q = 0,
    where both potentials and both forces are 0, would be stepped with the
    FPU force. Built-in systems share one force and one potential, and a
    force is -grad of its potential, so mixed omegas and per-system force
    wrappers still run: only the first cell's force steps the batch, one call
    a step and none to check it."""
    calls, method = [], METHODS["ERKN2"]
    fpu = counted_force(fpu_system(3, 50.0), calls)
    others = [
        dataclasses.replace(linear_system(Partition(3, 3, 50.0)), initial=fpu.initial),
        dataclasses.replace(linear_system(Partition(3, 3, 50.0)),
                            initial=State(np.zeros(6), fpu.initial.p)),
        fpu_system(4, 50.0),
        dataclasses.replace(fpu, potential=lambda q: np.zeros(q.shape[1:])),
    ]
    for other in others:
        refusal = f"^ERKN3 on {re.escape(other.label)}: not the problem of "
        with pytest.raises(ValueError, match=refusal):
            drift_engine([(method, fpu), (METHODS["ERKN3"], other)], 0.1, 10.0)
    assert calls == []
    mixed = [(method, fpu), (method, counted_force(fpu_system(3, 200.0), calls))]
    assert all(message is None for _, message in drift_engine(mixed, 0.1, 1.0))
    assert calls == [(6, 2)] * 10


def test_each_system_object_is_checked_once_in_cell_order(monkeypatch):
    """`drift_check` runs once per system object, at its first cell, and the
    refusals keep the cells' order: a cell of another problem is refused
    before a later cell whose start fails `drift_check`, and a cell whose
    start fails is refused before a later cell of another problem."""
    checked, method = [], METHODS["ERKN2"]
    monkeypatch.setattr(verify, "drift_check",
                        lambda s, *args: checked.append(s.label) or verify_drift_check(s, *args))
    fpu = fpu_system(3, 50.0)
    stiff = dataclasses.replace(fpu, partition=Partition(3, 3, 200.0), label="stiff")
    cells = [(method, fpu), (METHODS["ERKN3"], fpu), (method, stiff), (resolve("trig:ERKN3"), fpu),
             (METHODS["ERKN5"], stiff)]
    assert all(message is None for _, message in drift_engine(cells, 0.1, 1.0))
    assert checked == [fpu.label, "stiff"]
    nan_start = dataclasses.replace(fpu, initial=State(np.full(6, np.nan), np.zeros(6)),
                                    label="nan start")
    other = fpu_system(4, 50.0)
    for cells, refusal in (
            ([(method, fpu), (method, other), (method, nan_start)], "not the problem of"),
            ([(method, fpu), (method, fpu), (method, nan_start), (method, other)],
             "system 'nan start' has a non-finite initial state")):
        with pytest.raises(ValueError, match=refusal):
            drift_engine(cells, 0.1, 1.0)


def spring(k: float) -> System:
    """U = k|q|^2/2 and g = -kq on Partition(1, 1, 10), with functions built
    afresh per call: each spring is a problem of its own."""
    return System(Partition(1, 1, 10.0), potential=lambda q: 0.5 * k * np.sum(q * q, axis=0),
                  force=lambda q: -k * q, label=f"spring(k={k:g})",
                  initial=State([1.0, 0.1], [0.0, 1.0]))


def test_a_factory_with_another_parameter_is_refused_by_name():
    """Two springs come from one factory, so their functions share their code,
    but k = 4 is not the problem of k = 1: batched after k = 1 it would be
    stepped and measured as k = 1 (H(0) = 1.505 instead of 3.02). Its
    potential is another object, so it is refused before any force call, also
    when both start at rest at q = 0, where both potentials and both forces
    are 0."""
    calls, method = [], METHODS["ERKN2"]
    springs = [counted_force(spring(k), calls) for k in (1.0, 4.0)]
    at_rest = [dataclasses.replace(s, initial=State([0.0, 0.0], [1.0, 1.0])) for s in springs]
    for soft, stiff in (springs, at_rest):
        with pytest.raises(ValueError, match=r"^ERKN2 on spring\(k=4\): not the problem of "
                                             r"spring\(k=1\)$"):
            drift_engine([(method, soft), (method, stiff)], 0.1, 10.0)
    assert calls == []


def test_one_problem_is_one_system_and_its_replaced_members():
    """A batch is one problem by object identity: two k = 1 springs built
    apart hold other function objects, so the second is refused by name with
    neither function called, though their values agree everywhere. Members
    of one built spring with another start or another omega
    (`dataclasses.replace`) batch, and each equals its solo run byte for
    byte."""
    calls, method = [], METHODS["ERKN2"]
    apart = [counted_force(s, calls) for s in (spring(1.0), spring(1.0))]
    apart = [dataclasses.replace(s, potential=lambda q, u=s.potential: calls.append(q.shape) or u(q))
             for s in apart]
    with pytest.raises(ValueError, match=r"^ERKN2 on spring\(k=1\): not the problem of "
                                         r"spring\(k=1\)$"):
        drift_engine([(method, s) for s in apart], 0.1, 10.0)
    assert calls == []
    base = spring(1.0)
    members = [base, dataclasses.replace(base, initial=State([0.5, -0.2], [0.3, 0.0])),
               dataclasses.replace(base, partition=Partition(1, 1, 40.0))]
    cells = [(m, s) for s in members for m in (method, resolve("trig:ERKN3"))]
    for cell, (rows, message) in zip(cells, drift_engine(cells, 0.1, 10.0)):
        (solo_rows, solo_message), = drift_engine([cell], 0.1, 10.0)
        assert message is None
        assert (rows.tobytes(), message) == (solo_rows.tobytes(), solo_message)


def test_built_in_systems_share_one_force_and_one_potential():
    built = [fpu_system(m, w) for m in (1, 3) for w in (5.0, 200.0)]
    linear = [linear_system(Partition(d1, 2, w)) for d1 in (0, 3) for w in (5.0, 200.0)]
    for systems in (built, linear):
        assert all(s.force is systems[0].force for s in systems)
        assert all(s.potential is systems[0].potential for s in systems)
    assert built[0].force is not linear[0].force


def test_cells_that_share_the_functions_are_not_probed(tmp_path, monkeypatch):
    """The batch check evaluates no function: the engine calls the potential
    only on its (dim, k, B) blocks of samples. That holds for a 36-cell sweep
    and for a member built with another start."""
    calls, inside, fpu_potential = [], [], fpu_system(3, 50.0).potential

    def potential(q):
        if inside:
            calls.append(q.ndim)
        return fpu_potential(q)

    def engine(*args):
        inside.append(True)
        try:
            return drift_engine(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(systems, "_fpu_potential", potential)
    monkeypatch.setattr(cli, "drift_engine", engine)
    code = cmd_sweep(ALL_METHODS, [50.0, 200.0], [0.1, 0.01], 2.0, tmp_path, stride=100,
                     out=io.StringIO(), err=io.StringIO())
    assert code == EXIT_OK and len(list(tmp_path.glob("*_w*_h*.csv"))) == 36
    base = fpu_system(3, 50.0)
    member = dataclasses.replace(base, initial=State(base.initial.q + 0.1, base.initial.p))
    engine([(METHODS["ERKN2"], base), (METHODS["ERKN2"], member)], 0.1, 1.0)
    assert calls and set(calls) == {3}


def threshold_potential(q: np.ndarray) -> np.ndarray:
    return np.zeros(q.shape[1:])


def threshold_force(q: np.ndarray) -> np.ndarray:
    return np.where(q[:1] > 0.0, np.inf, 0.0) * np.ones_like(q)


def threshold_system(q0: float) -> System:
    """A free slow coordinate that moves by exactly 1 a step at h = 1 (p = 1),
    under a force that is 0 while it is at most 0 and inf beyond. From
    q0 = 1.25 - s, ERKN2's stage point passes 0 at step s. Every start shares
    the module's two functions, so they are one problem to `drift_engine`."""
    return System(Partition(1, 1, 3.0), potential=threshold_potential, force=threshold_force,
                  label=f"threshold(q0={q0:g})", initial=State([q0, 0.0], [1.0, 0.0]))


def test_a_one_stage_column_steps_past_a_non_finite_start_force():
    """The force is inf where q_1 > 0. From q = (0.5, 0), p = (-10, 0), ERKN2's
    stage points keep q_1 <= 0, so it runs finite alone, but a kick-first cell
    in its batch lifts its start with g(q) = inf. The one-stage column carries
    an exact-zero half kick and equals its solo run byte for byte."""
    h, t_end = 0.1, 10.0
    sys_ = dataclasses.replace(threshold_system(0.5), initial=State([0.5, 0.0], [-10.0, 0.0]))
    cells = [(resolve(name), sys_) for name in ("ERKN2", "trig:ERKN2")]
    (rows, message), (_, trig_message) = drift_engine(cells, h, t_end)
    assert message is None and trig_message.endswith("non-finite at step 1 (t = 0.1)")
    (solo_rows, solo_message), = drift_engine(cells[:1], h, t_end)
    assert (rows.tobytes(), solo_message) == (solo_rows.tobytes(), None)


def test_blow_ups_at_the_edges_of_a_finiteness_block():
    """Finiteness is tested once per block of FINITE_TEST_STEPS steps. Cells
    that blow up at step 1, at the last step of a block, at the first step of
    the next, twice within one block and at the final step keep the exact
    step of a plain loop, and equal their solo runs byte for byte."""
    block, method, stride = verify.FINITE_TEST_STEPS, METHODS["ERKN2"], 7
    n = 3 * block + 5
    targets = [1, block, block + 1, 2 * block + 5, 2 * block + 30, n]
    cells = [(method, threshold_system(1.25 - s)) for s in targets]
    for target, cell, (rows, message) in zip(targets, cells, drift_engine(cells, 1.0, n, stride)):
        assert first_blowup(stepper(method, cell[1], 1.0), cell[1].initial, n) == target
        assert message.endswith(f"state became non-finite at step {target} (t = {target:g})")
        assert list(rows[:, 0]) == [float(i) for i in range(0, target, stride)]
        (solo_rows, solo_message), = drift_engine([cell], 1.0, n, stride)
        assert (rows.tobytes(), message) == (solo_rows.tobytes(), solo_message)


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
            cells.append((method, sys_))
            steppers.append(build(method, sys_, h))
    return cells, steppers


def assert_rows_equal_single_steppers(sys_by_omega: dict, h: float) -> None:
    """Over 100 steps, each column of the batched kernel equals its 1-d
    stepper, and the engine's energy samples equal the energies of those 1-d
    states. One-stage and kick-first batches match bit for bit. In a mixed
    batch a one-stage column adds terms with exact-zero coefficients, which
    can turn a -0.0 into +0.0 (and an inf into nan once F is inf): its values,
    and so its energies, are equal while finite, and it turns non-finite at
    the same step."""
    steps = 100
    for names in (list(METHODS), ALL_METHODS[6:], ALL_METHODS):
        exact = names != ALL_METHODS
        cells, steppers = batch_of(sys_by_omega, names, h)
        samples = drift_engine(cells, h, steps * h)
        block = Coefficients.columns([m.coefficients(s.partition, h) for m, s in cells])
        force = cells[0][1].force
        z = np.stack([(sys_.initial.q, sys_.initial.p) for _, sys_ in cells], axis=-1)
        z = lift(force, block, z)
        kernel = step_map(force, block, z)
        states = [sys_.initial for _, sys_ in cells]
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, steps + 1):
                kernel()
                states = [step(s) for step, s in zip(steppers, states)]
                for j, s in enumerate(states):
                    got, where = z[:2, :, j], (names[j // 2], i)
                    if exact:
                        assert got.tobytes() == s.z.tobytes(), where
                    else:
                        finite = np.isfinite(s.z).all()
                        assert np.isfinite(got).all() == finite, where
                        assert not finite or np.array_equal(got, s.z), where
                    rows, blowup = samples[j]
                    if blowup is None:
                        H, I = energies(cells[j][1], s.q, s.p)
                        assert (rows[i, 1], rows[i, 2]) == (H, I), where


@PROPERTY
@given(log_uniform(0.005, 0.4), log_uniform(5.0, 400.0), log_uniform(5.0, 400.0))
@example(0.1, 10.0 * math.pi, 30.0 * math.pi)  # h*omega = pi and 3pi: kick-filter poles
def test_engine_rows_equal_the_single_steppers_on_fpu(h, omega_a, omega_b):
    """Random draws almost never land on a pole of the kick filter, where it
    is 2 bbar/sinc(nu/2); the example puts both omegas on one."""
    assert_rows_equal_single_steppers({w: fpu_system(3, w) for w in (omega_a, omega_b)}, h)


@PROPERTY
@given(st.integers(0, 3), st.integers(1, 3), st.floats(0.1, 400.0), st.floats(0.005, 0.5))
def test_engine_rows_equal_the_single_steppers_on_linear(d1, d2, omega, h):
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
