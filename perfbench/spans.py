"""Spans around calls into erkn's layers, for the traced run.

The benchmark wraps the program's public functions from the outside: while
`Tracer.patched()` is active, module attributes such as `erkn.cli.main` or
`erkn.verify.stepper` are replaced by wrappers that record a span, and the
originals come back on exit. A span is (name, start, end, parent, op id,
count); spans stay in memory and are written out when the run ends. Nothing
under src/erkn is edited. A layer that the workload's operations never call
has no spans; its timings and counts read 0 (n = 0 in the details).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from erkn import (METHODS, cli, fpu_system, methods, splitting, stepper, systems,
                  trig_method_from, trig_stepper, verify)


class Tracer:
    """In-memory span store. `op` tags new spans with the current operation."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op_of = array("i")
        self.count = array("q")
        self._stack: list[int] = []
        self._wrappers = None
        self.op = -1

    def wrap(self, name: str, fn, count=None):
        """fn with a span around each call; count(args, result) fills the
        span's count field."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op_of.append(self.op)
            self.count.append(0)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if count is not None:
                self.count[idx] = count(args, result)
            return result

        return traced

    def _layer_wrappers(self) -> list[tuple[object, str, object]]:
        def traced_system(build):
            inner = self.wrap("systems.fpu_system", build)

            def traced_build(*args, **kwargs):
                sys_ = inner(*args, **kwargs)
                return dataclasses.replace(sys_, force=self.wrap("systems.force", sys_.force))

            return traced_build

        def traced_stepper(build_name, step_name, build):
            inner = self.wrap(build_name, build)
            return lambda *args, **kwargs: self.wrap(step_name, inner(*args, **kwargs))

        fpu = traced_system(systems.fpu_system)
        erkn_stepper = traced_stepper("methods.stepper_build", "methods.step", methods.stepper)
        report = self.wrap("verify.assumption_report", verify.assumption_report)
        expand = self.wrap("oscfun.block_expand", methods.block_expand)
        return [
            (cli, "main", self.wrap("cli.main", cli.main)),
            (cli, "cmd_check", self.wrap("cli.cmd_check", cli.cmd_check)),
            (cli, "write_drift_csv", self.wrap("cli.write_drift_csv", cli.write_drift_csv,
                                               count=lambda args, _: len(args[1]))),
            (cli, "fpu_system", fpu),
            (systems, "fpu_system", fpu),
            (cli, "trig_method_from", self.wrap("splitting.trig_method_from",
                                                splitting.trig_method_from)),
            (cli, "drift_series", self.wrap("verify.drift_series", verify.drift_series)),
            (cli, "drift_stats", self.wrap("verify.drift_stats", verify.drift_stats)),
            (cli, "assumption_report", report),
            (verify, "assumption_report", report),
            (verify, "stepper", erkn_stepper),
            (splitting, "stepper", erkn_stepper),
            (verify, "trig_stepper", traced_stepper("splitting.trig_stepper_build",
                                                    "splitting.trig_step",
                                                    splitting.trig_stepper)),
            (verify, "hamiltonian", self.wrap("systems.hamiltonian", verify.hamiltonian)),
            (verify, "oscillatory_energy", self.wrap("systems.oscillatory_energy",
                                                     verify.oscillatory_energy)),
            (verify, "structure_defects", self.wrap("verify.structure_defects",
                                                    verify.structure_defects)),
            (splitting, "conjugacy_check", self.wrap("splitting.conjugacy_check",
                                                     splitting.conjugacy_check)),
            (methods, "block_expand", expand),
            (splitting, "block_expand", expand),
        ]

    @contextlib.contextmanager
    def patched(self, op: int):
        """Trace operation `op`: layer functions are wrapped inside the block."""
        if self._wrappers is None:
            self._wrappers = self._layer_wrappers()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self._wrappers]
        self.op = op
        for mod, attr, fn in self._wrappers:
            setattr(mod, attr, fn)
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
            self.op = -1

    def write(self, path: Path) -> None:
        """All spans as one JSON object of columns; times in ns."""
        path.write_text(json.dumps({
            "names": self.names,
            "name": self.name.tolist(),
            "start_ns": self.start.tolist(),
            "end_ns": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op_of.tolist(),
            "count": self.count.tolist(),
        }))


def pycalls(step, s) -> int:
    """Exact number of calls (Python and C) made inside one call of step(s)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    def counted(fn):
        nonlocal calls
        calls = 0
        sys.setprofile(profile)
        try:
            fn(s)
        finally:
            sys.setprofile(None)
        return calls

    # the call of fn itself and of sys.setprofile(None) are counted in both
    return counted(step) - counted(lambda _: None)


def step_pycalls(erkn_steps: bool, trig_steps: bool) -> dict[str, int]:
    """Calls per step of the ERKN and kick-first steppers at fig1; 0 for a
    stepper the workload never stepped."""
    h, omega = cli.PRESETS["fig1"]
    sys_ = fpu_system(3, omega)
    erkn2 = METHODS["ERKN2"]
    return {
        "methods.step_pycalls":
            pycalls(stepper(erkn2, sys_, h), sys_.initial) if erkn_steps else 0,
        "splitting.trig_step_pycalls":
            pycalls(trig_stepper(trig_method_from(erkn2), sys_, h), sys_.initial)
            if trig_steps else 0,
    }


def percentiles(values) -> dict:
    """p50, the highest of p90/p99/p99.9 with at least 10 samples beyond it,
    and the sample count (nearest-rank percentiles); p50 is 0 without samples."""
    v = np.sort(np.asarray(values, dtype=float))
    n = len(v)
    out = {"n": n, "p50": float(v[(n - 1) // 2]) if n else 0.0}
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            out["tail_pct"] = pct
            out["tail"] = float(v[int(np.ceil(pct / 100.0 * n)) - 1])
            break
    return out


class SpanTable:
    """Column view of a Tracer, with derived self times."""

    def __init__(self, tr: Tracer):
        self.names = tr.names
        self.name = np.array(tr.name, dtype=np.int64)
        self.parent = np.array(tr.parent, dtype=np.int64)
        self.op = np.array(tr.op_of, dtype=np.int64)
        self.count = np.array(tr.count, dtype=np.int64)
        self.dur = (np.array(tr.end, dtype=np.int64) - np.array(tr.start, dtype=np.int64)) * 1e-3
        has_parent = self.parent >= 0
        n = len(self.dur)
        self.child_us = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                    minlength=n)
        self.self_us = self.dur - self.child_us

    def ids(self, *names: str) -> np.ndarray:
        """Span indices with one of these names, in time order."""
        codes = [self.names.index(x) for x in names if x in self.names]
        return np.flatnonzero(np.isin(self.name, codes))

    def children_named(self, idx: np.ndarray, *names: str) -> np.ndarray:
        """Per span in idx, the number of its direct children with these names."""
        codes = [self.names.index(x) for x in names if x in self.names]
        kids = np.isin(self.name, codes) & (self.parent >= 0)
        per_parent = np.bincount(self.parent[kids], minlength=len(self.dur))
        return per_parent[idx]

    def per_op(self, idx: np.ndarray, n_ops: int, values=None) -> float:
        """Total over idx per operation."""
        total = len(idx) if values is None else float(np.sum(values))
        return total / n_ops


def layer_metrics(tr: Tracer, n_ops: int, csv_bytes_per_op: float) -> tuple[dict, dict]:
    """(per-layer metric values, percentile details per timing)."""
    t = SpanTable(tr)
    details: dict[str, dict] = {}
    values: dict[str, float] = {}

    def timing(metric: str, samples_us, scale: float = 1.0) -> None:
        d = percentiles(np.asarray(samples_us) * scale)
        details[metric] = d
        values[metric] = d["p50"]

    step = t.ids("methods.step")
    timing("methods.step_us", t.dur[step])
    timing("methods.step_self_us", t.self_us[step])
    timing("systems.force_us", t.dur[t.ids("systems.force")])
    timing("splitting.trig_step_us", t.dur[t.ids("splitting.trig_step")])

    series = t.ids("verify.drift_series")
    steps = t.children_named(series, "methods.step", "splitting.trig_step")
    timing("verify.drift_series_us_per_step", t.dur[series] / steps)
    timing("verify.loop_self_us_per_step", t.self_us[series] / steps)
    ham, osc = t.ids("systems.hamiltonian"), t.ids("systems.oscillatory_energy")
    timing("systems.energy_us", t.dur[ham] + t.dur[osc])
    write = t.ids("cli.write_drift_csv")
    timing("cli.write_drift_csv_us_per_row", t.dur[write] / t.count[write])
    timing("verify.drift_stats_ms", t.dur[t.ids("verify.drift_stats")], 1e-3)

    timing("methods.stepper_build_us", t.dur[t.ids("methods.stepper_build")])
    timing("splitting.trig_method_from_us", t.dur[t.ids("splitting.trig_method_from")])
    timing("systems.fpu_system_us", t.dur[t.ids("systems.fpu_system")])
    expand = t.ids("oscfun.block_expand")
    timing("oscfun.block_expand_us", t.dur[expand])

    timing("cli.cmd_check_us", t.dur[t.ids("cli.cmd_check")])
    timing("verify.structure_defects_us", t.dur[t.ids("verify.structure_defects")])
    timing("verify.assumption_report_us", t.dur[t.ids("verify.assumption_report")])
    timing("splitting.conjugacy_check_ms", t.dur[t.ids("splitting.conjugacy_check")], 1e-3)
    timing("cli.overhead_ms", t.self_us[t.ids("cli.main")], 1e-3)

    values["oscfun.block_expand_calls_per_op"] = t.per_op(expand, n_ops)
    values["verify.steps_per_op"] = t.per_op(t.ids("methods.step", "splitting.trig_step"), n_ops)
    values["systems.force_calls_per_op"] = t.per_op(t.ids("systems.force"), n_ops)
    values["verify.samples_per_op"] = t.per_op(ham, n_ops)
    values["cli.csv_rows_per_op"] = t.per_op(write, n_ops, t.count[write])
    values["cli.csv_bytes"] = csv_bytes_per_op
    values.update(step_pycalls(len(step) > 0, len(t.ids("splitting.trig_step")) > 0))
    return values, details
