"""erkn benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload run_presets --seed 1 --seconds 30 --trace 0

With --trace 0 the workload runs untraced for --seconds seconds of timed
operations and the end-to-end metrics are reported. With --trace 1 a fixed
list of the workload's operations runs twice each, untraced and then traced,
and the per-layer metrics and the tracing overhead are reported.

Every output is checked; the last line of stdout is one JSON object with
keys correct, attempted, failed and metrics. Metric names and units come
from BENCHMARK.json. The run context, percentiles and counts are written to
perfbench/out/<workload>.trace<0|1>.json and the spans of a traced run to
perfbench/out/<workload>.spans.json.
"""

import os

# One thread per workload process, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 21


def load_program() -> bool:
    """Import erkn from this checkout's src/; False if it is not there."""
    if not (SRC / "erkn" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    import erkn

    return Path(erkn.__file__).resolve().parent == SRC / "erkn"


def run_context(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), cpu)
    git_rev = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            git_rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "erkn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load_1min_before": os.getloadavg()[0],
    }


def setup_probe(first: tuple[str, float, float]) -> float:
    """Seconds from starting a fresh interpreter to its first step being ready."""
    method, h, omega = first
    cmd = [sys.executable, str(HERE / "first_step.py"), method, repr(h), repr(omega)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {cmd}")
    return t1 - t0


def attempt(wl, spec, tmp: Path, tracer=None, op: int = 0):
    """Run one operation (timed) and check it (untimed): (seconds, Outcome).
    An exception counts every unit of the operation as failed."""
    from workloads import Outcome

    patch = tracer.patched(op) if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with patch:
            raw = wl.run(spec, tmp)
        dt = time.perf_counter() - t0
        return dt, wl.check(spec, raw, tmp)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return time.perf_counter() - t0, Outcome(wl.units_per_op, wl.units_per_op)


def completed(wl, outcome) -> int:
    """The work `wl.rate` counts: trajectory steps of passing operations, or
    passing probe points."""
    return outcome.steps if wl.rate == "traj_steps_per_s" else outcome.attempted - outcome.failed


def run_end_to_end(wl, seconds: float, tmp: Path):
    """Closed loop until `seconds` of timed operations; one untimed warm-up.

    The bounded timings are the slow tails, p90 of the per-operation
    latencies and of SETUP_REPEATS fresh starts spread over the run: on a
    shared host, bursts of extra speed come and go over minutes, so medians
    move with the share of the run spent in a burst, while the 90th
    percentiles repeat from run to run. Mean throughput and the median
    latency and set-up are reported next to them, unbounded."""
    from workloads import Outcome

    specs = wl.specs()
    checked = attempt(wl, next(specs), tmp)[1]
    setup_probe(wl.first())  # warms the byte-code caches; not counted
    setups = []
    timed = Outcome()
    latencies = []
    total = 0.0
    while total < seconds or len(latencies) < 2:
        # set-up starts are spread over the run, between timed operations
        if len(setups) < SETUP_REPEATS and total >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup_probe(wl.first()))
        dt, outcome = attempt(wl, next(specs), tmp)
        latencies.append(dt)
        total += dt
        timed.add(outcome)
    checked.add(timed)
    lat = statistics.quantiles(latencies, n=10, method="inclusive")
    values = {
        "setup_s": statistics.quantiles(setups, n=10, method="inclusive")[8],
        "op_p90_ms": lat[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    unbounded = {
        wl.rate: (completed(wl, timed) / total, "1/s"),
        "op_p50_ms": (lat[4] * 1e3, "ms"),
        "setup_p50_s": (statistics.median(setups), "s"),
    }
    details = {"ops": len(latencies), "timed_s": total, "blowups": checked.blowups,
               "setup_starts_s": setups,
               "unbounded": {k: {"value": v, "unit": u} for k, (v, u) in unbounded.items()}}
    return values, details, checked


def run_traced(wl, tmp: Path):
    """The workload's first trace_ops operations, each untraced then traced."""
    from spans import Tracer, layer_metrics
    from workloads import Outcome

    tracer = Tracer()
    specs = list(itertools.islice(wl.specs(), wl.trace_ops))
    checked = attempt(wl, specs[0], tmp)[1]
    plain, traced = Outcome(), Outcome()
    plain_s = traced_s = 0.0
    for op, spec in enumerate(specs):
        dt, outcome = attempt(wl, spec, tmp)
        plain_s += dt
        plain.add(outcome)
        dt, outcome = attempt(wl, spec, tmp, tracer, op)
        traced_s += dt
        traced.add(outcome)
    checked.add(plain)
    checked.add(traced)

    values, layers = layer_metrics(tracer, len(specs), traced.csv_bytes / len(specs))
    values["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    details = {
        "ops": len(specs),
        "rate": {"name": wl.rate, "unit": "1/s",
                 "untraced": completed(wl, plain) / plain_s,
                 "traced": completed(wl, traced) / traced_s},
        "blowups": checked.blowups,
        "layers": layers,
    }
    tracer.write(OUT / f"{wl.name}.spans.json")
    return values, details, checked


def metric_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not load_program():
        print(f"error: no erkn package under {SRC}", file=sys.stderr)
        return 2
    units = metric_units(args.trace)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    ctx = run_context(args.seed)
    wl = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.trace:
            values, details, outcome = run_traced(wl, Path(tmp))
        else:
            values, details, outcome = run_end_to_end(wl, args.seconds, Path(tmp))
    ctx["load_1min_after"] = os.getloadavg()[0]

    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    report = {"workload": wl.name, "trace": args.trace, "context": ctx,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics, **details}
    (OUT / f"{wl.name}.trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print("context: " + json.dumps(ctx))
    for name, layer in details.get("layers", {}).items():
        tail = f"p{layer['tail_pct']:g} {layer['tail']:.4g}" if "tail" in layer else "-"
        print(f"  {name:36s} p50 {layer['p50']:.4g}  {tail}  n={layer['n']}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, m in details.get("unbounded", {}).items():
        print(f"{name} = {m['value']:.6g} {m['unit']} (unbounded)")
    if args.trace:
        rate = details["rate"]
        print(f"{rate['name']} untraced {rate['untraced']:.6g}, "
              f"traced {rate['traced']:.6g} {rate['unit']}")
    print(f"attempted {outcome.attempted}, failed {outcome.failed}, "
          f"blowups {details['blowups']}")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
