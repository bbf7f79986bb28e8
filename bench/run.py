"""reachwarp benchmark: closed-loop CLI workloads with optional per-layer tracing.

    python3 bench/run.py --workload verify --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client in one process runs CLI commands back to back through
``reachwarp.cli.main``, each after the previous one finished, until the
commands have been busy for --seconds.  Every output is checked outside the
timed region.  With --trace 0 the last line reports the end-to-end metrics;
with --trace 1 it reports the per-layer metrics of a traced run.  The program
is imported from the ``src`` directory next to this one, never from an
installed copy.  See bench/README.md for the metrics and why each workload
exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_out"

THREADS_ENV_VAR = "REACHWARP_THREADS"

WORKLOAD_NAMES = ("verify", "boundary", "cold_problems")

SETUP_REPEATS = 5
# reference passes timed before and after each set-up probe; their median
# keeps one disturbed pass from scaling a whole probe
PROBE_REFERENCE_PASSES = 5
PROBE_TIMEOUT_S = 120
# latency tail reported as op_p{TAIL_PERCENT}_ms; the slowest workload still
# leaves at least ten operations above it in a run
TAIL_PERCENT = 80

LAYER_METRICS = (
    "reach.boundary_point.calls", "reach.boundary_point.self_ms",
    "reach.boundary_point.us_per_call",
    "reach.zero_input_endpoint.calls", "reach.zero_input_endpoint.ms",
    "linalg.mat_exp.calls", "linalg.mat_exp.ms", "linalg.spectrum.ms",
    "warp.check_assumptions.calls", "warp.check_assumptions.ms",
    "reach.growth_metric.self_ms",
    "reach.boundary_sweep.calls", "reach.direction_fan.calls",
    "warp.optimize_B.self_ms", "model.ball_argmax.calls",
    "verify.sample_ball.calls", "verify.verify_optimality.calls",
    "config.load_config.ms", "cli.main.self_ms",
)
FIELD_UNITS = {"calls": "calls/op", "ms": "ms/op", "self_ms": "ms/op",
               "us_per_call": "us"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="busy time of the timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def use_source_tree() -> None:
    """Import reachwarp from ROOT/src, refusing any other copy."""
    if not (SRC / "reachwarp" / "__init__.py").is_file():
        raise SystemExit(f"bench: no reachwarp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import reachwarp
    if Path(reachwarp.__file__).resolve().parent != (SRC / "reachwarp").resolve():
        raise SystemExit(f"bench: imported reachwarp from {reachwarp.__file__}, "
                         f"not from {SRC}")


def invoke(argv: list) -> tuple:
    """Run one CLI command in-process; returns (exit code, standard output)."""
    from reachwarp import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def snapshot(op_argv: list, code, stdout: str, out_dir: Path) -> dict:
    """Every output of one operation; the manifest's wall clock is dropped."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("wall_clock_s", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        files[path.name] = hashlib.sha256(data).hexdigest()
    return {"argv": op_argv, "code": code, "stdout": stdout, "files": files}


def make_workload(name: str, seed: int, workdir: Path):
    from workloads import WORKLOADS
    if workdir.exists():
        shutil.rmtree(workdir)
    workload = WORKLOADS[name](seed, workdir)
    workload.prepare()
    return workload


def warm_up(workload) -> None:
    from workloads import WARMUP_INDEX
    op = workload.operation(WARMUP_INDEX)
    code, stdout = invoke(op.argv)
    workload.check(op, code, stdout)


def setup_probe(args) -> int:
    """Child process of measure_setup: set up, warm up, report readiness."""
    workload = make_workload(args.workload, args.seed,
                             WORK_ROOT / args.workload / "probe")
    warm_up(workload)
    print("ready", flush=True)
    return 0


def measure_setup(args) -> tuple:
    """Seconds from process start to ready-for-the-first-timed-operation,
    measured on SETUP_REPEATS fresh processes; returns the raw times and the
    times scaled by the reference kernel timed before and after each."""
    from hostspeed import Reference, scale
    reference = Reference()

    def reference_s():
        return statistics.median(reference.seconds()
                                 for _ in range(PROBE_REFERENCE_PASSES))

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        started = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            readable, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if readable else ""
            elapsed = perf_counter() - started
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): "
                               f"{err.strip()}")
        times.append(elapsed)
        scaled.append(scale(elapsed, (before + reference_s()) / 2))
    return times, scaled


def percentile(sorted_values: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_operations(workload, seconds: float, tracer=None) -> dict:
    """Closed loop until the operations have been busy for `seconds`.

    With a tracer, whole input periods alternate between traced and untraced,
    so both halves see the same input mix, and the run lasts at least one
    period of each; only traced periods feed the per-layer metrics.

    The reference kernel runs before the first operation and after each one;
    an operation's scaled latency uses the mean of the two around it.
    """
    from hostspeed import Reference, scale
    from workloads import CheckFailed
    reference = Reference()
    references = [reference.seconds()]
    latencies, traced_flags, passed, labels = [], [], [], []
    defects, failures, snapshots = [], [], {}
    busy = 0.0
    i = 0
    least = 0 if tracer is None else 2 * workload.period
    while busy < seconds or i < least:
        op = workload.operation(i)
        traced = tracer is not None and (i // workload.period) % 2 == 0
        if traced:
            tracer.begin_operation()
        code, stdout, error = None, "", None
        started = perf_counter()
        try:
            code, stdout = invoke(op.argv)
        except (Exception, SystemExit):
            error = traceback.format_exc()
        finally:
            elapsed = perf_counter() - started
            if traced:
                tracer.end_operation()
        references.append(reference.seconds())
        busy += elapsed
        latencies.append(elapsed)
        traced_flags.append(traced)
        labels.append(op.label)
        try:
            if error is not None:
                raise CheckFailed(error.strip().splitlines()[-1])
            defects.append(workload.check(op, code, stdout))
            passed.append(True)
        except Exception as exc:
            # an output the check cannot even parse fails the operation too
            reason = str(exc) if isinstance(exc, CheckFailed) else repr(exc)
            failures.append(f"operation {i} ({op.label}): {reason}")
            passed.append(False)
        if tracer is not None and i in (0, workload.period):
            snapshots[i] = snapshot(op.argv, code, stdout, workload.out_dir)
        i += 1
    scaled = [scale(t, (references[k] + references[k + 1]) / 2)
              for k, t in enumerate(latencies)]
    return {"attempted": i, "latencies": latencies, "scaled": scaled,
            "traced": traced_flags,
            "passed": passed, "labels": labels, "busy_s": busy, "defects": defects,
            "failures": failures, "snapshots": snapshots}


def period_throughput(passed: list, latencies: list, period: int) -> float:
    """Median over complete input periods of passed operations per busy
    second; every period runs the same input mix, and the median keeps a
    burst of machine noise from moving the result."""
    count = len(latencies) // period
    if count == 0:
        return sum(passed) / sum(latencies)
    return statistics.median(
        sum(passed[k * period:(k + 1) * period])
        / sum(latencies[k * period:(k + 1) * period])
        for k in range(count))


def trace_overhead(run: dict, period: int) -> float:
    """Throughput lost by traced operations against untraced ones, over the
    complete (traced, untraced) pairs of input periods."""
    used = len(run["scaled"]) // (2 * period) * 2 * period
    traced = [t for t, on in zip(run["scaled"][:used], run["traced"]) if on]
    untraced = [t for t, on in zip(run["scaled"][:used], run["traced"]) if not on]
    return 1.0 - sum(untraced) / sum(traced)


def rerun_identical(workload, tracer, snapshots: dict) -> list:
    """Rerun the first traced operation untraced and the first untraced one
    traced; both must reproduce their outputs byte for byte."""
    problems = []
    for i, recorded in sorted(snapshots.items()):
        op = workload.operation(i)
        traced = i == 0
        if traced:
            tracer.begin_operation()
        try:
            code, stdout = invoke(op.argv)
        except (Exception, SystemExit):
            problems.append(f"operation {i}: rerun raised "
                            f"{traceback.format_exc().strip().splitlines()[-1]}")
            continue
        finally:
            if traced:
                tracer.end_operation()
        again = snapshot(op.argv, code, stdout, workload.out_dir)
        if again != recorded:
            problems.append(f"operation {i}: traced and untraced outputs differ")
    return problems


def whole_periods(values: list, period: int) -> list:
    """The values of the complete input periods, so every run's latency
    sample has the same input mix; all values when no period is complete."""
    used = len(values) // period * period
    return values[:used] if used else values


def end_to_end_metrics(latencies: list, passed: list, period: int,
                       setup_times: list) -> dict:
    lat_ms = sorted(1e3 * t for t in whole_periods(latencies, period))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (period_throughput(passed, latencies, period), "1/s"),
        "op_p50_ms": (percentile(lat_ms, 50), "ms"),
        f"op_p{TAIL_PERCENT}_ms": (percentile(lat_ms, TAIL_PERCENT), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def layer_metrics(tracer, run: dict, period: int) -> dict:
    ops = max(tracer.operations, 1)
    metrics = {}
    for name in LAYER_METRICS:
        span, field = name.rsplit(".", 1)
        stats = tracer.stats.get(span)
        if stats is None:
            continue  # the function no longer exists in this version
        value = {"calls": stats.calls / ops,
                 "ms": 1e3 * stats.total_s / ops,
                 "self_ms": 1e3 * stats.self_s / ops,
                 "us_per_call": 1e6 * stats.total_s / max(stats.calls, 1)}[field]
        metrics[name] = {"value": value, "unit": FIELD_UNITS[field]}
    points = tracer.points
    per_point = max(points.points, 1)
    metrics.update({
        "reach.steps": {"value": points.steps / ops, "unit": "steps/op"},
        "reach.vertex_scores": {"value": points.vertex_scores / ops,
                                "unit": "scores/op"},
        "reach.switches_per_point": {"value": points.switches / per_point,
                                     "unit": "switches"},
        "reach.costate_reuse_frac": {"value": points.costate_reused / per_point,
                                     "unit": "frac"},
        "reach.system_reuse_frac": {"value": points.system_reused / per_point,
                                    "unit": "frac"},
        "trace.overhead_frac": {"value": trace_overhead(run, period),
                                "unit": "frac"},
        "check.oracle_defect_max": {"value": max(run["defects"], default=None),
                                    "unit": "1"},
    })
    return metrics


def _read_git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    import ctypes
    import numpy as np
    libs = Path(np.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "reachwarp").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": _read_git_revision(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_workload(args) -> int:
    workdir = WORK_ROOT / args.workload
    workload = make_workload(args.workload, args.seed, workdir / "run")
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    warm_up(workload)
    run = run_operations(workload, args.seconds, tracer)
    problems = list(run["failures"])
    raw = None
    if tracer is None:
        setup_raw, setup_scaled = measure_setup(args)
        metrics = end_to_end_metrics(run["scaled"], run["passed"], workload.period,
                                     setup_scaled)
        raw = end_to_end_metrics(run["latencies"], run["passed"], workload.period,
                                 setup_raw)
    else:
        metrics = layer_metrics(tracer, run, workload.period)
        problems += rerun_identical(workload, tracer, run["snapshots"])
    failed = len(run["failures"])
    result = {"correct": not problems, "attempted": run["attempted"],
              "failed": failed, "metrics": metrics}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failed_frac": failed / run["attempted"],
        "oracle_defect_max": max(run["defects"], default=None),
        "latency_samples": len(run["latencies"]), "problems": problems,
        "provenance": provenance(), "result": result, "unscaled_metrics": raw,
        "operations": [{"label": label, "ms": 1e3 * t, "scaled_ms": 1e3 * u,
                        "passed": ok, "traced": on}
                       for label, t, u, ok, on in zip(run["labels"], run["latencies"],
                                                      run["scaled"], run["passed"],
                                                      run["traced"])],
    }
    if tracer is not None:
        detail["missing_functions"] = tracer.missing
        detail["spans"] = {name: {"calls": s.calls, "total_ms": 1e3 * s.total_s,
                                  "self_ms": 1e3 * s.self_s}
                           for name, s in sorted(tracer.stats.items())}
        detail["first_operation_spans"] = tracer.span_tree()
    (workdir / f"result_trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print_summary(detail)
    print(json.dumps(result))
    return 0


def print_summary(detail: dict) -> None:
    result = detail["result"]
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"trace {detail['trace']}: {result['attempted']} operations, "
          f"{result['failed']} failed (failed_frac {detail['failed_frac']:.4g}), "
          f"{detail['latency_samples']} latency samples, oracle defect max "
          f"{detail['oracle_defect_max']}")
    raw = detail["unscaled_metrics"] or {}
    for name, m in result["metrics"].items():
        value = m["value"]
        shown = format(value, ".6g") if value is not None else "none"
        line = f"  {name:34s} {shown:>14} {m['unit']}"
        if name in raw:
            line += f"   (unscaled {raw[name]['value']:.6g})"
        print(line)
    for line in detail["problems"][:10]:
        print(f"  FAILED {line}")
    print("provenance " + json.dumps(detail["provenance"], sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if THREADS_ENV_VAR in os.environ:
        print(f"bench: unset {THREADS_ENV_VAR}; the benchmark measures the "
              "sequential program", file=sys.stderr)
        return 2
    use_source_tree()
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
