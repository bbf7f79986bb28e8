"""Command-line interface.

Subcommands: optimize (select the input matrix), boundary (sweep boundary
points to CSV), metric (print one growth metric), verify (sampled
optimality check), fixtures (list or emit built-in problems).  Every
computing command writes a manifest.json next to its outputs recording the
configuration echo, package version, assumption regime, wall-clock time
and produced files.  JSON outputs are json.dumps(..., indent=2,
sort_keys=True) text.  warp_result.json lists each candidate's index and
objective but not its matrix, which is
ball_argmax(FrobeniusBall(C, r), outer(P0, u_i)) from the written P0 and the
echoed configuration.

Exit codes: 0 success, 1 failed verification in the theorem regime,
2 malformed configuration or options, dimension mismatch or an unwritable
output path, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .config import ProblemConfig, _array, _read_json, load_config
from .errors import ConfigError, NumericError, ReachwarpError
from .fixtures import fixture_config, fixture_description, fixture_names
from .linalg import as_matrix
from .model import _count
from .reach import boundary_sweep, direction_fan, growth_metric
from .verify import DEFAULT_SAMPLES, verify_optimality
from .warp import REGIME_THEOREM, WarpResult, check_assumptions, optimize_B


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _json_default(obj):
    """numpy arrays and scalars as the lists and numbers json writes."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    """payload as 2-space indented JSON with sorted keys and a final newline."""
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                 default=_json_default) + "\n")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


# least value of each count option
_COUNT_OPTIONS = {"steps": 1, "seed": 0, "directions": 1, "samples": 1}


def _load_problem(args) -> ProblemConfig:
    """The configured problem with the --steps, --seed and --directions
    overrides the command was given applied.  The count options are checked
    first, so a bad value fails before any warning or work."""
    for key, minimum in _COUNT_OPTIONS.items():
        if getattr(args, key, None) is not None:
            _count(getattr(args, key), f"--{key}", minimum)
    if not args.config:
        raise ConfigError("--config is required for this command")
    problem = load_config(args.config)
    if not problem.control.contains_zero:
        _warn("control set does not contain the zero input; the growth metric "
              "may be negative even without optimization")
    overrides = {key: getattr(args, key) for key in ("steps", "seed", "directions")
                 if getattr(args, key, None) is not None}
    return dataclasses.replace(problem, **overrides)


def _regime_warning(report) -> None:
    if report.regime == REGIME_THEOREM:
        return
    reasons = []
    if not report.assumption1_holds:
        reasons.append("the system matrix has complex eigenvalues")
    if not report.assumption2_holds:
        reasons.append("the direction is not an eigenvector of the transposed "
                       "system matrix")
    print("THEOREM REGIME NOT SATISFIED: result is heuristic "
          f"({'; '.join(reasons)})", file=sys.stderr)


def _out_dir(args) -> Path:
    out = Path(args.out) if args.out else Path(".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write to {out}: {exc}") from exc
    return out


def _manifest(out: Path, command: str, problem: ProblemConfig, regime: str,
              started: float, outputs: list[str], extras: dict | None = None) -> None:
    payload = {
        "command": command,
        "version": __version__,
        "config": problem.echo,
        "regime": regime,
        "wall_clock_s": round(time.perf_counter() - started, 6),
        "outputs": outputs,
    }
    if extras:
        payload["extras"] = extras
    _write_json(out / "manifest.json", payload)


def _warp_payload(result: WarpResult, steps: int) -> dict:
    report = result.report
    return {
        "sense": result.sense,
        "steps": steps,
        "regime": report.regime,
        "assumptions": {
            "eigenvalues": [list(ev) for ev in report.spectrum.eigenvalues],
            "max_abs_imag": report.spectrum.max_abs_imag,
            "all_real": report.spectrum.all_real,
            "eigvec_mu": report.eigvec_mu,
            "eigvec_residual": report.eigvec_residual,
            "assumption1_holds": report.assumption1_holds,
            "assumption2_holds": report.assumption2_holds,
        },
        "P0": result.P0,
        "i_star": result.i_star,
        "B_star": result.B_star,
        "degenerate": result.degenerate,
        "G_nominal": result.G_nominal,
        "G_optimized": result.G_optimized,
        "candidates": [{"index": c.index, "objective": c.objective}
                       for c in result.candidates],
    }


def _run_optimize(problem: ProblemConfig) -> WarpResult:
    result = optimize_B(problem.system, problem.control, problem.ball,
                        problem.direction, problem.sense, problem.steps,
                        problem.tolerances.tol_spec, problem.tolerances.tol_ev)
    _regime_warning(result.report)
    return result


def _regime(problem: ProblemConfig, result: WarpResult | None) -> str:
    """Assumption regime of the run, from the selection when one was made."""
    if result is not None:
        return result.report.regime
    return check_assumptions(problem.system, problem.direction,
                             problem.tolerances.tol_spec,
                             problem.tolerances.tol_ev).regime


def _resolve_B(args, problem: ProblemConfig):
    """Input matrix selected by --B: the ball center, the optimizer output,
    or a matrix file; returns (B, tag, warp_result_or_None).  The shape of
    a file's matrix is checked where it is used."""
    choice = args.B
    if choice == "nominal":
        return problem.ball.center, "nominal", None
    if choice == "optimized":
        result = _run_optimize(problem)
        return result.B_star, "optimized", result
    data = _read_json(choice, "matrix file")
    try:
        B = _array(data if isinstance(data, dict) else {"B": data}, "B", as_matrix)
    except ConfigError as exc:
        raise ConfigError(f"matrix file {choice}: {exc}") from exc
    return B, "custom", None


def cmd_optimize(args) -> int:
    started = time.perf_counter()
    problem = _load_problem(args)
    out = _out_dir(args)
    result = _run_optimize(problem)
    _write_json(out / "warp_result.json", _warp_payload(result, problem.steps))
    print(f"G_nominal = {_fmt(result.G_nominal)}")
    print(f"G_optimized = {_fmt(result.G_optimized)}")
    print(f"i_star = {result.i_star}")
    _manifest(out, "optimize", problem, result.report.regime, started,
              ["warp_result.json"])
    return 0


def cmd_boundary(args) -> int:
    started = time.perf_counter()
    problem = _load_problem(args)
    out = _out_dir(args)
    B, tag, result = _resolve_B(args, problem)
    fan = direction_fan(problem.system.n, problem.directions, problem.seed)
    points = boundary_sweep(problem.system, B, problem.control, fan, problem.steps)
    name = f"boundary_{tag}.csv"
    _write_boundary_csv(out / name, points)
    extras = {"directions_total": len(fan), "steps": problem.steps,
              "seed": problem.seed}
    if result is not None:
        nominal = boundary_sweep(problem.system, problem.ball.center,
                                 problem.control, fan, problem.steps)
        grown = sum(1 for p, q in zip(points, nominal)
                    if p.support_value > q.support_value)
        extras["directions_grown"] = grown
    _manifest(out, "boundary", problem, _regime(problem, result), started,
              [name], extras)
    return 0


def _write_boundary_csv(path: Path, points) -> None:
    n = points[0].d.shape[0]
    header = (["dir_index"] + [f"d_{i + 1}" for i in range(n)]
              + [f"x_{i + 1}" for i in range(n)] + ["support_value"])
    table = np.column_stack((np.arange(len(points)), [p.d for p in points],
                             [p.X_dB for p in points],
                             [p.support_value for p in points]))
    # "%.17g" % v is format(v, ".17g"), as _fmt writes, for every double
    row = "%d" + ",%.17g" * (2 * n + 1) + "\n"
    _write_text(path, ",".join(header) + "\n"
                + (row * len(points)) % tuple(table.ravel().tolist()))


def cmd_metric(args) -> int:
    started = time.perf_counter()
    problem = _load_problem(args)
    out = _out_dir(args)
    B, tag, result = _resolve_B(args, problem)
    report = growth_metric(problem.system, B, problem.control,
                           problem.direction, problem.steps)
    print(f"G_d = {_fmt(report.G_d)}")
    payload = {
        "G_d": report.G_d,
        "direction": problem.direction,
        "c0": report.c0,
        "X_dB": report.X_dB,
        "B": report.B,
        "B_source": tag,
        "steps": problem.steps,
    }
    _write_json(out / "metric.json", payload)
    _manifest(out, "metric", problem, _regime(problem, result), started,
              ["metric.json"])
    return 0


def cmd_verify(args) -> int:
    started = time.perf_counter()
    problem = _load_problem(args)
    out = _out_dir(args)
    result = _run_optimize(problem)
    verdict = verify_optimality(problem.system, problem.control, problem.ball,
                                problem.direction, problem.sense, args.samples,
                                problem.seed, problem.steps,
                                problem.tolerances.tol_verify, result)
    required = result.report.regime == REGIME_THEOREM
    payload = {
        "samples": verdict.samples,
        "seed": problem.seed,
        "steps": problem.steps,
        "sense": problem.sense,
        "regime": result.report.regime,
        "G_star": verdict.G_star,
        "best_sampled_G": verdict.best_sampled_G,
        "best_sampled_B": verdict.best_sampled_B,
        "margin": verdict.margin,
        "tol_verify": verdict.tol_verify,
        "pass": verdict.passed,
        "pass_required": required,
    }
    _write_json(out / "verdict.json", payload)
    print(f"margin = {_fmt(verdict.margin)}")
    if not required:
        print("pass: not-required (heuristic regime)")
        code = 0
    elif verdict.passed:
        print("pass")
        code = 0
    else:
        print("FAIL: a sampled matrix beat the selected one in the theorem regime")
        code = 1
    _manifest(out, "verify", problem, result.report.regime, started,
              ["verdict.json"], {"exit_code": code})
    return code


def cmd_fixtures(args) -> int:
    out = _out_dir(args)
    if args.emit is None:
        for name in fixture_names():
            print(f"{name}: {fixture_description(name)}")
        return 0
    payload = fixture_config(args.emit)
    path = out / f"{args.emit}.json"
    _write_json(path, payload)
    print(str(path))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachwarp",
        description="Directional reachable-set growth analysis for linear systems")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_b=False):
        p.add_argument("--config", help="problem configuration JSON file")
        p.add_argument("--steps", type=int, help="override the integration step count")
        p.add_argument("--out", help="output directory (default: current directory)")
        if with_b:
            p.add_argument("--B", default="nominal",
                           help="input matrix: 'nominal', 'optimized', or a JSON "
                                "matrix file")

    p_opt = sub.add_parser("optimize", help="select the input matrix from the ball")
    add_common(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_bnd = sub.add_parser("boundary", help="sweep boundary points to CSV")
    add_common(p_bnd, with_b=True)
    p_bnd.add_argument("--directions", type=int, help="number of sweep directions")
    p_bnd.add_argument("--seed", type=int, help="seed for direction generation")
    p_bnd.set_defaults(func=cmd_boundary)

    p_met = sub.add_parser("metric", help="print the growth metric for one direction")
    add_common(p_met, with_b=True)
    p_met.set_defaults(func=cmd_metric)

    p_ver = sub.add_parser("verify", help="sampled optimality check")
    add_common(p_ver)
    p_ver.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help=f"number of sampled matrices (default {DEFAULT_SAMPLES})")
    p_ver.add_argument("--seed", type=int, help="seed for ball sampling")
    p_ver.set_defaults(func=cmd_verify)

    p_fix = sub.add_parser("fixtures", help="list or emit built-in problems")
    p_fix.add_argument("--emit", help="fixture name to write as <name>.json")
    p_fix.add_argument("--out", help="output directory (default: current directory)")
    p_fix.set_defaults(func=cmd_fixtures)

    return parser


# one parser per process: parse_args leaves it unchanged
_parser = lru_cache(maxsize=1)(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ReachwarpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
