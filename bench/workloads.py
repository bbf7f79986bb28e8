"""The benchmark's workloads: inputs, operations and output checks.

One operation is one CLI command run in-process through ``reachwarp.cli.main``.
Each workload repeats the boundary-point evaluation along a different axis:

- ``verify``: 1000 ball samples per command over four built-in problems, so
  every boundary point reuses one (A, d) and warm caches.
- ``boundary``: a 400-direction fan swept twice per command (B* and the
  nominal matrix), so the co-state scan runs for a new direction each call.
- ``cold_problems``: ``optimize`` on a problem never seen before in the
  process, so every per-(A, h) table is built from scratch.

Inputs depend only on the workload seed and the operation index.  Checks run
outside the timed region and raise CheckFailed on a wrong output; each returns
the worst normalized oracle defect among the support values it checked.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from problems import SHAPES, generate_problem, problem_shape
from reachwarp import (ball_contains, direction_fan, growth_metric, optimize_B,
                       parse_config, support_oracle, zero_input_endpoint)
from reachwarp.fixtures import fixture_config
from reachwarp.warp import REGIME_THEOREM

ORACLE_NODES = 4000
ORACLE_TOL = 1e-5
DOMINANCE_TOL = 1e-7
# G recomputed by a fresh growth_metric may differ by summation order only
REPRO_TOL = 1e-12
BALL_TOL = 1e-9

VERIFY_SAMPLES = 1000
SWEEP_DIRECTIONS = 400
ORACLE_EVERY = 20

# operation index of the warm-up input, beyond any index a run reaches
WARMUP_INDEX = 2 ** 31


class CheckFailed(Exception):
    """An operation's output is wrong."""


@dataclass(frozen=True)
class Operation:
    argv: list
    problem: object
    label: str
    seed: int | None = None


def op_seed(seed: int, i: int) -> int:
    """Per-operation CLI seed drawn from the workload seed."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _require_close(value: float, expected: float, what: str) -> None:
    _require(abs(value - expected) <= REPRO_TOL * (1.0 + abs(expected)),
             f"{what} = {value!r}, a fresh evaluation gives {expected!r}")


def _oracle_defect(problem, B, d, support: float) -> float:
    oracle = support_oracle(problem.system, B, problem.control, d, ORACLE_NODES)
    defect = abs(support - oracle) / (1.0 + abs(support))
    _require(defect <= ORACLE_TOL,
             f"support {support!r} is off the quadrature oracle {oracle!r} by "
             f"{defect:.3e} > {ORACLE_TOL}")
    return defect


def _fresh_metric(problem, B):
    return growth_metric(problem.system, B, problem.control, problem.direction,
                         problem.steps)


def _optimize(problem):
    return optimize_B(problem.system, problem.control, problem.ball,
                      problem.direction, problem.sense, problem.steps,
                      problem.tolerances.tol_spec, problem.tolerances.tol_ev)


def _stdout_value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split(" = ", 1)[1])
    raise CheckFailed(f"no '{key} = ' line on standard output")


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from exc


class Workload:
    """Base class: a seeded input stream in a work directory."""

    name = ""
    # inputs repeat with this period; the traced run alternates whole periods
    period = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = Path(workdir)
        self.config_dir = self.workdir / "configs"
        self.out_dir = self.workdir / "out"

    def prepare(self) -> None:
        self.config_dir.mkdir(parents=True, exist_ok=True)
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def _write_config(self, name: str, config: dict):
        path = self.config_dir / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path, parse_config(config)

    def operation(self, i: int) -> Operation:
        raise NotImplementedError

    def check(self, op: Operation, code, stdout: str) -> float:
        raise NotImplementedError


class FixtureWorkload(Workload):
    """Built-in problems taken in rotation, written once during set-up."""

    fixtures: tuple = ()

    def prepare(self) -> None:
        super().prepare()
        self.problems = {name: self._write_config(name, fixture_config(name))
                         for name in self.fixtures}

    @property
    def period(self) -> int:
        return len(self.fixtures)

    def _fixture(self, i: int):
        name = self.fixtures[i % len(self.fixtures)]
        path, problem = self.problems[name]
        return name, str(path), problem


class VerifyWorkload(FixtureWorkload):
    name = "verify"
    fixtures = ("admire_grow_p", "admire_shrink_p", "oscillator", "diag3_theorem")

    def operation(self, i: int) -> Operation:
        name, path, problem = self._fixture(i)
        seed = op_seed(self.seed, i)
        argv = ["verify", "--config", path, "--samples", str(VERIFY_SAMPLES),
                "--seed", str(seed), "--out", str(self.out_dir)]
        return Operation(argv, problem, name, seed)

    def check(self, op: Operation, code, stdout: str) -> float:
        problem = op.problem
        v = _read_json(self.out_dir / "verdict.json")
        _require(v.get("samples") == VERIFY_SAMPLES and v.get("seed") == op.seed
                 and v.get("steps") == problem.steps
                 and v.get("sense") == problem.sense,
                 "verdict.json does not echo the run's samples, seed, steps, sense")
        result = _optimize(problem)
        regime = result.report.regime
        _require(v["regime"] == regime, f"regime {v['regime']!r}, expected {regime!r}")
        _require(v["pass_required"] == (regime == REGIME_THEOREM),
                 "pass_required does not match the regime")
        fresh = _fresh_metric(problem, result.B_star)
        _require_close(v["G_star"], fresh.G_d, "G_star")
        best_B = np.array(v["best_sampled_B"], dtype=float)
        _require(best_B.shape == problem.ball.center.shape
                 and ball_contains(problem.ball, best_B, BALL_TOL),
                 "best_sampled_B lies outside the admissible ball")
        _require_close(v["best_sampled_G"], _fresh_metric(problem, best_B).G_d,
                       "best_sampled_G")
        gap = v["G_star"] - v["best_sampled_G"]
        _require_close(v["margin"], gap if problem.sense == "grow" else -gap, "margin")
        _require(v["pass"] == (v["margin"] >= -v["tol_verify"]),
                 "pass does not follow from the margin")
        if op.label == "diag3_theorem":
            _require(v["pass"] is True, "the theorem-regime check did not pass")
        _require(code == (0 if v["pass"] or not v["pass_required"] else 1),
                 f"exit code {code}")
        _require(_stdout_value(stdout, "margin") == v["margin"],
                 "printed margin differs from verdict.json")
        support = v["G_star"] + float(problem.direction @ fresh.c0)
        return _oracle_defect(problem, result.B_star, problem.direction, support)


class BoundaryWorkload(FixtureWorkload):
    name = "boundary"
    fixtures = ("admire_grow_p", "admire_mixed_d", "oscillator")

    def operation(self, i: int) -> Operation:
        name, path, problem = self._fixture(i)
        seed = op_seed(self.seed, i)
        argv = ["boundary", "--config", path, "--B", "optimized",
                "--directions", str(SWEEP_DIRECTIONS), "--seed", str(seed),
                "--out", str(self.out_dir)]
        return Operation(argv, problem, name, seed)

    def check(self, op: Operation, code, stdout: str) -> float:
        problem = op.problem
        n = problem.system.n
        _require(code == 0, f"exit code {code}")
        try:
            with open(self.out_dir / "boundary_optimized.csv", newline="",
                      encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            table = np.array(rows[1:], dtype=float)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"cannot read boundary_optimized.csv: {exc}") from exc
        _require(len(rows[0]) == 2 * n + 2 and table.shape == (SWEEP_DIRECTIONS, 2 * n + 2),
                 f"boundary table has shape {table.shape}")
        _require(np.array_equal(table[:, 0], np.arange(SWEEP_DIRECTIONS)),
                 "dir_index is not 0..M-1")
        D = table[:, 1:n + 1]
        X = table[:, n + 1:2 * n + 1]
        S = table[:, -1]
        _require(np.array_equal(D, np.array(direction_fan(n, SWEEP_DIRECTIONS, op.seed))),
                 "directions differ from the fan")
        own = np.einsum("ij,ij->i", D, X)
        _require(np.all(np.abs(S - own) <= REPRO_TOL * (1.0 + np.abs(own))),
                 "support_value is not d . x")
        cross = D @ X.T
        _require(np.all(own >= cross.max(axis=1) - DOMINANCE_TOL),
                 "a boundary point projects beyond its own direction's support")
        manifest = _read_json(self.out_dir / "manifest.json")
        extras = manifest.get("extras", {})
        _require(extras.get("directions_total") == SWEEP_DIRECTIONS
                 and 0 <= extras.get("directions_grown", -1) <= SWEEP_DIRECTIONS,
                 "manifest extras are inconsistent")
        B_star = _optimize(problem).B_star
        return max(_oracle_defect(problem, B_star, D[k], S[k])
                   for k in range(0, SWEEP_DIRECTIONS, ORACLE_EVERY))


class ColdProblemsWorkload(Workload):
    """A new generated problem per operation, written just before it runs."""

    name = "cold_problems"
    period = len(SHAPES)

    def operation(self, i: int) -> Operation:
        config = generate_problem(self.seed, i)
        path, problem = self._write_config("problem", config)
        argv = ["optimize", "--config", str(path), "--out", str(self.out_dir)]
        shape = problem_shape(i)
        label = "n{n}-s{steps}-{spectrum}-{sense}-v{vertices}".format(**shape)
        return Operation(argv, problem, label)

    def check(self, op: Operation, code, stdout: str) -> float:
        problem = op.problem
        _require(code == 0, f"exit code {code}")
        w = _read_json(self.out_dir / "warp_result.json")
        B_star = np.array(w["B_star"], dtype=float)
        _require(B_star.shape == problem.ball.center.shape
                 and ball_contains(problem.ball, B_star, BALL_TOL),
                 "B_star lies outside the admissible ball")
        objectives = [c["objective"] for c in w["candidates"]]
        _require(len(objectives) == problem.control.num_vertices,
                 "one candidate per control vertex expected")
        if not w["degenerate"]:
            best = max(objectives) if problem.sense == "grow" else min(objectives)
            _require(objectives[w["i_star"]] == best,
                     "i_star does not extremize the candidate objectives")
        _require(_stdout_value(stdout, "G_optimized") == w["G_optimized"],
                 "printed G_optimized differs from warp_result.json")
        # no fresh growth_metric here: on n = 32 it would cost as much as the
        # command itself, and the oracle already checks G_optimized
        c0 = zero_input_endpoint(problem.system)
        support = w["G_optimized"] + float(problem.direction @ c0)
        return _oracle_defect(problem, B_star, problem.direction, support)


WORKLOADS = {w.name: w for w in (VerifyWorkload, BoundaryWorkload, ColdProblemsWorkload)}
