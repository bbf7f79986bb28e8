"""Tests of the benchmark itself: input generation, output checks, tracing.

Run with `python3 -m pytest bench`.
"""

import json

import numpy as np
import pytest

import run
from problems import SHAPES, VERTEX_COUNTS, generate_problem, problem_shape
from reachwarp import NumericError, parse_config
from tracing import Tracer
from workloads import WORKLOADS, CheckFailed


def test_generator_is_deterministic_per_seed():
    for i in (0, 7, 47, 1000):
        assert json.dumps(generate_problem(3, i)) == json.dumps(generate_problem(3, i))
        assert generate_problem(3, i) != generate_problem(4, i)
    assert problem_shape(5) == problem_shape(5 + len(SHAPES) * len(VERTEX_COUNTS))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_generated_config_parses(seed):
    for i in range(len(SHAPES) * 2):
        config = generate_problem(seed, i)
        try:
            problem = parse_config(config)
        except NumericError as exc:
            pytest.fail(f"seed {seed} problem {i}: {exc}")
        shape = problem_shape(i)
        assert problem.system.n == shape["n"]
        assert problem.steps == shape["steps"]
        assert problem.control.num_vertices == shape["vertices"]
        assert problem.control.contains_zero
        spectrum = np.linalg.eigvals(problem.system.A)
        assert (np.max(np.abs(spectrum.imag)) <= 1e-9) == (shape["spectrum"] == "real")
        assert np.linalg.norm(problem.system.A, 2) * problem.system.T <= 4.0 + 1e-9


def _workload(name, tmp_path, seed=5):
    workload = WORKLOADS[name](seed, tmp_path / name)
    workload.prepare()
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_pass_on_real_outputs(name, tmp_path):
    workload = _workload(name, tmp_path)
    op = workload.operation(0)
    code, stdout = run.invoke(op.argv)
    assert 0.0 <= workload.check(op, code, stdout) <= 1e-5


CORRUPTIONS = {
    "verify": ("verdict.json", lambda d: {**d, "G_star": d["G_star"] + 1e-6}),
    "boundary": ("boundary_optimized.csv", None),
    "cold_problems": ("warp_result.json",
                      lambda d: {**d, "G_optimized": d["G_optimized"] + 1e-3}),
}


def _corrupt(out_dir, name):
    filename, edit = CORRUPTIONS[name]
    path = out_dir / filename
    if edit is None:
        # raise one support value above d . x
        lines = path.read_text().splitlines()
        cells = lines[5].split(",")
        cells[-1] = repr(float(cells[-1]) + 1e-3)
        lines[5] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    else:
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failed(name, tmp_path, monkeypatch):
    workload = _workload(name, tmp_path)
    real_invoke = run.invoke

    def corrupting_invoke(argv):
        code, stdout = real_invoke(argv)
        _corrupt(workload.out_dir, name)
        return code, stdout

    monkeypatch.setattr(run, "invoke", corrupting_invoke)
    result = run.run_operations(workload, seconds=1e-9)
    assert result["attempted"] == 1
    assert len(result["failures"]) == 1
    assert result["defects"] == []


def test_output_missing_a_field_counts_as_failed(tmp_path, monkeypatch):
    workload = _workload("verify", tmp_path)
    real_invoke = run.invoke

    def field_dropping_invoke(argv):
        code, stdout = real_invoke(argv)
        path = workload.out_dir / "verdict.json"
        verdict = json.loads(path.read_text())
        del verdict["regime"]
        path.write_text(json.dumps(verdict))
        return code, stdout

    monkeypatch.setattr(run, "invoke", field_dropping_invoke)
    result = run.run_operations(workload, seconds=1e-9)
    assert result["passed"] == [False]
    assert "KeyError" in result["failures"][0]


def test_corrupted_boundary_direction_is_caught(tmp_path):
    workload = _workload("boundary", tmp_path)
    op = workload.operation(0)
    code, stdout = run.invoke(op.argv)
    path = workload.out_dir / "boundary_optimized.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(float(cells[1]) + 1e-12)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailed):
        workload.check(op, code, stdout)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    workload = _workload(name, tmp_path)
    op = workload.operation(0)
    plain = run.snapshot(op.argv, *run.invoke(op.argv), workload.out_dir)
    tracer = Tracer()
    tracer.begin_operation()
    try:
        traced = run.snapshot(op.argv, *run.invoke(op.argv), workload.out_dir)
    finally:
        tracer.end_operation()
    assert traced == plain
    assert tracer.stats["cli.main"].calls == 1
    assert tracer.stats["reach.boundary_point"].calls >= 2


def test_tracer_restores_every_import_site():
    import reachwarp
    from reachwarp import cli, reach, verify, warp
    before = (cli.main, reach.boundary_point, warp.growth_metric,
              verify.growth_metric, reachwarp.growth_metric, warp.mat_exp)
    tracer = Tracer()
    tracer.install()
    try:
        assert warp.growth_metric is verify.growth_metric is reach.growth_metric
        assert warp.growth_metric is not before[2]
        assert reach.mat_exp is warp.mat_exp is not before[5]
    finally:
        tracer.uninstall()
    after = (cli.main, reach.boundary_point, warp.growth_metric,
             verify.growth_metric, reachwarp.growth_metric, warp.mat_exp)
    assert after == before


def test_missing_public_function_is_reported_absent(monkeypatch):
    import tracing
    monkeypatch.setitem(tracing.TRACED, "reach",
                        tracing.TRACED["reach"] + ("propagate_steps_removed",))
    tracer = Tracer()
    assert "reach.propagate_steps_removed" in tracer.missing


def test_nested_spans_split_self_time():
    from reachwarp import reach
    from reachwarp.fixtures import fixture_config
    problem = parse_config(fixture_config("oscillator"))
    tracer = Tracer()
    tracer.begin_operation()
    try:
        reach.growth_metric(problem.system, problem.ball.center, problem.control,
                            problem.direction, 200)
    finally:
        tracer.end_operation()
    outer = tracer.stats["reach.growth_metric"]
    inner = tracer.stats["reach.boundary_point"]
    assert outer.calls == inner.calls == 1
    assert outer.child_s >= inner.total_s
    assert 0.0 <= outer.self_s < outer.total_s
    spans = tracer.span_tree()
    names = [s["name"] for s in spans]
    assert names[0] == "reach.growth_metric" and spans[0]["parent"] == -1
    assert spans[names.index("reach.boundary_point")]["parent"] == 0
    assert spans[names.index("reach.zero_input_endpoint")]["parent"] == 0
    for k, span in enumerate(spans[1:], start=1):
        parent = spans[span["parent"]]
        assert 0 <= span["parent"] < k
        assert parent["start_ms"] <= span["start_ms"] <= span["end_ms"] <= parent["end_ms"]
    assert tracer.points.steps == 200


def test_refuses_threads_env(monkeypatch, capsys):
    monkeypatch.setenv("REACHWARP_THREADS", "2")
    assert run.main(["--workload", "verify", "--seed", "1"]) == 2
    assert "REACHWARP_THREADS" in capsys.readouterr().err


def test_result_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    fake = {"scaled": [0.2, 0.1, 0.3, 0.1], "traced": [True, True, False, False],
            "passed": [True] * 4, "defects": [1e-9]}
    end_to_end = run.end_to_end_metrics(fake["scaled"], fake["passed"], 2, [1.0, 1.2])
    layers = run.layer_metrics(Tracer(), fake, 2)
    for names, metrics in ((spec["end_to_end"], end_to_end), (spec["per_layer"], layers)):
        assert {m["name"]: m["unit"] for m in names} == \
            {k: v["unit"] for k, v in metrics.items()}
    assert end_to_end["ops_per_s"]["value"] == pytest.approx((2 / 0.3 + 2 / 0.4) / 2)
    assert layers["trace.overhead_frac"]["value"] == pytest.approx(1 - 0.4 / 0.3)
