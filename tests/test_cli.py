"""Command-line interface: commands, outputs, warnings, exit codes."""

import json
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from reachwarp import (SampleVerdict, ball_argmax, cli, fixture_config, fixture_names,
                       load_config, optimize_B, parse_config)

E_INV = float(np.exp(-1.0))


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def stdout_value(out: str, key: str) -> float:
    for line in out.splitlines():
        if line.startswith(f"{key} = "):
            return float(line.split("=", 1)[1])
    raise AssertionError(f"no '{key}' line in output: {out!r}")


def test_fixtures_listing(run_cli):
    code, out, _ = run_cli("fixtures")
    assert code == 0
    for name in ("admire_grow_p", "admire_shrink_p", "admire_mixed_d",
                 "oscillator", "scalar_analytic", "diag3_theorem"):
        assert name in out


def test_fixtures_emit_round_trip(run_cli, tmp_path):
    code, out, _ = run_cli("fixtures", "--emit", "scalar_analytic", "--out", tmp_path)
    assert code == 0
    path = tmp_path / "scalar_analytic.json"
    assert str(path) in out
    cfg = load_config(path)
    assert cfg.system.n == 1
    assert cfg.sense == "grow"


def test_fixtures_emit_unknown_name(run_cli, tmp_path):
    code, _, err = run_cli("fixtures", "--emit", "nope", "--out", tmp_path)
    assert code == 2
    assert "nope" in err


def test_optimize_scalar_outputs(run_cli, fixture_file, tmp_path):
    cfg = fixture_file("scalar_analytic")
    out_dir = tmp_path / "run"
    code, out, err = run_cli("optimize", "--config", cfg, "--out", out_dir)
    assert code == 0
    assert "THEOREM REGIME" not in err
    assert abs(stdout_value(out, "G_nominal") - (1.0 - E_INV)) <= 1e-9
    assert abs(stdout_value(out, "G_optimized") - 1.5 * (1.0 - E_INV)) <= 1e-9
    result = read_json(out_dir / "warp_result.json")
    assert result["sense"] == "grow"
    assert result["regime"] == "theorem"
    assert result["i_star"] == 1
    assert result["steps"] == 2000
    assert abs(result["B_star"][0][0] - 1.5) <= 1e-12
    assert len(result["candidates"]) == 2
    assert result["assumptions"]["all_real"] is True
    assert result["degenerate"] is False
    manifest = read_json(out_dir / "manifest.json")
    assert manifest["command"] == "optimize"
    assert manifest["outputs"] == ["warp_result.json"]
    assert manifest["regime"] == "theorem"
    assert manifest["config"] == read_json(cfg)
    assert manifest["wall_clock_s"] >= 0.0


def _zero_vertex_config() -> dict:
    doc = fixture_config("diag3_theorem")
    doc["control"] = {"type": "vertices", "list": [[1.0, 0.5], [0.0, 0.0], [-1.0, 1.0]]}
    return doc


@pytest.mark.parametrize("name", [*fixture_names(), "zero_vertex"])
def test_candidate_matrices_follow_from_P0_and_config(run_cli, tmp_path, name):
    doc = _zero_vertex_config() if name == "zero_vertex" else fixture_config(name)
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, _, _ = run_cli("optimize", "--config", cfg, "--out", tmp_path / "o")
    assert code == 0
    written = read_json(tmp_path / "o" / "warp_result.json")
    problem = parse_config(read_json(tmp_path / "o" / "manifest.json")["config"])
    result = optimize_B(problem.system, problem.control, problem.ball,
                        problem.direction, problem.sense, problem.steps)
    assert written["candidates"] == [{"index": c.index, "objective": c.objective}
                                     for c in result.candidates]
    P0 = np.array(written["P0"])
    for u, cand in zip(problem.control.vertices, result.candidates):
        B = ball_argmax(problem.ball, np.outer(P0, u))
        np.testing.assert_allclose(B, cand.B, rtol=1e-15, atol=0.0)
        if not u.any():
            assert np.array_equal(B, problem.ball.center)


def test_optimize_warns_outside_theorem_regime(run_cli, fixture_file, tmp_path):
    code, _, err = run_cli("optimize", "--config", fixture_file("admire_grow_p"),
                           "--out", tmp_path / "a")
    assert code == 0
    assert "THEOREM REGIME NOT SATISFIED" in err
    assert "not an eigenvector" in err
    code, _, err = run_cli("optimize", "--config", fixture_file("oscillator"),
                           "--out", tmp_path / "b")
    assert code == 0
    assert "complex eigenvalues" in err


def test_warns_when_zero_input_not_admissible(run_cli, tmp_path):
    doc = {
        "A": [[-1.0]], "X0": [0.0], "T": 1.0,
        "control": {"type": "box", "lo": [0.5], "hi": [1.0]},
        "admissible": {"type": "frobenius_ball", "center": [[1.0]], "radius": 0.1},
        "direction": [1.0],
    }
    cfg = tmp_path / "no_zero.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli("metric", "--config", cfg, "--out", tmp_path / "m")
    assert code == 0
    assert "does not contain the zero input" in err


def test_metric_nominal_and_optimized(run_cli, fixture_file, tmp_path):
    cfg = fixture_file("scalar_analytic")
    code, out, _ = run_cli("metric", "--config", cfg, "--out", tmp_path / "n")
    assert code == 0
    assert abs(stdout_value(out, "G_d") - (1.0 - E_INV)) <= 1e-6
    payload = read_json(tmp_path / "n" / "metric.json")
    assert payload["B_source"] == "nominal"
    assert payload["steps"] == 2000
    assert abs(payload["G_d"] - (1.0 - E_INV)) <= 1e-6
    code, out, _ = run_cli("metric", "--config", cfg, "--B", "optimized",
                           "--out", tmp_path / "o")
    assert code == 0
    assert abs(stdout_value(out, "G_d") - 1.5 * (1.0 - E_INV)) <= 1e-6
    assert read_json(tmp_path / "o" / "metric.json")["B_source"] == "optimized"


def test_metric_with_matrix_file(run_cli, fixture_file, tmp_path):
    cfg = fixture_file("scalar_analytic")
    bare = tmp_path / "zero.json"
    bare.write_text("[[0.0]]", encoding="utf-8")
    code, out, _ = run_cli("metric", "--config", cfg, "--B", bare,
                           "--out", tmp_path / "z")
    assert code == 0
    assert abs(stdout_value(out, "G_d")) <= 1e-12
    assert read_json(tmp_path / "z" / "metric.json")["B_source"] == "custom"
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"B": [[2.0]]}), encoding="utf-8")
    code, out, _ = run_cli("metric", "--config", cfg, "--B", wrapped,
                           "--out", tmp_path / "w")
    assert code == 0
    assert abs(stdout_value(out, "G_d") - 2.0 * (1.0 - E_INV)) <= 1e-6


def test_metric_rejects_bad_matrix_file(run_cli, fixture_file, tmp_path):
    cfg = fixture_file("scalar_analytic")
    bad_shape = tmp_path / "bad.json"
    bad_shape.write_text("[[1.0, 2.0]]", encoding="utf-8")
    code, _, err = run_cli("metric", "--config", cfg, "--B", bad_shape,
                           "--out", tmp_path / "x")
    assert code == 2
    assert "expected shape" in err
    code, _, err = run_cli("metric", "--config", cfg, "--B", tmp_path / "none.json",
                           "--out", tmp_path / "y")
    assert code == 2
    not_json = tmp_path / "text.json"
    not_json.write_text("hello", encoding="utf-8")
    code, _, err = run_cli("metric", "--config", cfg, "--B", not_json,
                           "--out", tmp_path / "v")
    assert code == 2


def test_boundary_nominal_csv(run_cli, fixture_file, tmp_path):
    out_dir = tmp_path / "sweep"
    code, _, _ = run_cli("boundary", "--config", fixture_file("oscillator"),
                         "--out", out_dir)
    assert code == 0
    lines = (out_dir / "boundary_nominal.csv").read_text().strip().splitlines()
    assert lines[0] == "dir_index,d_1,d_2,x_1,x_2,support_value"
    assert len(lines) == 65
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 6
        assert int(cells[0]) >= 0
        assert all(np.isfinite(float(c)) for c in cells[1:])
    manifest = read_json(out_dir / "manifest.json")
    assert manifest["extras"]["directions_total"] == 64
    assert manifest["extras"]["steps"] == 2000
    assert "directions_grown" not in manifest["extras"]


def test_boundary_optimized_counts_grown_directions(run_cli, fixture_file, tmp_path):
    out_dir = tmp_path / "opt"
    code, _, _ = run_cli("boundary", "--config", fixture_file("oscillator"),
                         "--B", "optimized", "--directions", "16", "--out", out_dir)
    assert code == 0
    lines = (out_dir / "boundary_optimized.csv").read_text().strip().splitlines()
    assert len(lines) == 17
    manifest = read_json(out_dir / "manifest.json")
    assert manifest["extras"]["directions_total"] == 16
    assert 0 <= manifest["extras"]["directions_grown"] <= 16


def test_boundary_one_dimensional_default_fan(run_cli, tmp_path):
    doc = cli.fixture_config("scalar_analytic")
    del doc["directions"]
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, _, err = run_cli("boundary", "--config", path, "--B", "optimized",
                           "--out", out_dir)
    assert code == 0, err
    lines = (out_dir / "boundary_optimized.csv").read_text().strip().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "-1"]
    extras = read_json(out_dir / "manifest.json")["extras"]
    assert extras["directions_total"] == 2
    assert 0 <= extras["directions_grown"] <= 2


def test_boundary_direction_and_seed_overrides(run_cli, fixture_file, tmp_path):
    out_dir = tmp_path / "few"
    code, _, _ = run_cli("boundary", "--config", fixture_file("admire_grow_p"),
                         "--directions", "10", "--seed", "7", "--out", out_dir)
    assert code == 0
    lines = (out_dir / "boundary_nominal.csv").read_text().strip().splitlines()
    assert len(lines) == 11
    manifest = read_json(out_dir / "manifest.json")
    assert manifest["extras"]["directions_total"] == 10
    assert manifest["extras"]["seed"] == 7


def test_verify_scalar_passes(run_cli, fixture_file, tmp_path):
    out_dir = tmp_path / "v"
    code, out, _ = run_cli("verify", "--config", fixture_file("scalar_analytic"),
                           "--samples", "60", "--out", out_dir)
    assert code == 0
    assert "pass" in out
    verdict = read_json(out_dir / "verdict.json")
    assert verdict["pass"] is True
    assert verdict["pass_required"] is True
    assert verdict["samples"] == 60
    assert verdict["margin"] >= -1e-9


def test_verify_heuristic_regime_not_required(run_cli, fixture_file, tmp_path):
    out_dir = tmp_path / "vh"
    code, out, _ = run_cli("verify", "--config", fixture_file("oscillator"),
                           "--samples", "40", "--out", out_dir)
    assert code == 0
    assert "not-required" in out
    verdict = read_json(out_dir / "verdict.json")
    assert verdict["pass_required"] is False
    assert verdict["regime"] == "heuristic-complex"


def test_verify_failure_in_theorem_regime_exits_one(run_cli, fixture_file,
                                                    tmp_path, monkeypatch):
    def fake_verify(*args, **kwargs):
        return SampleVerdict(samples=5, best_sampled_G=1.0,
                             best_sampled_B=np.zeros((3, 2)), G_star=0.5,
                             margin=-0.5, passed=False, tol_verify=1e-6)

    monkeypatch.setattr("reachwarp.cli.verify_optimality", fake_verify)
    out_dir = tmp_path / "vf"
    code, out, _ = run_cli("verify", "--config", fixture_file("diag3_theorem"),
                           "--samples", "5", "--out", out_dir)
    assert code == 1
    assert "FAIL" in out
    verdict = read_json(out_dir / "verdict.json")
    assert verdict["pass"] is False
    assert verdict["pass_required"] is True


def test_missing_or_broken_config_exits_two(run_cli, tmp_path):
    code, _, err = run_cli("optimize", "--out", tmp_path)
    assert code == 2
    assert "--config is required" in err
    code, _, err = run_cli("optimize", "--config", tmp_path / "absent.json",
                           "--out", tmp_path)
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A": [[-1.0]], "X0": [0.0], "T": 1.0,
                               "mystery": True}), encoding="utf-8")
    code, _, err = run_cli("optimize", "--config", bad, "--out", tmp_path)
    assert code == 2
    assert "mystery" in err


def test_numeric_overflow_exits_three(run_cli, tmp_path):
    doc = {
        "A": [[50.0]], "X0": [0.0], "T": 20.0,
        "control": {"type": "box", "lo": [-1.0], "hi": [1.0]},
        "admissible": {"type": "frobenius_ball", "center": [[1.0]], "radius": 0.1},
        "direction": [1.0], "steps": 200,
    }
    cfg = tmp_path / "explosive.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run_cli("metric", "--config", cfg, "--out", tmp_path / "e")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("argv", [("optimize",), ("verify", "--samples", "20"),
                                  ("metric", "--B", "optimized")])
def test_overflowing_exponential_exits_three(run_cli, tmp_path, argv):
    # e^{AT} = e^1000 overflows before any gradient or sample is formed
    doc = {
        "A": [[50.0]], "X0": [0.0], "T": 20.0,
        "control": {"type": "box", "lo": [-1.0], "hi": [1.0]},
        "admissible": {"type": "frobenius_ball", "center": [[1.0]], "radius": 0.1},
        "direction": [1.0], "steps": 200,
    }
    cfg = tmp_path / "explosive.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run_cli(*argv, "--config", cfg, "--out", tmp_path / "e")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("command", ["metric", "boundary"])
def test_overflowing_power_tables_exit_three_without_warnings(run_cli, tmp_path,
                                                              command):
    # E = e^{Ah} = e^5 is finite, but its powers up to e^1000 overflow the tables
    doc = {
        "A": [[50.0]], "X0": [0.0], "T": 20.0,
        "control": {"type": "box", "lo": [-1.0], "hi": [1.0]},
        "admissible": {"type": "frobenius_ball", "center": [[1.0]], "radius": 0.1},
        "direction": [1.0], "steps": 200,
    }
    cfg = tmp_path / "explosive.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    for action in ("error", "always"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code, _, err = run_cli(command, "--config", cfg, "--out", tmp_path / "e")
        assert code == 3
        assert "numerical failure" in err
        assert caught == []


def test_steps_override_recorded(run_cli, fixture_file, tmp_path):
    out_dir = tmp_path / "s"
    code, _, _ = run_cli("metric", "--config", fixture_file("scalar_analytic"),
                         "--steps", "500", "--out", out_dir)
    assert code == 0
    assert read_json(out_dir / "metric.json")["steps"] == 500


def test_repeat_runs_byte_identical(run_cli, fixture_file, tmp_path):
    cfg = fixture_file("oscillator")
    for d in ("r1", "r2"):
        code, _, _ = run_cli("metric", "--config", cfg, "--out", tmp_path / d)
        assert code == 0
    first = (tmp_path / "r1" / "metric.json").read_bytes()
    second = (tmp_path / "r2" / "metric.json").read_bytes()
    assert first == second


def test_module_entry_point_exit_codes():
    done = subprocess.run([sys.executable, "-m", "reachwarp", "fixtures"],
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert "scalar_analytic" in done.stdout
    failed = subprocess.run([sys.executable, "-m", "reachwarp", "optimize",
                             "--config", "does_not_exist.json"],
                            capture_output=True, text=True)
    assert failed.returncode == 2


@pytest.mark.parametrize("field, override", [
    ("steps", {"steps": float("nan")}),
    ("steps", {"steps": float("inf")}),
    ("seed", {"seed": float("-inf")}),
    ("tol_spec", {"tolerances": {"tol_spec": float("nan")}}),
    ("tol_verify", {"tolerances": {"tol_verify": float("nan")}}),
], ids=("steps-nan", "steps-inf", "seed--inf", "tol_spec-nan", "tol_verify-nan"))
def test_non_finite_config_numbers_exit_two(run_cli, fixture_file, tmp_path,
                                            field, override):
    cfg = fixture_file("diag3_theorem", **override)
    code, out, err = run_cli("verify", "--config", cfg, "--samples", "20",
                             "--out", tmp_path / "v")
    assert code == 2
    assert f"'{field}'" in err
    assert out == ""


def _outputs(out_dir):
    """Every output file's bytes, with the manifest's wall-clock time removed."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":
            manifest = read_json(path)
            manifest.pop("wall_clock_s")
            files[path.name] = json.dumps(manifest, sort_keys=True)
        else:
            files[path.name] = path.read_bytes()
    return files


def test_one_process_runs_commands_like_separate_processes(run_cli, fixture_file,
                                                           tmp_path):
    # main reuses one parser; a --seed given to one command must not reach the next
    commands = [
        ("boundary", "--config", fixture_file("admire_grow_p"), "--B", "optimized",
         "--directions", "8", "--seed", "7", "--steps", "300"),
        ("verify", "--config", fixture_file("diag3_theorem"), "--samples", "20",
         "--steps", "300"),
    ]
    for i, argv in enumerate(commands):
        code, out, err = run_cli(*argv, "--out", tmp_path / f"same{i}")
        done = subprocess.run([sys.executable, "-m", "reachwarp", *map(str, argv),
                               "--out", str(tmp_path / f"own{i}")],
                              capture_output=True, text=True)
        assert (code, out, err) == (done.returncode, done.stdout, done.stderr)
        assert _outputs(tmp_path / f"same{i}") == _outputs(tmp_path / f"own{i}")
    assert read_json(tmp_path / "same1" / "verdict.json")["seed"] == 42


def _stdlib_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=cli._json_default)


def test_large_optimize_writes_stdlib_json(run_cli, tmp_path, monkeypatch):
    # n = 32 with a 6-input box: 64 vertices, so 64 candidate matrices
    rng = np.random.default_rng(32)
    n, m = 32, 6
    d = rng.standard_normal(n)
    doc = {
        "A": (-np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)).tolist(),
        "X0": [0.0] * n, "T": 1.0,
        "control": {"type": "box", "lo": [-1.0] * m, "hi": [1.0] * m},
        "admissible": {"type": "frobenius_ball",
                       "center": rng.standard_normal((n, m)).tolist(), "radius": 0.5},
        "direction": (d / np.linalg.norm(d)).tolist(),
        "steps": 300,
    }
    cfg = tmp_path / "large.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    payloads = []
    warp_payload = cli._warp_payload

    def recorded(*args):
        payloads.append(warp_payload(*args))
        return payloads[-1]

    monkeypatch.setattr(cli, "_warp_payload", recorded)
    code, _, _ = run_cli("optimize", "--config", cfg, "--out", tmp_path / "o")
    assert code == 0
    (payload,) = payloads
    assert len(payload["candidates"]) == 64
    text = (tmp_path / "o" / "warp_result.json").read_text(encoding="utf-8")
    assert text == _stdlib_json(payload) + "\n"


@pytest.mark.parametrize("argv, option", [
    (("verify", "--samples", "0"), "--samples"),
    (("boundary", "--B", "optimized", "--seed", "-1"), "--seed"),
    (("boundary", "--B", "optimized", "--directions", "0"), "--directions"),
    (("metric", "--B", "optimized", "--steps", "0"), "--steps"),
], ids=("samples", "seed", "directions", "steps"))
def test_bad_count_option_exits_two_before_any_work(run_cli, fixture_file, tmp_path,
                                                     argv, option):
    code, out, err = run_cli(*argv, "--config", fixture_file("oscillator"),
                             "--out", tmp_path / "o")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {option} ") and err.count("\n") == 1


def test_unwritable_output_path_exits_two(run_cli, fixture_file, tmp_path):
    blocker = tmp_path / "plain_file"
    blocker.write_text("", encoding="utf-8")
    cfg = fixture_file("diag3_theorem")
    taken = tmp_path / "taken"
    (taken / "warp_result.json").mkdir(parents=True)
    for argv in (("optimize", "--config", cfg, "--out", blocker / "sub"),
                 ("optimize", "--config", cfg, "--out", blocker),
                 ("fixtures", "--emit", "diag3_theorem", "--out", blocker / "sub"),
                 ("optimize", "--config", cfg, "--out", taken)):
        code, out, err = run_cli(*argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot write") and err.count("\n") == 1


def test_boundary_csv_rows_format_each_double_as_17_digits(tmp_path):
    # every bit pattern: subnormals, NaN payloads, infinities, both zeros
    rng = np.random.default_rng(17)
    values = rng.integers(0, 2 ** 64, size=(50, 7), dtype=np.uint64).view(np.float64)
    values[:4, :4] = [[0.0, -0.0, 5e-324, -5e-324], [np.inf, -np.inf, np.nan, 1e16],
                      [1.0, -1.5, 0.1, 1e-300], [2.0 ** 53, 1e308, -1e-5, 123.0]]
    points = [SimpleNamespace(d=row[:3], X_dB=row[3:6], support_value=row[6])
              for row in values]
    path = tmp_path / "sweep.csv"
    cli._write_boundary_csv(path, points)
    expected = ["dir_index,d_1,d_2,d_3,x_1,x_2,x_3,support_value"]
    for idx, p in enumerate(points):
        cells = [*p.d, *p.X_dB, p.support_value]
        expected.append(",".join([str(idx)] + [format(float(v), ".17g") for v in cells]))
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"
