"""JSON configuration parsing and the built-in fixtures."""

import json

import numpy as np
import pytest

from reachwarp import (ConfigError, ProblemConfig, Tolerances, fixture_config,
                       fixture_description, fixture_names, load_config,
                       parse_config)

ALL_FIXTURES = ("admire_grow_p", "admire_shrink_p", "admire_mixed_d",
                "oscillator", "scalar_analytic", "diag3_theorem")


def minimal_config(**overrides) -> dict:
    cfg = {
        "A": [[-1.0, 0.0], [0.0, -2.0]],
        "X0": [0.0, 0.0],
        "T": 1.0,
        "control": {"type": "box", "lo": [-1.0], "hi": [1.0]},
        "admissible": {"type": "frobenius_ball", "center": [[1.0], [0.0]],
                       "radius": 0.5},
        "direction": [1.0, 0.0],
    }
    cfg.update(overrides)
    return cfg


def test_fixture_catalog():
    assert tuple(fixture_names()) == ALL_FIXTURES
    for name in ALL_FIXTURES:
        assert fixture_description(name)
    with pytest.raises(ConfigError):
        fixture_config("missing")


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_all_fixtures_parse(name):
    cfg = parse_config(fixture_config(name))
    assert isinstance(cfg, ProblemConfig)
    assert cfg.system.n == len(cfg.direction)
    assert cfg.ball.center.shape == (cfg.system.n, cfg.control.m)
    assert abs(float(np.linalg.norm(cfg.direction)) - 1.0) <= 1e-12
    assert cfg.steps == 2000
    assert cfg.seed == 42
    assert cfg.tolerances == Tolerances()


def test_fixture_config_returns_a_new_dict_every_call():
    before = {name: json.dumps(fixture_config(name)) for name in ALL_FIXTURES}
    for name in ALL_FIXTURES:
        doc = fixture_config(name)
        doc["A"][0][0] = doc["X0"][0] = doc["direction"][0] = 123.0
        doc["control"]["lo"][0] = doc["admissible"]["center"][0][0] = 123.0
        doc["tolerances"]["tol_ev"] = 123.0
    assert {name: json.dumps(fixture_config(name)) for name in ALL_FIXTURES} == before


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_run_parameters_are_the_package_defaults(name):
    bare = fixture_config(name)
    for key in ("steps", "seed", "tolerances", "directions"):
        del bare[key]
    cfg, default = parse_config(fixture_config(name)), parse_config(bare)
    assert ((cfg.steps, cfg.seed, cfg.tolerances, cfg.directions)
            == (default.steps, default.seed, default.tolerances, default.directions))


def test_defaults_applied():
    cfg = parse_config(minimal_config())
    assert cfg.sense == "grow"
    assert cfg.steps == 2000
    assert cfg.directions == 64
    assert cfg.seed == 42
    assert cfg.tolerances.tol_verify == 1e-6
    three = minimal_config(A=[[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]],
                           X0=[0.0, 0.0, 0.0], direction=[1.0, 0.0, 0.0],
                           admissible={"type": "frobenius_ball",
                                       "center": [[1.0], [0.0], [0.0]],
                                       "radius": 0.5})
    assert parse_config(three).directions == 400


def test_one_dimensional_default_directions_is_two():
    # a 1-D fan holds only the unit directions +1 and -1
    doc = fixture_config("scalar_analytic")
    del doc["directions"]
    assert parse_config(doc).directions == 2


def test_direction_renormalized_within_tolerance():
    slightly_off = [1.0 + 5e-7, 0.0]
    cfg = parse_config(minimal_config(direction=slightly_off))
    assert abs(float(np.linalg.norm(cfg.direction)) - 1.0) <= 1e-15


def test_direction_rejected_when_far_from_unit():
    with pytest.raises(ConfigError, match="direction"):
        parse_config(minimal_config(direction=[2.0, 0.0]))


def test_unknown_keys_are_named():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(minimal_config(mystery=1))
    with pytest.raises(ConfigError, match="tolerances"):
        parse_config(minimal_config(tolerances={"tol_bogus": 1.0}))
    with pytest.raises(ConfigError, match="control"):
        parse_config(minimal_config(control={"type": "box", "lo": [-1.0],
                                             "hi": [1.0], "mid": [0.0]}))
    with pytest.raises(ConfigError, match="admissible"):
        parse_config(minimal_config(admissible={"type": "frobenius_ball",
                                                "center": [[1.0], [0.0]],
                                                "radius": 0.5, "shape": "round"}))


def test_structural_errors():
    with pytest.raises(ConfigError, match="'A'"):
        parse_config(minimal_config(A=[[-1.0, 0.0]]))
    with pytest.raises(ConfigError, match="'X0'"):
        parse_config(minimal_config(X0=[0.0]))
    with pytest.raises(ConfigError, match="'T'"):
        parse_config(minimal_config(T=-1.0))
    with pytest.raises(ConfigError, match="radius"):
        parse_config(minimal_config(admissible={"type": "frobenius_ball",
                                                "center": [[1.0], [0.0]],
                                                "radius": -0.5}))
    with pytest.raises(ConfigError, match="center"):
        parse_config(minimal_config(admissible={"type": "frobenius_ball",
                                                "center": [[1.0]],
                                                "radius": 0.5}))
    with pytest.raises(ConfigError, match="sense"):
        parse_config(minimal_config(sense="both"))
    with pytest.raises(ConfigError, match="steps"):
        parse_config(minimal_config(steps=0))
    with pytest.raises(ConfigError, match="steps"):
        parse_config(minimal_config(steps=2.5))
    with pytest.raises(ConfigError):
        parse_config([1, 2, 3])


def test_control_variants():
    cfg = parse_config(minimal_config(control={"type": "vertices",
                                               "list": [[1.0], [-1.0], [0.0]]}))
    assert cfg.control.num_vertices == 3
    assert cfg.control.contains_zero
    with pytest.raises(ConfigError, match="control.type"):
        parse_config(minimal_config(control={"type": "sphere"}))
    with pytest.raises(ConfigError, match="control"):
        parse_config(minimal_config(control={"type": "box", "lo": [1.0],
                                             "hi": [-1.0]}))


def test_echo_preserves_document():
    doc = minimal_config()
    cfg = parse_config(doc)
    assert cfg.echo == doc


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"A": [[1.0]],\n  "X0": oops}', encoding="utf-8")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "missing.json")


def test_load_config_round_trips_fixture(tmp_path):
    doc = fixture_config("oscillator")
    path = tmp_path / "oscillator.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.sense == "grow"
    assert cfg.directions == 64
    assert np.array_equal(cfg.system.A, np.array(doc["A"]))


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


def _with_number(key: str, value) -> dict:
    cfg = minimal_config(tolerances={})
    if key == "radius":
        cfg["admissible"]["radius"] = value
    elif key.startswith("tol_"):
        cfg["tolerances"][key] = value
    else:
        cfg[key] = value
    return cfg


@pytest.mark.parametrize("value", NON_FINITE, ids=("nan", "inf", "-inf"))
@pytest.mark.parametrize("key", ("steps", "directions", "seed", "T", "radius",
                                 "tol_spec", "tol_ev", "tol_verify"))
def test_non_finite_numbers_are_named(key, value):
    with pytest.raises(ConfigError, match=f"'{key}'"):
        parse_config(_with_number(key, value))


def test_load_config_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"A": [[1.0]], "note": "\xff"}')
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(path)
