"""JSON problem configuration: schema validation and object construction.

The schema is flat and explicit; every validation error names the
offending field so CLI users get actionable diagnostics.  Shapes, ranges
and finiteness of arrays are checked by the linalg, model and reach
functions that build the problem, and their errors are re-raised here as
ConfigError naming the field.  Directions are renormalized silently when
within 1e-6 of unit norm and rejected otherwise.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, ReachwarpError
from .linalg import DEFAULT_IMAG_TOL, _direction_in, as_square, as_vector
from .model import (ControlPolytope, FrobeniusBall, LinearSystem, _check_sense,
                    box_polytope, vertex_polytope)
from .reach import DEFAULT_SEED, DEFAULT_STEPS, _check_reach_args
from .verify import DEFAULT_VERIFY_TOL
from .warp import DEFAULT_EIGVEC_TOL

DIRECTION_LOAD_TOL = 1e-6

_TOP_LEVEL_KEYS = {"A", "X0", "T", "control", "admissible", "direction", "sense",
                   "steps", "directions", "seed", "tolerances"}


@dataclass(frozen=True)
class Tolerances:
    tol_spec: float = DEFAULT_IMAG_TOL
    tol_ev: float = DEFAULT_EIGVEC_TOL
    tol_verify: float = DEFAULT_VERIFY_TOL


@dataclass(frozen=True)
class ProblemConfig:
    """A fully validated problem: dynamics, sets, direction, run parameters.

    echo preserves the JSON document the problem was parsed from, for
    reproducible run manifests.
    """

    system: LinearSystem
    control: ControlPolytope
    ball: FrobeniusBall
    direction: np.ndarray
    sense: str
    steps: int
    directions: int
    seed: int
    tolerances: Tolerances
    echo: dict


@contextmanager
def _field(key: str, errors=ReachwarpError):
    """Re-raise the given validation errors of the block as ConfigError naming key."""
    try:
        yield
    except ConfigError:
        raise
    except errors as exc:
        raise ConfigError(f"field '{key}': {exc}") from exc


def _value(data: dict, key: str, default=None):
    if key in data:
        return data[key]
    if default is None:
        raise ConfigError(f"missing field '{key}'")
    return default


def _object(value, where: str, allowed) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    extra = set(value) - set(allowed)
    if extra:
        raise ConfigError(f"{where}: unknown keys {sorted(extra)}")
    return value


def _array(data: dict, key: str, check) -> np.ndarray:
    """Field key validated by one of the linalg as_* functions."""
    with _field(key):
        return check(_value(data, key), key)


def _number(data: dict, key: str, default=None, minimum=None):
    """A finite JSON number, at least minimum when one is given."""
    value = _value(data, key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not math.isfinite(value))):
        raise ConfigError(f"field '{key}': expected a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"field '{key}': must be at least {minimum}, got {value}")
    return value


def _int_field(data: dict, key: str, default: int | None, minimum: int) -> int:
    value = _number(data, key, default, minimum)
    if int(value) != value:
        raise ConfigError(f"field '{key}': expected an integer, got {value!r}")
    return int(value)


def _control_polytope(data: dict) -> ControlPolytope:
    spec = _value(data, "control")
    kind = spec.get("type") if isinstance(spec, dict) else None
    if kind not in ("box", "vertices"):
        raise ConfigError(f"field 'control.type': expected 'box' or 'vertices', "
                          f"got {kind!r}")
    keys = ("lo", "hi") if kind == "box" else ("list",)
    _object(spec, "field 'control'", ("type",) + keys)
    with _field("control"):
        if kind == "box":
            return box_polytope(_value(spec, "lo"), _value(spec, "hi"))
        return vertex_polytope(_value(spec, "list"))


def _frobenius_ball(data: dict) -> FrobeniusBall:
    spec = _object(_value(data, "admissible"), "field 'admissible'",
                   ("type", "center", "radius"))
    if spec.get("type") != "frobenius_ball":
        raise ConfigError(f"field 'admissible.type': expected 'frobenius_ball', "
                          f"got {spec.get('type')!r}")
    with _field("admissible"):
        return FrobeniusBall(center=_value(spec, "center"),
                             radius=_number(spec, "radius"))


def parse_config(data: dict) -> ProblemConfig:
    """Validate a decoded JSON document and build the problem objects."""
    _object(data, "configuration root", _TOP_LEVEL_KEYS)
    A = _array(data, "A", as_square)
    X0 = _array(data, "X0", as_vector)
    T = _number(data, "T")
    control = _control_polytope(data)
    ball = _frobenius_ball(data)
    # A is square and m >= 1 by now, so LinearSystem can only reject the
    # length of X0 (DimensionError) or the value of T (DomainError)
    with _field("X0", DimensionError), _field("T", DomainError):
        system = LinearSystem(A=A, X0=X0, T=T, m=control.m)
    direction = _array(data, "direction", as_vector)
    nrm = float(np.linalg.norm(direction))
    if abs(nrm - 1.0) > DIRECTION_LOAD_TOL:
        raise ConfigError(f"field 'direction': norm {nrm} is off unit by more "
                          f"than {DIRECTION_LOAD_TOL}")
    with _field("direction"):
        direction = _direction_in(direction / nrm, system.n)
    with _field("admissible.center"):
        _check_reach_args(system, ball.center, control, direction)
    with _field("sense"):
        sense = _check_sense(data.get("sense", "grow"))
    steps = _int_field(data, "steps", DEFAULT_STEPS, 1)
    directions = _int_field(data, "directions", {1: 2, 2: 64}.get(system.n, 400), 1)
    seed = _int_field(data, "seed", DEFAULT_SEED, 0)
    tol_doc = _object(data.get("tolerances", {}), "field 'tolerances'",
                      [f.name for f in fields(Tolerances)])
    tolerances = Tolerances(**{f.name: float(_number(tol_doc, f.name, f.default, 0))
                               for f in fields(Tolerances)})
    return ProblemConfig(system=system, control=control, ball=ball,
                         direction=direction, sense=sense, steps=steps,
                         directions=directions, seed=seed,
                         tolerances=tolerances, echo=data)


def _read_json(path, what: str):
    """Decoded JSON document at path; read and decoding errors report the
    file, and decoding errors also the line and column."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc.msg} "
                          f"(line {exc.lineno}, column {exc.colno})") from exc


def load_config(path) -> ProblemConfig:
    """Parse a JSON problem file; decoding errors report line and column."""
    return parse_config(_read_json(path, "config file"))
