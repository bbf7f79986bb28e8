"""Built-in example problems, emitted as ready-to-run JSON configurations.

Every fixture starts at X0 = 0 with a box of +-bound on each input and the
radius-0.5 Frobenius ball around a nominal input matrix.  Its steps, seed,
tolerances and direction count are the package defaults, written out so an
emitted file states every run parameter.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from .config import Tolerances, _default_directions
from .errors import ConfigError
from .reach import DEFAULT_SEED, DEFAULT_STEPS


def _problem(A, T, bound, center, direction, sense="grow") -> dict:
    n, m = len(A), len(center[0])
    return {
        "A": A,
        "X0": [0.0] * n,
        "T": T,
        "control": {"type": "box", "lo": [-bound] * m, "hi": [bound] * m},
        "admissible": {"type": "frobenius_ball", "center": center, "radius": 0.5},
        "direction": direction,
        "sense": sense,
        "steps": DEFAULT_STEPS,
        "directions": _default_directions(n),
        "seed": DEFAULT_SEED,
        "tolerances": dataclasses.asdict(Tolerances()),
    }


def _admire(direction, sense="grow") -> dict:
    A = [[-0.9967, 0.0, 0.6176],
         [0.0, -0.5057, 0.0],
         [-0.0939, 0.0, -0.2127]]
    B = [[0.0, -4.2423, 4.2423, 1.4871],
         [1.6532, -1.2735, -1.2735, 0.0024],
         [0.0, -0.2805, 0.2805, -0.8820]]
    return _problem(A, 2.0, 0.1, B, direction, sense)


_AIRCRAFT = "3-state aircraft angular-rate model"
# the printed 4-decimal mixed direction is slightly off unit; it is stored renormalized
_MIXED = np.array([0.3536, 0.6124, 0.7071])

_FIXTURES = {
    "admire_grow_p": (_admire([1.0, 0.0, 0.0]),
                      f"{_AIRCRAFT}, grow the roll-rate extent"),
    "admire_shrink_p": (_admire([1.0, 0.0, 0.0], "shrink"),
                        f"{_AIRCRAFT}, shrink the roll-rate extent"),
    "admire_mixed_d": (_admire((_MIXED / np.linalg.norm(_MIXED)).tolist()),
                       f"{_AIRCRAFT}, grow along a mixed direction"),
    "oscillator": (_problem([[0.0, 1.0], [-2.0, -0.8]], 2.0, 1.0,
                            [[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0]),
                   "damped 2-state oscillator with complex eigenvalues (heuristic regime)"),
    "scalar_analytic": (_problem([[-1.0]], 1.0, 1.0, [[1.0]], [1.0]),
                        "1-state system with hand-computable growth metrics"),
    "diag3_theorem": (_problem([[-1.0, 0.0, 0.0], [0.0, -0.5, 0.0], [0.0, 0.0, -0.25]],
                               2.0, 1.0, [[1.0, 0.2], [0.0, 1.0], [0.3, -0.4]],
                               [1.0, 0.0, 0.0]),
                      "diagonal 3-state system satisfying both optimality assumptions"),
}


def fixture_names() -> list[str]:
    return list(_FIXTURES)


def fixture_description(name: str) -> str:
    _require(name)
    return _FIXTURES[name][1]


def fixture_config(name: str) -> dict:
    """A fresh JSON-ready configuration dict for the named fixture."""
    _require(name)
    return copy.deepcopy(_FIXTURES[name][0])


def _require(name: str) -> None:
    if name not in _FIXTURES:
        known = ", ".join(sorted(_FIXTURES))
        raise ConfigError(f"unknown fixture {name!r}; available: {known}")
