"""Every public entry point that takes a problem rejects a malformed one.

The direction, input-matrix and control-dimension checks live in one place
each; this pins that every entry point still reaches them, with the same
exception class.
"""

import pytest

from reachwarp import (DimensionError, FrobeniusBall, LinearSystem, PreconditionError,
                       boundary_point, box_polytope, check_assumptions, costate_path,
                       growth_metric, initial_costate, optimize_B, support_oracle,
                       verify_optimality)

SYS = LinearSystem(A=[[-1.0, 0.0], [0.0, -2.0]], X0=[0.0, 0.0], T=1.0, m=1)

GOOD = {"d": [1.0, 0.0], "B": [[1.0], [0.0]], "U": box_polytope([-1.0], [1.0])}


def _ball(B):
    return FrobeniusBall(center=B, radius=0.5)


# entry point -> (call taking d, B and U; whether it takes B (or a ball
# center) and a control set at all)
ENTRY_POINTS = {
    "costate_path": (lambda d, B, U: costate_path(SYS, d), False),
    "initial_costate": (lambda d, B, U: initial_costate(SYS, d), False),
    "check_assumptions": (lambda d, B, U: check_assumptions(SYS, d), False),
    "boundary_point": (lambda d, B, U: boundary_point(SYS, B, U, d, 20), True),
    "growth_metric": (lambda d, B, U: growth_metric(SYS, B, U, d, 20), True),
    "support_oracle": (lambda d, B, U: support_oracle(SYS, B, U, d, 20), True),
    "optimize_B": (lambda d, B, U: optimize_B(SYS, U, _ball(B), d, steps=20), True),
    "verify_optimality": (lambda d, B, U: verify_optimality(SYS, U, _ball(B), d,
                                                            k=3, steps=20), True),
}

# bad input -> (the argument it replaces, whether only problem-taking entry
# points see it, the exception expected)
BAD_INPUTS = {
    "short-direction": ({"d": [1.0]}, False, DimensionError),
    "non-unit-direction": ({"d": [1.0, 1.0]}, False, PreconditionError),
    "wrong-shape-B": ({"B": [[1.0, 0.0]]}, True, DimensionError),
    "control-dimension": ({"U": box_polytope([-1.0, -1.0], [1.0, 1.0])}, True,
                          DimensionError),
}

CASES = [(entry, bad) for entry, (_, takes_problem) in ENTRY_POINTS.items()
         for bad, (_, needs_problem, _) in BAD_INPUTS.items()
         if takes_problem or not needs_problem]


@pytest.mark.parametrize("entry, bad", CASES, ids=[f"{e}-{b}" for e, b in CASES])
def test_entry_point_rejects_bad_problem_input(entry, bad):
    call, _ = ENTRY_POINTS[entry]
    call(**GOOD)
    override, _, error = BAD_INPUTS[bad]
    with pytest.raises(error):
        call(**{**GOOD, **override})
