"""Every public entry point that takes a problem rejects a malformed one.

The direction, input-matrix and control-dimension checks live in one place
each; this pins that every entry point still reaches them, with the same
exception class.  Malformed arguments (a NaN tolerance, a string where a
number belongs, a ragged vertex list) raise the package's own errors, never
numpy's or Python's ValueError.
"""

import numpy as np
import pytest

from reachwarp import (ControlPolytope, DimensionError, DomainError, FrobeniusBall,
                       GeometryError, LinearSystem, PreconditionError, boundary_point,
                       box_polytope, check_assumptions, costate_path, growth_metric,
                       initial_costate, optimize_B, spectrum, support_oracle,
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


NAN = float("nan")

# malformed argument -> (call, exception expected, text the message must name)
ARGUMENT_CASES = {
    "spectrum-tol_spec-nan": (lambda: spectrum(np.diag([-1.0, -2.0]), NAN),
                              DomainError, "tol_spec"),
    "check_assumptions-tol_spec-nan": (
        lambda: check_assumptions(SYS, GOOD["d"], tol_spec=NAN), DomainError, "tol_spec"),
    "check_assumptions-tol_ev-nan": (
        lambda: check_assumptions(SYS, GOOD["d"], tol_ev=NAN), DomainError, "tol_ev"),
    "optimize_B-tol_ev-nan": (
        lambda: optimize_B(SYS, GOOD["U"], _ball(GOOD["B"]), GOOD["d"], steps=20,
                           tol_ev=NAN), DomainError, "tol_ev"),
    "verify_optimality-tol_verify-nan": (
        lambda: verify_optimality(SYS, GOOD["U"], _ball(GOOD["B"]), GOOD["d"], k=3,
                                  steps=20, tol_verify=NAN), DomainError, "tol_verify"),
    "ControlPolytope-ragged-vertices": (
        lambda: ControlPolytope(m=2, vertices=[[1, 2], [3]], contains_zero=False),
        DimensionError, "vertices"),
    "LinearSystem-T-string": (
        lambda: LinearSystem(A=SYS.A, X0=SYS.X0, T="x", m=1), DomainError, "T must"),
    "LinearSystem-m-string": (
        lambda: LinearSystem(A=SYS.A, X0=SYS.X0, T=1.0, m="x"), DimensionError, "m must"),
    "FrobeniusBall-radius-string": (
        lambda: FrobeniusBall(center=GOOD["B"], radius="x"), GeometryError, "radius"),
}


@pytest.mark.parametrize("case", ARGUMENT_CASES)
def test_malformed_argument_raises_package_error(case):
    call, error, named = ARGUMENT_CASES[case]
    with pytest.raises(error, match=named):
        call()
