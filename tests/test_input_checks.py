"""Every public entry point that takes a problem rejects a malformed one.

The direction, input-matrix and control-dimension checks live in one place
each; this pins that every entry point still reaches them, with the same
exception class.  Malformed arguments (a NaN tolerance, a string where a
number belongs, a count of 2.5 or infinity, a ragged vertex list) raise the
package's own errors, never Python's ValueError, TypeError or OverflowError.
"""

import numpy as np
import pytest

from reachwarp import (ControlPolytope, DimensionError, DomainError, FrobeniusBall,
                       GeometryError, LinearSystem, PreconditionError, boundary_point,
                       boundary_sweep, box_polytope, check_assumptions, costate_path,
                       direction_fan, growth_metric, initial_costate, optimize_B,
                       sample_ball, spectrum, support_oracle, verify_optimality)

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
    "boundary_sweep": (lambda d, B, U: boundary_sweep(SYS, B, U, [d], 20), True),
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


@pytest.mark.parametrize("bad", ["short-direction", "non-unit-direction"])
def test_sweep_checks_every_direction(bad):
    # B, U and steps are checked once per sweep; each direction still is
    override, _, error = BAD_INPUTS[bad]
    good = GOOD["d"]
    with pytest.raises(error):
        boundary_sweep(SYS, GOOD["B"], GOOD["U"], [good, override["d"], good], 20)


NAN = float("nan")
INF = float("inf")


def _point(steps):
    return boundary_point(SYS, GOOD["B"], GOOD["U"], GOOD["d"], steps)

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
    "boundary_point-steps-nan": (lambda: _point(NAN), DomainError, "steps"),
    "boundary_point-steps-inf": (lambda: _point(INF), DomainError, "steps"),
    "boundary_point-steps-string": (lambda: _point("x"), DomainError, "steps"),
    "boundary_point-steps-fraction": (lambda: _point(20.5), DomainError, "steps"),
    "boundary_sweep-steps-fraction": (
        lambda: boundary_sweep(SYS, GOOD["B"], GOOD["U"], [GOOD["d"]], 2.5),
        DomainError, "steps"),
    "growth_metric-steps-inf": (
        lambda: growth_metric(SYS, GOOD["B"], GOOD["U"], GOOD["d"], INF),
        DomainError, "steps"),
    "direction_fan-n-fraction": (lambda: direction_fan(2.5, 4), DimensionError,
                                 "dimension n"),
    "direction_fan-n-string": (lambda: direction_fan("x", 4), DimensionError,
                               "dimension n"),
    "direction_fan-M-nan": (lambda: direction_fan(2, NAN), DomainError, "count M"),
    "direction_fan-M-inf": (lambda: direction_fan(2, INF), DomainError, "count M"),
    "direction_fan-M-fraction": (lambda: direction_fan(2, 3.5), DomainError, "count M"),
    "support_oracle-quad_nodes-string": (
        lambda: support_oracle(SYS, GOOD["B"], GOOD["U"], GOOD["d"], "x"),
        DomainError, "quad_nodes"),
    "support_oracle-quad_nodes-fraction": (
        lambda: support_oracle(SYS, GOOD["B"], GOOD["U"], GOOD["d"], 20.5),
        DomainError, "quad_nodes"),
    "sample_ball-k-nan": (lambda: sample_ball(_ball(GOOD["B"]), NAN), DomainError,
                          "count k"),
    "sample_ball-k-inf": (lambda: sample_ball(_ball(GOOD["B"]), INF), DomainError,
                          "count k"),
    "sample_ball-k-fraction": (lambda: sample_ball(_ball(GOOD["B"]), 2.5), DomainError,
                               "count k"),
    "LinearSystem-m-fraction": (
        lambda: LinearSystem(A=SYS.A, X0=SYS.X0, T=1.0, m=1.5), DimensionError, "m must"),
    "ControlPolytope-m-fraction": (
        lambda: ControlPolytope(m=1.5, vertices=[[1.0], [-1.0]], contains_zero=True),
        DimensionError, "m must"),
    "spectrum-tol_spec-string": (lambda: spectrum(np.diag([-1.0, -2.0]), "x"),
                                 DomainError, "tol_spec"),
    "check_assumptions-tol_ev-string": (
        lambda: check_assumptions(SYS, GOOD["d"], tol_ev="x"), DomainError, "tol_ev"),
    "verify_optimality-tol_verify-string": (
        lambda: verify_optimality(SYS, GOOD["U"], _ball(GOOD["B"]), GOOD["d"], k=3,
                                  steps=20, tol_verify="x"), DomainError, "tol_verify"),
    "sample_ball-seed-string": (lambda: sample_ball(_ball(GOOD["B"]), 3, seed="x"),
                                DomainError, "seed"),
    "sample_ball-seed-fraction": (lambda: sample_ball(_ball(GOOD["B"]), 3, seed=2.5),
                                  DomainError, "seed"),
    "sample_ball-seed-nan": (lambda: sample_ball(_ball(GOOD["B"]), 3, seed=NAN),
                             DomainError, "seed"),
    "sample_ball-seed-negative": (lambda: sample_ball(_ball(GOOD["B"]), 3, seed=-1),
                                  DomainError, "seed"),
    "verify_optimality-seed-string": (
        lambda: verify_optimality(SYS, GOOD["U"], _ball(GOOD["B"]), GOOD["d"], k=3,
                                  seed="x", steps=20), DomainError, "seed"),
    "verify_optimality-seed-fraction": (
        lambda: verify_optimality(SYS, GOOD["U"], _ball(GOOD["B"]), GOOD["d"], k=3,
                                  seed=2.5, steps=20), DomainError, "seed"),
    "verify_optimality-seed-nan": (
        lambda: verify_optimality(SYS, GOOD["U"], _ball(GOOD["B"]), GOOD["d"], k=3,
                                  seed=NAN, steps=20), DomainError, "seed"),
    "verify_optimality-seed-negative": (
        lambda: verify_optimality(SYS, GOOD["U"], _ball(GOOD["B"]), GOOD["d"], k=3,
                                  seed=-1, steps=20), DomainError, "seed"),
    # n = 1 to 3 draw no random numbers; their seed is checked all the same
    "direction_fan-seed-string": (lambda: direction_fan(2, 4, seed="x"), DomainError,
                                  "seed"),
    "direction_fan-seed-fraction": (lambda: direction_fan(3, 4, seed=2.5), DomainError,
                                    "seed"),
    "direction_fan-seed-nan": (lambda: direction_fan(4, 4, seed=NAN), DomainError,
                               "seed"),
    "direction_fan-seed-negative": (lambda: direction_fan(5, 4, seed=-1), DomainError,
                                    "seed"),
}


@pytest.mark.parametrize("case", ARGUMENT_CASES)
def test_malformed_argument_raises_package_error(case):
    call, error, named = ARGUMENT_CASES[case]
    with pytest.raises(error, match=named):
        call()


def test_integral_counts_are_accepted():
    # integers, numpy integers and integral floats all count; the result is an int
    assert _point(20.0).steps == 20 and type(_point(np.int64(20)).steps) is int
    assert np.array_equal(_point(20.0).X_dB, _point(20).X_dB)
    assert len(direction_fan(2.0, np.int64(3))) == 3
    assert len(sample_ball(_ball(GOOD["B"]), 3.0)) == 3
    assert np.array_equal(sample_ball(_ball(GOOD["B"]), 3, seed=7.0)[2],
                          sample_ball(_ball(GOOD["B"]), 3, seed=np.int64(7))[2])
    assert np.array_equal(direction_fan(4, 3, seed=5.0)[2], direction_fan(4, 3, seed=5)[2])
    assert LinearSystem(A=SYS.A, X0=SYS.X0, T=1.0, m=np.int64(1)).m == 1
