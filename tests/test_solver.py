import numpy as np
import pytest

from cardcsp import sdp_solver
from cardcsp.instance import generate
from cardcsp.lasserre import build_relaxation, check_feasibility
from cardcsp.oracle import brute_force
from cardcsp.sdp_solver import SolverConfig, project_psd


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(primal_tolerance=0.0)
    with pytest.raises(ValueError):
        SolverConfig(over_relaxation=2.5)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)


@pytest.mark.parametrize("field, value", [
    ("rho", -0.05), ("rho", 0.0), ("rho", float("nan")), ("rho", float("inf")),
    ("check_every", 0), ("check_every", -25),
    ("primal_tolerance", float("nan")), ("dual_tolerance", float("nan")),
    ("primal_tolerance", float("inf")), ("dual_tolerance", -1e-6),
])
def test_config_rejects_values_that_break_the_solve(field, value):
    with pytest.raises(ValueError):
        SolverConfig(**{field: value})


def test_project_psd():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    p = project_psd(m)
    eigs = np.linalg.eigvalsh(p)
    assert eigs.min() >= -1e-12
    assert np.allclose(p, [[1.5, 1.5], [1.5, 1.5]])


@pytest.mark.parametrize("family,n,expected", [
    ("cycle", 4, 1.0),
    ("complete", 4, 2.0 / 3.0),
    ("complete", 6, 0.6),
])
def test_relaxation_optima_match_brute_force(family, n, expected):
    # these instances have no integrality gap at level 2
    inst = generate(family, n)
    program = build_relaxation(inst, 2)
    sol, report = sdp_solver.solve(program)
    assert report.status == "optimal"
    assert sol.objective_value == pytest.approx(expected, abs=1e-4)
    assert brute_force(inst).optimum == pytest.approx(expected)


def test_solver_output_is_feasible():
    inst = generate("gnp", 8, seed=5, p=0.6)
    program = build_relaxation(inst, 2)
    sol, report = sdp_solver.solve(program)
    rep = check_feasibility(sol, inst)
    assert rep.psd_violation <= 1e-5
    assert rep.consistency_violation <= 1e-5
    assert rep.cardinality_violation <= 1e-5


def test_relaxation_upper_bounds_optimum():
    inst = generate("gnp", 8, seed=9, p=0.5)
    program = build_relaxation(inst, 2)
    sol, _ = sdp_solver.solve(program)
    assert sol.objective_value >= brute_force(inst).optimum - 1e-5


def test_determinism():
    inst = generate("cycle", 6)
    program = build_relaxation(inst, 2)
    sol_a, rep_a = sdp_solver.solve(program)
    sol_b, rep_b = sdp_solver.solve(program)
    assert rep_a.iterations == rep_b.iterations
    assert np.array_equal(sol_a.gram, sol_b.gram)


def test_mincut_sense():
    from cardcsp.instance import cut_instance
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
    inst = cut_instance(4, edges, kind="mincut-bisection")
    program = build_relaxation(inst, 2)
    assert program.sense == "min"
    sol, _ = sdp_solver.solve(program)
    # min bisection of C4 cuts two edges
    assert sol.objective_value == pytest.approx(0.5, abs=1e-4)


def test_history_recording():
    inst = generate("cycle", 4)
    program = build_relaxation(inst, 2)
    _, report = sdp_solver.solve(program, keep_history=True)
    assert report.residual_history
    assert report.residual_history[-1][0] == report.iterations
