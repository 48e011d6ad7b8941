import numpy as np
import pytest

from cardcsp.errors import CapacityError, InconsistentSolutionError
from cardcsp.instance import cut_instance, generate
from cardcsp.lasserre import (MomentSolution, bias,
                              build_index_set, build_relaxation,
                              check_feasibility, integral_lift,
                              local_distribution, merge_assignments,
                              pair_correlation, solution_objective)


def test_index_set_size():
    # 1 + n q + C(n,2) q^2 at level 2
    idx = build_index_set(4, 2, 2)
    assert len(idx) == 1 + 8 + 24
    assert idx[0] == ((), ())


def test_merge_assignments():
    assert merge_assignments((0, 2), (1, 0), (2,), (0,)) == ((0, 2), (1, 0))
    assert merge_assignments((0,), (1,), (0,), (0,)) is None
    assert merge_assignments((1,), (0,), (3,), (1,)) == ((1, 3), (0, 1))


def test_integral_lift_is_feasible():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    rep = check_feasibility(sol, inst)
    assert rep.psd_violation <= 1e-12
    assert rep.consistency_violation <= 1e-12
    assert rep.cardinality_violation <= 1e-12
    assert solution_objective(sol, inst) == pytest.approx(1.0)


def test_integral_lift_unbalanced_violates_cardinality():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 0, 0, 1))
    rep = check_feasibility(sol, inst)
    assert rep.cardinality_violation > 0.1


def test_local_distribution_and_moments():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    mu = local_distribution(sol, (0, 1)).probabilities
    assert mu.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert bias(sol, 0) == pytest.approx(1.0)
    assert pair_correlation(sol, 0, 1) == pytest.approx(-1.0)


def test_local_distribution_rejects_drift():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    sol.gram[0, sol.pos[((0,), (0,))]] += 1e-3
    with pytest.raises(InconsistentSolutionError):
        local_distribution(sol, (0,))


def test_relaxation_objective_on_integral_points():
    # the program objective evaluated at a lift equals the instance value
    inst = generate("gnp", 6, seed=2, p=0.6)
    program = build_relaxation(inst, 2)
    sol = integral_lift(inst, (0, 1, 0, 1, 0, 1))
    total = np.tensordot(program.C, sol.gram)
    assert total == pytest.approx(inst.evaluate((0, 1, 0, 1, 0, 1)))


def test_relaxation_constraints_hold_on_lifts():
    inst = generate("cycle", 6)
    program = build_relaxation(inst, 2)
    sol = integral_lift(inst, (0, 0, 1, 0, 1, 1))
    ops = program.constraints
    assert np.abs(ops.A @ sol.gram.reshape(-1) - ops.b).max() <= 1e-12


def test_capacity_cap():
    inst = generate("cycle", 18)
    with pytest.raises(CapacityError):
        build_relaxation(inst, 3)


def test_level_3_feasibility_of_lifts():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (1, 0, 1, 0), level=3)
    rep = check_feasibility(sol, inst)
    assert rep.passes(1e-12)


def test_solution_json_round_trip():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    back = MomentSolution.from_json(sol.to_json())
    assert np.allclose(back.gram, sol.gram)
    assert back.indices == sol.indices
