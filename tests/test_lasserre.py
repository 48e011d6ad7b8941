import json

import numpy as np
import pytest

from cardcsp.errors import (CapacityError, CardCspError,
                            InconsistentSolutionError)
from cardcsp.independence import condition
from cardcsp.instance import cut_instance, generate
from cardcsp.lasserre import (MomentSolution, build_index_set,
                              build_relaxation, check_feasibility,
                              integral_lift, local_distribution,
                              solution_objective)
from cardcsp.oracle import exact_mixture_moments
from cardcsp.rounding import bias_decompose
from test_operator_properties import merge_assignments


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
    profile = bias_decompose(sol)
    second = profile.w @ profile.w.T + np.outer(profile.mu, profile.mu)
    assert profile.mu[0] == pytest.approx(1.0)
    assert second[0, 1] == pytest.approx(-1.0)


def test_local_distribution_rejects_drift():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    sol.gram[0, sol.indices.index(((0,), (0,)))] += 1e-3
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


def _mixture(level=3):
    inst = generate("cycle", 6)
    sol = exact_mixture_moments(
        inst, [(0, 1, 0, 1, 0, 1), (1, 1, 0, 0, 1, 0), (0, 0, 1, 1, 0, 1)],
        [1 / 3, 1 / 7, 1 - 1 / 3 - 1 / 7], level=level)
    return inst, sol


def test_solution_json_round_trip():
    _, sol = _mixture()
    text = sol.to_json()
    back = MomentSolution.from_json(text)
    assert np.array_equal(back.gram, sol.gram)
    assert back.indices == sol.indices
    assert back.to_json() == text
    # the lower triangle as the entry-by-entry writer spelled it
    doc = json.loads(text)
    d = len(sol.indices)
    doc["gram_lower"] = [[float(sol.gram[r, c]) for c in range(r + 1)]
                         for r in range(d)]
    assert json.dumps(doc) == text


def test_solution_rejects_another_index_order():
    _, sol = _mixture(level=2)
    doc = json.loads(sol.to_json())
    doc["indices"].reverse()
    with pytest.raises(CardCspError, match="build_index_set"):
        MomentSolution.from_json(json.dumps(doc))
    with pytest.raises(CardCspError, match="build_index_set"):
        MomentSolution(2, 6, 2, sol.indices[:-1], sol.gram[:-1, :-1])


def test_solution_rejects_gram_of_wrong_shape():
    _, sol = _mixture(level=2)
    with pytest.raises(CardCspError, match="shape"):
        MomentSolution(2, 6, 2, sol.indices, sol.gram[:-1, :-1])
    with pytest.raises(CardCspError, match="shape"):
        MomentSolution(2, 6, 2, sol.indices, sol.gram[0])


@pytest.mark.parametrize("subset, assignment", [
    ((1, 1), (0, 0)),   # repeated vertex
    ((6,), (0,)),       # vertex out of range
    ((-1,), (0,)),
    ((0,), (2,)),       # value >= q
    ((0, 1), (0,)),     # assignment of another length
    ((0, 1, 2), (0, 0, 0)),  # above the level
])
def test_event_reads_reject_bad_events(subset, assignment):
    _, sol = _mixture(level=2)
    with pytest.raises(CardCspError):
        sol.prob(subset, assignment)


@pytest.mark.parametrize("subset", [(1, 1), (6,), (-1,), (0, 1, 2)])
def test_local_distribution_rejects_bad_subsets(subset):
    _, sol = _mixture(level=2)
    with pytest.raises(CardCspError):
        local_distribution(sol, subset)


@pytest.mark.parametrize("pivot, value", [(6, 0), (-1, 0), (0, 2), (0, -1)])
def test_condition_rejects_bad_events(pivot, value):
    _, sol = _mixture()
    with pytest.raises(CardCspError):
        condition(sol, pivot, value)
