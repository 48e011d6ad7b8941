import tracemalloc

import numpy as np
import pytest

from cardcsp.errors import CapacityError, CardCspError
from cardcsp.instance import cut_instance, generate
from cardcsp.lasserre import check_feasibility, solution_objective
from cardcsp.oracle import (ExactResult, brute_force, exact_mixture_moments,
                            mc_bvn)


def test_brute_force_reference_values():
    assert brute_force(generate("cycle", 4)).optimum == pytest.approx(1.0)
    assert brute_force(generate("complete", 4)).optimum == pytest.approx(2 / 3)
    assert brute_force(generate("complete", 6)).optimum == pytest.approx(0.6)
    # two cliques: a bisection that splits both cliques evenly cuts
    # 2 * (n/4)^2 of the 2 * C(n/2, 2) edges
    assert brute_force(generate("two_cliques", 8)).optimum == pytest.approx(2 / 3)


def test_brute_force_respects_cardinality():
    inst = generate("cycle", 4)
    res = brute_force(inst)
    assert inst.balance(res.witness).tolist() == [0.5, 0.5]
    free = brute_force(inst, respect_cardinality=False)
    assert free.optimum >= res.optimum


def test_brute_force_witness_is_lexicographically_first():
    res = brute_force(generate("cycle", 4))
    assert res.witness == (0, 1, 0, 1)
    assert res.optima_count == 2  # the complement achieves the same value


def test_brute_force_memory_at_n20():
    """One byte per bit plane: at n = 20 the peak is about 55 MB; with int64
    planes it was 201 MB, a projected 3.4 GB at the cap n = 24."""
    inst = generate("gnp", 20, seed=1, p=0.3)
    tracemalloc.start()
    try:
        res = brute_force(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100e6
    assert res.optimum == pytest.approx(20 / 27)
    assert res.optima_count == 8


def test_brute_force_mincut():
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
    inst = cut_instance(4, edges, kind="mincut-bisection")
    assert brute_force(inst).optimum == pytest.approx(0.5)


_TRIANGLE = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]


@pytest.mark.parametrize("weights", [None, [0.4, 0.3, 0.3]])
def test_brute_force_demands_the_exact_side_weight(weights):
    # no side of these triangles weighs 1/2; sides off by half the lightest
    # weight used to pass, while the relaxation's rows demand the exact weight
    inst = cut_instance(3, _TRIANGLE, vertex_weights=weights)
    with pytest.raises(CardCspError, match="no assignment satisfies"):
        brute_force(inst)
    assert brute_force(inst, respect_cardinality=False).optimum == \
        pytest.approx(2 / 3)


def test_brute_force_admits_a_split_exact_up_to_rounding():
    # sides {0, 1, 2, 3} and {4} both weigh 7/14; in floating point the first
    # sums to 1/2 - 2^-54
    inst = cut_instance(5, _TRIANGLE + [(2, 3, 1.0), (3, 4, 1.0)],
                        vertex_weights=np.array([1, 2, 2, 2, 7]) / 14)
    res = brute_force(inst)
    assert res.witness == (0, 0, 0, 0, 1)
    assert res.optima_count == 2


def test_brute_force_capacity():
    with pytest.raises(CapacityError):
        brute_force(generate("cycle", 26))


def test_exact_result_json():
    res = brute_force(generate("cycle", 4))
    assert "witness" in res.to_json()
    assert ExactResult(**{
        "optimum": res.optimum, "witness": res.witness,
        "optima_count": res.optima_count,
        "enumeration_size": res.enumeration_size}).optimum == res.optimum


def test_mc_bvn_sanity():
    # rho = 0, thresholds 0: exact probability 1/4
    est, sigma = mc_bvn(0.0, 0.0, 0.0, samples=100_000, seed=0)
    assert abs(est - 0.25) <= 4 * sigma
    with pytest.raises(CardCspError):
        mc_bvn(0.0, 0.0, 0.0, samples=100)


def test_mixture_moments_feasible_and_consistent():
    inst = generate("cycle", 6)
    assigns = [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0), (0, 0, 1, 1, 1, 0)]
    probs = [0.25, 0.25, 0.5]
    sol = exact_mixture_moments(inst, assigns, probs, level=2)
    rep = check_feasibility(sol, inst)
    assert rep.passes(1e-12)
    expected = sum(p * inst.evaluate(a) for a, p in zip(assigns, probs))
    assert solution_objective(sol, inst) == pytest.approx(expected)
    assert sol.objective_value == pytest.approx(expected)


def test_mixture_moments_validation():
    inst = generate("cycle", 4)
    with pytest.raises(CardCspError):
        exact_mixture_moments(inst, [(0, 1, 0, 1)], [0.5])
    with pytest.raises(CardCspError):
        exact_mixture_moments(inst, [(0, 1)], [1.0])
    # a NaN once passed the sum and the sign test: a zero gram, objective NaN
    with pytest.raises(CardCspError, match="probability must be a finite real"):
        exact_mixture_moments(inst, [(0, 1, 0, 1)], [np.nan])
