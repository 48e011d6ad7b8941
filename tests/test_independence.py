import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcsp import independence
from cardcsp.errors import CardCspError
from cardcsp.independence import (alpha_independence, condition,
                                  conditional_entropy_after, decorrelate,
                                  entropy, mutual_information, pair_joint)
from cardcsp.instance import generate
from cardcsp.lasserre import (check_feasibility, integral_lift,
                              local_distribution)
from cardcsp.oracle import exact_mixture_moments

# hand-computed entropy of (3/4, 1/4): 2 - (3/4) log2 3
ENTROPY_3_4 = 2.0 - 0.75 * np.log2(3.0)
# MI of the symmetric joint (0.4, 0.1; 0.1, 0.4): 1 - H(0.2)
MI_SYMMETRIC = 1.0 - (-(0.2 * np.log2(0.2) + 0.8 * np.log2(0.8)))


def test_entropy_reference_values():
    assert entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert entropy([1.0, 0.0]) == 0.0
    assert entropy([0.75, 0.25]) == pytest.approx(ENTROPY_3_4, abs=1e-12)


def test_mutual_information_reference_values():
    assert mutual_information([[0.25, 0.25], [0.25, 0.25]]) == 0.0
    assert mutual_information([[0.5, 0.0], [0.0, 0.5]]) == pytest.approx(1.0)
    joint = [[0.4, 0.1], [0.1, 0.4]]
    assert mutual_information(joint) == pytest.approx(MI_SYMMETRIC, abs=1e-12)


def test_mutual_information_is_the_entropy_identity():
    """MI from the definition equals H(X) + H(Y) - H(X,Y), an identity for
    any nonnegative joint; a third of the cells are zero."""
    rng = np.random.default_rng(5)
    for shape in [(2, 2), (3, 3), (2, 4)]:
        joints = rng.dirichlet(np.ones(np.prod(shape)), size=300)
        joints[rng.random(joints.shape) < 1 / 3] = 0.0
        joints = joints[joints.sum(axis=1) > 0]
        joints /= joints.sum(axis=1, keepdims=True)
        joints = joints.reshape((-1,) + shape)
        identity = (entropy(joints.sum(axis=-1)) + entropy(joints.sum(axis=-2))
                    - entropy(joints.reshape(len(joints), -1)))
        np.testing.assert_allclose(mutual_information(joints), identity,
                                   rtol=0, atol=1e-10)


def test_mutual_information_nonnegative_on_random_joints():
    rng = np.random.default_rng(1)
    for _ in range(200):
        j = rng.dirichlet(np.ones(4)).reshape(2, 2)
        assert mutual_information(j) >= 0.0


def _two_bisection_mixture(level=3):
    inst = generate("cycle", 4)
    sol = exact_mixture_moments(inst, [(0, 1, 0, 1), (1, 0, 1, 0)],
                                [0.5, 0.5], level=level)
    return inst, sol


def test_alpha_independence_of_mixture():
    inst, sol = _two_bisection_mixture()
    summary = alpha_independence(sol, inst)
    # pairs and diagonal terms alike: MI(X_i, X_j) = H(X_i) = 1
    assert summary.average_mi == pytest.approx(1.0, abs=1e-12)
    assert summary.max_mi == pytest.approx(1.0, abs=1e-12)


def test_product_solution_is_zero_independent():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1), level=3)
    summary = alpha_independence(sol, inst)
    assert summary.average_mi == 0.0


def test_conditioning_kills_mixture_correlation():
    inst, sol = _two_bisection_mixture()
    conditioned = condition(sol, 0, 0)
    summary = alpha_independence(conditioned, inst)
    assert summary.average_mi <= 1e-12
    assert conditioned.level == sol.level - 1
    # conditioned solution is deterministic at the planted bisection
    mu = local_distribution(conditioned, (1,)).probabilities
    assert mu.tolist() == [0.0, 1.0]


def test_conditioning_preserves_feasibility():
    inst, sol = _two_bisection_mixture()
    conditioned = condition(sol, 2, 1)
    rep = check_feasibility(conditioned, inst)
    assert rep.psd_violation <= 1e-10
    assert rep.consistency_violation <= 1e-10
    assert rep.cardinality_violation <= 1e-10


def test_conditioning_on_null_event_is_rejected():
    inst, sol = _two_bisection_mixture()
    conditioned = condition(sol, 0, 0)
    with pytest.raises(CardCspError, match="null event"):
        condition(conditioned, 1, 0)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([4, 6, 8]), level=st.sampled_from([3, 4]),
       seed=st.integers(0, 2**32 - 1), k=st.integers(2, 4))
def test_chain_rule_on_mixture(n, level, seed, k):
    rng = np.random.default_rng(seed)
    inst = generate("cycle", n)
    w = inst.weights_array
    base = np.array([0] * (n // 2) + [1] * (n // 2))
    assigns = []
    for _ in range(k):
        x = base.copy()
        rng.shuffle(x)
        assigns.append(tuple(x))
    sol = exact_mixture_moments(inst, assigns, rng.dirichlet(np.ones(k)),
                                level=level)
    pivot = int(rng.integers(n))
    marginal_entropy = sum(
        w[j] * entropy(local_distribution(sol, (j,)).probabilities)
        for j in range(n))
    lhs = marginal_entropy - conditional_entropy_after(sol, inst, pivot)
    rhs = sum(w[j] * mutual_information(pair_joint(sol, pivot, j))
              for j in range(n) if j != pivot)
    rhs += w[pivot] * entropy(
        local_distribution(sol, (pivot,)).probabilities)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_decorrelate_sampled_reaches_target():
    inst, sol = _two_bisection_mixture(level=3)
    result = decorrelate(sol, inst, alpha=1e-9, seed=0)
    assert result.reached_target
    assert result.achieved_alpha <= 1e-9
    assert len(result.steps) == 1


def test_decorrelate_respects_depth_budget():
    inst, sol = _two_bisection_mixture(level=2)
    result = decorrelate(sol, inst, alpha=1e-9, seed=0)
    # level 2 leaves no conditioning budget
    assert result.steps == []
    assert not result.reached_target


def test_an_alpha_above_the_average_mi_turns_conditioning_off():
    inst, sol = _two_bisection_mixture(level=3)
    start = alpha_independence(sol, inst).average_mi
    result = decorrelate(sol, inst, alpha=start, seed=0)
    assert result.steps == [] and result.reached_target
    assert result.solution is sol


def test_the_conditioning_budget_is_not_a_setting():
    inst, sol = _two_bisection_mixture(level=3)
    with pytest.raises(TypeError):
        decorrelate(sol, inst, 1e-9, seed=0, depth=1)


@pytest.mark.parametrize("alpha", [float("nan"), -0.1, float("inf"),
                                   -float("inf"), True, False, "0.1", None])
def test_decorrelate_refuses_an_alpha_that_is_not_a_finite_number_at_least_0(
        alpha, monkeypatch):
    inst, sol = _two_bisection_mixture(level=3)

    def no_work(*args, **kwargs):
        raise AssertionError("decorrelate worked before it checked alpha")

    monkeypatch.setattr(independence, "alpha_independence", no_work)
    with pytest.raises(CardCspError,
                       match=r"alpha must be a finite real in \[0, inf\)"):
        decorrelate(sol, inst, alpha, seed=0)


@pytest.mark.parametrize("alpha", [0, 0.0, np.float64(0.3), np.float32(1.0)])
def test_decorrelate_takes_any_finite_real_alpha_at_least_0(alpha):
    inst, sol = _two_bisection_mixture(level=3)
    assert decorrelate(sol, inst, alpha, seed=0).achieved_alpha >= 0
