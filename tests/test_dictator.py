import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cardcsp.errors import CapacityError, CardCspError, ParseError
from cardcsp.dictator import (DictGadget, build_gadget, completeness,
                              dict_value, dictator, gadget_balance,
                              hypercube_labels, influence,
                              round_with_function, soundness_enumerate)
from cardcsp.instance import generate
from cardcsp.lasserre import integral_lift, solution_objective
from cardcsp.oracle import exact_mixture_moments
from cardcsp.rounding import bias_decompose


def _mixture_solution(level=2):
    inst = generate("cycle", 4)
    sol = exact_mixture_moments(inst, [(0, 1, 0, 1), (1, 0, 1, 0)],
                                [0.5, 0.5], level=level)
    return inst, sol


def test_hypercube_labels_convention():
    labels = hypercube_labels(2)
    assert labels.tolist() == [[1, 1], [1, -1], [-1, 1], [-1, -1]]


def test_gadget_weights_are_distributions():
    inst, sol = _mixture_solution()
    for eps in (0.0, 0.1, 0.5):
        g = build_gadget(sol, inst, eps, R=3)
        assert g.edge_weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert g.vertex_weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert (g.edge_weights >= -1e-15).all()
        assert np.allclose(g.edge_weights, g.edge_weights.T)


def test_noiseless_gadget_reproduces_edge_statistics():
    # at eps = 0 the R = 1 gadget is the average edge distribution itself
    inst, sol = _mixture_solution()
    g = build_gadget(sol, inst, 0.0, R=1)
    # neighbours disagree with probability 1 in the mixture
    assert g.edge_weights[0, 0] == pytest.approx(0.0)
    assert g.edge_weights[0, 1] == pytest.approx(0.5)


def test_dictator_completeness():
    inst, sol = _mixture_solution()
    val = solution_objective(sol, inst)
    for eps in (0.0, 0.1):
        g = build_gadget(sol, inst, eps, R=3)
        rep = completeness(g, val)
        assert rep.max_abs_balance <= 1e-12
        assert rep.min_dictator_value >= val - 2 * eps - 1e-9
        assert rep.ok


def test_dict_value_of_constant_functions():
    inst, sol = _mixture_solution()
    g = build_gadget(sol, inst, 0.1, R=2)
    assert dict_value(g, np.ones(4)) == pytest.approx(0.0)
    assert dict_value(g, -np.ones(4)) == pytest.approx(0.0)
    assert abs(gadget_balance(g, np.ones(4))) == pytest.approx(1.0)


def test_dict_value_and_balance_of_a_stack_match_each_function():
    inst, sol = _mixture_solution()
    g = build_gadget(sol, inst, 0.1, R=3)
    F = np.random.default_rng(5).uniform(-1, 1, (2, 3, 8))
    values, balances = dict_value(g, F), gadget_balance(g, F)
    assert values.shape == balances.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        f = F[idx]
        assert values[idx] == pytest.approx(
            0.5 * (1 - f @ g.edge_weights @ f), abs=1e-15)
        assert balances[idx] == pytest.approx(g.vertex_weights @ f, abs=1e-15)
    assert isinstance(dict_value(g, F[0, 0]), float)
    assert isinstance(gadget_balance(g, F[0, 0]), float)


def test_influence_of_dictators():
    F = dictator(3, 1)
    assert influence(F, 1, 0.5) == pytest.approx(1.0)
    assert influence(F, 0, 0.5) == 0.0
    assert influence(F, 2, 0.5) == 0.0
    # under a biased measure the dictator influence is 4 p (1 - p)
    assert influence(F, 1, 0.2) == pytest.approx(4 * 0.2 * 0.8)


def test_influence_of_parity():
    F = np.prod(hypercube_labels(3), axis=1).astype(float)
    for ell in range(3):
        assert influence(F, ell, 0.5) == pytest.approx(1.0)


def test_soundness_enumeration():
    inst, sol = _mixture_solution()
    g = build_gadget(sol, inst, 0.1, R=3)
    # tau = 1 admits every balanced function: the brute-force opt
    full = soundness_enumerate(g, tau=1.0)
    assert not full.empty
    assert full.candidates > 0
    # shrinking tau can only lower the achievable value
    for tau in (0.8, 0.5):
        sub = soundness_enumerate(g, tau=tau)
        if not sub.empty:
            assert sub.max_value <= full.max_value + 1e-12
            assert sub.candidates <= full.candidates
    csv_text = full.to_csv()
    assert csv_text.startswith("function_id,balance,max_influence,value")


def test_soundness_grid_mode():
    inst, sol = _mixture_solution()
    g = build_gadget(sol, inst, 0.1, R=2)
    rep = soundness_enumerate(g, tau=1.0, mode="grid")
    assert not rep.empty


def _r1_gadget(**change):
    """An R = 1 gadget's fields, with ``change`` applied."""
    return dict(dict(R=1, eps=0.1, vertex_weights=np.full(2, 0.5),
                     edge_weights=np.full((2, 2), 0.25),
                     vertex_marginals=np.full(2, 0.5),
                     source_weights=np.full(2, 0.5), provenance={}), **change)


@pytest.mark.parametrize("R, eps", [
    (0, 0.1), (13, 0.1), (2.5, 0.1), (True, 0.1),
    (1, -0.1), (1, 1.5), (1, float("nan")), (1, True)])
def test_every_gadget_path_refuses_the_same_r_and_eps(R, eps):
    """The builder, the constructor and the reader share one rule: R a plain
    int in 1..12 (above, CapacityError) and eps a number in [0, 1]."""
    inst, sol = _mixture_solution()
    error = CapacityError if R == 13 else CardCspError
    with pytest.raises(error):
        build_gadget(sol, inst, eps, R)
    with pytest.raises(error):
        DictGadget(**_r1_gadget(R=R, eps=eps))
    doc = json.loads(DictGadget(**_r1_gadget()).to_json()) | {"R": R,
                                                               "eps": eps}
    with pytest.raises(ParseError):
        DictGadget.from_json(json.dumps(doc))


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), -0.1, True,
                                 "0.5", None])
def test_soundness_refuses_a_tau_that_is_not_a_finite_number_at_least_0(tau):
    inst, sol = _mixture_solution()
    g = build_gadget(sol, inst, 0.1, R=2)
    with pytest.raises(CardCspError, match="tau must be"):
        soundness_enumerate(g, tau)


def test_soundness_tau_of_one_admits_every_balanced_function():
    inst, sol = _mixture_solution()
    g = build_gadget(sol, inst, 0.1, R=2)
    at_one, huge, at_zero = (soundness_enumerate(g, tau) for tau in (1, 1e6, 0))
    assert at_one.rows == huge.rows
    assert at_zero.candidates <= at_one.candidates


def test_the_balance_tolerance_is_not_a_setting():
    inst, sol = _mixture_solution()
    g = build_gadget(sol, inst, 0.1, R=2)
    with pytest.raises(TypeError):
        completeness(g, 0.5, balance_tol=1e-9)
    with pytest.raises(TypeError):
        soundness_enumerate(g, 1.0, balance_tol=1e-9)


def test_capacity_caps():
    inst, sol = _mixture_solution()
    with pytest.raises(CapacityError):
        build_gadget(sol, inst, 0.1, R=13)
    g = build_gadget(sol, inst, 0.1, R=3)
    with pytest.raises(CapacityError):
        soundness_enumerate(g, tau=1.0, mode="grid")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FINITE,
                         st.text(max_size=8))


@st.composite
def gadgets(draw):
    """Tables of any finite floats for R = 1..3 and 1..6 source vertices,
    and a provenance of JSON values."""
    R, n = draw(st.integers(1, 3)), draw(st.integers(1, 6))
    size = 1 << R
    return DictGadget(
        R=R, eps=draw(st.floats(0.0, 1.0)),
        vertex_weights=draw(arrays(float, size, elements=FINITE)),
        edge_weights=draw(arrays(float, (size, size), elements=FINITE)),
        vertex_marginals=draw(arrays(float, n, elements=FINITE)),
        source_weights=draw(arrays(float, n, elements=FINITE)),
        provenance=draw(st.dictionaries(st.text(max_size=8), st.recursive(
            JSON_SCALARS, lambda inner: st.lists(inner, max_size=3),
            max_leaves=5), max_size=3)))


@settings(max_examples=100, deadline=None)
@given(gadgets())
@example(DictGadget(R=1, eps=0, vertex_weights=np.zeros(2),
                    edge_weights=np.zeros((2, 2)),
                    vertex_marginals=np.array([0.5]),
                    source_weights=np.array([1.0]), provenance={}))
def test_gadget_json_round_trip(g):
    text = g.to_json()
    back = DictGadget.from_json(text)
    for name in ("vertex_weights", "edge_weights", "vertex_marginals",
                 "source_weights"):
        assert np.array_equal(getattr(back, name), getattr(g, name)), name
        assert getattr(back, name).shape == getattr(g, name).shape, name
    assert (back.R, back.eps, back.provenance) == (g.R, g.eps, g.provenance)
    assert back.to_json() == text


def _biased_coefficients(F, mu):
    """c_S = E[F chi_S] with chi(z) = (z - mu)/sigma under the mu-biased
    product measure; bit R-1-ell of the mask S stands for coordinate ell."""
    R = len(F).bit_length() - 1
    labels = hypercube_labels(R)
    chi = (labels - mu) / np.sqrt(1 - mu * mu)
    weight = np.prod((1 + labels * mu) / 2, axis=1)
    return np.array([
        np.sum(weight * F * np.prod(chi[:, [ell for ell in range(R)
                                             if mask & (1 << (R - 1 - ell))]],
                                    axis=1))
        for mask in range(1 << R)])


def _noisy_polynomial_by_masks(coeffs, chi, eps, R):
    """Sum over subset masks S of c_S (1-eps)^|S| prod_{ell in S} chi_ell,
    with bit R-1-ell of the mask for coordinate ell."""
    total = 0.0
    for mask in range(1 << R):
        term = coeffs[mask] * (1 - eps) ** bin(mask).count("1")
        for ell in range(R):
            if mask & (1 << (R - 1 - ell)):
                term *= chi[ell]
        total += term
    return total


def _biased_basis_labels(solution, F, eps, seed):
    """Round_F the long way: per vertex, F in that vertex's biased basis,
    degree d damped by (1-eps)^d, evaluated at the standardized Gaussian
    surrogates; a degenerate vertex reads F at its point-mass corner."""
    R = len(F).bit_length() - 1
    profile = bias_decompose(solution)
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal((R, profile.w.shape[1]))
    p_star = np.zeros(profile.n)
    for i, mu in enumerate(profile.mu):
        if profile.degenerate[i]:
            p = F[0 if mu >= 0 else -1]
        else:
            p = _noisy_polynomial_by_masks(_biased_coefficients(F, mu),
                                           zeta @ profile.wbar[i], eps, R)
        p_star[i] = np.clip(p, -1.0, 1.0)
    return np.where(rng.random(profile.n) < (1 + p_star) / 2, 1, -1)


def test_biased_basis_reference_reconstructs_the_function():
    rng = np.random.default_rng(2)
    R = 3
    labels = hypercube_labels(R)
    for mu in (0.0, 0.3, -0.6):
        F = rng.uniform(-1, 1, size=1 << R)
        coeffs = _biased_coefficients(F, mu)
        for point in range(1 << R):
            chi = (labels[point] - mu) / np.sqrt(1 - mu * mu)
            assert _noisy_polynomial_by_masks(coeffs, chi, 0.0, R) == \
                pytest.approx(F[point], abs=1e-10)


def _rounding_inputs():
    """Integral lifts, one-assignment mixtures, and mixtures of two and
    three assignments (vertices they agree on are degenerate)."""
    rng = np.random.default_rng(8)
    for n in (4, 6):
        inst = generate("gnp", n, seed=n, p=0.6)
        draws = [rng.permutation([0] * (n // 2) + [1] * (n // 2))
                 for _ in range(3)]
        yield inst, integral_lift(inst, draws[0])
        for k in (1, 2, 3):
            yield inst, exact_mixture_moments(inst, draws[:k],
                                              rng.dirichlet(np.ones(k)))


def test_round_with_function_matches_the_biased_basis_expansion():
    rng = np.random.default_rng(6)
    for inst, sol in _rounding_inputs():
        for R in (1, 2, 3, 4):
            F = rng.uniform(-1.5, 1.5, 1 << R)  # also exercises the clip
            for eps in (0.0, 0.1, 0.5):
                for seed in range(3):
                    out = round_with_function(sol, inst, F, eps, seed)
                    assert out.labels.tolist() == _biased_basis_labels(
                        sol, F, eps, seed).tolist()


@pytest.mark.parametrize("size", [0, 1, 3, 6, 12])
def test_function_tables_need_two_to_the_r_entries(size):
    inst, sol = _mixture_solution()
    with pytest.raises(CardCspError, match="2\\^R entries"):
        round_with_function(sol, inst, np.ones(size), eps=0.1, seed=0)
    with pytest.raises(CardCspError, match="2\\^R entries"):
        influence(np.ones(size), 0, 0.5)


def test_gadget_tables_reject_functions_on_another_cube():
    inst, sol = _mixture_solution()
    g = build_gadget(sol, inst, 0.1, R=2)
    for F in (np.ones(8), np.ones((3, 2)), 1.0):
        with pytest.raises(CardCspError, match="R=2 cube"):
            dict_value(g, F)
        with pytest.raises(CardCspError, match="R=2 cube"):
            gadget_balance(g, F)


@pytest.mark.parametrize("ell", [-1, 3, 7])
def test_influence_rejects_a_coordinate_off_the_cube(ell):
    with pytest.raises(CardCspError, match=r"ell must be an int in 0\.\.2"):
        influence(dictator(3, 0), ell, 0.5)


@pytest.mark.parametrize("eps", [-0.1, 1.5, float("nan")])
def test_round_with_function_rejects_eps_outside_the_unit_interval(eps):
    inst, sol = _mixture_solution()
    with pytest.raises(CardCspError,
                       match=r"eps must be a finite real in \[0, 1\]"):
        round_with_function(sol, inst, dictator(2, 0), eps=eps, seed=0)


def test_round_with_function_dictator_recovers_cut():
    # on a deterministic (integral) solution the dictator polynomial
    # evaluates to the vertex's own label, so rounding is exact
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    out = round_with_function(sol, inst, dictator(3, 0), eps=0.0, seed=0)
    assert out.labels.tolist() == [1, -1, 1, -1]
    assert out.value == pytest.approx(1.0)


def test_round_with_function_unbiased_marginals():
    inst, sol = _mixture_solution()
    F = dictator(3, 0)
    values = []
    for seed in range(200):
        out = round_with_function(sol, inst, F, eps=0.1, seed=seed)
        values.append(out.value)
    # the mixture is perfectly anti-correlated, so most mass rounds to a cut
    assert np.mean(values) > 0.5
