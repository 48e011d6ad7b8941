import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cardcsp.errors import CapacityError
from cardcsp.dictator import (DictGadget, biased_coefficients, build_gadget,
                              clamp, completeness, dict_value, dictator,
                              evaluate_noisy_polynomial, gadget_balance,
                              hypercube_labels, influence,
                              round_with_function, soundness_enumerate)
from cardcsp.instance import generate
from cardcsp.lasserre import solution_objective
from cardcsp.oracle import exact_mixture_moments


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
def test_gadget_json_round_trip(g):
    text = g.to_json()
    back = DictGadget.from_json(text)
    for name in ("vertex_weights", "edge_weights", "vertex_marginals",
                 "source_weights"):
        assert np.array_equal(getattr(back, name), getattr(g, name)), name
        assert getattr(back, name).shape == getattr(g, name).shape, name
    assert (back.R, back.eps, back.provenance) == (g.R, g.eps, g.provenance)
    assert back.to_json() == text


def test_biased_coefficients_reconstruct_function():
    rng = np.random.default_rng(2)
    R = 3
    labels = hypercube_labels(R)
    for mu in (0.0, 0.3, -0.6):
        F = rng.uniform(-1, 1, size=1 << R)
        coeffs = biased_coefficients(F, mu)
        sigma = np.sqrt(1 - mu * mu)
        for point in range(1 << R):
            chi = (labels[point] - mu) / sigma
            rebuilt = evaluate_noisy_polynomial(coeffs, chi, 0.0)
            assert rebuilt == pytest.approx(F[point], abs=1e-10)


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


def test_noisy_polynomial_equals_the_sum_over_masks():
    rng = np.random.default_rng(4)
    for R in (1, 2, 3, 5):
        for eps in (0.0, 0.1, 0.5):
            coeffs, chi = rng.standard_normal(1 << R), rng.standard_normal(R)
            assert evaluate_noisy_polynomial(coeffs, chi, eps) == pytest.approx(
                _noisy_polynomial_by_masks(coeffs, chi, eps, R), abs=1e-13)


def test_clamp():
    assert clamp(np.array([-3.0, 0.2, 1.7])).tolist() == [-1.0, 0.2, 1.0]


def test_round_with_function_dictator_recovers_cut():
    # on a deterministic (integral) solution the dictator polynomial
    # evaluates to the vertex's own label, so rounding is exact
    from cardcsp.lasserre import integral_lift
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
