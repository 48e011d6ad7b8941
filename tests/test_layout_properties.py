"""Property tests of the readers that slice the index layout: local
distributions, alpha-independence, the bias decomposition, gadget tables and
conditioning.  Each is checked against a per-subset loop over the mixture
itself, on random mixtures of balanced assignments (n 4 to 8, levels 3 and
4) of cut instances whose edges come in either orientation."""

from fractions import Fraction
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcsp.dictator import build_gadget
from cardcsp.independence import alpha_independence, condition
from cardcsp.instance import (CUT_TABLE, CardinalityFunction, CspInstance,
                              PayoffTerm, bisection_cardinality)
from cardcsp.lasserre import (build_index_set, check_feasibility,
                              local_distributions)
from cardcsp.oracle import exact_mixture_moments
from cardcsp.rounding import bias_decompose
from test_operator_properties import merge_assignments

SETTINGS = settings(max_examples=20, deadline=None)


@st.composite
def mixtures(draw):
    """A cut instance on random edges with uniform vertex weights and a
    bisection target, and a mixture of balanced assignments."""
    n = draw(st.sampled_from([4, 6, 8]))
    level = draw(st.sampled_from([3, 4]))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1,
                          max_size=len(pairs), unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(edges),
                          max_size=len(edges)))
    terms = tuple(PayoffTerm(e[::-1] if f else e, CUT_TABLE, 1.0 / len(edges))
                  for e, f in zip(edges, flips))
    inst = CspInstance(n, 2, terms, (1.0 / n,) * n, bisection_cardinality())
    k = draw(st.integers(1, 4))
    X = np.array([draw(st.permutations([0, 1] * (n // 2))) for _ in range(k)])
    p = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    p /= p.sum()
    return inst, level, X, p, exact_mixture_moments(inst, X, p, level)


def _marginal(X, p, subset, q=2):
    """mu_S of the mixture, row-major over [q]^S."""
    mu = np.zeros(q ** len(subset))
    for x, weight in zip(X, p):
        code = 0
        for v in subset:
            code = code * q + x[v]
        mu[code] += weight
    return mu


def _entropy(dist):
    return -sum(x * np.log2(x) for x in dist if x > 0)


def _parent_walk(solution, pivot, value):
    """Conditioning as an index-by-index walk through ``merge_assignments``
    and a dict of positions."""
    pos = {idx: r for r, idx in enumerate(solution.indices)}
    p_pivot = float(solution.gram[0, pos[((pivot,), (value,))]])
    indices = build_index_set(solution.n, solution.q, solution.level - 1)
    rows = []
    for subset, alpha in indices:
        lifted = merge_assignments(subset, alpha, (pivot,), (value,))
        rows.append(-1 if lifted is None else pos[lifted])
    live = [r for r, src in enumerate(rows) if src >= 0]
    src = [rows[r] for r in live]
    gram = np.zeros((len(indices), len(indices)))
    gram[np.ix_(live, live)] = solution.gram[np.ix_(src, src)] / p_pivot
    return gram


@SETTINGS
@given(mixtures(), st.data())
def test_condition_is_the_conditioned_mixture(case, data):
    inst, level, X, p, sol = case
    pivot = data.draw(st.integers(0, inst.n - 1))
    value = int(X[data.draw(st.integers(0, len(X) - 1)), pivot])
    conditioned = condition(sol, pivot, value)
    keep = X[:, pivot] == value
    expected = exact_mixture_moments(inst, X[keep], p[keep] / p[keep].sum(),
                                     level - 1)
    assert np.abs(conditioned.gram - expected.gram).max() <= 1e-12
    assert check_feasibility(conditioned, inst).passes(1e-10)
    assert np.array_equal(conditioned.gram, _parent_walk(sol, pivot, value))


@SETTINGS
@given(mixtures())
def test_local_distributions_are_the_mixture_marginals(case):
    inst, level, X, p, sol = case
    for size in range(level + 1):
        expected = [_marginal(X, p, s) for s in combinations(range(inst.n), size)]
        assert np.abs(local_distributions(sol, size) - expected).max() <= 1e-12


@settings(max_examples=20, deadline=None)
@given(n=st.integers(3, 6), level=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1))
def test_local_distributions_on_three_values(n, level, seed):
    rng = np.random.default_rng(seed)
    third = Fraction(1, 3)
    inst = CspInstance(n, 3, (PayoffTerm((1, 0), (1.0,) * 9, 1.0, 3),),
                       (1.0 / n,) * n, CardinalityFunction((third,) * 3))
    X = rng.integers(0, 3, size=(int(rng.integers(1, 5)), n))
    p = rng.dirichlet(np.ones(len(X)))
    sol = exact_mixture_moments(inst, X, p, level)
    for size in range(level + 1):
        expected = [_marginal(X, p, s, 3) for s in combinations(range(n), size)]
        assert np.abs(local_distributions(sol, size) - expected).max() <= 1e-12


@SETTINGS
@given(mixtures())
def test_alpha_independence_matches_the_pair_loop(case):
    inst, _, X, p, sol = case
    n, w = inst.n, inst.weights_array
    table = np.zeros((n, n))
    for i in range(n):
        table[i, i] = _entropy(_marginal(X, p, (i,)))
        for j in range(i + 1, n):
            joint = _marginal(X, p, (i, j)).reshape(2, 2)
            px, py = joint.sum(axis=1), joint.sum(axis=0)
            table[i, j] = table[j, i] = max(0.0, sum(
                joint[a, b] * np.log2(joint[a, b] / (px[a] * py[b]))
                for a in range(2) for b in range(2) if joint[a, b] > 0))
    off = ~np.eye(n, dtype=bool)
    summary = alpha_independence(sol, inst)
    assert abs(summary.average_mi - w @ table @ w) <= 1e-12
    assert abs(summary.max_mi - table.max()) <= 1e-12
    summary = alpha_independence(sol, inst, include_diagonal=False)
    average = (np.outer(w, w) * table)[off].sum() / np.outer(w, w)[off].sum()
    assert abs(summary.average_mi - average) <= 1e-12
    assert abs(summary.max_mi - table[off].max()) <= 1e-12


@SETTINGS
@given(mixtures())
def test_bias_decompose_matches_the_mixture_moments(case):
    _, _, X, p, sol = case
    y = 1 - 2 * X  # value 0 -> +1
    profile = bias_decompose(sol)
    assert np.abs(profile.mu - p @ y).max() <= 1e-12
    second = profile.w @ profile.w.T + np.outer(profile.mu, profile.mu)
    assert np.abs(second - (y.T * p) @ y).max() <= 1e-12


@SETTINGS
@given(mixtures(), st.sampled_from([0.0, 0.1, 0.5]), st.sampled_from([1, 2]))
def test_build_gadget_matches_the_edge_loop(case, eps, R):
    inst, _, X, p, sol = case
    marginals = np.array([_marginal(X, p, (i,))[0] for i in range(inst.n)])
    size = 1 << R
    edge = np.zeros((size, size))
    for term in inst.payoffs:
        i, j = sorted(term.scope)
        kernels = [(1 - eps) * np.eye(2) + eps * np.array([[m, 1 - m]] * 2)
                   for m in (marginals[i], marginals[j])]
        nu = kernels[0].T @ _marginal(X, p, (i, j)).reshape(2, 2) @ kernels[1]
        tensor = np.ones((1, 1))
        for _ in range(R):
            tensor = np.kron(tensor, nu)
        edge += term.weight * tensor
    vertex = np.zeros(size)
    for weight, m in zip(inst.weights_array, marginals):
        power = np.ones(1)
        for _ in range(R):
            power = np.kron(power, [m, 1 - m])
        vertex += weight * power
    gadget = build_gadget(sol, inst, eps, R)
    assert np.abs(gadget.vertex_marginals - marginals).max() <= 1e-12
    assert np.abs(gadget.edge_weights - (edge + edge.T) / 2).max() <= 1e-12
    assert np.abs(gadget.vertex_weights - vertex).max() <= 1e-12
