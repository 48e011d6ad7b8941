"""Independent checks of cardcsp outputs.

Every quantity here is recomputed from its definition: assignment values from
the payoff terms, moment matrices from the mixture's assignments, orthant
probabilities from ``scipy.stats.multivariate_normal`` and soundness maxima by
listing every +-1 function.  No function of the package under test is called,
so a fault in the package cannot hide itself in its own check.  Only the
package's data classes (instances, gadgets) are read.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
from scipy.stats import multivariate_normal, norm


class CheckFailed(Exception):
    """An output of the program disagrees with its independent recomputation."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- assignments -----------------------------------------------------------

def _local_index(term, values):
    """Row-major position of the scope's local assignment in the term table."""
    idx = 0
    for v in term.scope:
        idx = idx * term.q + values[v]
    return idx


def assignment_value(instance, x) -> float:
    """Weighted payoff of a 0/1 assignment, summed term by term."""
    x = [int(v) for v in x]
    return float(sum(t.weight * t.table[_local_index(t, x)]
                     for t in instance.payoffs))


def _side0_weight(instance, X):
    """Vertex weight on value 0, per row of the 0/1 matrix X."""
    w = np.asarray(instance.vertex_weights, dtype=float)
    return (X == 0).astype(float) @ w


def balanced_assignments(instance):
    """Every 0/1 assignment meeting the cardinality target, with its value.

    An assignment counts as balanced when its weight on value 0 is within half
    of the smallest positive vertex weight of the target: with uniform weights
    that is exact bisection.  Rows are in lexicographic order.
    """
    n = instance.n
    X = np.array(list(product((0, 1), repeat=n)), dtype=np.int64)
    w = np.asarray(instance.vertex_weights, dtype=float)
    target = float(instance.cardinality.proportions[0])
    slack = w[w > 0].min() / 2 + 1e-12
    X = X[np.abs(_side0_weight(instance, X) - target) <= slack]
    values = np.zeros(len(X))
    for t in instance.payoffs:
        idx = np.zeros(len(X), dtype=np.int64)
        for v in t.scope:
            idx = idx * t.q + X[:, v]
        values += t.weight * np.asarray(t.table, dtype=float)[idx]
    return X, values


def exhaustive_optimum(instance) -> float:
    """Best value over all balanced assignments."""
    _, values = balanced_assignments(instance)
    require(values.size > 0, "no balanced assignment exists")
    return float(values.max() if instance.sense == "max" else values.min())


def check_assignment(instance, labels, reported_value, optimum) -> float:
    """Check a +-1 labelling (+1 is value 0) returned as the best assignment.

    It must be balanced within one vertex weight, its value recomputed from
    the payoff terms must equal the reported one, and it cannot beat the
    exhaustive optimum.  Returns the recomputed value.
    """
    labels = np.asarray(labels)
    require(labels.shape == (instance.n,) and set(np.unique(labels)) <= {-1, 1},
            f"labels are not a +-1 vector of length {instance.n}")
    x = (1 - labels) // 2
    w = np.asarray(instance.vertex_weights, dtype=float)
    gap = abs(float(_side0_weight(instance, x[None, :])[0])
              - float(instance.cardinality.proportions[0]))
    require(gap <= w.max() + 1e-12,
            f"assignment off balance by {gap:.3g} > one vertex weight {w.max():.3g}")
    value = assignment_value(instance, x)
    require(reported_value is not None and abs(value - reported_value) <= 1e-12,
            f"reported value {reported_value} != recomputed {value}")
    if instance.sense == "max":
        require(value <= optimum + 1e-12, f"value {value} beats optimum {optimum}")
    else:
        require(value >= optimum - 1e-12, f"value {value} beats optimum {optimum}")
    return value


# -- moment matrices of mixtures ---------------------------------------------

def index_set(n: int, level: int):
    """(subset, assignment) pairs with |subset| <= level, empty pair first,
    then by size, subsets and assignments in lexicographic order."""
    out = [((), ())]
    for size in range(1, level + 1):
        for subset in combinations(range(n), size):
            for alpha in product((0, 1), repeat=size):
                out.append((subset, alpha))
    return out


def event_indicators(X, indices) -> np.ndarray:
    """(K x d) matrix: row k holds 1[X_k restricted to S equals alpha]."""
    X = np.asarray(X)
    out = np.ones((len(X), len(indices)))
    for c, (subset, alpha) in enumerate(indices):
        if subset:
            out[:, c] = np.all(X[:, list(subset)] == np.asarray(alpha), axis=1)
    return out


def mixture_moments(X, p, level: int) -> np.ndarray:
    """Moment matrix E_p[v v^T] of the mixture, v the event indicators."""
    p = np.asarray(p, dtype=float)
    require(abs(p.sum() - 1.0) <= 1e-12 and (p >= 0).all(),
            "mixture weights are not a distribution")
    V = event_indicators(X, index_set(np.asarray(X).shape[1], level))
    return (V * p[:, None]).T @ V


def conditioned_mixture(X, p, pivot: int, value: int):
    """The mixture restricted to x_pivot = value, renormalized."""
    X = np.asarray(X)
    p = np.asarray(p, dtype=float)
    keep = X[:, pivot] == value
    require(p[keep].sum() > 0, f"event x_{pivot}={value} has probability 0")
    return X[keep], p[keep] / p[keep].sum()


def mixture_value(instance, X, p) -> float:
    return float(sum(pk * assignment_value(instance, x) for x, pk in zip(X, p)))


def check_balanced_mixture(instance, X):
    w = np.asarray(instance.vertex_weights, dtype=float)
    gaps = np.abs(_side0_weight(instance, np.asarray(X))
                  - float(instance.cardinality.proportions[0]))
    require((gaps <= w[w > 0].min() / 2 + 1e-12).all(),
            "mixture holds an unbalanced assignment")


# -- single-edge rounding analysis -----------------------------------------

def orthant_probability(t1: float, t2: float, rho: float) -> float:
    """P(Z1 <= t1, Z2 <= t2) for standard normals with correlation rho."""
    if t1 == -np.inf or t2 == -np.inf:
        return 0.0
    if t1 == np.inf or t2 == np.inf:
        return float(norm.cdf(min(t1, t2)))
    if rho >= 1.0:
        return float(norm.cdf(min(t1, t2)))
    if rho <= -1.0:
        return float(max(0.0, norm.cdf(t1) + norm.cdf(t2) - 1.0))
    return float(multivariate_normal.cdf([t1, t2], mean=[0.0, 0.0],
                                         cov=[[1.0, rho], [rho, 1.0]],
                                         abseps=1e-12, releps=1e-12))


def edge_values(kind: str, mu1: float, mu2: float, rhobar: float):
    """(rounded value, SDP value) of one payoff term at a configuration.

    Vertex i gets label +1 when its Gaussian falls below
    t_i = Phi^-1((1 + mu_i)/2), so P(label +1) = (1 + mu_i)/2.
    """
    t1 = float(norm.ppf((1 + mu1) / 2))
    t2 = float(norm.ppf((1 + mu2) / 2))
    both_plus = orthant_probability(t1, t2, rhobar)
    p1, p2 = (1 + mu1) / 2, (1 + mu2) / 2
    m = mu1 * mu2 + rhobar * np.sqrt(max(0.0, (1 - mu1**2) * (1 - mu2**2)))
    if kind == "cut":
        return p1 + p2 - 2 * both_plus, (1 - m) / 2
    if kind == "max2sat":
        # the clause fails only when both labels are -1
        both_minus = 1 - p1 - p2 + both_plus
        return 1 - both_minus, 1 - (1 - mu1 - mu2 + m) / 4
    raise ValueError(f"unknown payoff kind {kind!r}")


def edge_ratio(kind: str, mu1: float, mu2: float, rhobar: float) -> float:
    rounded, sdp = edge_values(kind, mu1, mu2, rhobar)
    return rounded / sdp


# -- dictatorship gadgets ----------------------------------------------------

def soundness_max(gadget, tau: float, balance_tol: float = 1e-9):
    """Largest gadget value over balanced +-1 functions whose influences stay
    within tau under every source-vertex product measure, listing all
    2^(2^R) functions.  Returns (maximum or None, number admitted).

    Point z of the cube is the lexicographic R-tuple of values; value 0 is
    label +1.  The value of F is the edge mass it cuts.
    """
    R = gadget.R
    points = list(product((0, 1), repeat=R))
    size = len(points)
    flip = [[points.index(tuple(1 - b if k == ell else b for k, b in enumerate(z)))
             for z in points] for ell in range(R)]
    measures = []
    for p0 in sorted({round(float(p), 12) for p in gadget.vertex_marginals}):
        mu = [float(np.prod([p0 if b == 0 else 1 - p0 for b in z])) for z in points]
        measures.append((p0, mu))
    W = [float(v) for v in gadget.vertex_weights]
    E = np.asarray(gadget.edge_weights, dtype=float)
    best, admitted = None, 0
    for F in product((1, -1), repeat=size):
        if abs(sum(wz * fz for wz, fz in zip(W, F))) > balance_tol:
            continue
        worst_inf = max(
            p0 * (1 - p0) * sum(mu[z] * (F[z] - F[flip[ell][z]]) ** 2
                                for z in range(size))
            for p0, mu in measures for ell in range(R))
        if worst_inf > tau + 1e-12:
            continue
        admitted += 1
        value = sum(E[a, b] for a in range(size) for b in range(size)
                    if F[a] != F[b])
        best = value if best is None else max(best, value)
    return best, admitted
