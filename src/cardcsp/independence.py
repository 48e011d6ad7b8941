"""Information measures on local distributions and the conditioning loop
that drives a moment solution towards alpha-independence.

All entropies and mutual informations are measured in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CardCspError
from .instance import CspInstance
from .lasserre import (MomentSolution, _offsets, _positions, _value_table,
                       local_distribution, local_distributions, PROB_FLOOR)


def entropy(dist):
    """Shannon entropy in bits over the last axis, with 0 log 0 = 0."""
    p = np.asarray(dist, dtype=float)
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
    h = -(p * logs).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def mutual_information(joint):
    """Mutual information in bits of joint distributions over the last two
    axes.

    Computed directly from the definition; the entropy identity
    H(X) + H(Y) - H(X,Y) is evaluated as a cross-check.
    """
    j = np.clip(np.asarray(joint, dtype=float), 0.0, None)
    px = j.sum(axis=-1)
    py = j.sum(axis=-2)
    outer = px[..., :, None] * py[..., None, :]
    ratio = np.divide(j, outer, out=np.ones_like(j), where=j > 0)
    direct = (j * np.log2(ratio)).sum(axis=(-2, -1))
    via_entropy = entropy(px) + entropy(py) - entropy(
        j.reshape(j.shape[:-2] + (-1,)))
    gap = np.abs(direct - via_entropy)
    if np.any(gap > 1e-10):
        k = int(np.argmax(gap))
        raise CardCspError(
            f"mutual information paths disagree: {np.ravel(direct)[k]} vs "
            f"{np.ravel(via_entropy)[k]}")
    mi = np.maximum(0.0, direct)
    return float(mi) if mi.ndim == 0 else mi


def pair_joint(solution: MomentSolution, i: int, j: int) -> np.ndarray:
    """Joint distribution of (x_i, x_j) as a q x q array."""
    q = solution.q
    if i == j:
        mu = local_distribution(solution, (i,)).probabilities
        return np.diag(mu)
    a, b = min(i, j), max(i, j)
    mu = local_distribution(solution, (a, b)).probabilities.reshape(q, q)
    return mu if i < j else mu.T


@dataclass
class PairCorrelationSummary:
    average_mi: float
    max_mi: float


def alpha_independence(solution: MomentSolution, instance: CspInstance,
                       include_diagonal: bool = True) -> PairCorrelationSummary:
    """Average pairwise mutual information under i, j ~ W (Def. of
    alpha-independence).  The i = j terms contribute H(X_i)."""
    if solution.level < 2:
        raise CardCspError("alpha_independence needs a level >= 2 solution")
    n, q = solution.n, solution.q
    w = instance.weights_array
    table = np.diag(entropy(local_distributions(solution, 1)))
    i, j = np.triu_indices(n, 1)
    table[i, j] = table[j, i] = mutual_information(
        local_distributions(solution, 2).reshape(-1, q, q))
    mask = np.ones((n, n), dtype=bool)
    if not include_diagonal:
        np.fill_diagonal(mask, False)
    weight = np.outer(w, w)
    denom = weight[mask].sum()
    average = float((weight * table)[mask].sum() / denom) if denom > 0 else 0.0
    support = weight > 0
    max_mi = float(table[mask & support].max()) if (mask & support).any() else 0.0
    return PairCorrelationSummary(average_mi=average, max_mi=max_mi)


@dataclass
class ConditioningStep:
    pivot: int
    value: int
    marginal_probability: float


def condition(solution: MomentSolution, pivot: int, value: int,
              prob_floor: float = PROB_FLOOR) -> MomentSolution:
    """Condition the solution on x_pivot = value; drops one level.

    The new gram is the principal submatrix on indices lifted by the pivot
    event, scaled by 1/P(x_pivot = value); the pivot stays indexed and
    becomes deterministic.  PSD is preserved by construction.
    """
    if solution.level < 2:
        raise CardCspError("conditioning needs level >= 2")
    p_pivot = solution.prob((pivot,), (value,))
    if p_pivot < prob_floor:
        raise CardCspError(
            f"cannot condition on null event x_{pivot}={value} "
            f"(probability {p_pivot:.3g})")
    new_level = solution.level - 1
    # the level-(k-1) index set is a prefix of the level-k one: set the
    # pivot on its value table and read each lifted index off its position
    indices = solution.indices[:_offsets(solution.n, solution.q, new_level)[-1]]
    values = _value_table(indices, solution.n)
    clash = (values[:, pivot] >= 0) & (values[:, pivot] != value)
    values[:, pivot] = value
    rows = _positions(values, solution.q, solution.level)
    gram = solution.gram[np.ix_(rows, rows)] / p_pivot
    gram[clash] = 0.0
    gram[:, clash] = 0.0
    return MomentSolution(new_level, solution.n, solution.q, indices, gram)


def conditional_entropy_after(solution: MomentSolution, instance: CspInstance,
                              pivot: int) -> float:
    """E_{j~W}[H(X_j | X_pivot)] via explicit conditioning on each value."""
    w = instance.weights_array
    total = 0.0
    for value in range(solution.q):
        p = solution.prob((pivot,), (value,))
        if p < PROB_FLOOR:
            continue
        conditioned = condition(solution, pivot, value)
        total += p * float(w @ entropy(local_distributions(conditioned, 1)))
    return total


@dataclass
class DecorrelateResult:
    solution: MomentSolution
    steps: list[ConditioningStep]
    achieved_alpha: float
    reached_target: bool


def decorrelate(solution: MomentSolution, instance: CspInstance,
                alpha: float, seed: int = 0, depth: int | None = None,
                include_diagonal: bool = True) -> DecorrelateResult:
    """Condition until the solution is alpha-independent (or budget ends).

    Pivots are drawn from W and values from the current marginals.  The
    first solution that reaches alpha is returned, or else the least
    correlated one seen.
    """
    if depth is None:
        depth = min(4, solution.level - 2)
    depth = min(depth, solution.level - 2)
    current = alpha_independence(solution, instance, include_diagonal).average_mi
    if current <= alpha or depth <= 0:
        return DecorrelateResult(solution, [], current, current <= alpha)

    rng = np.random.default_rng(seed)
    sol = solution
    steps: list[ConditioningStep] = []
    best = (current, sol, list(steps))
    w = instance.weights_array
    for _ in range(depth):
        pivot = int(rng.choice(sol.n, p=w))
        marg = local_distributions(sol, 1)[pivot]
        value = int(rng.choice(sol.q, p=marg))
        if marg[value] < PROB_FLOOR:
            continue
        sol = condition(sol, pivot, value)
        steps.append(ConditioningStep(pivot, value, float(marg[value])))
        current = alpha_independence(sol, instance, include_diagonal).average_mi
        if current < best[0]:
            best = (current, sol, list(steps))
        if current <= alpha:
            return DecorrelateResult(sol, steps, current, True)
    return DecorrelateResult(best[1], best[2], best[0], False)
