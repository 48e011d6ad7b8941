"""Information measures on local distributions and the conditioning loop
that drives a moment solution towards alpha-independence.

All entropies and mutual informations are measured in bits.  Conditioning
on an event gathers a principal submatrix (``condition``), so it keeps PSD
and drops one level; ``decorrelate`` takes at most min(``_MAX_STEPS``,
level - 2) steps, so that rounding still reads level-2 moments.  Steps and
results are logged at DEBUG on ``cardcsp.independence``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import CardCspError, _admit_int, _admit_real
from .instance import CspInstance
from .lasserre import (MomentSolution, _layout, _positions, local_distribution,
                       local_distributions, PROB_FLOOR)

log = logging.getLogger(__name__)

_MAX_STEPS = 4  # conditioning steps decorrelate takes at most


def entropy(dist):
    """Shannon entropy in bits over the last axis, with 0 log 0 = 0."""
    p = np.asarray(dist, dtype=float)
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0)
    h = -(p * logs).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def mutual_information(joint):
    """Mutual information in bits of joint distributions over the last two
    axes, from the definition sum p(x, y) log p(x, y) / (p(x) p(y)), with
    negative entries read as 0 and the result clipped at 0."""
    j = np.clip(np.asarray(joint, dtype=float), 0.0, None)
    px = j.sum(axis=-1)
    py = j.sum(axis=-2)
    outer = px[..., :, None] * py[..., None, :]
    ratio = np.divide(j, outer, out=np.ones_like(j), where=j > 0)
    mi = np.maximum(0.0, (j * np.log2(ratio)).sum(axis=(-2, -1)))
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


def alpha_independence(solution: MomentSolution,
                       instance: CspInstance) -> PairCorrelationSummary:
    """Average pairwise mutual information under i, j ~ W drawn
    independently (Def. of alpha-independence).  The i = j terms contribute
    H(X_i)."""
    if solution.level < 2:
        raise CardCspError("alpha_independence needs a level >= 2 solution")
    n, q = solution.n, solution.q
    w = instance.weights_array
    table = np.diag(entropy(local_distributions(solution, 1)))
    i, j = np.triu_indices(n, 1)
    table[i, j] = table[j, i] = mutual_information(
        local_distributions(solution, 2).reshape(-1, q, q))
    weight = np.outer(w, w)
    return PairCorrelationSummary(
        average_mi=float((weight * table).sum() / weight.sum()),
        max_mi=float(table[weight > 0].max()))


@dataclass
class ConditioningStep:
    pivot: int
    value: int
    marginal_probability: float


def condition(solution: MomentSolution, pivot: int, value: int) -> MomentSolution:
    """Condition the solution on x_pivot = value; drops one level.

    The new gram is the principal submatrix on indices lifted by the pivot
    event, scaled by 1/P(x_pivot = value); the pivot stays indexed and
    becomes deterministic.  PSD is preserved by construction.
    """
    if solution.level < 2:
        raise CardCspError("conditioning needs level >= 2")
    p_pivot = solution.prob((pivot,), (value,))
    if p_pivot < PROB_FLOOR:
        raise CardCspError(
            f"cannot condition on null event x_{pivot}={value} "
            f"(probability {p_pivot:.3g})")
    new_level = solution.level - 1
    # the level-(k-1) index set is a prefix of the level-k one: set the
    # pivot on its value table and read each lifted index off its position
    layout = _layout(solution.n, solution.q, solution.level)
    end = layout.offsets[solution.level]
    indices = list(layout.indices[:end])
    values = layout.values[:end].copy()
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
                alpha: float, seed: int = 0) -> DecorrelateResult:
    """Condition until the solution is alpha-independent (or budget ends).

    The budget is min(_MAX_STEPS, level - 2) steps, none at level 2; an
    alpha at or above the starting average MI turns conditioning off.
    Pivots are drawn from W and values from the current marginals.  The
    first solution that reaches alpha is returned, or else the least
    correlated one seen.  ``alpha`` must be a finite real >= 0 (a NaN would
    never count as reached), checked before any work.
    """
    _admit_real("alpha", alpha, 0, math.inf, "[)")
    _admit_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    w = instance.weights_array
    sol, steps = solution, []
    current = alpha_independence(sol, instance).average_mi
    best = (current, sol, [])
    budget = 0 if current <= alpha else min(_MAX_STEPS, sol.level - 2)
    for _ in range(budget):
        pivot = int(rng.choice(sol.n, p=w))
        marg = local_distributions(sol, 1)[pivot]
        value = int(rng.choice(sol.q, p=marg))
        if marg[value] < PROB_FLOOR:
            continue
        sol = condition(sol, pivot, value)
        steps.append(ConditioningStep(pivot, value, float(marg[value])))
        current = alpha_independence(sol, instance).average_mi
        log.debug("condition on x_%d = %d (marginal %.6g): average MI %.6g",
                  pivot, value, marg[value], current)
        if current <= alpha:
            break
        if current < best[0]:
            best = (current, sol, list(steps))
    result = (DecorrelateResult(sol, steps, current, True) if current <= alpha
              else DecorrelateResult(best[1], best[2], best[0], False))
    log.debug("decorrelate: %d steps, average MI %.6g, target %s",
              len(result.steps), result.achieved_alpha,
              "reached" if result.reached_target else "missed")
    return result
