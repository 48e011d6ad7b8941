"""Information measures on local distributions and the conditioning loop
that drives a moment solution towards alpha-independence.

All entropies and mutual informations are measured in bits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .errors import CardCspError
from .instance import CspInstance
from .lasserre import (MomentSolution, build_index_set, local_distribution,
                       merge_assignments, solution_objective, PROB_FLOOR)


def entropy(dist) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    p = np.asarray(dist, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def mutual_information(joint) -> float:
    """Mutual information in bits of a joint distribution (2-D array).

    Computed directly from the definition; the entropy identity
    H(X) + H(Y) - H(X,Y) is evaluated as a cross-check.
    """
    j = np.asarray(joint, dtype=float)
    j = np.clip(j, 0.0, None)
    px = j.sum(axis=1)
    py = j.sum(axis=0)
    mask = j > 0
    outer = np.outer(px, py)
    direct = float((j[mask] * np.log2(j[mask] / outer[mask])).sum())
    via_entropy = entropy(px) + entropy(py) - entropy(j.reshape(-1))
    if abs(direct - via_entropy) > 1e-10:
        raise CardCspError(
            f"mutual information paths disagree: {direct} vs {via_entropy}")
    return max(0.0, direct)


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
    n = solution.n
    w = instance.weights_array
    table = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            if i == j:
                mi = entropy(local_distribution(solution, (i,)).probabilities)
            else:
                mi = mutual_information(pair_joint(solution, i, j))
            table[i, j] = table[j, i] = mi
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


def steps_to_json(steps) -> str:
    return json.dumps([asdict(s) for s in steps])


def steps_from_json(text) -> list[ConditioningStep]:
    return [ConditioningStep(**d) for d in json.loads(text)]


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
    indices = build_index_set(solution.n, solution.q, new_level)
    rows = []
    for subset, alpha in indices:
        lifted = merge_assignments(subset, alpha, (pivot,), (value,))
        if lifted is None:
            rows.append(-1)  # incompatible with the conditioning event
        else:
            rows.append(solution.pos[lifted])
    d = len(indices)
    gram = np.zeros((d, d))
    live = [r for r, src in enumerate(rows) if src >= 0]
    src = [rows[r] for r in live]
    sub = solution.gram[np.ix_(src, src)] / p_pivot
    gram[np.ix_(live, live)] = sub
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
        avg_h = sum(w[j] * entropy(local_distribution(conditioned, (j,)).probabilities)
                    for j in range(solution.n))
        total += p * avg_h
    return total


@dataclass
class DecorrelateResult:
    solution: MomentSolution
    steps: list[ConditioningStep]
    achieved_alpha: float
    reached_target: bool


def decorrelate(solution: MomentSolution, instance: CspInstance,
                alpha: float, strategy: str = "sampled", seed: int = 0,
                depth: int | None = None,
                include_diagonal: bool = True) -> DecorrelateResult:
    """Condition until the solution is alpha-independent (or budget ends).

    ``sampled`` draws pivots from W and values from current marginals;
    ``exhaustive`` searches all (pivot, value) sequences up to the depth,
    lexicographically, and returns the first that reaches independence with
    objective loss at most alpha.
    """
    if depth is None:
        depth = min(4, solution.level - 2)
    depth = min(depth, solution.level - 2)
    current = alpha_independence(solution, instance, include_diagonal).average_mi
    if current <= alpha or depth <= 0:
        return DecorrelateResult(solution, [], current, current <= alpha)

    if strategy == "sampled":
        rng = np.random.default_rng(seed)
        sol = solution
        steps: list[ConditioningStep] = []
        best = (current, sol, list(steps))
        w = instance.weights_array
        for _ in range(depth):
            pivot = int(rng.choice(sol.n, p=w))
            marg = local_distribution(sol, (pivot,)).probabilities
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

    if strategy == "exhaustive":
        base_obj = solution_objective(solution, instance)
        best = (current, solution, [])
        # depth-first, lexicographic by (pivot, value); first success wins
        def search(sol, steps, mi):
            nonlocal best
            if mi < best[0]:
                best = (mi, sol, list(steps))
            if mi <= alpha:
                obj = solution_objective(sol, instance)
                if base_obj - obj <= alpha + 1e-9:
                    return (sol, steps, mi)
                return None
            if len(steps) >= depth:
                return None
            for pivot in range(sol.n):
                marg = local_distribution(sol, (pivot,)).probabilities
                for value in range(sol.q):
                    if marg[value] < PROB_FLOOR:
                        continue
                    nxt = condition(sol, pivot, value)
                    nxt_mi = alpha_independence(nxt, instance,
                                                include_diagonal).average_mi
                    hit = search(nxt, steps + [ConditioningStep(
                        pivot, value, float(marg[value]))], nxt_mi)
                    if hit is not None:
                        return hit
            return None

        hit = search(solution, [], current)
        if hit is not None:
            sol, steps, mi = hit
            return DecorrelateResult(sol, steps, mi, True)
        return DecorrelateResult(best[1], best[2], best[0], False)

    raise CardCspError(f"unknown strategy {strategy!r}")
