"""Level-k moment relaxation for globally constrained CSPs.

The relaxation is a conic program over a single symmetric moment matrix G
indexed by (subset, local assignment) pairs, with the empty index housing
the constant vector.  Its affine part is one sparse operator: rows
A vec(G) = b that fix G[0,0] = 1, tie every entry to its canonical local
probability (or to zero for clashing assignments), impose marginalization,
and enforce the cardinality constraint on every conditioning event.
``_constraint_operator`` is the only place these rows are written.  Feasible
points are exactly the moment solutions: G is PSD and A vec(G) = b.
``check_feasibility`` reads the consistency and cardinality violations off
the residual A vec(G) - b of the same operator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import CapacityError, CardCspError, InconsistentSolutionError
from .instance import CspInstance

PROB_FLOOR = 1e-9  # probabilities below this are treated as zero events

MomentIndex = tuple[tuple[int, ...], tuple[int, ...]]  # (sorted subset, assignment)


def build_index_set(n: int, q: int, level: int) -> list[MomentIndex]:
    """All (S, alpha) with |S| <= level, empty index first."""
    indices: list[MomentIndex] = [((), ())]
    for size in range(1, level + 1):
        for subset in combinations(range(n), size):
            for alpha in product(range(q), repeat=size):
                indices.append((subset, alpha))
    return indices


def merge_assignments(s, alpha, t, beta):
    """Merged (subset, assignment) of two compatible indexed events, or None."""
    merged = dict(zip(s, alpha))
    for var, val in zip(t, beta):
        if merged.setdefault(var, val) != val:
            return None
    subset = tuple(sorted(merged))
    return subset, tuple(merged[v] for v in subset)


@dataclass
class MomentSolution:
    """A candidate solution to the level-k relaxation."""

    level: int
    n: int
    q: int
    indices: list[MomentIndex]
    gram: np.ndarray
    objective_value: float = float("nan")

    def __post_init__(self):
        self.pos = {idx: r for r, idx in enumerate(self.indices)}

    def prob(self, subset, assignment) -> float:
        """P(X_S = alpha) read off the canonical gram entry."""
        subset = tuple(subset)
        assignment = tuple(assignment)
        if not subset:
            return float(self.gram[0, 0])
        return float(self.gram[0, self.pos[(subset, assignment)]])

    def copy(self):
        return MomentSolution(self.level, self.n, self.q, list(self.indices),
                              self.gram.copy(), self.objective_value)

    def to_json(self) -> str:
        tril = [[float(self.gram[r, c]) for c in range(r + 1)]
                for r in range(len(self.indices))]
        doc = {
            "schema": "cardcsp.moment_solution/1",
            "level": self.level,
            "n": self.n,
            "q": self.q,
            "indices": [[list(s), list(a)] for s, a in self.indices],
            "gram_lower": tril,
            "objective_value": self.objective_value,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "MomentSolution":
        doc = json.loads(text)
        indices = [(tuple(s), tuple(a)) for s, a in doc["indices"]]
        d = len(indices)
        gram = np.zeros((d, d))
        for r, row in enumerate(doc["gram_lower"]):
            for c, v in enumerate(row):
                gram[r, c] = gram[c, r] = v
        return cls(doc["level"], doc["n"], doc["q"], indices, gram,
                   doc["objective_value"])


@dataclass
class LocalDistribution:
    subset: tuple[int, ...]
    probabilities: np.ndarray  # row-major over [q]^subset


def local_distribution(solution: MomentSolution, subset, tol=1e-5) -> LocalDistribution:
    """Read mu_S off the canonical gram entries, clip and renormalize."""
    subset = tuple(sorted(subset))
    if len(subset) > solution.level:
        raise CardCspError(f"subset size {len(subset)} exceeds level {solution.level}")
    if not subset:
        return LocalDistribution((), np.array([1.0]))
    probs = np.array([solution.prob(subset, a)
                      for a in product(range(solution.q), repeat=len(subset))])
    drift = max(0.0, -probs.min()) + abs(probs.sum() - 1.0)
    if drift > tol:
        raise InconsistentSolutionError(
            f"inconsistent solution: local distribution on {subset} drifts by {drift:.3g}")
    probs = np.clip(probs, 0.0, 1.0)
    return LocalDistribution(subset, probs / probs.sum())


# -- conic program ---------------------------------------------------------

@dataclass(frozen=True)
class ConstraintOperator:
    """The affine rows A vec(G) = b of the relaxation.

    ``A`` is unnormalized; a coefficient on an off-diagonal entry of G is
    split in halves over the entry and its mirror.  ``event`` holds, for
    each cardinality row, the gram column of its conditioning event, and -1
    on every other row.
    """

    A: sp.csr_matrix
    b: np.ndarray
    event: np.ndarray

    def __len__(self):
        return self.A.shape[0]


@dataclass
class ConicProgram:
    """Maximize (or minimize) <C, G> over PSD G with A vec(G) = b."""

    dim: int
    indices: list[MomentIndex]
    constraints: ConstraintOperator
    C: np.ndarray  # dense symmetric objective
    level: int
    n: int
    q: int
    sense: str = "max"


DEFAULT_INDEX_CAP = 6000


def _value_table(indices, n):
    """Row r holds index r's assignment on its subset and -1 elsewhere."""
    values = np.full((len(indices), n), -1, dtype=np.int8)
    for r, (subset, alpha) in enumerate(indices):
        values[r, list(subset)] = alpha
    return values


def _positions(values, q, level):
    """Position in ``build_index_set`` order of each row of a value table.

    Indices run by subset size, then subset in lexicographic order, then
    assignment in row-major order.  A subset's lexicographic rank counts,
    for each j outside it below its last element, the subsets that agree
    with it below j and take j next.
    """
    n = values.shape[1]
    inside = values >= 0
    size = inside.sum(axis=1)
    below = np.cumsum(inside, axis=1) - inside
    rest = np.clip(size[:, None] - below - 1, 0, None)
    binom = np.array([[comb(a, s) for s in range(level)] for a in range(n)])
    later = ~inside & (below < size[:, None])
    rank = np.where(later, binom[n - 1 - np.arange(n), rest], 0).sum(axis=1)
    code = np.where(inside, values * q ** rest, 0).sum(axis=1)
    offset = np.cumsum([0] + [comb(n, s) * q ** s for s in range(level)])
    return offset[size] + rank * q ** size + code


def _reduced_basis(indices, n, q):
    """Positions R of the indices whose values all lie below q - 1, and the
    lift P (d x |R|) with G = P G[R, R] P^T on every moment solution.

    P is inclusion-exclusion: each value q - 1 expands as
    [x_j = q - 1] = 1 - sum_{a < q - 1} [x_j = a], so P[(S, alpha), (T, beta)]
    is (-1)^{|{j in T : alpha_j = q - 1}|} when T drops only variables valued
    q - 1 and beta agrees with alpha below q - 1, and zero otherwise.
    """
    values = _value_table(indices, n)
    red = np.flatnonzero((values < q - 1).all(axis=1))
    top = values == q - 1
    # one-hot over -1, 0, ..., q - 2; values q - 1 match anything
    kinds = np.arange(-1, q - 1)
    full = (values[:, :, None] == kinds).reshape(len(values), -1)
    sub = full[red]
    matches = full.astype(float) @ sub.T.astype(float)
    fits = matches == (~top).sum(axis=1)[:, None]
    flips = top.astype(float) @ (values[red] >= 0).T.astype(float)
    return red, np.where(fits, 1.0 - 2.0 * (flips % 2), 0.0)


def _split(row, r, c, coef, d):
    """Triplets over vec(G) of coefficients on entries (r, c) of G."""
    row, r, c, coef = (x.ravel() for x in np.broadcast_arrays(
        row, r, c, np.asarray(coef, dtype=float)))
    off = r != c
    return (np.concatenate([row, row[off]]),
            np.concatenate([r * d + c, c[off] * d + r[off]]),
            np.concatenate([np.where(off, coef / 2, coef), coef[off] / 2]))


def _constraint_operator(n, q, level, weights, target) -> ConstraintOperator:
    """All rows of the level-``level`` program over the index set.

    Rows, in order: the unit row G[0,0] = 1; consistency of every entry
    (r <= c, row-major, r > 0) whose subsets span at most ``level``
    variables, tied to its canonical entry (0, merged) or to zero when the
    assignments clash; marginalization by (event, j);
    cardinality by (event, v).  Events are the indices below full size.
    """
    indices = build_index_set(n, q, level)
    d = len(indices)
    values = _value_table(indices, n)
    inside = (values >= 0).astype(float)
    onehot = (values[:, :, None] == np.arange(q)).reshape(d, n * q).astype(float)
    size = inside.sum(axis=1)

    # pairs scanned in row blocks: |S u T| from shared variables, clashes
    # from shared variables that disagree
    block = max(1, (1 << 18) // d)
    pairs = []
    for lo in range(1, d, block):
        hi = min(lo + block, d)
        shared = inside[lo:hi] @ inside.T
        near = (size[lo:hi, None] + size - shared <= level) & \
            (np.arange(d) >= np.arange(lo, hi)[:, None])
        r, c = np.nonzero(near)
        agree = (onehot[lo:hi] @ onehot.T)[r, c]
        pairs.append((r + lo, c, agree == shared[r, c]))
    r, c, fits = (np.concatenate(x) for x in zip(*pairs))
    canon = _positions(np.maximum(values[r[fits]], values[c[fits]]), q, level)

    n_events = sum(comb(n, s) * q ** s for s in range(level))
    ev, j = np.nonzero(values[:n_events] < 0)
    ext = np.empty((len(ev), q), dtype=np.int64)
    for a in range(q):
        grown = values[ev]
        grown[np.arange(len(ev)), j] = a
        ext[:, a] = _positions(grown, q, level)
    w = np.asarray(weights, dtype=float)
    base = (onehot[:n_events].reshape(n_events, n, q) * w[:, None]).sum(axis=1) \
        - np.asarray(target, dtype=float)

    cons = 1 + np.arange(len(r))
    marg = 1 + len(r) + np.arange(len(ev))
    card = 1 + len(r) + len(ev) + np.arange(n_events * q).reshape(n_events, q)
    m = card[-1, -1] + 1
    events = np.arange(n_events)
    parts = [
        _split(0, 0, 0, 1.0, d),
        _split(cons, r, c, 1.0, d),
        _split(cons[fits], 0, canon, -1.0, d),
        _split(marg, 0, ev, -1.0, d),
        _split(card, 0, events[:, None], base, d),
    ]
    for a in range(q):
        parts.append(_split(marg, 0, ext[:, a], 1.0, d))
        parts.append(_split(card[ev, a], 0, ext[:, a], w[j], d))
    rows, cols, coefs = (np.concatenate(x) for x in zip(*parts))
    A = sp.csr_matrix((coefs, (rows, cols)), shape=(m, d * d))
    A.eliminate_zeros()
    b = np.zeros(m)
    b[0] = 1.0
    event = np.full(m, -1)
    event[card] = events[:, None]
    return ConstraintOperator(A, b, event)


def build_relaxation(instance: CspInstance, level: int = 2,
                     index_cap: int = DEFAULT_INDEX_CAP) -> ConicProgram:
    """Build the level-k relaxation of an instance as a conic program."""
    if level < 2:
        raise CardCspError("level must be at least 2")
    n, q = instance.n, instance.q
    d = sum(q ** s * comb(n, s) for s in range(level + 1))
    if d > index_cap:
        raise CapacityError(
            f"level {level} too high for n={n}: index set size {d} exceeds "
            f"cap {index_cap}")
    indices = build_index_set(n, q, level)
    constraints = _constraint_operator(n, q, level, instance.weights_array,
                                       instance.cardinality.as_floats())

    # objective <C, G> = c . G[0, :], halves on (0, p) and (p, 0)
    c = _payoff_vector(instance, {idx: r for r, idx in enumerate(indices)})
    C = np.zeros((d, d))
    C[0] = c / 2
    C[:, 0] += c / 2

    return ConicProgram(dim=d, indices=indices, constraints=constraints,
                        C=C, level=level, n=n, q=q, sense=instance.sense)


# -- feasibility checking --------------------------------------------------

@dataclass
class FeasibilityReport:
    psd_violation: float
    consistency_violation: float
    cardinality_violation: float

    def passes(self, tol=1e-6):
        return (self.psd_violation <= tol
                and self.consistency_violation <= tol
                and self.cardinality_violation <= tol)


def check_feasibility(solution: MomentSolution, instance: CspInstance,
                      prob_floor=PROB_FLOOR) -> FeasibilityReport:
    """Report the largest PSD / consistency / cardinality violations.

    Consistency is the largest residual of the unit, consistency and
    marginalization rows.  Cardinality is checked in conditional form: each
    cardinality residual over the probability of its event, on events above
    ``prob_floor``.
    """
    gram = solution.gram
    ops = _constraint_operator(solution.n, solution.q, solution.level,
                               instance.weights_array,
                               instance.cardinality.as_floats())
    resid = np.abs(ops.A @ gram.reshape(-1) - ops.b)
    card = ops.event >= 0
    consistency = float(resid[~card].max())
    p_event = gram[0, ops.event[card]]
    live = p_event > prob_floor
    cardinality = float((resid[card][live] / p_event[live]).max(initial=0.0))

    sym = gram + gram.T
    sym /= 2
    # sym.T is the Fortran-ordered view of the same symmetric matrix, so
    # LAPACK works in place instead of on a second d x d copy
    eigs = scipy.linalg.eigvalsh(sym.T, overwrite_a=True, driver="evd")
    psd_violation = max(0.0, float(-eigs.min()))
    return FeasibilityReport(psd_violation, consistency, cardinality)


def integral_lift(instance: CspInstance, assignment, level: int = 2) -> MomentSolution:
    """Moment matrix of a deterministic assignment."""
    assignment = tuple(int(a) for a in assignment)
    indices = build_index_set(instance.n, instance.q, level)
    d = len(indices)
    vec = np.array([1.0 if all(assignment[v] == a for v, a in zip(s, al)) else 0.0
                    for s, al in indices])
    gram = np.outer(vec, vec)
    return MomentSolution(level, instance.n, instance.q, indices, gram,
                          objective_value=instance.evaluate(assignment))


def _payoff_vector(instance: CspInstance, pos) -> np.ndarray:
    """c over an index set (``pos`` maps index to position) with
    E_{S ~ W} sum_beta P_S(beta) mu_S(beta) = c . G[0, :]: entry (S, beta)
    sums weight * payoff over the terms on S."""
    c = np.zeros(len(pos))
    for term in instance.payoffs:
        scope = tuple(sorted(term.scope))
        for beta in product(range(instance.q), repeat=len(scope)):
            local = tuple(beta[scope.index(v)] for v in term.scope)
            c[pos[(scope, beta)]] += term.weight * term.value(local)
    return c


def solution_objective(solution: MomentSolution, instance: CspInstance) -> float:
    """Instance objective evaluated on the solution's local distributions."""
    return float(_payoff_vector(instance, solution.pos) @ solution.gram[0])


def pair_correlation(solution: MomentSolution, i: int, j: int) -> float:
    """E[x_i x_j] in +-1 convention (value 0 -> +1), from pair marginals."""
    if i == j:
        return 1.0
    a, b = min(i, j), max(i, j)
    mu = local_distribution(solution, (a, b)).probabilities
    return float(mu[0] + mu[3] - mu[1] - mu[2])


def bias(solution: MomentSolution, i: int) -> float:
    """E[x_i] in +-1 convention."""
    mu = local_distribution(solution, (i,)).probabilities
    return float(mu[0] - mu[1])
