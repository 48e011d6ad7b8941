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

Indices run by subset size, then subset in ``combinations`` order, then
assignment in row-major order, so the level-(k-1) index set is a prefix of
the level-k one.  ``_positions`` is the only map from an index to its
position.  The size-s local distributions are one slice of row 0 of G,
which ``local_distributions`` reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations, islice, product
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


@dataclass
class MomentSolution:
    """A candidate solution to the level-k relaxation.

    ``indices`` must be ``build_index_set(n, q, level)``: every reader finds
    an index (S, alpha) at its closed-form position in that order.
    """

    level: int
    n: int
    q: int
    indices: list[MomentIndex]
    gram: np.ndarray
    objective_value: float = float("nan")

    def __post_init__(self):
        d = len(self.indices)
        if self.indices != build_index_set(self.n, self.q, self.level):
            raise CardCspError("moment indices must be build_index_set(n, q, "
                               "level), in that order")
        if np.shape(self.gram) != (d, d):
            raise CardCspError(f"gram has shape {np.shape(self.gram)}, "
                               f"expected ({d}, {d})")

    def _position(self, subset, assignment) -> int:
        """Position of the index of the event x_S = alpha, S in any order."""
        subset = [int(v) for v in subset]
        alpha = [int(a) for a in assignment]
        n, q = self.n, self.q
        if len(set(subset)) != len(subset) or not all(0 <= v < n for v in subset):
            raise CardCspError(
                f"vertices {tuple(subset)} must be distinct and in 0..{n - 1}")
        if len(alpha) != len(subset) or not all(0 <= a < q for a in alpha):
            raise CardCspError(
                f"assignment {tuple(alpha)} must give each vertex of "
                f"{tuple(subset)} a value in 0..{q - 1}")
        if len(subset) > self.level:
            raise CardCspError(
                f"subset size {len(subset)} exceeds level {self.level}")
        values = np.full((1, n), -1, dtype=np.int8)
        values[0, subset] = alpha
        return int(_positions(values, q, self.level)[0])

    def prob(self, subset, assignment) -> float:
        """P(X_S = alpha) read off the canonical gram entry."""
        return float(self.gram[0, self._position(subset, assignment)])

    def copy(self):
        return MomentSolution(self.level, self.n, self.q, list(self.indices),
                              self.gram.copy(), self.objective_value)

    def to_json(self) -> str:
        d = len(self.indices)
        flat = self.gram[np.tril_indices(d)].tolist()
        tril = [flat[r * (r + 1) // 2:(r + 1) * (r + 2) // 2] for r in range(d)]
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
        rows = doc["gram_lower"]
        if [len(row) for row in rows] != list(range(1, d + 1)):
            raise CardCspError("gram_lower must hold rows of length 1 to d")
        r, c = np.tril_indices(d)
        gram = np.zeros((d, d))
        gram[r, c] = gram[c, r] = np.fromiter(chain.from_iterable(rows),
                                              float, count=len(r))
        return cls(doc["level"], doc["n"], doc["q"], indices, gram,
                   doc["objective_value"])


@dataclass
class LocalDistribution:
    subset: tuple[int, ...]
    probabilities: np.ndarray  # row-major over [q]^subset


def local_distributions(solution: MomentSolution, size: int,
                        tol=1e-5) -> np.ndarray:
    """mu_S of every subset S of ``size`` vertices, one per row of a
    (C(n, size), q^size) array.

    The rows are one slice of row 0 of G: subsets in ``combinations`` order
    (pairs in ``np.triu_indices`` order), assignments row-major.  Each row
    must sum to 1 and stay nonnegative within ``tol``; it is then clipped
    and renormalized.
    """
    n, q, level = solution.n, solution.q, solution.level
    if not 0 <= size <= level:
        raise CardCspError(f"subset size {size} exceeds level {level}")
    lo, hi = _offsets(n, q, size)[-2:]
    probs = solution.gram[0, lo:hi].reshape(comb(n, size), q ** size)
    drift = np.maximum(0.0, -probs.min(axis=1)) + np.abs(probs.sum(axis=1) - 1.0)
    if (drift > tol).any():
        worst = int(drift.argmax())
        subset = next(islice(combinations(range(n), size), worst, None))
        raise InconsistentSolutionError(
            f"inconsistent solution: local distribution on {subset} drifts "
            f"by {drift[worst]:.3g}")
    probs = np.clip(probs, 0.0, 1.0)
    return probs / probs.sum(axis=1, keepdims=True)


def local_distribution(solution: MomentSolution, subset, tol=1e-5) -> LocalDistribution:
    """mu_S: the row of ``local_distributions`` that holds S."""
    subset = tuple(sorted(subset))
    size, q = len(subset), solution.q
    rank = (solution._position(subset, (0,) * size)
            - _offsets(solution.n, q, size)[-2]) // q ** size
    return LocalDistribution(subset, local_distributions(solution, size, tol)[rank])


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


def _offsets(n, q, level):
    """Start of each subset size's block in ``build_index_set`` order, for
    sizes 0 to level + 1; the last entry is the dimension."""
    return np.cumsum([0] + [comb(n, s) * q ** s for s in range(level + 1)])


def _lift_vectors(indices, n, assignments):
    """Row k: the indicator over the index set of the events that
    assignment k satisfies."""
    values = _value_table(indices, n)
    x = np.asarray(assignments)[:, None, :]
    return ((values < 0) | (values == x)).all(axis=2).astype(float)


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
    return _offsets(n, q, level)[size] + rank * q ** size + code


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

    n_events = _offsets(n, q, level)[level]
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
    d = int(_offsets(n, q, level)[-1])
    if d > index_cap:
        raise CapacityError(
            f"level {level} too high for n={n}: index set size {d} exceeds "
            f"cap {index_cap}")
    indices = build_index_set(n, q, level)
    constraints = _constraint_operator(n, q, level, instance.weights_array,
                                       instance.cardinality.as_floats())

    # objective <C, G> = c . G[0, :], halves on (0, p) and (p, 0)
    c = _payoff_vector(instance, level)
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
    vec = _lift_vectors(indices, instance.n, [assignment])[0]
    return MomentSolution(level, instance.n, instance.q, indices,
                          np.outer(vec, vec),
                          objective_value=instance.evaluate(assignment))


def _payoff_vector(instance: CspInstance, level: int) -> np.ndarray:
    """c over the level's index set with
    E_{S ~ W} sum_beta P_S(beta) mu_S(beta) = c . G[0, :]: entry (S, beta)
    sums weight * payoff over the terms on S."""
    n, q = instance.n, instance.q
    values, coefs = [], []
    for term in instance.payoffs:
        rows = np.full((q ** len(term.scope), n), -1, dtype=np.int8)
        rows[:, term.scope] = list(product(range(q), repeat=len(term.scope)))
        values.append(rows)
        coefs.append(term.weight * np.asarray(term.table, dtype=float))
    return np.bincount(_positions(np.concatenate(values), q, level),
                       weights=np.concatenate(coefs),
                       minlength=_offsets(n, q, level)[-1])


def solution_objective(solution: MomentSolution, instance: CspInstance) -> float:
    """Instance objective evaluated on the solution's local distributions."""
    return float(_payoff_vector(instance, solution.level) @ solution.gram[0])
