"""Level-k moment relaxation for globally constrained CSPs.

The relaxation is a conic program over a single symmetric moment matrix G
indexed by (subset, local assignment) pairs, with the empty index housing
the constant vector.  Its rows say one thing per entry with |S u T| <= k:
G[S, T] equals the moment G[0, S u T], or 0 on clashing assignments
(Laurent 2003).  Every other row is a linear form on row 0 of G:
G[0, 0] = 1, marginalization, and the cardinality constraint on every
conditioning event.  The objective is c . G[0, :] with c the payoff
vector.  ``_layout(n, q, level)`` is the one place the index order, the
reduced basis R, its lift P and T from P = Q T, the rows' shape-only parts,
their part on the block G[R, R] and the solver's scaled basis are derived,
once per shape and each on first use; ``_rows``
adds an instance's cardinality coefficients.  ``_layout`` is also the one
gate for a shape: every entry point, relaxation or moment solution, reaches
it before anything is built, and it refuses an n, q or level that is not a
positive int and an index set over ``INDEX_CAP``.  Feasible points are
exactly the moment solutions: G is PSD and meets every row.
``check_feasibility`` reads the consistency and cardinality violations off
the same rows, on the symmetric part of G read in place.  It certifies PSD
on the reduced block G[R, R]: the block's eigenvalues, plus a Weyl bound
from the residual of the lift G = P G[R, R] P^T, which is never below the
exact violation; when that residual exceeds ``_LIFT_TOL`` it takes the full
d x d spectrum instead, the one d x d copy it makes.

Indices run by subset size, then subset in ``combinations`` order, then
assignment in row-major order, so the level-(k-1) index set is a prefix of
the level-k one.  ``_positions`` is the only map from an index to its
position.  The size-s local distributions are one slice of row 0 of G,
which ``local_distributions`` reads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, combinations, islice, product
from math import comb

import numpy as np

from .errors import (CapacityError, CardCspError, InconsistentSolutionError,
                     _admit_int)
from .instance import CspInstance, _document

PROB_FLOOR = 1e-9  # probabilities below this are treated as zero events
_LIFT_TOL = 1e-12   # largest lift residual the block PSD certificate accepts
DRIFT_TOL = 1e-5   # largest sum or sign error a local distribution may carry

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

    ``level``, ``n`` and ``q`` must be positive ints and ``indices`` must be
    ``build_index_set(n, q, level)``: every reader finds an index
    (S, alpha) at its closed-form position in that order.
    """

    level: int
    n: int
    q: int
    indices: list[MomentIndex]
    gram: np.ndarray
    objective_value: float = float("nan")

    def __post_init__(self):
        indices = _layout(self.n, self.q, self.level).indices
        d = len(indices)
        if tuple(self.indices) != indices:
            raise CardCspError("moment indices must be build_index_set(n, q, "
                               "level), in that order")
        if np.shape(self.gram) != (d, d):
            raise CardCspError(f"gram has shape {np.shape(self.gram)}, "
                               f"expected ({d}, {d})")
        if not np.isfinite(self.gram).all():
            r, c = np.argwhere(~np.isfinite(self.gram))[0]
            raise CardCspError(f"gram entry ({r}, {c}) is "
                               f"{self.gram[r, c]}, not finite")

    def _position(self, subset, assignment) -> int:
        """Position of the index of the event x_S = alpha, S in any order;
        each vertex and value passes the int rule."""
        n, q = self.n, self.q
        subset = [_admit_int("vertex", v, 0, n - 1) for v in subset]
        alpha = [_admit_int("value", a, 0, q - 1) for a in assignment]
        if len(set(subset)) != len(subset):
            raise CardCspError(f"vertices {tuple(subset)} must be distinct")
        if len(alpha) != len(subset):
            raise CardCspError(
                f"assignment {tuple(alpha)} must give each vertex of "
                f"{tuple(subset)} a value")
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
        """Read ``to_json`` text; a malformed document raises ParseError."""
        with _document(text, "cardcsp.moment_solution/1",
                       "moment solution") as doc:
            indices = [(tuple(s), tuple(a)) for s, a in doc["indices"]]
            d = len(indices)
            rows = doc["gram_lower"]
            if [len(row) for row in rows] != list(range(1, d + 1)):
                raise CardCspError("gram_lower must hold rows of length 1 to d")
            entries = [*chain.from_iterable(rows), doc["objective_value"]]
            if not set(map(type, entries)) <= {int, float}:
                raise CardCspError("gram_lower entries and objective_value "
                                   "must be numbers")
            r, c = np.tril_indices(d)
            gram = np.zeros((d, d))
            gram[r, c] = gram[c, r] = entries[:-1]
            return cls(doc["level"], doc["n"], doc["q"], indices, gram,
                       entries[-1])


@dataclass
class LocalDistribution:
    subset: tuple[int, ...]
    probabilities: np.ndarray  # row-major over [q]^subset


def local_distributions(solution: MomentSolution, size: int) -> np.ndarray:
    """mu_S of every subset S of ``size`` vertices, one per row of a
    (C(n, size), q^size) array.

    The rows are one slice of row 0 of G: subsets in ``combinations`` order
    (pairs in ``np.triu_indices`` order), assignments row-major.  Each row
    must sum to 1 and stay nonnegative within ``DRIFT_TOL``; it is then clipped
    and renormalized.
    """
    n, q, level = solution.n, solution.q, solution.level
    _admit_int("subset size", size, 0, level)
    lo, hi = _offsets(n, q, size)[-2:]
    probs = solution.gram[0, lo:hi].reshape(comb(n, size), q ** size)
    drift = np.maximum(0.0, -probs.min(axis=1)) + np.abs(probs.sum(axis=1) - 1.0)
    if (drift > DRIFT_TOL).any():
        worst = int(drift.argmax())
        subset = next(islice(combinations(range(n), size), worst, None))
        raise InconsistentSolutionError(
            f"inconsistent solution: local distribution on {subset} drifts "
            f"by {drift[worst]:.3g}")
    probs = np.clip(probs, 0.0, 1.0)
    return probs / probs.sum(axis=1, keepdims=True)


def local_distribution(solution: MomentSolution, subset) -> LocalDistribution:
    """mu_S: the row of ``local_distributions`` that holds S."""
    subset = tuple(sorted(subset))
    size, q = len(subset), solution.q
    rank = (solution._position(subset, (0,) * size)
            - _offsets(solution.n, q, size)[-2]) // q ** size
    return LocalDistribution(subset, local_distributions(solution, size)[rank])


# -- conic program ---------------------------------------------------------

@dataclass(frozen=True)
class ConstraintOperator:
    """The affine rows of the relaxation, in order: the unit row, the
    consistency rows, marginalization and cardinality.

    Consistency row 1 + i reads G[r[i], c[i]] - G[0, tie[i]] = 0, with
    1 <= r <= c, and tie[i] = -1 where the two assignments clash and the
    entry is 0.  Every other row is a linear form on row 0 of G: ``forms``
    is (rows, columns, coefficients), one term each, none on the consistency
    rows and no (row, column) pair twice.  ``event`` holds, for each
    cardinality row, the gram column of its conditioning event, and -1 on
    every other row.  Every array is read-only, and all but the coefficients
    are the shape's ``_layout`` arrays.
    """

    r: np.ndarray
    c: np.ndarray
    tie: np.ndarray
    forms: tuple[np.ndarray, np.ndarray, np.ndarray]
    b: np.ndarray
    event: np.ndarray

    def __len__(self):
        return len(self.b)

    def residual(self, gram) -> np.ndarray:
        """Each row's value on the symmetric part of G, minus b."""
        row0 = (gram[0] + gram[:, 0]) / 2
        rows, columns, coefs = self.forms
        out = np.bincount(rows, weights=coefs * row0[columns],
                          minlength=len(self.b)) - self.b
        # a clash reads the appended 0
        out[1:1 + len(self.r)] += ((gram[self.r, self.c] + gram[self.c, self.r])
                                   / 2 - np.append(row0, 0.0)[self.tie])
        return out


@dataclass(frozen=True)
class ConicProgram:
    """Maximize (or minimize) c . G[0, :] over PSD G meeting the rows."""

    dim: int
    indices: list[MomentIndex]
    constraints: ConstraintOperator
    c: np.ndarray  # payoff vector over the index set
    level: int
    n: int
    q: int
    sense: str = "max"


INDEX_CAP = 6000  # largest index set of any relaxation or moment solution


def _value_table(indices, n):
    """Row r holds index r's assignment on its subset and -1 elsewhere."""
    sizes = np.fromiter((len(subset) for subset, _ in indices), dtype=np.intp,
                        count=len(indices))
    rows = np.repeat(np.arange(len(indices)), sizes)
    columns = np.fromiter(chain.from_iterable(subset for subset, _ in indices),
                          dtype=np.intp, count=rows.size)
    assigned = np.fromiter(chain.from_iterable(alpha for _, alpha in indices),
                           dtype=np.int8, count=rows.size)
    values = np.full((len(indices), n), -1, dtype=np.int8)
    values[rows, columns] = assigned
    return values


def _offsets(n, q, level):
    """Start of each subset size's block in ``build_index_set`` order, for
    sizes 0 to level + 1; the last entry is the dimension."""
    return np.cumsum([0] + [comb(n, s) * q ** s for s in range(level + 1)])


def _lift_vectors(values, assignments):
    """Row k: the indicator over the index set of the events that
    assignment k satisfies, from the index set's value table."""
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


def _reduced_basis(values, q):
    """Positions R of the indices whose values all lie below q - 1, and the
    lift P (d x |R|, dense) with G = P G[R, R] P^T on every moment solution,
    from the index set's value table.

    P is inclusion-exclusion: each value q - 1 expands as
    [x_j = q - 1] = 1 - sum_{a < q - 1} [x_j = a], so P[(S, alpha), (T, beta)]
    is (-1)^{|{j in T : alpha_j = q - 1}|} when T drops only variables valued
    q - 1 and beta agrees with alpha below q - 1, and zero otherwise.
    """
    red = np.flatnonzero((values < q - 1).all(axis=1))
    top = values == q - 1
    # one-hot over -1, 0, ..., q - 2; values q - 1 match anything
    kinds = np.arange(-1, q - 1)
    full = (values[:, :, None] == kinds).reshape(len(values), -1)
    sub = full[red]
    matches = full.astype(float) @ sub.T.astype(float)
    fits = matches == (~top).sum(axis=1)[:, None]
    flips = top.astype(float) @ (values[red] >= 0).T.astype(float)
    return red, np.where(fits, 1.0 - 2.0 * (flips.astype(np.int64) & 1), 0.0)


def _consistency_pairs(values, q, level):
    """(r, c, tie): each entry r <= c, r > 0, row-major, whose subsets span
    at most ``level`` variables, and its canonical entry (0, merged), or -1
    where the assignments clash."""
    d, n = values.shape
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
    tie = np.full(len(r), -1)
    tie[fits] = _positions(np.maximum(values[r[fits]], values[c[fits]]), q,
                           level)
    return r, c, tie


def _read_only(*arrays):
    """The arrays, made read-only."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


class _Layout:
    """What the index order of one (n, q, level) alone determines; every
    array is read-only.  The index list, its value table and offsets are
    built with the record, the reduced basis, the shape-only rows and the
    block's rows on first use: checking a solution's indices needs none."""

    def __init__(self, n, q, level):
        self.q, self.level = q, level
        self.indices = tuple(build_index_set(n, q, level))
        self.values, self.offsets = _read_only(_value_table(self.indices, n),
                                               _offsets(n, q, level))

    @cached_property
    def basis(self):
        """R, the lift P (dense), and T from P = Q T."""
        red, P = _reduced_basis(self.values, self.q)
        return _read_only(red, P, np.linalg.qr(P, mode="r"))

    @cached_property
    def rows(self):
        """The shape-only parts of ``ConstraintOperator``: r, c, tie, b and
        event; the vertex j each marginalization row adds to its event; and
        (rows, columns) of the row-0 form coefficients ``_rows`` writes.

        Rows, in order: the unit row G[0,0] = 1, consistency, marginalization
        by (event, j), cardinality by (event, v); events are the indices below
        full size.
        """
        values, q, level = self.values, self.q, self.level
        r, c, tie = _consistency_pairs(values, q, level)
        n_events = self.offsets[level]
        ev, j = np.nonzero(values[:n_events] < 0)
        ext = np.empty((len(ev), q), dtype=np.int64)
        for a in range(q):
            grown = values[ev]
            grown[np.arange(len(ev)), j] = a
            ext[:, a] = _positions(grown, q, level)
        marg = 1 + len(r) + np.arange(len(ev))
        card = 1 + len(r) + len(ev) + np.arange(n_events * q).reshape(n_events, q)
        events = np.arange(n_events)
        # the forms on row 0: unit, marginalization and cardinality
        at = (np.concatenate([[0], marg, np.repeat(marg, q), card.ravel(),
                              card[ev].ravel()]),
              np.concatenate([[0], ev, ext.ravel(), np.repeat(events, q),
                              ext.ravel()]))
        m = card[-1, -1] + 1
        b = np.zeros(m)
        b[0] = 1.0
        event = np.full(m, -1)
        event[card] = events[:, None]
        _read_only(r, c, tie, b, event, j, *at)
        return r, c, tie, b, event, j, at

    @cached_property
    def block(self):
        """The rows on the block G[R, R]: each entry's class, row-major (its
        canonical position in R, k = |R| on a clash, k + 1 if free), the k
        class sizes, the form rows whose columns all lie in R, and their
        terms: the terms' positions in the forms and their flat positions in
        the dense (form rows x k) matrix B of those rows on R."""
        red = self.basis[0]
        r, c, tie, *_, (at_rows, at_cols) = self.rows
        k = len(red)
        where = np.full(len(self.indices), -1)
        where[red] = np.arange(k)
        inside = (where[r] >= 0) & (where[c] >= 0)  # so are S u T and tie
        r, c, tie = where[r[inside]], where[c[inside]], tie[inside]
        cls = np.full((k, k), k + 1)
        cls[0] = cls[:, 0] = np.arange(k)
        cls[r, c] = cls[c, r] = np.where(tie < 0, k, where[tie])
        cls = cls.reshape(-1)
        forms = np.setdiff1d(at_rows, at_rows[where[at_cols] < 0])
        terms = np.flatnonzero(np.isin(at_rows, forms))
        place = (np.searchsorted(forms, at_rows[terms]) * k
                 + where[at_cols[terms]])
        return _read_only(cls, np.bincount(cls)[:k], forms, terms, place)

    @cached_property
    def scaled(self):
        """The basis ``sdp_solver`` works in, M with G' = G[R, R] = W M W^T:
        the lift L = P W, so G = L M L^T; T W, so ||L D L^T|| =
        ||T W D W^T T^T||; each entry of M's class, row-major (as in
        ``block``) and amplitude a, so a constrained entry is a m_U; the map
        C from the class values m to G'[0, R] = C m (None for C = I); the
        parity |S| mod 2 of each index of R (None: no label flip); and each
        index's position under the flip x -> 1 - x.

        For q = 2, M[S, T] = 2^-(|S|+|T|)/2 E[chi_S chi_T] with chi_S =
        prod_{i in S} (1 - 2 x_i): the parity basis, scaled so that M's
        diagonal, 2^-|S|, is G''s scale.  [x_S = 0] = prod (1 + chi_i)/2
        gives W[S, T] = 2^-|S| 2^(|T|/2) [T in S] and C[U, V] = 2^-|U|
        [V in U]; an entry with |S u T| <= k is 2^-(|S|+|T|)/2 m_{S ^ T},
        m_U = E[chi_U].  For q >= 3, M = G' (W = I, amplitude 1)."""
        red, P, T = self.basis
        cls = self.block[0]
        if self.q != 2:
            return _read_only(P, T, cls, np.ones(len(cls))) + (None,) * 3
        k = len(red)
        inside = (self.values[red] >= 0).astype(float)
        size = inside.sum(axis=1)
        C = ((1.0 - inside) @ inside.T == 0) * 2.0 ** -size[:, None]
        W = C * 2.0 ** (size / 2)
        at = np.flatnonzero(cls < k)  # no clash: every value of R is 0
        r, c = np.divmod(at, k)
        where = np.full(len(self.indices), -1)
        where[red] = np.arange(k)
        cls = cls.copy()
        cls[at] = where[_positions(np.where(inside[r] != inside[c], 0, -1),
                                   2, self.level)]
        amp = 2.0 ** -((size[:, None] + size) / 2)
        flip = _positions(np.where(self.values >= 0, 1 - self.values, -1), 2,
                          self.level)
        return _read_only(P @ W, T @ W, cls, amp.ravel(), C,
                          size.astype(int) % 2, flip)


def _layout(n, q, level) -> _Layout:
    """The layout of (n, q, level), built once per shape; the one gate for a
    shape (positive ints, not 4.0 or True; at most ``INDEX_CAP`` indices)."""
    for name, value in (("n", n), ("q", q), ("level", level)):
        _admit_int(name, value, 1)
    d = 0  # the closed form, summed in Python ints and only up to the cap
    for s in range(min(n, level) + 1):
        d += comb(n, s) * q ** s
        if d > INDEX_CAP:
            raise CapacityError(f"level {level} too high for n={n}, q={q}: "
                                f"index set over cap {INDEX_CAP}")
    return _cached_layout(n, q, level)


@lru_cache(maxsize=8)  # more shapes than a suite or benchmark run cycles through
def _cached_layout(n, q, level) -> _Layout:
    return _Layout(n, q, level)


def _rows(instance: CspInstance, level: int) -> ConstraintOperator:
    """The instance's rows: the layout's, with the cardinality coefficients
    of its weights and target."""
    layout, q = _layout(instance.n, instance.q, level), instance.q
    r, c, tie, b, event, j, at = layout.rows
    w = np.asarray(instance.vertex_weights, dtype=float)
    onehot = layout.values[:layout.offsets[level], :, None] == np.arange(q)
    base = (onehot * w[:, None]).sum(axis=1) - instance.cardinality.as_floats()
    coefs = np.concatenate([[1.0], np.full(len(j), -1.0), np.ones(len(j) * q),
                            base.ravel(), np.repeat(w[j], q)])
    return ConstraintOperator(r, c, tie, (*at, *_read_only(coefs)), b, event)


def build_relaxation(instance: CspInstance, level: int = 2) -> ConicProgram:
    """Build the level-k relaxation of an instance as a conic program."""
    n, q = instance.n, instance.q
    _admit_int("level", level, 2)
    indices = _layout(n, q, level).indices
    return ConicProgram(dim=len(indices), indices=list(indices),
                        constraints=_rows(instance, level),
                        c=_payoff_vector(instance, level), level=level, n=n,
                        q=q, sense=instance.sense)


# -- feasibility checking --------------------------------------------------

@dataclass
class FeasibilityReport:
    psd_violation: float
    consistency_violation: float
    cardinality_violation: float

    def passes(self, tol=1e-6):
        """Every violation at most ``tol``.  A solve that ends ``optimal``
        need not pass at 1e-6: the solver's test is on scaled, lifted
        residuals (gnp12 at level 3 ends ``optimal`` with psd_violation
        5.1e-6)."""
        return (self.psd_violation <= tol
                and self.consistency_violation <= tol
                and self.cardinality_violation <= tol)


def check_feasibility(solution: MomentSolution,
                      instance: CspInstance) -> FeasibilityReport:
    """Report the largest PSD / consistency / cardinality violations of the
    symmetric part of G.

    Consistency is the largest residual of the unit, consistency and
    marginalization rows.  Cardinality is checked in conditional form: each
    cardinality residual over the probability of its event, on events above
    ``PROB_FLOOR``.  The PSD violation is the reduced block's eigenvalues
    plus a Weyl bound from the residual of the lift G = P G[R, R] P^T
    (``_psd_violation``): never below the exact max(0, -lambda_min), and
    within the residual of it.  When the residual exceeds ``_LIFT_TOL`` it
    is the full d x d ``eigvalsh`` value.
    """
    _check_same_shape(solution, instance)
    gram = solution.gram
    ops = _rows(instance, solution.level)
    resid = np.abs(ops.residual(gram))
    card = ops.event >= 0
    consistency = float(resid[~card].max())
    events = ops.event[card]
    p_event = (gram[0, events] + gram[events, 0]) / 2
    live = p_event > PROB_FLOOR
    cardinality = float((resid[card][live] / p_event[live]).max(initial=0.0))
    psd_violation = _psd_violation(
        gram, _layout(solution.n, solution.q, solution.level))
    return FeasibilityReport(psd_violation, consistency, cardinality)


def _psd_violation(gram, layout) -> float:
    """max(0, -lambda_min(sym)) for the symmetric part sym of G or, when sym
    is the lift of its block, an upper bound on it within ``_LIFT_TOL``.

    With R, P and T from the layout and A = sym[R, R], write
    sym = P A P^T + E.  P = Q T with orthonormal Q, so P A P^T has the
    eigenvalues of T A T^T and zeros, and by Weyl lambda_min(sym) is at
    least lambda_min(P A P^T) - eps, where eps, the largest absolute row
    sum of the symmetric E, bounds ||E||_2.  This holds for any P: a G
    outside the lift's image shows as a large eps.  When eps exceeds
    ``_LIFT_TOL`` (noisy, inconsistent or external input) the full d x d
    spectrum of sym is computed instead, the only d x d copy made.
    """
    red, lift, T = layout.basis
    A = gram[np.ix_(red, red)]
    A = (A + A.T) / 2
    APt = np.ascontiguousarray((lift @ A).T)  # A P^T, as A is symmetric
    # sym and E in row blocks read off G, so no second d x d array is formed;
    # E is symmetric, so each block is formed up to its diagonal only and its
    # part left of the diagonal also counts for the rows it mirrors; row i of
    # P is 0 past the columns of R at or before i (P reads subsets only)
    d = len(gram)
    block = max(1, (1 << 18) // d)
    sums = np.zeros(d)
    for lo in range(0, d, block):
        hi = min(lo + block, d)
        k = np.searchsorted(red, hi)
        E = np.abs((gram[lo:hi, :hi] + gram[:hi, lo:hi].T) / 2
                   - lift[lo:hi, :k] @ APt[:k, :hi])
        sums[lo:hi] += E.sum(axis=1)
        sums[:lo] += E[:, :lo].sum(axis=0)
    eps = float(sums.max())
    if eps > _LIFT_TOL:
        sym = gram + gram.T
        sym /= 2
        return max(0.0, float(-np.linalg.eigvalsh(sym).min()))
    low = float(np.linalg.eigvalsh(T @ A @ T.T)[0])
    return max(0.0, eps - min(0.0, low))


def integral_lift(instance: CspInstance, assignment, level: int = 2) -> MomentSolution:
    """Moment matrix of a deterministic assignment."""
    assignment = tuple(int(a) for a in assignment)
    value = instance.evaluate(assignment)  # refuses one that does not fit
    layout = _layout(instance.n, instance.q, level)
    vec = _lift_vectors(layout.values, [assignment])[0]
    return MomentSolution(level, instance.n, instance.q, list(layout.indices),
                          np.outer(vec, vec), objective_value=value)


def _payoff_vector(instance: CspInstance, level: int) -> np.ndarray:
    """c over the level's index set with
    E_{S ~ W} sum_beta P_S(beta) mu_S(beta) = c . G[0, :]: entry (S, beta)
    sums weight * payoff over the terms on S.  The rows are written one
    arity at a time; a bin holds terms of one arity only, so each still
    sums its terms in instance order."""
    n, q = instance.n, instance.q
    values, coefs = [], []
    for k in sorted({len(t.scope) for t in instance.payoffs}):
        terms = [t for t in instance.payoffs if len(t.scope) == k]
        m = len(terms)
        scopes = np.array([t.scope for t in terms], dtype=int).reshape(m, 1, k)
        rows = np.full((m, q ** k, n), -1, dtype=np.int8)
        rows[np.arange(m)[:, None, None], np.arange(q ** k)[:, None],
             scopes] = list(product(range(q), repeat=k))
        values.append(rows.reshape(-1, n))
        coefs.append((np.array([t.weight for t in terms])[:, None]
                      * np.array([t.table for t in terms], dtype=float)).ravel())
    return np.bincount(_positions(np.concatenate(values), q, level),
                       weights=np.concatenate(coefs),
                       minlength=_offsets(n, q, level)[-1])


def solution_objective(solution: MomentSolution, instance: CspInstance) -> float:
    """Instance objective evaluated on the solution's local distributions."""
    _check_same_shape(solution, instance)
    return float(_payoff_vector(instance, solution.level) @ solution.gram[0])


def _check_same_shape(solution: MomentSolution, instance: CspInstance):
    """Refuse a solution whose n or q is not the instance's."""
    if (solution.n, solution.q) != (instance.n, instance.q):
        raise CardCspError(
            f"solution has n={solution.n}, q={solution.q} but the instance "
            f"has n={instance.n}, q={instance.q}")
