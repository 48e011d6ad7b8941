"""Dictatorship-test gadget built from a 2-round solution: exact edge and
vertex weight tables on {+-1}^R, completeness and soundness enumeration,
influences, the noise operator, and the function-driven rounding scheme.

Vertices of the hypercube are indexed 0..2^R-1 in row-major lexicographic
order over domain values; bit 0 of a coordinate means label +1.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import cache, partial, reduce
from itertools import product

import numpy as np

from .errors import CapacityError, CardCspError, _admit_int, _admit_real
from .instance import CspInstance, CUT_TABLE, _document, _numbers
from .lasserre import MomentSolution, _check_same_shape, local_distributions
from .rounding import RoundedAssignment, bias_decompose

R_CAP = 12  # the edge table holds 4^R entries
VALUE_SLACK = 1e-9  # rounding slack on the completeness bound val - 2 eps
_BALANCE_TOL = 1e-9  # |E[F]| a function may have and count as balanced
_GRID_POINTS = 5    # values per cube point in the grid soundness mode


def _dimension(F) -> int:
    """R of functions F (..., 2^R) on the cube, R >= 1."""
    size = np.shape(F)[-1] if np.ndim(F) else 0
    R = size.bit_length() - 1
    if R < 1 or size != 1 << R:
        raise CardCspError(f"a function table needs 2^R entries with R >= 1, "
                           f"got {size}")
    return R


def hypercube_labels(R: int) -> np.ndarray:
    """(2^R x R) matrix of +-1 coordinates, lexicographic over values."""
    pts = np.array(list(product((0, 1), repeat=R)), dtype=int)
    return 1 - 2 * pts  # value 0 -> +1


def _check_cube(R, eps):
    """A gadget's R, an int >= 1 (above ``R_CAP``, ``CapacityError``), and
    eps, a real in [0, 1]."""
    _admit_int("R", R, 1, cap=R_CAP)
    _admit_real("eps", eps, 0, 1, "[]")


@dataclass
class DictGadget:
    R: int
    eps: float
    vertex_weights: np.ndarray        # (2^R,)
    edge_weights: np.ndarray          # (2^R, 2^R), symmetric, sums to 1
    vertex_marginals: np.ndarray      # per source vertex i: P(x_i = 0)
    source_weights: np.ndarray        # W over source vertices
    provenance: dict

    def __post_init__(self):
        _check_cube(self.R, self.eps)
        self.eps = float(self.eps)  # so an int eps reads back the same bytes
        size = 1 << self.R
        if (np.shape(self.vertex_weights) != (size,)
                or np.shape(self.edge_weights) != (size, size)):
            raise CardCspError(f"the R={self.R} cube needs {size} vertex "
                               f"weights and {size} x {size} edge weights")
        sources = np.shape(self.source_weights)
        if sources in ((), (0,)) or np.shape(self.vertex_marginals) != sources:
            raise CardCspError("vertex marginals and source weights need "
                               "one entry per source vertex")
        if not isinstance(self.provenance, dict):
            raise CardCspError("provenance must be an object")

    def to_json(self):
        return json.dumps({
            "schema": "cardcsp.gadget/1",
            "R": self.R,
            "eps": self.eps,
            "vertex_weights": [float(v) for v in self.vertex_weights],
            "edge_weights": [[float(v) for v in row] for row in self.edge_weights],
            "vertex_marginals": [float(v) for v in self.vertex_marginals],
            "source_weights": [float(v) for v in self.source_weights],
            "provenance": self.provenance,
        })

    @classmethod
    def from_json(cls, text):
        """Read ``to_json`` text; a malformed document raises ParseError."""
        real = partial(_admit_real, "gadget table entry")
        with _document(text, "cardcsp.gadget/1", "gadget") as doc:
            return cls(R=doc["R"], eps=doc["eps"],
                       vertex_weights=_numbers(doc["vertex_weights"], real),
                       edge_weights=_numbers(doc["edge_weights"],
                                             partial(_numbers, read=real)),
                       vertex_marginals=_numbers(doc["vertex_marginals"], real),
                       source_weights=_numbers(doc["source_weights"], real),
                       provenance=doc["provenance"])


def build_gadget(solution: MomentSolution, instance: CspInstance, eps: float,
                 R: int, provenance: dict | None = None) -> DictGadget:
    """Exact gadget tables; no sampling.

    Per edge, each coordinate pair is drawn from the edge distribution and
    independently resampled from the endpoint marginal with probability
    eps; the R-fold product is an exact tensor power.
    """
    _check_cube(R, eps)
    if instance.q != 2:
        raise CardCspError("gadget construction supports q = 2 only")
    _check_same_shape(solution, instance)
    size = 1 << R
    edge = np.zeros((size, size))
    n = instance.n
    singles = local_distributions(solution, 1)
    # noise kernel K_i(a' -> a) = (1-eps) [a = a'] + eps mu_i(a)
    kernels = (1 - eps) * np.eye(2) + eps * singles[:, None, :]
    # pair (i, j), i < j, is row rank[i, j] of the size-2 distributions
    rank = np.zeros((n, n), dtype=int)
    rank[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)
    pairs = local_distributions(solution, 2).reshape(-1, 2, 2)
    for term in instance.payoffs:
        if len(term.scope) != 2 or tuple(term.table) != CUT_TABLE:
            raise CardCspError("gadget construction needs cut payoff terms")
        i, j = sorted(term.scope)
        # perturbed pair distribution over values
        nu = kernels[i].T @ pairs[rank[i, j]] @ kernels[j]
        edge += term.weight * reduce(np.kron, [nu] * R)
    edge = (edge + edge.T) / 2  # cut payoffs are symmetric
    vertex = np.zeros(size)
    w = instance.weights_array
    for i in range(n):
        vertex += w[i] * reduce(np.kron, [singles[i]] * R)
    return DictGadget(R=R, eps=eps, vertex_weights=vertex, edge_weights=edge,
                      vertex_marginals=singles[:, 0], source_weights=w,
                      provenance=provenance or {})


def _per_function(x):
    """A float for one function, the array for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _on_cube(gadget: DictGadget, F) -> np.ndarray:
    """F as float functions (..., 2^R) on the gadget's cube."""
    F = np.asarray(F, dtype=float)
    if np.shape(F)[-1:] != (1 << gadget.R,):
        raise CardCspError(f"functions on the R={gadget.R} cube need "
                           f"{1 << gadget.R} entries, got shape {np.shape(F)}")
    return F


def dict_value(gadget: DictGadget, F):
    """0.5 E[1 - F(z) F(z')] over the gadget edge distribution, for
    functions F (..., 2^R): a float for one function, an array over the
    leading axes for a stack."""
    F = _on_cube(gadget, F)
    return _per_function(0.5 * (1.0 - ((F @ gadget.edge_weights) * F).sum(axis=-1)))


def gadget_balance(gadget: DictGadget, F):
    """E[F] under the gadget vertex distribution, for functions F (..., 2^R).

    Each function's sum is einsum's dot product over its own row, from
    +0.0: unlike a BLAS matrix product, which may block rows by their
    position, it does not depend on the functions stacked with it, -F gets
    exactly 0.0 - b, and an exact zero is +0.0."""
    return _per_function(np.einsum("...z,z->...", _on_cube(gadget, F),
                                   gadget.vertex_weights))


def dictator(R: int, ell: int) -> np.ndarray:
    return hypercube_labels(R)[:, ell].astype(float)


@dataclass
class CompletenessReport:
    min_dictator_value: float
    max_abs_balance: float
    sdp_value: float
    eps: float
    ok: bool
    worst_dictator: int


def completeness(gadget: DictGadget, sdp_value: float) -> CompletenessReport:
    """Min dictator value and max dictator balance, checked against
    val - 2 eps and exact balance."""
    dictators = hypercube_labels(gadget.R).T.astype(float)  # row ell: F = z_ell
    values = dict_value(gadget, dictators)
    balances = np.abs(gadget_balance(gadget, dictators))
    worst = int(np.argmin(values))
    low, spread, sdp_value = float(values[worst]), float(balances.max()), float(sdp_value)
    return CompletenessReport(
        min_dictator_value=low,
        max_abs_balance=spread,
        sdp_value=sdp_value,
        eps=gadget.eps,
        ok=low >= sdp_value - 2 * gadget.eps - VALUE_SLACK and spread <= _BALANCE_TOL,
        worst_dictator=worst,
    )


def _influence(F, ell: int, p0: float):
    """Influence of coordinate ell on each function of a stack F (..., 2^R):
    the expected squared difference across ell, weighted by the product
    measure with P(value 0) = p0 on the other coordinates, times p0 (1 - p0)."""
    labels = hypercube_labels(_dimension(F))
    side0 = labels[:, ell] == 1
    rest = np.delete(labels[side0], ell, axis=1)
    weights = np.prod(np.where(rest == 1, p0, 1 - p0), axis=1)
    return p0 * (1 - p0) * ((F[..., side0] - F[..., ~side0]) ** 2 @ weights)


def influence(F, ell: int, marginal: float) -> float:
    """E over the other coordinates of the variance along coordinate ell,
    under the product measure with P(value 0) = marginal per coordinate,
    a finite real in [0, 1]."""
    F = np.asarray(F, dtype=float)
    R = _dimension(F)
    _admit_int("ell", ell, 0, R - 1)
    marginal = _admit_real("marginal", marginal, 0, 1, "[]")
    return float(_influence(F, ell, marginal))


@cache
def _boolean_functions(R: int) -> np.ndarray:
    """Every +-1 function on the R-cube, row k the one whose bit z of k is
    set where F(z) = -1: (2^(2^R) x 2^R), read-only, built once per R."""
    size = 1 << R
    codes = np.arange(1 << size, dtype=np.int64)
    table = 1.0 - 2.0 * ((codes[:, None] >> np.arange(size)[None, :]) & 1)
    table.flags.writeable = False
    return table


@dataclass
class SoundnessReport:
    """The admitted functions as four columns in ascending function id;
    ``rows`` builds the (function id, balance, max influence, value) tuples
    from them on demand."""
    tau: float
    mode: str
    max_value: float | None
    witness: np.ndarray | None
    ids: np.ndarray
    balances: np.ndarray
    max_influences: np.ndarray
    values: np.ndarray

    @property
    def candidates(self) -> int:
        return int(self.ids.size)

    @property
    def empty(self) -> bool:
        return not self.ids.size

    @property
    def rows(self):
        return list(zip(self.ids.tolist(), self.balances.tolist(),
                        self.max_influences.tolist(), self.values.tolist()))

    def to_csv(self):
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["function_id", "balance", "max_influence", "value"])
        writer.writerows(self.rows)
        return out.getvalue()


def soundness_enumerate(gadget: DictGadget, tau: float,
                        mode: str = "boolean_exhaustive") -> SoundnessReport:
    """Max gadget value over balanced functions with all influences <= tau
    under every source-vertex measure.  tau is a finite real >= 0 (any
    tau >= 1 admits every balanced function: influences lie in [0, 1]).

    Row N-1-k of the N-row function table (the +-1 table, or the grid's
    symmetric mesh) is -F of row k.  Negation is exact in floating point,
    so -F has F's influences and value, bit for bit, and balance -b: only
    the rows k <= N-1-k are scored, and each admitted one is mirrored to id
    N-1-k with balance 0.0 - b (an exact zero stays +0.0, as the full table
    gives it).  The grid's centre row is its own mirror and is listed once.
    Influences are computed for the balanced rows only, and the admitted
    ones are scored together as 0.5 (1 - F E F^T).  The witness is the
    lowest-id maximizer, always a scored row, returned as a writable copy.
    """
    _admit_real("tau", tau, 0, math.inf, "[)")
    R = gadget.R
    size = 1 << R
    if mode == "boolean_exhaustive":
        if R > 4:
            raise CapacityError("boolean_exhaustive requires R <= 4")
        F_all = _boolean_functions(R)
    elif mode == "grid":
        if R > 2:
            raise CapacityError("grid mode requires R <= 2")
        mesh = np.linspace(-1.0, 1.0, _GRID_POINTS)
        F_all = np.array(list(product(mesh, repeat=size)))
    else:
        raise CardCspError(f"unknown mode {mode!r}")
    last = len(F_all) - 1
    half = F_all[:last // 2 + 1]  # rows k <= last - k

    balances = gadget_balance(gadget, half)
    balanced = np.flatnonzero(np.abs(balances) <= _BALANCE_TOL)
    F = half[balanced]
    # influence filter under every distinct vertex measure
    distinct = np.unique(np.round(gadget.vertex_marginals, 12))
    max_inf = np.zeros(balanced.size)
    for p0 in distinct:
        for ell in range(R):
            np.maximum(max_inf, _influence(F, ell, p0), out=max_inf)
    low = max_inf <= tau + 1e-12
    kept = balanced[low]
    F = F[low]
    values = dict_value(gadget, F)
    if kept.size:
        best = int(np.argmax(values))
        max_value, witness = float(values[best]), F[best].copy()
    else:
        max_value = witness = None
    # the mirrors in ascending id, without a self-mirrored centre row
    back = slice(-2 if kept.size and 2 * kept[-1] == last else -1, None, -1)
    ids = np.concatenate([kept, last - kept[back]])
    balances, max_inf = balances[kept], max_inf[low]
    return SoundnessReport(
        tau=tau, mode=mode, max_value=max_value, witness=witness, ids=ids,
        balances=np.concatenate([balances, 0.0 - balances[back]]),
        max_influences=np.concatenate([max_inf, max_inf[back]]),
        values=np.concatenate([values, values[back]]))


# -- function-driven rounding (Round_F) ------------------------------------

def round_with_function(solution: MomentSolution, instance: CspInstance,
                        F, eps: float, seed: int):
    """Round an SDP solution with a cut function on the hypercube (Round_F).

    With shared Gaussian vectors zeta_ell, vertex i evaluates the multilinear
    extension F~(y) = sum_z F(z) prod_ell (1 + z_ell y_ell)/2 at
    y_i,ell = mu_i + (1-eps) <zeta_ell, w_i>, clips it to [-1, 1] and draws
    label +1 with probability (1 + p*_i)/2.  This is T_{1-eps} of F's
    expansion in vertex i's biased basis at its Gaussian surrogates; a
    degenerate vertex (w_i = 0) reads F at its own corner.
    """
    F = np.asarray(F, dtype=float)
    R = _dimension(F)
    _check_cube(R, eps)
    _admit_int("seed", seed, 0)
    profile = bias_decompose(solution)
    rng = np.random.default_rng(seed)
    zeta = rng.standard_normal((R, profile.w.shape[1]))
    y = profile.mu[:, None] + (1 - eps) * (profile.w @ zeta.T)  # (n, R)
    # weights[i, z] = prod_ell (1 + z_ell y_i,ell)/2
    weights = np.prod((1 + hypercube_labels(R) * y[:, None]) / 2, axis=2)
    p_star = np.clip(weights @ F, -1.0, 1.0)
    labels = np.where(rng.random(profile.n) < (1 + p_star) / 2, 1, -1)
    return RoundedAssignment(labels=labels,
                             value=instance.evaluate((1 - labels) // 2),
                             balance=float(instance.weights_array @ labels),
                             seed=seed)
