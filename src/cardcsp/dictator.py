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
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import CapacityError, CardCspError
from .instance import CspInstance, CUT_TABLE
from .lasserre import MomentSolution, local_distributions
from .rounding import BiasProfile, RoundedAssignment, bias_decompose

R_CAP = 12


def hypercube_labels(R: int) -> np.ndarray:
    """(2^R x R) matrix of +-1 coordinates, lexicographic over values."""
    pts = np.array(list(product((0, 1), repeat=R)), dtype=int)
    return 1 - 2 * pts  # value 0 -> +1


@dataclass
class DictGadget:
    R: int
    eps: float
    vertex_weights: np.ndarray        # (2^R,)
    edge_weights: np.ndarray          # (2^R, 2^R), symmetric, sums to 1
    vertex_marginals: np.ndarray      # per source vertex i: P(x_i = 0)
    source_weights: np.ndarray        # W over source vertices
    provenance: dict

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
        doc = json.loads(text)
        return cls(R=doc["R"], eps=doc["eps"],
                   vertex_weights=np.array(doc["vertex_weights"]),
                   edge_weights=np.array(doc["edge_weights"]),
                   vertex_marginals=np.array(doc["vertex_marginals"]),
                   source_weights=np.array(doc["source_weights"]),
                   provenance=doc["provenance"])


def build_gadget(solution: MomentSolution, instance: CspInstance, eps: float,
                 R: int, provenance: dict | None = None) -> DictGadget:
    """Exact gadget tables; no sampling.

    Per edge, each coordinate pair is drawn from the edge distribution and
    independently resampled from the endpoint marginal with probability
    eps; the R-fold product is an exact tensor power.
    """
    if R > R_CAP:
        need = (4 ** R) * 8
        raise CapacityError(f"R={R} over cap {R_CAP} (edge table would need "
                            f"~{need / 1e9:.1f} GB)")
    if instance.q != 2:
        raise CardCspError("gadget construction supports q = 2 only")
    size = 1 << R
    edge = np.zeros((size, size))
    n = instance.n
    marginals = local_distributions(solution, 1)[:, 0]
    # pair (i, j), i < j, is row rank[i, j] of the size-2 distributions
    rank = np.zeros((n, n), dtype=int)
    rank[np.triu_indices(n, 1)] = np.arange(n * (n - 1) // 2)
    pairs = local_distributions(solution, 2).reshape(-1, 2, 2)
    for term in instance.payoffs:
        if len(term.scope) != 2 or tuple(term.table) != CUT_TABLE:
            raise CardCspError("gadget construction needs cut payoff terms")
        i, j = sorted(term.scope)
        mu_e = pairs[rank[i, j]]
        # noise kernel K(a' -> a) = (1-eps) [a = a'] + eps mu(a)
        K_i = (1 - eps) * np.eye(2) + eps * np.tile([marginals[i],
                                                     1 - marginals[i]], (2, 1))
        K_j = (1 - eps) * np.eye(2) + eps * np.tile([marginals[j],
                                                     1 - marginals[j]], (2, 1))
        nu = K_i.T @ mu_e @ K_j  # perturbed pair distribution over values
        tensor = np.array([[1.0]])
        for _ in range(R):
            tensor = np.kron(tensor, nu)
        edge += term.weight * tensor
    edge = (edge + edge.T) / 2  # cut payoffs are symmetric
    vertex = np.zeros(size)
    w = instance.weights_array
    for i in range(instance.n):
        mu_i = np.array([marginals[i], 1 - marginals[i]])
        prod = np.array([1.0])
        for _ in range(R):
            prod = np.kron(prod, mu_i)
        vertex += w[i] * prod
    return DictGadget(R=R, eps=eps, vertex_weights=vertex, edge_weights=edge,
                      vertex_marginals=marginals, source_weights=w,
                      provenance=provenance or {})


def dict_value(gadget: DictGadget, F) -> float:
    """0.5 E[1 - F(z) F(z')] over the gadget edge distribution."""
    F = np.asarray(F, dtype=float)
    return float(0.5 * (1.0 - F @ gadget.edge_weights @ F))


def gadget_balance(gadget: DictGadget, F) -> float:
    F = np.asarray(F, dtype=float)
    return float(gadget.vertex_weights @ F)


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

    def check(self, value_slack=1e-9, balance_tol=1e-9):
        return (self.min_dictator_value >= self.sdp_value - 2 * self.eps - value_slack
                and self.max_abs_balance <= balance_tol)


def completeness(gadget: DictGadget, sdp_value: float,
                 value_slack=1e-9, balance_tol=1e-9) -> CompletenessReport:
    """Min dictator value and max dictator balance, checked against
    val - 2 eps and exact balance."""
    values = []
    balances = []
    for ell in range(gadget.R):
        F = dictator(gadget.R, ell)
        values.append(dict_value(gadget, F))
        balances.append(abs(gadget_balance(gadget, F)))
    worst = int(np.argmin(values))
    report = CompletenessReport(
        min_dictator_value=float(min(values)),
        max_abs_balance=float(max(balances)),
        sdp_value=float(sdp_value),
        eps=gadget.eps,
        ok=True,
        worst_dictator=worst,
    )
    report.ok = report.check(value_slack, balance_tol)
    return report


def _coordinate_split(R: int, ell: int, p0: float):
    """The cube points with coordinate ell at value 0 (a mask), and at each
    of them the product-measure weight of the other coordinates, with
    P(value 0) = p0 per coordinate."""
    labels = hypercube_labels(R)
    side0 = labels[:, ell] == 1
    rest = np.delete(labels[side0], ell, axis=1)
    return side0, np.prod(np.where(rest == 1, p0, 1 - p0), axis=1)


def influence(F, ell: int, marginal: float, R: int | None = None) -> float:
    """E over the other coordinates of the variance along coordinate ell,
    under the product measure with P(value 0) = marginal per coordinate."""
    F = np.asarray(F, dtype=float)
    if R is None:
        R = int(round(np.log2(F.size)))
    p0 = marginal
    side0, weights = _coordinate_split(R, ell, p0)
    var = p0 * (1 - p0) * (F[side0] - F[~side0]) ** 2
    return float(weights @ var)


@dataclass
class SoundnessReport:
    tau: float
    mode: str
    max_value: float | None
    witness: np.ndarray | None
    candidates: int
    empty: bool
    rows: list  # (function id, balance, max influence, value) for kept ones

    def to_csv(self):
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["function_id", "balance", "max_influence", "value"])
        for row in self.rows:
            writer.writerow(row)
        return out.getvalue()


def soundness_enumerate(gadget: DictGadget, tau: float,
                        mode: str = "boolean_exhaustive",
                        balance_tol: float = 1e-9,
                        grid_points: int = 5) -> SoundnessReport:
    """Max gadget value over balanced functions with all influences <= tau
    under every source-vertex measure.

    Influences are computed for the balanced functions only, and the
    admitted ones are scored together as 0.5 (1 - F E F^T) row by row.  A
    row's function id is its index in the full enumeration.
    """
    R = gadget.R
    size = 1 << R
    if mode == "boolean_exhaustive":
        if R > 4:
            raise CapacityError("boolean_exhaustive requires R <= 4")
        count = 1 << size
        codes = np.arange(count, dtype=np.int64)
        F_all = 1.0 - 2.0 * ((codes[:, None] >> np.arange(size)[None, :]) & 1)
    elif mode == "grid":
        if R > 2:
            raise CapacityError("grid mode requires R <= 2")
        mesh = np.linspace(-1.0, 1.0, grid_points)
        F_all = np.array(list(product(mesh, repeat=size)))
    else:
        raise CardCspError(f"unknown mode {mode!r}")

    balances = F_all @ gadget.vertex_weights
    balanced = np.flatnonzero(np.abs(balances) <= balance_tol)
    F = F_all[balanced]
    # influence filter under every distinct vertex measure
    distinct = np.unique(np.round(gadget.vertex_marginals, 12))
    max_inf = np.zeros(balanced.size)
    for p0 in distinct:
        for ell in range(R):
            side0, weights = _coordinate_split(R, ell, p0)
            diff = F[:, side0] - F[:, ~side0]
            inf_here = p0 * (1 - p0) * (diff ** 2 @ weights)
            np.maximum(max_inf, inf_here, out=max_inf)
    low = max_inf <= tau + 1e-12

    if not low.any():
        return SoundnessReport(tau=tau, mode=mode, max_value=None, witness=None,
                               candidates=0, empty=True, rows=[])
    kept = balanced[low]
    F = F[low]
    values = 0.5 * (1.0 - ((F @ gadget.edge_weights) * F).sum(axis=1))
    best = int(np.argmax(values))
    rows = list(zip(kept.tolist(), balances[kept].tolist(),
                    max_inf[low].tolist(), values.tolist()))
    return SoundnessReport(tau=tau, mode=mode, max_value=float(values[best]),
                           witness=F[best], candidates=int(kept.size),
                           empty=False, rows=rows)


# -- function-driven rounding (Round_F) ------------------------------------

def clamp(x):
    """Piecewise-linear truncation to [-1, 1]; identity inside, Lipschitz 1."""
    return np.clip(x, -1.0, 1.0)


def biased_coefficients(F, mu: float, R: int) -> np.ndarray:
    """Coefficients of F in the orthonormal basis chi(x) = (x - mu)/sigma
    of the biased product measure; returned indexed by subset bitmask."""
    sigma = np.sqrt(max(0.0, 1.0 - mu * mu))
    p0 = (1 + mu) / 2
    coeffs = np.asarray(F, dtype=float).copy()
    labels = np.array([1.0, -1.0])
    chi = (labels - mu) / sigma if sigma > 0 else np.zeros(2)
    basis = np.array([[p0, 1 - p0],                       # E[. ]
                      [p0 * chi[0], (1 - p0) * chi[1]]])  # E[. chi]
    coeffs = coeffs.reshape((2,) * R)
    for axis in range(R):
        coeffs = np.tensordot(basis, coeffs, axes=([1], [axis]))
        coeffs = np.moveaxis(coeffs, 0, axis)
    return coeffs.reshape(-1)


def evaluate_noisy_polynomial(coeffs, gauss_chi, eps: float, R: int) -> float:
    """Evaluate T_{1-eps} of the polynomial at standardized Gaussian inputs:
    degree-d coefficients are scaled by (1-eps)^d."""
    total = 0.0
    for mask in range(1 << R):
        c = coeffs[mask]
        if c == 0.0:
            continue
        deg = bin(mask).count("1")
        term = c * (1 - eps) ** deg
        for ell in range(R):
            if mask & (1 << (R - 1 - ell)):
                term *= gauss_chi[ell]
        total += term
    return total


def round_with_function(solution: MomentSolution, instance: CspInstance,
                        F, eps: float, seed: int, R: int | None = None,
                        profile: BiasProfile | None = None):
    """Round an SDP solution with a cut function on the hypercube.

    Per vertex: expand F in that vertex's biased basis, damp degree-d terms
    by (1-eps)^d, evaluate at shared Gaussian surrogate coordinates, clamp
    to [-1, 1], then draw the +-1 label with the matching bias.
    """
    F = np.asarray(F, dtype=float)
    if R is None:
        R = int(round(np.log2(F.size)))
    if R > R_CAP:
        raise CapacityError(f"R={R} over cap {R_CAP}")
    if profile is None:
        profile = bias_decompose(solution)
    rng = np.random.default_rng(seed)
    r = profile.w.shape[1]
    zeta = rng.standard_normal((R, r))
    wbar = profile.wbar
    p_star = np.zeros(profile.n)
    for i in range(profile.n):
        mu_i = profile.mu[i]
        if profile.degenerate[i]:
            # deterministic vertex: F restricted to its point-mass string
            point = 0 if mu_i >= 0 else (1 << R) - 1
            p_star[i] = clamp(F[point])
            continue
        coeffs = biased_coefficients(F, mu_i, R)
        gauss_chi = zeta @ wbar[i]  # standardized surrogates per coordinate
        p = evaluate_noisy_polynomial(coeffs, gauss_chi, eps, R)
        p_star[i] = clamp(p)
    labels = np.where(rng.random(profile.n) < (1 + p_star) / 2, 1, -1)
    out = RoundedAssignment(labels=labels,
                            value=instance.evaluate((1 - labels) // 2),
                            balance=float(instance.weights_array @ labels),
                            seed=seed)
    out.p_star = p_star
    return out
