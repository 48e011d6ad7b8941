"""Bias-preserving Gaussian threshold rounding and balance repair.

Each vertex vector splits as v_i = mu_i I + w_i.  One shared Gaussian
vector is projected on the normalized orthogonal parts and compared against
the threshold Phi^{-1}((1 + mu_i)/2), so every vertex keeps its SDP bias
exactly.  A greedy least-degree repair step then restores the cardinality
target.  ``pipeline`` rounds, repairs and scores all its trials as one
(trials x n) label matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import CardCspError
from .instance import CspInstance
from .lasserre import (MomentSolution, _positions, local_distributions,
                       solution_objective)
from .sdp_solver import SolveReport

DEGENERATE_TOL = 1e-12


@dataclass
class BiasProfile:
    """Per-variable decomposition v_i = mu_i I + w_i."""

    mu: np.ndarray            # biases in [-1, 1]
    w: np.ndarray             # orthogonal components, coordinates (n x r)
    degenerate: np.ndarray    # |mu_i| = 1 within tolerance

    @property
    def n(self):
        return self.mu.size

    @property
    def wbar(self):
        """Normalized directions; zero rows for degenerate variables."""
        denom = np.sqrt(np.clip(1.0 - self.mu**2, 0.0, None))
        out = np.zeros_like(self.w)
        ok = ~self.degenerate
        out[ok] = self.w[ok] / denom[ok, None]
        return out

    def thresholds(self):
        return threshold(self.mu)


def threshold(mu):
    """Phi^{-1}(mu/2 + 1/2); +-inf sentinels at mu = +-1."""
    mu = np.asarray(mu, dtype=float)
    scalar = mu.ndim == 0
    mu = np.atleast_1d(mu)
    if np.any((mu < -1 - 1e-12) | (mu > 1 + 1e-12)):
        raise CardCspError("bias out of [-1, 1]")
    with np.errstate(divide="ignore"):
        t = ndtri(np.clip((1.0 + mu) / 2.0, 0.0, 1.0))
    t[mu >= 1.0] = np.inf
    t[mu <= -1.0] = -np.inf
    return float(t[0]) if scalar else t


def bias_decompose(solution: MomentSolution, psd_tol: float = 1e-5) -> BiasProfile:
    """Factor the I-orthogonal correlation matrix into explicit coordinates."""
    n = solution.n
    # +-1 convention, value 0 -> +1: E[x_i] and E[x_i x_j]
    mu1 = local_distributions(solution, 1)
    mu2 = local_distributions(solution, 2)
    mu = mu1[:, 0] - mu1[:, 1]
    second = np.ones((n, n))
    i, j = np.triu_indices(n, 1)
    second[i, j] = second[j, i] = mu2[:, 0] + mu2[:, 3] - mu2[:, 1] - mu2[:, 2]
    cov = second - np.outer(mu, mu)  # <w_i, w_j> matrix
    eigvals, eigvecs = np.linalg.eigh((cov + cov.T) / 2)
    if eigvals.min() < -psd_tol * max(1.0, eigvals.max()):
        raise CardCspError(
            f"gram not PSD within tolerance (min eigenvalue {eigvals.min():.3g}); "
            "factorization undefined")
    clipped = np.clip(eigvals, 0.0, None)
    w = eigvecs * np.sqrt(clipped)
    degenerate = (1.0 - mu**2) < DEGENERATE_TOL
    w[degenerate] = 0.0
    return BiasProfile(mu=mu, w=w, degenerate=degenerate)


def separation_identity_gap(solution: MomentSolution,
                            instance: CspInstance) -> float:
    """Max gap of P(x_i != x_j) = |v_i - v_j|^2 / 4 over payoff scopes.

    The left side is read off the canonical pair marginals, the right side
    off the vector geometry (the off-diagonal gram block), so the identity
    only holds up to the solution's consistency error.
    """
    pairs = np.array([t.scope for t in instance.payoffs
                      if len(t.scope) == 2]).reshape(-1, 2)
    terms = np.arange(len(pairs))

    def at(a, b):
        """Positions of the events x_i = a, x_j = b per pair term; -1
        leaves a vertex out."""
        values = np.full((len(pairs), solution.n), -1, dtype=np.int8)
        values[terms, pairs[:, 0]] = a
        values[terms, pairs[:, 1]] = b
        return _positions(values, solution.q, solution.level)

    gram = solution.gram
    # raw canonical entries: clipping/renormalizing would mask the
    # geometric identity with the sanitation error
    p_neq = gram[0, at(0, 1)] + gram[0, at(1, 0)]
    # v_i - v_j over the 4 x 4 block of the events x_i = 0, x_i = 1,
    # x_j = 0, x_j = 1, with v_k = [x_k = 0] - [x_k = 1]
    block = np.stack([at(0, -1), at(1, -1), at(-1, 0), at(-1, 1)], axis=1)
    a = np.array([1.0, -1.0, -1.0, 1.0])
    geometric = a @ gram[block[:, :, None], block[:, None, :]] @ a / 4.0
    return float(np.abs(p_neq - geometric).max(initial=0.0))


@dataclass
class RoundedAssignment:
    labels: np.ndarray        # +-1 per variable
    value: float | None
    balance: float | None     # E_{i~W}[y_i]
    seed: int
    repair_moves: list = field(default_factory=list)

    def domain_values(self):
        """Map +-1 labels to domain values (value 0 <-> +1)."""
        return ((1 - self.labels) // 2).astype(int)

    def to_json(self):
        return json.dumps({
            "schema": "cardcsp.assignment/1",
            "labels": [int(v) for v in self.labels],
            "value": self.value,
            "balance": self.balance,
            "seed": self.seed,
            "repair_moves": [int(v) for v in self.repair_moves],
        })

    @classmethod
    def from_json(cls, text):
        doc = json.loads(text)
        return cls(labels=np.array(doc["labels"]), value=doc["value"],
                   balance=doc["balance"], seed=doc["seed"],
                   repair_moves=list(doc["repair_moves"]))


def labels_from_gaussian(profile: BiasProfile, g) -> np.ndarray:
    """+-1 labels (..., n) for Gaussian vectors g (..., r); degenerate
    vertices take the sign of their bias."""
    xi = np.asarray(g) @ profile.wbar.T
    labels = np.where(xi <= profile.thresholds(), 1, -1)
    labels[..., profile.degenerate] = np.where(
        profile.mu[profile.degenerate] >= 0, 1, -1)
    return labels


def round_many(profile: BiasProfile, trials: int, seed: int) -> np.ndarray:
    """Label matrix (trials x n) for a batch of independent trials."""
    rng = np.random.default_rng(seed)
    return labels_from_gaussian(
        profile, rng.standard_normal((trials, profile.w.shape[1])))


@dataclass
class Repair:
    """Outcome of ``repair_many`` on a (trials x n) label matrix."""

    labels: np.ndarray        # repaired rows; failed rows keep their input
    moves: np.ndarray         # (trials x n) moved vertices in order, -1 pad
    moved_weight: np.ndarray  # weight each row moved or would have moved
    failed: np.ndarray        # moved weight over the cap


def repair_many(instance: CspInstance, labels, target_balance: float | None = None,
                delta_cap: float = 0.5) -> Repair:
    """Move least-weighted-degree vertices off the heavy side of every row
    until its balance matches the target to within one vertex weight.

    Each step, every row still off target moves its first candidate in
    (weighted degree, index) order: a heavy-side vertex not moved yet whose
    move brings the balance strictly closer to the target.  A row whose
    moved weight exceeds ``delta_cap`` fails and keeps its input labels.
    """
    if target_balance is None:
        c = instance.cardinality.as_floats()
        target_balance = float(c[0] - c[1])
    start = np.atleast_2d(labels)
    out = start.copy()
    w = instance.weights_array
    order = np.lexsort((np.arange(instance.n), instance.weighted_degrees()))
    moved = np.zeros(out.shape, dtype=bool)
    moved_weight = np.zeros(len(out))
    moves = np.full(out.shape, -1)
    live = np.arange(len(out))
    for step in range(instance.n):  # a vertex moves at most once
        gap = out[live] @ w - target_balance
        heavy = np.where(gap > 0, 1, -1)[:, None]
        closer = np.abs(gap[:, None] - 2 * heavy * w) < np.abs(gap)[:, None] - 1e-15
        candidates = ((out[live] == heavy) & ~moved[live] & closer)[:, order]
        keep = candidates.any(axis=1)
        if not keep.any():
            break
        live = live[keep]
        best = order[candidates[keep].argmax(axis=1)]
        out[live, best] = -heavy[keep, 0]
        moved[live, best] = True
        moved_weight[live] += w[best]
        moves[live, step] = best
    failed = moved_weight > delta_cap
    out[failed] = start[failed]
    moves[failed] = -1
    return Repair(out, moves, moved_weight, failed)


@dataclass
class PipelineResult:
    best: RoundedAssignment
    solution: MomentSolution
    achieved_alpha: float
    sdp_objective: float
    value_mean: float
    value_var: float
    balance_mean: float
    balance_var: float
    trials: int
    solve_report: SolveReport | None = None  # None when a solution is given


def pipeline(instance: CspInstance, level: int = 2, alpha_target: float = 0.1,
             trials: int = 32, seed: int = 0, depth: int | None = None,
             solver_config=None, solution: MomentSolution | None = None) -> PipelineResult:
    """solve -> decorrelate -> decompose -> round x trials -> repair -> best.

    The best trial is chosen among those whose repair succeeded; when every
    repair fails, a ``CardCspError`` names the smallest move fraction one
    would have needed.  Sub-seeds are spawned from the master seed with
    numpy's SeedSequence splitting rule.  ``solution`` may be supplied to
    skip the solve.
    """
    from . import sdp_solver
    from .independence import decorrelate
    from .lasserre import build_relaxation

    if trials < 1:
        raise CardCspError(f"trials must be at least 1, got {trials}")
    report = None
    if solution is None:
        program = build_relaxation(instance, level)
        solution, report = sdp_solver.solve(program, solver_config)
    dec = decorrelate(solution, instance, alpha_target, seed=seed, depth=depth)
    sol = dec.solution
    profile = bias_decompose(sol)
    sub_seeds = [int(s.generate_state(1)[0])
                 for s in np.random.SeedSequence(seed).spawn(trials)]
    # each trial's Gaussian comes from its own sub-seed, so any trial can be
    # replayed alone
    g = np.array([np.random.default_rng(s).standard_normal(profile.w.shape[1])
                  for s in sub_seeds])
    repair = repair_many(instance, labels_from_gaussian(profile, g))
    values = instance.evaluate((1 - repair.labels) // 2)
    balances = repair.labels @ instance.weights_array
    if repair.failed.all():
        raise CardCspError(
            f"balance repair failed on all {trials} trials: the closest needs "
            f"to move a weight fraction of {repair.moved_weight.min():.3g}")
    ranked = np.where(repair.failed, np.nan, values)
    pick = int(np.nanargmax(ranked) if instance.sense == "max"
               else np.nanargmin(ranked))
    moves = repair.moves[pick]
    best = RoundedAssignment(labels=repair.labels[pick], value=float(values[pick]),
                             balance=float(balances[pick]), seed=sub_seeds[pick],
                             repair_moves=moves[moves >= 0].tolist())
    return PipelineResult(
        best=best,
        solution=sol,
        achieved_alpha=dec.achieved_alpha,
        sdp_objective=solution_objective(sol, instance),
        value_mean=float(values.mean()),
        value_var=float(values.var()),
        balance_mean=float(balances.mean()),
        balance_var=float(balances.var()),
        trials=trials,
        solve_report=report,
    )
