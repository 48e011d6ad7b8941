"""Bias-preserving Gaussian threshold rounding and balance repair.

Each vertex vector splits as v_i = mu_i I + w_i.  One shared Gaussian
vector is projected on the normalized orthogonal parts and compared against
the threshold Phi^{-1}((1 + mu_i)/2), so every vertex keeps its SDP bias
exactly.  A greedy least-degree repair step then restores the cardinality
target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import CardCspError
from .instance import CspInstance
from .lasserre import (MomentSolution, bias, pair_correlation,
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
    mu = np.array([bias(solution, i) for i in range(n)])
    second = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            second[i, j] = second[j, i] = pair_correlation(solution, i, j)
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
    pos = solution.pos
    gram = solution.gram
    worst = 0.0
    for term in instance.payoffs:
        if len(term.scope) != 2:
            continue
        i, j = sorted(term.scope)
        # raw canonical entries: clipping/renormalizing would mask the
        # geometric identity with the sanitation error
        p_neq = (solution.prob((i, j), (0, 1))
                 + solution.prob((i, j), (1, 0)))
        def dot(a, b):
            return gram[pos[a], pos[b]]
        xi = [((i,), (0,)), ((i,), (1,))]
        xj = [((j,), (0,)), ((j,), (1,))]
        nii = dot(xi[0], xi[0]) + dot(xi[1], xi[1]) - 2 * dot(xi[0], xi[1])
        njj = dot(xj[0], xj[0]) + dot(xj[1], xj[1]) - 2 * dot(xj[0], xj[1])
        nij = (dot(xi[0], xj[0]) - dot(xi[0], xj[1])
               - dot(xi[1], xj[0]) + dot(xi[1], xj[1]))
        geometric = (nii + njj - 2 * nij) / 4.0
        worst = max(worst, abs(p_neq - geometric))
    return worst


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


def _finalize(labels, seed, instance: CspInstance | None, moves=None):
    value = balance = None
    if instance is not None:
        values = ((1 - labels) // 2).astype(int)
        value = instance.evaluate(values)
        balance = float(instance.weights_array @ labels)
    return RoundedAssignment(labels=labels, value=value, balance=balance,
                             seed=seed, repair_moves=list(moves or []))


def round_profile(profile: BiasProfile, seed: int,
                  instance: CspInstance | None = None) -> RoundedAssignment:
    """One rounding trial with a shared Gaussian vector."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(profile.w.shape[1])
    return _finalize(labels_from_gaussian(profile, g), seed, instance)


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


def repair_balance(instance: CspInstance, assignment: RoundedAssignment,
                   target_balance: float | None = None,
                   delta_cap: float = 0.5) -> RoundedAssignment:
    """Move least-weighted-degree vertices off the heavy side until the
    balance matches the target to within one vertex weight."""
    if target_balance is None:
        c = instance.cardinality.as_floats()
        target_balance = float(c[0] - c[1])
    labels = assignment.labels.copy()
    w = instance.weights_array
    # vertices by (weighted degree, index): the first candidate is the move
    order = np.lexsort((np.arange(instance.n), instance.weighted_degrees()))
    moved = np.zeros(instance.n, dtype=bool)
    moves = []
    moved_weight = 0.0
    while True:
        bal = float(w @ labels)
        gap = bal - target_balance
        if gap == 0.0:
            break
        heavy = 1 if gap > 0 else -1
        closer = np.abs(gap - 2 * heavy * w) < abs(gap) - 1e-15
        candidates = ((labels == heavy) & ~moved & closer)[order]
        if not candidates.any():
            break
        best = int(order[candidates.argmax()])
        labels[best] = -heavy
        moved[best] = True
        moves.append(best)
        moved_weight += w[best]
    if moved_weight > delta_cap:
        out = _finalize(assignment.labels, assignment.seed, instance,
                        assignment.repair_moves)
        out.repair_failed = True
        out.required_move_fraction = moved_weight
        return out
    out = _finalize(labels, assignment.seed, instance,
                    list(assignment.repair_moves) + moves)
    out.repair_failed = False
    return out


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

    report = None
    if solution is None:
        program = build_relaxation(instance, level)
        solution, report = sdp_solver.solve(program, solver_config)
    dec = decorrelate(solution, instance, alpha_target, strategy="sampled",
                      seed=seed, depth=depth)
    sol = dec.solution
    profile = bias_decompose(sol)
    seeds = np.random.SeedSequence(seed).spawn(trials)
    sub_seeds = [int(s.generate_state(1)[0]) for s in seeds]
    repaired = [repair_balance(instance, round_profile(profile, s))
                for s in sub_seeds]
    values = np.array([r.value for r in repaired])
    balances = np.array([r.balance for r in repaired])
    failed = np.array([r.repair_failed for r in repaired])
    if failed.all():
        need = min(r.required_move_fraction for r in repaired)
        raise CardCspError(
            f"balance repair failed on all {trials} trials: the closest needs "
            f"to move a weight fraction of {need:.3g}")
    ranked = np.where(failed, np.nan, values)
    pick = int(np.nanargmax(ranked) if instance.sense == "max"
               else np.nanargmin(ranked))
    return PipelineResult(
        best=repaired[pick],
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
