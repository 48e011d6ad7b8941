"""Bias-preserving Gaussian threshold rounding and balance repair.

Each vertex vector splits as v_i = mu_i I + w_i.  One shared Gaussian
vector is projected on the normalized orthogonal parts and compared against
the threshold Phi^{-1}((1 + mu_i)/2), so every vertex keeps its SDP bias
exactly (``threshold`` is the standard library's AS241 inverse).  A greedy
least-degree repair step then restores the cardinality target.
``pipeline`` rounds, repairs and scores all its trials as one (trials x n)
label matrix, each row from its own sub-seed, so the best replays alone.
The trial Gaussians come from one batched seeding kernel
(`instance._trial_gaussians`): row k equals, bit for bit,
``np.random.default_rng(sub_seed_k).standard_normal(r)``, and those
per-seed generators are its test reference.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from functools import partial
from statistics import NormalDist

import numpy as np

from . import sdp_solver
from .errors import CardCspError, NumericalError, _admit_int, _admit_real
from .independence import decorrelate
from .instance import (CspInstance, _document, _numbers, _sub_seeds,
                       _trial_gaussians)
from .lasserre import (MomentSolution, _check_same_shape, _positions,
                       build_relaxation, local_distributions,
                       solution_objective)
from .sdp_solver import SolveReport

DEGENERATE_TOL = 1e-12
PSD_TOL = 1e-5  # relative eigenvalue slack bias_decompose accepts
_DELTA_CAP = 0.5  # largest total vertex weight one row's repair may move

log = logging.getLogger(__name__)


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


_INV_CDF = NormalDist().inv_cdf  # Wichura's AS241


def threshold(mu):
    """Phi^{-1}(mu/2 + 1/2); +-inf sentinels at mu = +-1.  A bias outside
    [-1, 1] (1e-12 of slack), or NaN, is an error."""
    mu = np.asarray(mu, dtype=float)
    # written so that NaN fails the test
    if not np.all((mu >= -1 - 1e-12) & (mu <= 1 + 1e-12)):
        raise CardCspError("bias out of [-1, 1]")
    p = np.clip((1.0 + mu) / 2.0, 0.0, 1.0)
    t = np.array([_INV_CDF(x) if 0.0 < x < 1.0 else -np.inf if x == 0.0
                  else np.inf for x in p.ravel().tolist()]).reshape(p.shape)
    return float(t) if t.ndim == 0 else t


def bias_decompose(solution: MomentSolution) -> BiasProfile:
    """Factor the I-orthogonal correlation matrix into explicit coordinates."""
    if solution.q != 2:
        raise CardCspError(f"bias decomposition needs q = 2, got q = {solution.q}")
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
    if eigvals.min() < -PSD_TOL * max(1.0, eigvals.max()):
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

    def __post_init__(self):
        if not np.isin(self.labels, (-1, 1)).all():
            raise CardCspError("labels must be +1 or -1")
        n, moves = len(self.labels), self.repair_moves
        if len(set(moves)) < len(moves) or not all(0 <= v < n for v in moves):
            raise CardCspError(f"repair moves must be distinct vertices "
                               f"in 0..{n - 1}, got {moves}")
        _admit_int("seed", self.seed, 0)
        # finite reals or None; floats, so an int reads back the same bytes
        for name in ("value", "balance"):
            if getattr(self, name) is not None:
                setattr(self, name, _admit_real(name, getattr(self, name)))

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
        """Read ``to_json`` text; a malformed document raises ParseError."""
        label = partial(_admit_int, "label", low=-1, high=1)
        move = partial(_admit_int, "repair move", low=0)
        with _document(text, "cardcsp.assignment/1", "assignment") as doc:
            return cls(labels=_numbers(doc["labels"], label),
                       value=doc["value"], balance=doc["balance"],
                       seed=doc["seed"],
                       repair_moves=_numbers(doc["repair_moves"], move).tolist())


def labels_from_gaussian(profile: BiasProfile, g) -> np.ndarray:
    """+-1 labels (..., n) for Gaussian vectors g (..., r); degenerate
    vertices take the sign of their bias."""
    xi = np.asarray(g) @ profile.wbar.T
    labels = np.where(xi <= profile.thresholds(), 1, -1)
    labels[..., profile.degenerate] = np.where(
        profile.mu[profile.degenerate] >= 0, 1, -1)
    return labels


@dataclass
class Repair:
    """Outcome of ``repair_many`` on a (trials x n) label matrix."""

    labels: np.ndarray        # repaired rows; failed rows keep their input
    moves: np.ndarray         # (trials x n) moved vertices in order, -1 pad
    moved_weight: np.ndarray  # weight each row moved or would have moved
    failed: np.ndarray        # moved weight over the cap


def repair_many(instance: CspInstance, labels) -> Repair:
    """Move least-weighted-degree vertices off the heavy side of every row
    until its balance matches the cardinality target to within one vertex
    weight.

    Each step, every row still off target moves its first candidate in
    (weighted degree, index) order: a heavy-side vertex not moved yet whose
    move brings the balance strictly closer to the target.  A row whose
    moved weight exceeds ``_DELTA_CAP`` fails and keeps its input labels.
    """
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
    failed = moved_weight > _DELTA_CAP
    out[failed] = start[failed]
    moves[failed] = -1
    return Repair(out, moves, moved_weight, failed)


def solve_feasible(instance: CspInstance, level: int, solver_config=None):
    """Solve the level-``level`` relaxation; one that ends ``infeasible``
    leaves no moment solution to use and raises ``NumericalError``."""
    solution, report = sdp_solver.solve(build_relaxation(instance, level),
                                        solver_config)
    if report.status == "infeasible":
        raise NumericalError(f"the level-{level} relaxation is infeasible "
                             f"(certified after {report.iterations} "
                             "iterations)")
    return solution, report


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
             trials: int = 32, seed: int = 0, solver_config=None,
             solution: MomentSolution | None = None) -> PipelineResult:
    """solve -> decorrelate -> decompose -> round x trials -> repair -> best.

    The best trial is chosen among those whose repair succeeded; when every
    repair fails, a ``CardCspError`` names the smallest move fraction one
    would have needed.  Sub-seeds are spawned from the master seed with
    numpy's SeedSequence splitting rule (`instance._sub_seeds`), and trial k
    rounds with ``default_rng(sub_seed_k).standard_normal(r)``.
    ``solution`` may be supplied to skip the solve (``solve_feasible``).
    """
    _admit_int("trials", trials, 1)
    _admit_real("alpha", alpha_target, 0, math.inf, "[)")
    sub_seeds = _sub_seeds(seed, trials)
    if instance.q != 2:
        raise CardCspError(f"rounding supports q = 2 only, got q = {instance.q}")
    report = None
    if solution is None:
        solution, report = solve_feasible(instance, level, solver_config)
    _check_same_shape(solution, instance)
    dec = decorrelate(solution, instance, alpha_target, seed=seed)
    sol = dec.solution
    profile = bias_decompose(sol)
    g = _trial_gaussians(sub_seeds, profile.w.shape[1])
    repair = repair_many(instance, labels_from_gaussian(profile, g))
    # failed rows keep no moves, so a row with a first move was repaired
    log.debug("repair: %d of %d rows repaired, %d failed; moved weight "
              "max %.6g, mean %.6g", (repair.moves[:, 0] >= 0).sum(), trials,
              repair.failed.sum(), repair.moved_weight.max(),
              repair.moved_weight.mean())
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
    moves = moves[moves >= 0].tolist()
    for vertex in moves:
        # a moved vertex sits on the other side now
        log.debug("repair of trial %d: vertex %d left side %+d", pick, vertex,
                  -repair.labels[pick, vertex])
    best = RoundedAssignment(labels=repair.labels[pick], value=float(values[pick]),
                             balance=float(balances[pick]), seed=sub_seeds[pick],
                             repair_moves=moves)
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
