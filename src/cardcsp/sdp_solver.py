"""First-order operator-splitting solver for the moment-matrix programs.

Every moment solution is a fixed linear image G = P G[R, R] P^T of its
principal block on R, the indices whose values all lie below q - 1
(``lasserre._reduced_basis``; ``lasserre._layout`` derives R, P and T from
P = Q T once per shape).  P has full column rank, so G is PSD exactly when
the block is, and the rows inside R x R (the layout's ``block``: entry
classes and form rows) constrain the block as the full rows constrain G.
The objective c . G[0] is <C, G'> with C = sym(outer(P[0], P^T c)).  On
the block, the method alternates a closed-form projection onto the rows'
affine subspace (class averaging plus one small cardinality system) and a
PSD-cone projection by eigendecomposition, with over-relaxation; residuals
are measured on the lifted matrices, the primal P (X' - Z') P^T and the
dual rho P (Z' - Z'_prev) P^T, and scaled by max(1, ||X'||_F).
Deterministic; no external solver.

One iteration is one fixed-point map F on v = X_hat + U, the input of the
PSD projection: Z = Pi_PSD(v), U = v - Z, X = Pi_A(Z - U + C/rho) and
F(v) = gamma X + (1 - gamma) Z + U.  While an accelerator runs, the steps
are type-II Anderson accelerated (Walker & Ni 2011, as in SCS 3):
v <- F(v) - (dV + dG) theta, with dV and dG the last ``_MEMORY``
differences of v and of g = F(v) - v, and theta the ridge-regularized
least-squares solution of min ||g - dG theta||.  At every residual check
(every 25 iterations), when one residual is more than ``_IMBALANCE`` times
the other, rho doubles or halves and the accelerator, whose differences
belong to the old map, is dropped; otherwise a fresh one starts if none
runs.  A failed or non-finite small solve drops it too.  A check iteration
takes the plain step, so the reported residuals are those of one exact
splitting step.

A check ends the solve ``optimal`` when both scaled residuals meet the
tolerance, and ``infeasible`` on a Farkas certificate read off U (Banjac,
Goulart, Stellato & Boyd 2019): Y = X0 - U - Pi_A(-U), X0 = Pi_A(0), lies
in the rows' span, so <Y, G'> = <Y, X0> on every block meeting them, and
a feasible block is PSD with its diagonal in [0, 1], so tr G' <= d'.  A
margin <Y, X0> + d' max(0, -lambda_min(Y)) below -slack thus proves that
no G is feasible.  slack = sqrt(eps) (|U| + |X0|)(|X0| + d') covers the
rounding: Y keeps a null-space part of order eps (|U| + |X0|), which moves
<Y, G'> by that times |G' - X0| <= |X0| + d'.  On complete graphs, where
the objective is constant on the feasible set, feasible solves reach
margins near 1e-14 against slacks near 1e-6.  At the cap the solve ends
``max_iter``.  Progress is logged at DEBUG on ``cardcsp.sdp_solver``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, _admit_int, _admit_real
from .lasserre import ConicProgram, MomentSolution, _layout

log = logging.getLogger(__name__)

_MEMORY = 10    # Anderson memory: differences kept
_RIDGE = 1e-10  # Tikhonov ridge on the small Gram matrix, relative to its trace
_RHO = 0.05     # initial penalty; residual balancing moves it
_OVER_RELAXATION = 1.85  # gamma, the weight of the affine step, in [1, 2)
_CHECK_EVERY = 25  # iterations between residual checks
_IMBALANCE = 100  # residual ratio at which rho moves
_FARKAS_SLACK = np.sqrt(np.finfo(float).eps)  # the certificate's, relative


@dataclass
class SolverConfig:
    max_iterations: int = 200_000
    tolerance: float = 1e-6  # on the primal and the dual residual

    def __post_init__(self):
        _admit_real("tolerance", self.tolerance, 0, np.inf, "()")
        _admit_int("max_iterations", self.max_iterations, 1)


@dataclass
class SolveReport:
    """``optimal`` means both scaled, lifted residuals met the tolerance; it
    does not imply ``FeasibilityReport.passes()`` at 1e-6 (planted10_e05
    at level 3 ends ``optimal`` with psd_violation 7.6e-6)."""

    status: str  # optimal | infeasible (a Farkas certificate) | max_iter
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    residual_history: list  # (iteration, primal, dual) per residual check
    rho: float  # the penalty at the last iteration
    seconds: float  # wall time of the solve


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (eigenvalue clipping)."""
    sym = (mat + mat.T) / 2
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed "
                             f"(max |entry| {np.abs(sym).max():.3g})") from exc
    if eigvals[0] >= 0:
        return sym
    clipped = np.clip(eigvals, 0.0, None)
    return (eigvecs * clipped) @ eigvecs.T


def _affine_projection(constraints, layout):
    """Orthogonal projection of a symmetric block G' = G[R, R] onto the
    program's rows inside R x R: the means of the layout's ``block``
    classes (clashes 0, free entries kept), corrected for the form rows
    B y = e by y = mean - N^-1/2 pinv(B N^-1/2) (B mean - e) with N the
    class sizes (a pseudo-inverse: q = 3 rows are dependent)."""
    cls, size, rows, terms, place = layout.block
    k = len(size)
    free = cls == k + 1
    B = np.bincount(place, weights=constraints.forms[2][terms],
                    minlength=len(rows) * k).reshape(len(rows), k)
    e = constraints.b[rows]
    # equal to N^-1 B^T pinv(B N^-1 B^T), without squaring the condition number
    M = np.linalg.pinv(B / np.sqrt(size)) / np.sqrt(size)[:, None]

    def project(mat):
        v = mat.reshape(-1)
        mean = np.bincount(cls, weights=v, minlength=k + 2)[:k] / size
        y = mean - M @ (B @ mean - e)
        return np.where(free, v, np.append(y, (0.0, 0.0))[cls]).reshape(k, k)

    return project


class _Anderson:
    """Type-II Anderson acceleration of v -> F(v): ring buffers of the last
    ``_MEMORY`` differences of g = F(v) - v and of F(v), and the Gram
    matrix of the g-differences, one row per iteration."""

    def __init__(self, size):
        self.df = np.empty((_MEMORY, size))
        self.dg = np.empty((_MEMORY, size))
        self.gram = np.empty((_MEMORY, _MEMORY))
        self.filled = self.slot = 0
        self.f = self.g = None

    def push(self, f, g):
        """Record F(v) and g = F(v) - v of the current iterate (flat)."""
        if self.f is not None:
            j = self.slot
            np.subtract(f, self.f, out=self.df[j])
            np.subtract(g, self.g, out=self.dg[j])
            self.filled = m = min(self.filled + 1, _MEMORY)
            self.gram[j, :m] = self.gram[:m, j] = self.dg[:m] @ self.dg[j]
            self.slot = (j + 1) % _MEMORY
        self.f, self.g = f, g

    def step(self):
        """F(v) - dF theta, theta minimizing ||g - dG theta|| (ridge
        regularized), for the last pushed iterate; None when the small
        solve fails."""
        m = self.filled
        if m == 0:
            return self.f
        gram = self.gram[:m, :m]
        # the ridge keeps the matrix positive definite: what fails is a
        # singular matrix in floating point or a non-finite theta
        try:
            theta = np.linalg.solve(gram + _RIDGE * gram.trace() * np.eye(m),
                                    self.dg[:m] @ self.g)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(theta).all():
            return None
        return self.f - theta @ self.df[:m]


def solve(program: ConicProgram, config: SolverConfig | None = None
          ) -> tuple[MomentSolution, SolveReport]:
    """Run the splitting method on the reduced block G' = G[R, R] and
    return the lifted moment matrix G = P G' P^T."""
    start = time.perf_counter()
    config = config or SolverConfig()
    layout = _layout(program.n, program.q, program.level)
    red, P, T = layout.basis
    d = len(red)
    project_affine = _affine_projection(program.constraints, layout)
    # the objective on the block, negated for a minimization
    pc = (1.0 if program.sense == "max" else -1.0) * (P.T @ program.c)
    Cs = (np.outer(P[0], pc) + np.outer(pc, P[0])) / 2

    # ||P D P^T|| = ||T D T^T|| for P = Q T: residuals measured on the
    # lifted matrix at the cost of the reduced one
    def lifted_norm(mat):
        return np.linalg.norm(T @ mat @ T.T)

    rho, gamma = _RHO, _OVER_RELAXATION
    X = X0 = project_affine(np.zeros((d, d)))
    x0_norm = np.linalg.norm(X0)
    slack_unit = _FARKAS_SLACK * (x0_norm + d)
    Z = project_psd(X)
    U = np.zeros((d, d))
    history = []
    status = "max_iter"
    pri = dual = np.inf
    accel = None  # running while the residuals are balanced
    for it in range(1, config.max_iterations + 1):
        X = project_affine(Z - U + Cs / rho)
        f = gamma * X + (1 - gamma) * Z + U  # F(v)
        check = it % _CHECK_EVERY == 0 or it == config.max_iterations
        if accel is not None:
            accel.push(f.reshape(-1), (f - v).reshape(-1))
            if not check:
                step = accel.step()
                if step is None:
                    log.debug("iteration %d: Anderson step failed; "
                              "acceleration off", it)
                    accel = None
                else:
                    f = step.reshape(d, d)
        v = f
        Z_prev = Z
        Z = project_psd(v)
        U = v - Z

        if check:
            pri = lifted_norm(X - Z)
            dual = rho * lifted_norm(Z - Z_prev)
            scale = max(1.0, np.linalg.norm(X))
            history.append((it, pri, dual))
            if (pri <= config.tolerance * scale
                    and dual <= config.tolerance * scale):
                status = "optimal"
                break
            Y = X0 - U - project_affine(-U)  # the part of -U in the rows' span
            margin = np.vdot(Y, X0) + d * max(0.0, -np.linalg.eigvalsh(Y)[0])
            slack = slack_unit * (np.linalg.norm(U) + x0_norm)
            if margin < -slack:
                log.debug("iteration %d: Farkas certificate, margin %.3g "
                          "(slack %.3g)", it, margin, slack)
                status = "infeasible"
                break
            # residual balancing keeps the two projections in step
            if pri > _IMBALANCE * dual or dual > _IMBALANCE * pri:
                factor = 2.0 if pri > dual else 0.5
                log.debug("iteration %d: rho %.4g -> %.4g (primal %.3g, "
                          "dual %.3g)", it, rho, rho * factor, pri, dual)
                rho *= factor
                U /= factor
                accel = None  # its differences belong to the old map
            elif accel is None:
                log.debug("iteration %d: Anderson acceleration on at rho "
                          "%.4g (primal %.3g, dual %.3g)", it, rho, pri, dual)
                accel = _Anderson(d * d)

    # The last projection left rounding errors near 1e-14 in the rows, which
    # the conditional cardinality check divides by event probabilities down
    # to 1e-9; from the nearly feasible X, one more is exact to about 1e-17.
    X = project_affine((X + X.T) / 2)
    gram = P @ X @ P.T
    objective = float(program.c @ gram[0])
    solution = MomentSolution(program.level, program.n, program.q,
                              list(program.indices), gram, objective)
    log.debug("%s after %d iterations: primal %.3g, dual %.3g, rho %.4g",
              status, it, pri, dual, rho)
    return solution, SolveReport(
        status=status, iterations=it, primal_residual=float(pri),
        dual_residual=float(dual), objective=objective,
        residual_history=history, rho=rho,
        seconds=time.perf_counter() - start)
