"""First-order operator-splitting solver for the moment-matrix programs.

Alternates a projection onto the affine constraint subspace (cached sparse
factorization of the regularized normal equations) with a PSD-cone
projection via dense symmetric eigendecomposition, with over-relaxation and
residual-balancing penalty updates.  Deterministic; no external solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .lasserre import ConicProgram, MomentSolution


@dataclass
class SolverConfig:
    max_iterations: int = 200_000
    primal_tolerance: float = 1e-6
    dual_tolerance: float = 1e-6
    rho: float = 0.05
    over_relaxation: float = 1.85
    check_every: int = 25

    def __post_init__(self):
        if self.primal_tolerance <= 0 or self.dual_tolerance <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not 1.0 <= self.over_relaxation < 2.0:
            raise ValueError("over_relaxation must lie in [1, 2)")


@dataclass
class SolveReport:
    status: str  # optimal | max_iter | infeasible-suspected
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    residual_history: list = None


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm (eigenvalue clipping)."""
    sym = (mat + mat.T) / 2
    try:
        eigvals, eigvecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        cond = np.abs(sym).max()
        raise NumericalError(
            f"eigendecomposition failed (max |entry| {cond:.3g})") from exc
    if eigvals[0] >= 0:
        return sym
    clipped = np.clip(eigvals, 0.0, None)
    return (eigvecs * clipped) @ eigvecs.T


def solve(program: ConicProgram, config: SolverConfig | None = None,
          keep_history: bool = False) -> tuple[MomentSolution, SolveReport]:
    """Run the splitting method on a conic program."""
    config = config or SolverConfig()
    d = program.dim
    # unit-norm rows; a row without coefficients constrains nothing.
    # A[keep] is a copy, so the program's own rows stay unscaled.
    A = program.constraints.A
    norms = np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel())
    keep = norms > 0
    A = A[keep]
    A.data /= np.repeat(norms[keep], np.diff(A.indptr))
    b = program.constraints.b[keep] / norms[keep]
    m = A.shape[0]
    C = program.C
    sign = 1.0 if program.sense == "max" else -1.0
    Cs = sign * C

    normal = (A @ A.T).tocsc()
    normal = normal + 1e-11 * sp.identity(m, format="csc")
    try:
        factor = spla.splu(normal)
    except RuntimeError as exc:
        raise NumericalError("factorization of constraint normal equations "
                             f"failed: {exc}") from exc

    def project_affine(mat):
        v = mat.reshape(-1)
        resid = A @ v - b
        lam = factor.solve(resid)
        return (v - A.T @ lam).reshape(d, d)

    rho = config.rho
    gamma = config.over_relaxation
    X = project_affine(np.zeros((d, d)))
    Z = project_psd(X)
    U = np.zeros((d, d))
    history = []
    status = "max_iter"
    it = 0
    pri = dual = np.inf
    stall_best = np.inf
    stall_counter = 0
    for it in range(1, config.max_iterations + 1):
        X = project_affine(Z - U + Cs / rho)
        X_hat = gamma * X + (1 - gamma) * Z
        Z_prev = Z
        Z = project_psd(X_hat + U)
        U = U + X_hat - Z

        if it % config.check_every == 0 or it == config.max_iterations:
            pri = np.linalg.norm(X - Z)
            dual = rho * np.linalg.norm(Z - Z_prev)
            scale = max(1.0, np.linalg.norm(X))
            if keep_history:
                history.append((it, pri, dual))
            if (pri <= config.primal_tolerance * scale
                    and dual <= config.dual_tolerance * scale):
                status = "optimal"
                break
            combined = pri + dual
            if combined < 0.5 * stall_best:
                stall_best = combined
                stall_counter = 0
            else:
                stall_counter += 1
                if stall_counter > 2000 and pri > 1e-3 * scale:
                    status = "infeasible-suspected"
                    break
            # residual balancing keeps the two projections in step
            if pri > 10 * dual:
                rho *= 2.0
                U /= 2.0
            elif dual > 10 * pri:
                rho /= 2.0
                U *= 2.0

    gram = (X + X.T) / 2
    objective = float(np.tensordot(C, gram))
    solution = MomentSolution(program.level, program.n, program.q,
                              list(program.indices), gram, objective)
    report = SolveReport(status=status, iterations=it,
                         primal_residual=float(pri), dual_residual=float(dual),
                         objective=objective,
                         residual_history=history if keep_history else None)
    return solution, report
