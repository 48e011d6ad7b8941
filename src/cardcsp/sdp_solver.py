"""First-order operator-splitting solver for the moment-matrix programs.

Every moment solution is a fixed linear image G = P G[R, R] P^T of its
principal block on R, the indices whose values all lie below q - 1 (the
inclusion-exclusion lift of ``lasserre._reduced_basis``).  P has full column
rank, so G is PSD exactly when the block is, and the program's rows whose
support lies inside R x R constrain the block exactly as the full rows
constrain G.  The method runs on that block: it alternates a projection onto
the affine constraint subspace (cached sparse factorization of the
regularized normal equations, one refinement step) with a PSD-cone
projection via dense symmetric eigendecomposition, with over-relaxation and
residual-balancing penalty updates.  Residuals are measured on the lifted
matrices.  Deterministic; no external solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NumericalError
from .lasserre import ConicProgram, MomentSolution, _reduced_basis


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


def _reduced_rows(constraints, d, red):
    """Unit-norm rows over vec(G[R, R]): the rows whose support lies inside
    R x R, restricted to those columns (a copy: the program's own rows stay
    unscaled).  Rows without coefficients, which constrain nothing, are
    dropped."""
    inside = np.zeros(d, dtype=bool)
    inside[red] = True
    cols = (red[:, None] * d + red).ravel()
    A = constraints.A
    outside = ~(inside[A.indices // d] & inside[A.indices % d])
    row_of = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    spill = np.bincount(row_of, weights=outside, minlength=A.shape[0])
    rows = np.flatnonzero((spill == 0) & (np.diff(A.indptr) > 0))
    A = A[rows][:, cols]
    norms = np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel())
    A.data /= np.repeat(norms, np.diff(A.indptr))
    return A, constraints.b[rows] / norms


def solve(program: ConicProgram, config: SolverConfig | None = None,
          keep_history: bool = False) -> tuple[MomentSolution, SolveReport]:
    """Run the splitting method on the reduced block G' = G[R, R] and
    return the lifted moment matrix G = P G' P^T."""
    config = config or SolverConfig()
    red, P = _reduced_basis(program.indices, program.n, program.q)
    d = len(red)
    A, b = _reduced_rows(program.constraints, program.dim, red)
    m = A.shape[0]
    C = program.C
    sign = 1.0 if program.sense == "max" else -1.0
    Cs = sign * (P.T @ C @ P)
    # ||P D P^T|| = ||T D T^T|| for P = Q T: residuals measured on the
    # lifted matrix at the cost of the reduced one
    T = np.linalg.qr(P, mode="r")

    def lifted_norm(mat):
        return np.linalg.norm(T @ mat @ T.T)

    AAt = (A @ A.T).tocsc()
    try:
        factor = spla.splu(AAt + 1e-11 * sp.identity(m, format="csc"))
    except RuntimeError as exc:
        raise NumericalError("factorization of constraint normal equations "
                             f"failed: {exc}") from exc

    def project_affine(mat):
        v = mat.reshape(-1)
        resid = A @ v - b
        lam = factor.solve(resid)
        # one refinement step: on dependent rows (q = 3) the ridge alone
        # leaves residuals near 1e-10
        lam += factor.solve(resid - AAt @ lam)
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
            pri = lifted_norm(X - Z)
            dual = rho * lifted_norm(Z - Z_prev)
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

    gram = P @ ((X + X.T) / 2) @ P.T
    objective = float(np.tensordot(C, gram))
    solution = MomentSolution(program.level, program.n, program.q,
                              list(program.indices), gram, objective)
    report = SolveReport(status=status, iterations=it,
                         primal_residual=float(pri), dual_residual=float(dual),
                         objective=objective,
                         residual_history=history if keep_history else None)
    return solution, report
