"""First-order operator-splitting solver for the moment-matrix programs.

Every moment solution is a fixed linear image G = P G' P^T of its
principal block G' = G[R, R] on R, the indices whose values all lie below
q - 1 (``lasserre._reduced_basis``; ``lasserre._layout`` derives R, P and
T from P = Q T once per shape).  P has full column rank, so G is PSD
exactly when G' is, and the rows inside R x R (the layout's ``block``)
constrain G' as the full rows constrain G.  The solver works on M with
G' = W M W^T, W invertible (the layout's ``scaled`` basis).  For q = 2, M
is the scaled parity basis: M[S, T] = 2^-(|S|+|T|)/2 E[chi_S chi_T], with
chi_S = prod_{i in S} (1 - 2 x_i) and W[S, T] = 2^-|S| 2^(|T|/2) [T in S].
An entry with |S u T| <= k is 2^-(|S|+|T|)/2 m_{S ^ T}, m_U = E[chi_U],
and the form rows, read through G'[0, R] = C m (C[U, V] = 2^-|U|
[V in U]), span the unit row and the cardinality rows
sum_j w_j m_{A ^ {j}} = (2 c_0 - W_tot) m_A, |A| <= k - 1.  The scale puts
2^-|S| on M's diagonal, the scale of G''s: the plain parity basis, with a
unit diagonal, took up to 26 times the iterations on the bundled suite
(planted10_e05 at level 3).  For q >= 3, M = G'.

A program invariant under the label flip x -> 1 - x (q = 2, a payoff
vector the flip leaves unchanged and equal targets for both values, as in
Max and Min Bisection; tested once per solve) has a flip-invariant optimum,
the mean of any optimum and its flip, whose odd moments m_U, |U| odd,
vanish.  Its M is block diagonal on the even- and the odd-size subsets
(Gatermann & Parrilo 2004; de Klerk, Pasechnik & Schrijver 2007), so the
solve holds the odd classes and the entries between the parities at 0 and
runs on the two blocks; any other program runs on one block of all of R.
The iterate is the blocks' entries, one flat vector.

The objective c . G[0] is <C, M> with C = sym(outer(L[0], L^T c)) and
L = P W the lift.  The method alternates a closed-form projection onto the
rows' affine subspace (a weighted class mean plus one small system for the
form rows) and a PSD-cone projection by eigendecomposition, ``project_psd``
once per block, with over-relaxation; residuals are measured on the lifted
matrices, the primal L (X - Z) L^T and the dual rho L (Z - Z_prev) L^T,
through T W, and scaled by max(1, ||X||_F).  Deterministic; no external
solver.

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
in the rows' span, so <Y, M> = <Y, X0> on every M meeting them, and a
feasible M is PSD with trace at most tau.  Every diagonal entry of M is its
amplitude times a class value: m_0 = 1 in the parity basis, so tau =
sum_S 2^-|S| exactly, and a probability in R, so tau = d'.  A margin
<Y, X0> + tau max(0, -lambda_min(Y)) below -slack thus proves that no G is
feasible; on two blocks, that no flip-invariant G is, and so none is.
slack = sqrt(eps) (|U| + |X0|)(|X0| + tau) covers the rounding: Y keeps a
null-space part of order eps (|U| + |X0|), which moves <Y, M> by that
times |M - X0| <= |X0| + tau.  On complete graphs, where the objective is
constant on the feasible set, feasible solves reach margins near 1e-14
against slacks near 1e-6.  At the cap the solve ends ``max_iter``.
Progress is logged at DEBUG on ``cardcsp.sdp_solver``.
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
    does not imply ``FeasibilityReport.passes()`` at 1e-6 (gnp12 at level
    3 ends ``optimal`` with psd_violation 5.1e-6)."""

    status: str  # optimal | infeasible (a Farkas certificate) | max_iter
    iterations: int
    primal_residual: float
    dual_residual: float
    objective: float
    residual_history: list  # (iteration, primal, dual) per residual check
    rho: float  # the penalty at the last iteration
    blocks: list  # the sizes of the blocks of M the solve ran on
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


def _affine_projection(constraints, layout, sel):
    """Orthogonal projection of M's entries ``sel`` (flat, row-major) onto
    the program's rows: each class U of the layout's ``scaled`` basis takes
    the weighted mean m_U = sum a v / N_U over its entries, with amplitudes
    a and N_U = sum a^2, corrected for the form rows (B C) m = e by
    m = mean - N^-1/2 pinv(B C N^-1/2) (B C mean - e), with B the rows on
    G'[0, R] (a pseudo-inverse: q = 3 rows are dependent); a constrained
    entry becomes a m_U, a clash 0, and a free entry is kept.  A class with
    no entry in ``sel`` is held at 0."""
    _, _, cls, amp, C, _, _ = layout.scaled
    _, size, rows, terms, place = layout.block
    k = len(size)
    cls, amp = cls[sel], amp[sel]
    free = cls == k + 1
    B = np.bincount(place, weights=constraints.forms[2][terms],
                    minlength=len(rows) * k).reshape(len(rows), k)
    if C is not None:
        B = B @ C
    N = np.bincount(cls, weights=amp * amp, minlength=k + 2)[:k]
    B[:, N == 0] = 0.0
    N[N == 0] = 1.0
    e = constraints.b[rows]
    # equal to N^-1 B^T pinv(B N^-1 B^T), without squaring the condition number
    M = np.linalg.pinv(B / np.sqrt(N)) / np.sqrt(N)[:, None]

    def project(v):
        mean = np.bincount(cls, weights=amp * v, minlength=k + 2)[:k] / N
        y = mean - M @ (B @ mean - e)
        return np.where(free, v, amp * np.append(y, (0.0, 0.0))[cls])

    return project


def _blocks(program, layout):
    """The blocks of M the solve runs on, as index arrays into R: the even-
    and the odd-size subsets when the program is invariant under the label
    flip x -> 1 - x (q = 2, a payoff vector the flip leaves unchanged and
    equal targets for both values), else all of R.  A flip-invariant program
    has a flip-invariant optimum, whose odd moments vanish: in M, the entries
    between the two parities."""
    *_, parity, flip = layout.scaled
    if parity is not None:
        rows, cols, coefs = program.constraints.forms
        # the empty event's cardinality rows, one per value v, read
        # sum_j w_j [x_j = v] - c_v: -c_v on G[0, 0]
        empty = np.isin(rows, np.flatnonzero(program.constraints.event == 0))
        c0, c1 = coefs[empty & (cols == 0)]
        if c0 == c1 and np.array_equal(program.c, program.c[flip]):
            return [np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)]
    return [np.arange(len(layout.basis[0]))]


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
    """Run the splitting method on the blocks of M (the layout's ``scaled``
    basis) and return the lifted moment matrix G = L M L^T."""
    start = time.perf_counter()
    config = config or SolverConfig()
    layout = _layout(program.n, program.q, program.level)
    lift, TW, _, amp, *_ = layout.scaled
    d = len(TW)
    blocks = _blocks(program, layout)
    sizes = [len(b) for b in blocks]
    # the iterates are the blocks' entries, one flat vector, block by block
    sel = np.concatenate([(b[:, None] * d + b).ravel() for b in blocks])
    ends = np.cumsum([0] + [m * m for m in sizes])

    def pieces(flat):
        return [flat[lo:hi].reshape(m, m)
                for m, lo, hi in zip(sizes, ends, ends[1:])]

    def psd(flat):  # project_psd once per block
        return np.concatenate([project_psd(p).ravel() for p in pieces(flat)])

    def full(flat):
        out = np.zeros(d * d)
        out[sel] = flat
        return out.reshape(d, d)

    project_affine = _affine_projection(program.constraints, layout, sel)
    # the objective on M, negated for a minimization
    pc = (1.0 if program.sense == "max" else -1.0) * (lift.T @ program.c)
    Cs = ((np.outer(lift[0], pc) + np.outer(pc, lift[0])) / 2).ravel()[sel]

    # ||L D L^T|| = ||T W D W^T T^T|| for L = P W, P = Q T: residuals
    # measured on the lifted matrix at the cost of M's
    def lifted_norm(flat):
        return np.linalg.norm(TW @ full(flat) @ TW.T)

    rho, gamma = _RHO, _OVER_RELAXATION
    X = X0 = project_affine(np.zeros(len(sel)))
    x0_norm = np.linalg.norm(X0)
    # a bound on tr M on the rows: the diagonal entries are a m with m a
    # probability (q >= 3) or a m_0 = a (q = 2)
    tau = amp[::d + 1].sum()
    slack_unit = _FARKAS_SLACK * (x0_norm + tau)
    Z = psd(X)
    U = np.zeros(len(sel))
    history = []
    status = "max_iter"
    pri = dual = np.inf
    accel = None  # running while the residuals are balanced
    for it in range(1, config.max_iterations + 1):
        X = project_affine(Z - U + Cs / rho)
        f = gamma * X + (1 - gamma) * Z + U  # F(v)
        check = it % _CHECK_EVERY == 0 or it == config.max_iterations
        if accel is not None:
            accel.push(f, f - v)
            if not check:
                step = accel.step()
                if step is None:
                    log.debug("iteration %d: Anderson step failed; "
                              "acceleration off", it)
                    accel = None
                else:
                    f = step
        v = f
        Z_prev = Z
        Z = psd(v)
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
            low = min(np.linalg.eigvalsh(p)[0] for p in pieces(Y))
            margin = np.vdot(Y, X0) + tau * max(0.0, -low)
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
                accel = _Anderson(len(sel))

    # The last projection left rounding errors near 1e-14 in the rows, which
    # the conditional cardinality check divides by event probabilities down
    # to 1e-9; from the nearly feasible X, one more is exact to about 1e-17.
    M = full(X)
    M = full(project_affine(((M + M.T) / 2).ravel()[sel]))
    gram = lift @ M @ lift.T
    objective = float(program.c @ gram[0])
    solution = MomentSolution(program.level, program.n, program.q,
                              list(program.indices), gram, objective)
    log.debug("%s after %d iterations: primal %.3g, dual %.3g, rho %.4g, "
              "blocks %s", status, it, pri, dual, rho, sizes)
    return solution, SolveReport(
        status=status, iterations=it, primal_residual=float(pri),
        dual_residual=float(dual), objective=objective,
        residual_history=history, rho=rho, blocks=sizes,
        seconds=time.perf_counter() - start)
