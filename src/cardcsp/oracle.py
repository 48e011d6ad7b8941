"""Independent ground-truth computations used to check the pipeline:
exhaustive solvers, Monte Carlo orthant probabilities, and exact moment
matrices of finite assignment mixtures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, CardCspError, _admit_int, _admit_real
from .instance import CspInstance
from .lasserre import MomentSolution, _layout, _lift_vectors

_BISECTION_CAP = 24  # largest n brute_force enumerates under the cardinality rule
_SPLIT_SLACK = 1e-9  # rounding slack on a side's weight against the target


@dataclass
class ExactResult:
    optimum: float
    witness: tuple[int, ...]
    optima_count: int
    enumeration_size: int

    def to_json(self):
        return json.dumps({
            "schema": "cardcsp.exact_result/1",
            "optimum": self.optimum,
            "witness": list(self.witness),
            "optima_count": self.optima_count,
            "enumeration_size": self.enumeration_size,
        })


def _all_values(instance: CspInstance) -> np.ndarray:
    """Objective of every assignment, vectorized over the full hypercube."""
    n = instance.n
    size = 1 << n
    values = np.zeros(size)
    codes = np.arange(size, dtype=np.int64)
    # lexicographic; n planes of 2^n, so one byte per entry
    bits = [((codes >> (n - 1 - i)) & 1).astype(np.uint8) for i in range(n)]
    for t in instance.payoffs:
        idx = np.zeros(size, dtype=np.int64)
        for v in t.scope:
            idx = idx * 2 + bits[v]
        table = np.asarray(t.table)
        values += t.weight * table[idx]
    return values


def brute_force(instance: CspInstance, respect_cardinality: bool = True) -> ExactResult:
    """Exhaustive optimum.  The witness is the lexicographically first
    optimal assignment; for max kinds the maximum, for min kinds the
    minimum.  Under the cardinality rule side 0 must weigh the target
    fraction exactly, up to rounding (``_SPLIT_SLACK``): an instance with no
    such split raises ``CardCspError``."""
    if instance.q != 2:
        raise CardCspError("brute force supports q = 2 only")
    n = instance.n
    cap = _BISECTION_CAP if respect_cardinality else 20
    if n > cap:
        raise CapacityError(f"n={n} exceeds enumeration cap {cap}")
    values = _all_values(instance)
    size = values.size
    if respect_cardinality:
        w = instance.weights_array
        codes = np.arange(size, dtype=np.int64)
        bal0 = np.zeros(size)
        for i in range(n):
            bal0 += w[i] * (1 - ((codes >> (n - 1 - i)) & 1))
        target = float(instance.cardinality.as_floats()[0])
        # the exact weight, as the relaxation's rows demand
        mask = np.abs(bal0 - target) <= _SPLIT_SLACK
        if not mask.any():
            raise CardCspError("no assignment satisfies the cardinality constraint")
        values = np.where(mask, values, np.nan)
    if instance.sense == "max":
        opt = np.nanmax(values)
    else:
        opt = np.nanmin(values)
    hits = np.flatnonzero(np.isclose(values, opt, rtol=0, atol=1e-12))
    code = int(hits[0])
    witness = tuple((code >> (n - 1 - i)) & 1 for i in range(n))
    return ExactResult(float(opt), witness, int(hits.size), size)


def mc_bvn(t1: float, t2: float, rho: float, samples: int = 10**6,
           seed: int = 0) -> tuple[float, float]:
    """Monte Carlo estimate of P(Z1 <= t1, Z2 <= t2) with its binomial
    sigma, via Cholesky-correlated normal sampling; ``rho`` is a finite
    real in [-1, 1]."""
    rho = _admit_real("rho", rho, -1, 1, "[]")
    _admit_int("samples", samples, 10**4)
    _admit_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 10**6
    done = 0
    c = np.sqrt(max(0.0, 1.0 - rho * rho))
    while done < samples:
        m = min(chunk, samples - done)
        z1 = rng.standard_normal(m)
        z2 = rho * z1 + c * rng.standard_normal(m)
        hits += int(np.count_nonzero((z1 <= t1) & (z2 <= t2)))
        done += m
    p = hits / samples
    sigma = np.sqrt(max(p * (1 - p), 1.0 / samples) / samples)
    return p, float(sigma)


def exact_mixture_moments(instance: CspInstance, assignments, probabilities,
                          level: int = 2) -> MomentSolution:
    """Moment matrix of a finite mixture of deterministic assignments.

    Feasible by convexity whenever every assignment respects the
    cardinality constraint.  Each probability is a finite real >= 0.
    """
    probabilities = np.array([_admit_real("probability", p, 0, math.inf, "[)")
                              for p in probabilities])
    if abs(probabilities.sum() - 1.0) > 1e-9:
        raise CardCspError(f"mixture probabilities sum to {probabilities.sum()}")
    assignments = [tuple(int(a) for a in x) for x in assignments]
    # evaluate refuses an assignment that does not fit the instance
    objective = float(sum(p * instance.evaluate(x)
                          for x, p in zip(assignments, probabilities)))
    layout = _layout(instance.n, instance.q, level)
    d = len(layout.indices)
    gram = np.zeros((d, d))
    for vec, p in zip(_lift_vectors(layout.values, assignments),
                      probabilities):
        if p > 0:
            gram += p * np.outer(vec, vec)
    return MomentSolution(level, instance.n, instance.q, list(layout.indices),
                          gram, objective)
