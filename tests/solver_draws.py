"""A seeded battery of random solves, to compare solver changes off the
bundled suite.  A script; pytest does not collect it.

    PYTHONPATH=src python tests/solver_draws.py [--draws 90] [--seed 1022]
        [--cap 20000] [--tolerance 1e-6]

Each draw is a relaxation at level 2 or 3 of an instance on n = 4-8
vertices whose vertex weights admit an exact split, so every draw is
feasible:

- ``integer`` weights: Max or Min Bisection or Max 2-Sat on G(n, 1/2), vertex
  weights drawn from 1-5 and one vertex topped up so that a random split is
  exact;
- ``uniform`` weights: Max or Min Bisection on G(n, p), p 0.3, 0.5 or 0.8,
  the last vertex at weight 0 when ``zero``, vertex 0 weighing double when
  the count of weighted vertices is odd (the space of
  ``test_accelerated_solve_is_feasible_and_bounds_the_optimum``).

One line per draw: its seed, kind, weights, p and zero (uniform only), n,
level, the solver's status and iterations, the solve's seconds, and whether
``check_feasibility`` passes at the solver's tolerance; then the totals,
with the count of ``optimal`` solves that fail that check.
"""

import argparse
import sys
import time
from itertools import combinations

import numpy as np

from cardcsp import sdp_solver
from cardcsp.instance import cut_instance, max2sat_instance
from cardcsp.lasserre import build_relaxation, check_feasibility

KINDS = (("maxcut-bisection", "integer"), ("mincut-bisection", "integer"),
         ("max2sat", "integer"), ("maxcut-bisection", "uniform"),
         ("mincut-bisection", "uniform"))


def instance(kind, weights, n, seed, p=0.5, zero=False):
    """The draw's instance; ``p`` and ``zero`` are read for uniform weights
    only."""
    rng = np.random.default_rng(seed)
    if weights == "uniform":
        edges = [(i, j) for i, j in combinations(range(n), 2)
                 if rng.random() < p] or [(0, 1)]
        w = np.ones(n)
        w[-1] -= zero
        w[0] += (n - zero) % 2
    else:
        side = rng.permutation(np.arange(n) % 2)
        w = rng.integers(1, 6, n).astype(float)
        light = int(w[side == 1].sum() < w[side == 0].sum())
        w[np.flatnonzero(side == light)[0]] += abs(w[side == 1].sum()
                                                   - w[side == 0].sum())
        edges = [e for e in combinations(range(n), 2)
                 if rng.random() < 0.5] or [(0, 1)]
    w = list(w / w.sum())
    if kind == "max2sat":
        return max2sat_instance(n, [(i, j, int(rng.choice([-1, 1])),
                                     int(rng.choice([-1, 1])), 1.0)
                                    for i, j in edges], vertex_weights=w)
    return cut_instance(n, [(i, j, 1.0) for i, j in edges], kind=kind,
                        vertex_weights=w)


def draws(count, seed):
    """``count`` draw specifications (kind, weights, n, level, seed, p,
    zero) from one generator seed."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        kind, weights = KINDS[rng.integers(len(KINDS))]
        n, level = int(rng.integers(4, 9)), int(rng.integers(2, 4))
        p, zero = float(rng.choice([0.3, 0.5, 0.8])), bool(rng.integers(2))
        out.append((kind, weights, n, level, int(rng.integers(2 ** 16)),
                    p, zero))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=90)
    parser.add_argument("--seed", type=int, default=1022,
                        help="the generator seed of the draws")
    parser.add_argument("--cap", type=int, default=20_000,
                        help="the solver's max_iterations")
    parser.add_argument("--tolerance", type=float, default=1e-6)
    args = parser.parse_args(argv)
    config = sdp_solver.SolverConfig(max_iterations=args.cap,
                                     tolerance=args.tolerance)
    statuses, iterations, seconds, failing = {}, 0, 0.0, 0
    print("seed kind weights p zero n level status iterations seconds passes")
    for kind, weights, n, level, seed, p, zero in draws(args.draws, args.seed):
        inst = instance(kind, weights, n, seed, p, zero)
        start = time.perf_counter()
        solution, report = sdp_solver.solve(build_relaxation(inst, level),
                                            config)
        elapsed = time.perf_counter() - start
        passes = check_feasibility(solution, inst).passes(args.tolerance)
        extra = f"{p} {int(zero)}" if weights == "uniform" else "- -"
        print(f"{seed} {kind} {weights} {extra} {n} {level} {report.status} "
              f"{report.iterations} {elapsed:.3f} {passes}", flush=True)
        statuses[report.status] = statuses.get(report.status, 0) + 1
        iterations += report.iterations
        seconds += elapsed
        failing += report.status == "optimal" and not passes
    print(f"total: {args.draws} draws, {iterations} iterations, "
          f"{seconds:.1f} s; " + ", ".join(f"{s} {c}" for s, c in
                                           sorted(statuses.items()))
          + f"; optimal failing passes() {failing}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
