"""The benchmark's workloads: seeded inputs, the timed calls into cardcsp,
and the checks of each output.

A workload's ``setup(seed)`` makes every input from the seed and computes the
references the checks need; it returns a list of ``Op``.  One round runs
every op once.  ``Op.run`` holds only calls into the program and is timed;
``Op.check`` runs after the clock stops, raises ``CheckFailed`` on a wrong
output and ``OpFailed`` when the program itself reports failure (an error or a
solve whose status is not ``optimal``), and returns the op's ratio of best
value to optimum, if it has one.

Calls go through module attributes (``lasserre.build_relaxation``), so the
traced run sees them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from cardcsp import (dictator, instance, landscape, lasserre, oracle,
                     rounding, sdp_solver, suite)
from cardcsp.errors import CardCspError

import checks
from checks import require


class OpFailed(Exception):
    """The program reported that an operation failed."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], float | None]
    # extra work for the traced run only: the solver's set-up cost, timed as
    # a solve capped at one iteration
    solver_setup: Callable[[], None] | None = None


def _sub_seeds(seed: int, count: int):
    return [int(s.generate_state(1)[0])
            for s in np.random.SeedSequence(seed).spawn(count)]


def relabel(inst, perm):
    """The same instance with vertex v renamed perm[v]."""
    terms = tuple(instance.PayoffTerm(tuple(int(perm[v]) for v in t.scope),
                                      t.table, t.weight, t.q)
                  for t in inst.payoffs)
    weights = [0.0] * inst.n
    for v, w in enumerate(inst.vertex_weights):
        weights[perm[v]] = w
    return instance.CspInstance(inst.n, inst.q, terms, tuple(weights),
                                inst.cardinality, inst.kind)


def _reference_optimum(inst):
    """The program's brute-force optimum, checked against the benchmark's own
    enumeration."""
    exact = oracle.brute_force(inst).optimum
    mine = checks.exhaustive_optimum(inst)
    require(abs(exact - mine) <= 1e-12,
            f"brute_force optimum {exact} != exhaustive {mine}")
    return exact


def _as_solution(inst, X, p, level):
    indices = checks.index_set(inst.n, level)
    gram = checks.mixture_moments(X, p, level)
    return lasserre.MomentSolution(level, inst.n, inst.q, indices, gram,
                                   checks.mixture_value(inst, X, p))


# -- relax -> solve -> condition -> round -> repair --------------------------

def _solver_op(name, inst, level, optimum, trials, seed):
    state = {}

    def run():
        program = lasserre.build_relaxation(inst, level)
        state["program"] = program
        solution, report = sdp_solver.solve(program)
        feasibility = lasserre.check_feasibility(solution, inst)
        result = rounding.pipeline(inst, level=level, trials=trials, seed=seed,
                                   solution=solution)
        return solution, report, feasibility, result

    def check(out):
        solution, report, feas, result = out
        if report.status != "optimal":
            raise OpFailed(f"{name}: solver status {report.status}")
        require(solution.indices == checks.index_set(inst.n, level),
                f"{name}: moment index set differs from its definition")
        worst = max(feas.psd_violation, feas.consistency_violation,
                    feas.cardinality_violation)
        require(worst <= 1e-5, f"{name}: feasibility violation {worst:.3g}")
        require(report.objective >= optimum - 1e-4,
                f"{name}: SDP objective {report.objective} below optimum {optimum}")
        value = checks.check_assignment(inst, result.best.labels,
                                        result.best.value, optimum)
        ratio = value / optimum
        require(ratio >= 0.84, f"{name}: ratio {ratio:.4f} < 0.84")
        return ratio

    def solver_setup():
        sdp_solver.solve(state["program"], sdp_solver.SolverConfig(max_iterations=1))

    return Op(name, run, check, solver_setup)


# Bundled suite instances whose level-2 solve takes at most about 2 s on one
# core.  gnp10_a, gnp10_b, planted10_e01, planted10_e05 and gnp12 take 6-41 s
# each and planted12_e10 258 s: a run could not repeat them.
SUITE_L2 = ("cycle4", "complete4", "cycle6", "complete6", "two_cliques8",
            "two_cliques10")


def setup_suite_l2(seed, names=SUITE_L2):
    """Six bundled suite instances at level 2, each under a seeded vertex
    relabelling; 32 rounding trials."""
    rng = np.random.default_rng(seed)
    entries = [(n, i) for n, i in suite.default_suite() if n in names]
    seeds = _sub_seeds(seed, len(entries))
    ops = []
    for (name, inst), s in zip(entries, seeds):
        inst = relabel(inst, rng.permutation(inst.n))
        ops.append(_solver_op(name, inst, 2, _reference_optimum(inst), 32, s))
    return ops


# n = 6 level-3 instances that converge in about 150 iterations.  The cycle,
# planted and gnp n = 6 instances need 975-1,050 iterations (8-9.5 s each),
# too long to repeat within a run.
LEVEL3_N6 = (("complete6", "complete", {}), ("two_cliques6", "two_cliques", {}))


def setup_level3_n6(seed, entries=LEVEL3_N6):
    """Level-3 relaxations (d = 233, 5,961 rows) of two n = 6 instances under
    a seeded relabelling; decorrelate conditions once here."""
    rng = np.random.default_rng(seed)
    seeds = _sub_seeds(seed, len(entries))
    ops = []
    for (name, family, params), s in zip(entries, seeds):
        inst = relabel(instance.generate(family, 6, **params), rng.permutation(6))
        ops.append(_solver_op(name, inst, 3, _reference_optimum(inst), 32, s))
    return ops


# -- relax and round exact mixtures, no solver ------------------------------

# (n, level, graph seed): G(n, 1/2) graphs at levels 2 and 3
RELAX_ROUND = ((12, 2, 1), (16, 2, 2), (8, 3, 3), (10, 3, 4))
MIXTURE_SIZE = 4


def near_optimal_mixture(inst, rng, size=MIXTURE_SIZE):
    """The instance's best ``size`` balanced assignments with Dirichlet
    weights."""
    X, values = checks.balanced_assignments(inst)
    best = np.argsort(-values, kind="stable")[:size]
    return X[best], rng.dirichlet(np.ones(size))


def _relax_round_op(name, inst, level, X, p, optimum, seed):
    mixture = _as_solution(inst, X, p, level)
    value = checks.mixture_value(inst, X, p)
    # decorrelate returns the mixture itself or, at level 3, the mixture
    # conditioned on one pivot event
    references = [(mixture.gram, value)]
    if level >= 3:
        for pivot in range(inst.n):
            for v in (0, 1):
                if (X[:, pivot] == v).any():
                    Xc, pc = checks.conditioned_mixture(X, p, pivot, v)
                    references.append((checks.mixture_moments(Xc, pc, level - 1),
                                       checks.mixture_value(inst, Xc, pc)))

    def run():
        program = lasserre.build_relaxation(inst, level)
        feasibility = lasserre.check_feasibility(mixture, inst)
        objective = lasserre.solution_objective(mixture, inst)
        result = rounding.pipeline(inst, level=level, trials=256, seed=seed,
                                   solution=mixture)
        return program, feasibility, objective, result

    def check(out):
        program, feas, objective, result = out
        require(program.indices == mixture.indices,
                f"{name}: program index set differs from its definition")
        worst = max(feas.psd_violation, feas.consistency_violation,
                    feas.cardinality_violation)
        require(worst <= 1e-9, f"{name}: mixture violation {worst:.3g}")
        require(abs(objective - value) <= 1e-12,
                f"{name}: solution_objective {objective} != mixture value {value}")
        gram = result.solution.gram
        match = [v for g, v in references
                 if g.shape == gram.shape and np.abs(g - gram).max() <= 1e-12]
        require(match, f"{name}: returned solution is neither the mixture nor "
                       "the mixture conditioned on one pivot event")
        require(abs(result.sdp_objective - match[0]) <= 1e-12,
                f"{name}: sdp_objective {result.sdp_objective} != {match[0]}")
        best = checks.check_assignment(inst, result.best.labels,
                                       result.best.value, optimum)
        ratio = best / optimum
        require(ratio >= 0.84, f"{name}: ratio {ratio:.4f} < 0.84")
        return ratio

    return Op(name, run, check)


def setup_relax_round(seed):
    """Exact moment matrices of mixtures of each graph's best balanced
    assignments, with seeded weights, under a seeded relabelling; 256
    rounding trials.  The mixture's support is fixed up to the relabelling,
    so the work of a round does not depend on the seed."""
    rng = np.random.default_rng(seed)
    seeds = _sub_seeds(seed, len(RELAX_ROUND))
    ops = []
    for (n, level, graph), s in zip(RELAX_ROUND, seeds):
        base = instance.generate("gnp", n, seed=graph, p=0.5)
        X0, p = near_optimal_mixture(base, rng)
        perm = rng.permutation(n)
        inst = relabel(base, perm)
        X = np.empty_like(X0)
        X[:, perm] = X0
        ops.append(_relax_round_op(f"gnp{n}_level{level}", inst, level, X, p,
                                   _reference_optimum(inst), s))
    return ops


# -- certificates -------------------------------------------------------------

RESOLUTION = 64       # grid points per axis of the ratio search
EPS_VALUES = (0.0025, 0.01, 0.04, 0.09)
HYPERPLANE = 0.8785672
GADGET_INSTANCES = (("cycle4", "cycle", 4), ("cycle6", "cycle", 6),
                    ("complete4", "complete", 4))
GADGET_EPS = 0.1
GADGET_TAU = 0.8


def _ratio_op(kind, resolution=RESOLUTION):
    def run():
        return landscape.ratio_search(kind, resolution)

    def check(cert):
        low = cert.minimum_ratio
        if kind == "cut":
            require(0.85 <= low <= HYPERPLANE + cert.error_bar,
                    f"cut minimum {low} outside [0.85, {HYPERPLANE} + error bar]")
        else:
            require(low >= 0.92, f"2-Sat minimum {low} < 0.92")
        a = cert.argmin
        again = checks.edge_ratio(kind, a.mu1, a.mu2, a.rhobar)
        require(abs(again - low) <= cert.error_bar,
                f"{kind} argmin ratio {low} vs SciPy {again}: beyond error bar "
                f"{cert.error_bar:.3g}")
        return low

    return Op(f"ratio_search_{kind}", run, check)


def _sqrt_eps_op():
    def run():
        return landscape.sqrt_eps_curve(list(EPS_VALUES))

    def check(curve):
        beta = curve["beta"]
        require(0.4 <= beta <= 0.6, f"sqrt-eps exponent {beta} outside [0.4, 0.6]")
        for row in curve["rows"]:
            a = row["argmax"]
            sep, sdp = checks.edge_values("cut", a["mu1"], a["mu2"], a["rhobar"])
            require(sdp <= row["eps"] + 1e-9,
                    f"eps {row['eps']}: argmax has cut SDP value {sdp}")
            require(abs(sep - row["worst_separation"]) <= 1e-8,
                    f"eps {row['eps']}: separation {row['worst_separation']} "
                    f"vs SciPy {sep}")
        return None

    return Op("sqrt_eps_curve", run, check)


def _gadget_op(name, inst, X, p, R):
    solution = _as_solution(inst, X, p, 2)
    sdp_value = checks.mixture_value(inst, X, p)

    def run():
        gadget = dictator.build_gadget(solution, inst, GADGET_EPS, R)
        complete = dictator.completeness(gadget, sdp_value)
        sound = dictator.soundness_enumerate(gadget, GADGET_TAU)
        return gadget, complete, sound

    def check(out):
        gadget, complete, sound = out
        require(complete.ok, f"{name}: dictator completeness fails")
        require(complete.min_dictator_value >= sdp_value - 2 * GADGET_EPS - 1e-9,
                f"{name}: dictator value {complete.min_dictator_value} below "
                f"{sdp_value} - 2 eps")
        if R == 3:
            best, admitted = checks.soundness_max(gadget, GADGET_TAU)
            require(admitted == sound.candidates,
                    f"{name}: {sound.candidates} functions admitted, "
                    f"enumeration finds {admitted}")
            require(best is None and sound.empty
                    or best is not None and abs(best - sound.max_value) <= 1e-12,
                    f"{name}: soundness maximum {sound.max_value} != {best}")
        return None

    return Op(f"gadget_{name}_R{R}", run, check)


def _symmetric_mixture(inst, rng, pairs=2):
    """Seeded balanced assignments, each paired with its complement at equal
    weight, so every vertex marginal is 1/2 and balanced functions exist."""
    X, _ = checks.balanced_assignments(inst)
    pick = X[rng.choice(len(X), size=pairs, replace=False)]
    q = rng.dirichlet(np.ones(pairs))
    return np.vstack([pick, 1 - pick]), np.concatenate([q, q]) / 2


def setup_certificates(seed, resolution=RESOLUTION):
    """Worst-case ratio searches, the sqrt-eps curve and dictatorship gadgets
    from seeded exact level-2 mixtures.  No SDP solve."""
    rng = np.random.default_rng(seed)
    ops = [_ratio_op("cut", resolution), _ratio_op("max2sat", resolution),
           _sqrt_eps_op()]
    for name, family, n in GADGET_INSTANCES:
        inst = instance.generate(family, n)
        X, p = _symmetric_mixture(inst, rng)
        checks.check_balanced_mixture(inst, X)
        require(checks.mixture_value(inst, X, p) <= _reference_optimum(inst) + 1e-12,
                f"{name}: mixture value above the optimum")
        for R in (3, 4):
            ops.append(_gadget_op(name, inst, X, p, R))
    return ops


# The full-size inputs behind the reference figures in README.md, run once
# by reference.py; each is too slow to repeat within one run.
FULL_SIZE = {
    "suite-l2": {"names": tuple(n for n, _ in suite.default_suite()
                                if n != "planted12_e10")},
    "level3-n6": {"entries": (("cycle6", "cycle", {}),
                              ("planted6_e05", "planted", {"eps": 0.05}),
                              ("gnp6", "gnp", {"p": 0.5}))},
    "relax-round": {},
    "certificates": {"resolution": 200},
}

WORKLOADS = {
    "suite-l2": setup_suite_l2,
    "level3-n6": setup_level3_n6,
    "relax-round": setup_relax_round,
    "certificates": setup_certificates,
}


def run_op(op):
    """Run one op; a CardCspError raised by the program counts as a failure."""
    try:
        return op.run()
    except CardCspError as exc:
        raise OpFailed(f"{op.name}: {type(exc).__name__}: {exc}") from exc
