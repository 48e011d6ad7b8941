"""Acceptance suite: one test per advertised guarantee, each printing a
single PASS/FAIL line with its headline numbers."""

import math
import time

import numpy as np
import pytest

from cardcsp import sdp_solver
from cardcsp.independence import (alpha_independence, condition,
                                  conditional_entropy_after, entropy,
                                  mutual_information, pair_joint)
from cardcsp.instance import generate
from cardcsp.landscape import (bvn_cdf, ratio_search, rounded_value_grid,
                               edge_sdp_value_grid, sqrt_eps_curve)
from cardcsp.lasserre import (build_relaxation, check_feasibility,
                              local_distribution, solution_objective)
from cardcsp.dictator import (build_gadget, completeness, soundness_enumerate)
from cardcsp.oracle import brute_force, exact_mixture_moments, mc_bvn
from cardcsp.rounding import (BiasProfile, labels_from_gaussian, pipeline,
                              separation_identity_gap, threshold)
from cardcsp.suite import default_suite


def _report(criterion, ok, detail):
    from conftest import record_acceptance_line

    line = (f"ACCEPTANCE criterion {criterion:2d}: "
            f"{'PASS' if ok else 'FAIL'} ({detail})")
    print("\n" + line)
    record_acceptance_line(line)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def suite_solutions():
    """Solve every bundled suite instance once; shared by criteria 5 and 8."""
    t0 = time.time()
    solved = []
    for name, inst in default_suite():
        program = build_relaxation(inst, 2)
        solution, report = sdp_solver.solve(program)
        solved.append((name, inst, solution, report))
    return solved, time.time() - t0


def test_criterion_1_bisection_ratio_certificate():
    t0 = time.time()
    cert = ratio_search("cut", resolution=200)
    elapsed = time.time() - t0
    ok = 0.84 <= cert.minimum_ratio <= 0.87 and elapsed <= 300
    _report(1, ok, f"cut minimum ratio {cert.minimum_ratio:.6f} "
                   f"in [0.84, 0.87], {elapsed:.0f}s")


def test_criterion_2_max2sat_ratio_certificate():
    t0 = time.time()
    cert = ratio_search("max2sat", resolution=200)
    elapsed = time.time() - t0
    ok = cert.minimum_ratio >= 0.91 and elapsed <= 300
    _report(2, ok, f"2-Sat minimum ratio {cert.minimum_ratio:.6f} >= 0.91, "
                   f"{elapsed:.0f}s")


def test_criterion_3_sqrt_eps_law():
    t0 = time.time()
    curve = sqrt_eps_curve([0.0025, 0.01, 0.04, 0.09])
    elapsed = time.time() - t0
    ok = 0.4 <= curve["beta"] <= 0.6 and elapsed <= 120
    _report(3, ok, f"fitted exponent {curve['beta']:.4f} in [0.4, 0.6], "
                   f"{elapsed:.0f}s")


def test_criterion_4_hyperplane_constant_slice():
    # 1-D oracle: minimize (arccos(rho)/pi) / ((1-rho)/2) directly
    rho = np.linspace(-1 + 1e-12, 1 - 1e-12, 400_001)
    oracle = float(((np.arccos(rho) / np.pi) / ((1 - rho) / 2)).min())
    mus = np.zeros_like(rho)
    ratio = (rounded_value_grid("cut", mus, mus, rho)
             / edge_sdp_value_grid("cut", mus, mus, rho))
    landscape_min = float(ratio.min())
    ok = (abs(oracle - 0.8785672) <= 1e-6
          and abs(landscape_min - 0.8785672) <= 1e-4)
    _report(4, ok, f"unbiased slice minimum {landscape_min:.7f} vs "
                   f"0.8785672, oracle {oracle:.7f}")


def test_criterion_5_pipeline_vs_oracle(suite_solutions):
    solved, solve_time = suite_solutions
    t0 = time.time()
    worst = math.inf
    rows = []
    for name, inst, solution, _report_ in solved:
        exact = brute_force(inst)
        result = pipeline(inst, trials=32, seed=0, solution=solution)
        ratio = result.best.value / exact.optimum
        worst = min(worst, ratio)
        rows.append((name, ratio))
    elapsed = solve_time + (time.time() - t0)
    ok = worst >= 0.84 and elapsed <= 900
    _report(5, ok, f"12-instance suite worst repaired/brute-force ratio "
                   f"{worst:.4f} >= 0.84, {elapsed:.0f}s")


def test_criterion_6_near_perfect_regime():
    worst_margin = math.inf
    for eps in (0.01, 0.05, 0.1):
        bound = 1.0 - 3.0 * math.sqrt(eps)
        for seed in range(5):
            inst = generate("planted", 8, seed=seed, eps=eps)
            result = pipeline(inst, trials=32, seed=seed)
            worst_margin = min(worst_margin, result.best.value - bound)
    ok = worst_margin >= 0.0
    _report(6, ok, f"planted battery min margin over 1 - 3 sqrt(eps): "
                   f"{worst_margin:.4f}")


def test_criterion_7_conditioning_chain_rule():
    rng = np.random.default_rng(42)
    inst = generate("cycle", 6)
    w = inst.weights_array
    base = np.array([0, 0, 0, 1, 1, 1])
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 6))
        assigns = []
        for _ in range(k):
            x = base.copy()
            rng.shuffle(x)
            assigns.append(tuple(x))
        sol = exact_mixture_moments(inst, assigns, rng.dirichlet(np.ones(k)),
                                    level=3)
        pivot = int(rng.integers(6))
        marginal_entropy = sum(
            w[j] * entropy(local_distribution(sol, (j,)).probabilities)
            for j in range(6))
        lhs = marginal_entropy - conditional_entropy_after(sol, inst, pivot)
        rhs = sum(w[j] * mutual_information(pair_joint(sol, pivot, j))
                  for j in range(6) if j != pivot)
        rhs += w[pivot] * entropy(
            local_distribution(sol, (pivot,)).probabilities)
        worst = max(worst, abs(lhs - rhs))

    inst4 = generate("cycle", 4)
    mix = exact_mixture_moments(inst4, [(0, 1, 0, 1), (1, 0, 1, 0)],
                                [0.5, 0.5], level=3)
    before = alpha_independence(mix, inst4).average_mi
    after = alpha_independence(condition(mix, 0, 0), inst4).average_mi
    ok = worst <= 1e-9 and abs(before - 1.0) <= 1e-12 and after <= 1e-9
    _report(7, ok, f"chain-rule worst gap {worst:.2e} <= 1e-9; mixture MI "
                   f"{before:.3f} -> {after:.2e} after one conditioning")


def test_criterion_8_feasibility_invariants(suite_solutions):
    solved, _ = suite_solutions
    worst_psd = worst_cons = worst_card = worst_sep = 0.0
    for name, inst, solution, _report_ in solved:
        rep = check_feasibility(solution, inst)
        worst_psd = max(worst_psd, rep.psd_violation)
        worst_cons = max(worst_cons, rep.consistency_violation)
        worst_card = max(worst_card, rep.cardinality_violation)
        worst_sep = max(worst_sep, separation_identity_gap(solution, inst))
    ok = (worst_psd <= 1e-5 and worst_cons <= 1e-5 and worst_card <= 1e-5
          and worst_sep <= 1e-6)
    _report(8, ok, f"suite max violations: psd {worst_psd:.1e}, "
                   f"consistency {worst_cons:.1e}, cardinality "
                   f"{worst_card:.1e}, separation identity {worst_sep:.1e}")


def test_criterion_9_bias_preservation_and_correlation_bound():
    rng = np.random.default_rng(2024)
    trials = 100_000
    worst_dev = 0.0
    for _ in range(20):
        n = 5
        mu = rng.uniform(-0.9, 0.9, size=n)
        u = rng.standard_normal((n, n))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        profile = BiasProfile(mu=mu, w=u * np.sqrt(1 - mu**2)[:, None],
                              degenerate=np.zeros(n, dtype=bool))
        g = np.random.default_rng(int(rng.integers(2**31))).standard_normal(
            (trials, n))
        labels = labels_from_gaussian(profile, g)
        emp = (labels == 1).mean(axis=0)
        target = (1 + mu) / 2
        sigma = np.sqrt(target * (1 - target) / trials)
        worst_dev = max(worst_dev, float(np.max(np.abs(emp - target) / sigma)))

    # correlation bound: |P(a,b) - P(a)P(b)| <= sqrt(2 I) with I in nats
    violations = 0
    worst_slack = math.inf
    for _ in range(10_000):
        joint = rng.dirichlet(np.ones(4)).reshape(2, 2)
        bound = math.sqrt(2.0 * mutual_information(joint) * math.log(2.0))
        gap = float(np.max(np.abs(joint - np.outer(joint.sum(1),
                                                   joint.sum(0)))))
        worst_slack = min(worst_slack, bound - gap)
        if gap > bound + 1e-12:
            violations += 1
    ok = worst_dev <= 3.0 and violations == 0
    _report(9, ok, f"rounding marginal max deviation {worst_dev:.2f} sigma "
                   f"<= 3; correlation bound violations {violations}/10000")


def _two_round_fixtures():
    c4 = generate("cycle", 4)
    c6 = generate("cycle", 6)
    k4 = generate("complete", 4)
    fixtures = [
        ("cycle4", c4, exact_mixture_moments(
            c4, [(0, 1, 0, 1), (1, 0, 1, 0)], [0.5, 0.5], level=2)),
        ("cycle6", c6, exact_mixture_moments(
            c6, [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)], [0.5, 0.5],
            level=2)),
        ("complete4", k4, exact_mixture_moments(
            k4, [(0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0),
                 (1, 0, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)],
            [1 / 6] * 6, level=2)),
    ]
    return fixtures


def test_criterion_10_dictatorship_completeness_and_soundness():
    worst_balance = 0.0
    worst_value_margin = math.inf
    for name, inst, sol in _two_round_fixtures():
        val = solution_objective(sol, inst)
        for eps in (0.0, 0.1):
            gadget = build_gadget(sol, inst, eps, R=3)
            rep = completeness(gadget, val)
            worst_balance = max(worst_balance, rep.max_abs_balance)
            worst_value_margin = min(
                worst_value_margin,
                rep.min_dictator_value - (val - 2 * eps - 1e-6))

    inst, sol = _two_round_fixtures()[0][1], _two_round_fixtures()[0][2]
    gadget = build_gadget(sol, inst, 0.1, R=3)
    t0 = time.time()
    opt_report = soundness_enumerate(gadget, tau=1.0)  # all 256 functions
    triples = []
    for tau in (0.6, 0.8, 1.0):
        rep = soundness_enumerate(gadget, tau=tau)
        if not rep.empty:
            triples.append((tau, rep.max_value, opt_report.max_value))
    elapsed = time.time() - t0
    sound_ok = (elapsed <= 60 and triples
                and all(v <= opt + 1e-12 for _, v, opt in triples))
    ok = worst_balance <= 1e-9 and worst_value_margin >= 0.0 and sound_ok
    _report(10, ok, f"dictator max |balance| {worst_balance:.1e} <= 1e-9, "
                    f"min value margin {worst_value_margin:.2e} >= 0; "
                    f"soundness {len(triples)} triples in {elapsed:.1f}s")


def test_criterion_11_numerical_kernels():
    # closed form at the origin
    worst_closed = max(
        abs(bvn_cdf(0.0, 0.0, r) - (0.25 + math.asin(r) / (2 * math.pi)))
        for r in np.linspace(-0.999, 0.999, 50))

    # Monte Carlo cross-check
    rng = np.random.default_rng(7)
    mc_fails = 0
    for _ in range(20):
        t1, t2 = rng.normal(size=2) * 1.2
        rho = rng.uniform(-0.95, 0.95)
        est, sigma = mc_bvn(t1, t2, rho, samples=200_000,
                            seed=int(rng.integers(2**31)))
        if abs(bvn_cdf(t1, t2, rho) - est) > 4 * sigma:
            mc_fails += 1

    # inverse normal CDF vs bisection on the erf identity
    def phi_inv_bisect(p):
        lo, hi = -10.0, 10.0
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2
            if (1.0 + math.erf(mid / math.sqrt(2.0))) / 2.0 < p:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2

    worst_inv = max(abs(threshold(mu) - phi_inv_bisect((1 + mu) / 2))
                    for mu in np.linspace(-0.999, 0.999, 41))
    ok = worst_closed <= 1e-8 and mc_fails == 0 and worst_inv <= 1e-9
    _report(11, ok, f"bvn closed-form gap {worst_closed:.1e} <= 1e-8, "
                    f"Monte Carlo misses {mc_fails}/20, inverse-CDF gap "
                    f"{worst_inv:.1e} <= 1e-9")
