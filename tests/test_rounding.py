import math

import numpy as np
import pytest

from cardcsp.errors import CardCspError
from cardcsp.instance import cut_instance, generate
from cardcsp.sdp_solver import SolverConfig
from cardcsp.lasserre import integral_lift
from cardcsp.oracle import exact_mixture_moments
from cardcsp.rounding import (BiasProfile, RoundedAssignment, bias_decompose,
                              labels_from_gaussian, pipeline,
                              repair_balance, round_many,
                              round_profile, separation_identity_gap,
                              threshold)


def _phi_inverse_bisection(p, tol=1e-12):
    """Independent inverse normal CDF via bisection on the erf identity."""
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if (1.0 + math.erf(mid / math.sqrt(2.0))) / 2.0 < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_threshold_reference_values():
    assert threshold(0.0) == 0.0
    # Phi^-1(0.75), oracle by bisection
    assert threshold(0.5) == pytest.approx(_phi_inverse_bisection(0.75),
                                           abs=1e-9)
    assert threshold(1.0) == np.inf
    assert threshold(-1.0) == -np.inf
    with pytest.raises(CardCspError):
        threshold(1.5)


def test_threshold_oddness():
    mus = np.linspace(-0.95, 0.95, 21)
    assert np.allclose(threshold(mus), -threshold(-mus))


def test_bias_decompose_recovers_geometry():
    inst = generate("cycle", 4)
    sol = exact_mixture_moments(inst, [(0, 1, 0, 1), (1, 0, 1, 0)],
                                [0.5, 0.5], level=2)
    profile = bias_decompose(sol)
    assert np.allclose(profile.mu, 0.0)
    # perfectly anti-correlated neighbours
    assert profile.w[0] @ profile.w[1] == pytest.approx(-1.0)
    assert profile.w[0] @ profile.w[2] == pytest.approx(1.0)


def test_bias_decompose_degenerate_vertices():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    profile = bias_decompose(sol)
    assert profile.degenerate.all()
    out = round_profile(profile, seed=0, instance=inst)
    assert out.labels.tolist() == [1, -1, 1, -1]
    assert out.value == pytest.approx(1.0)


def test_rounding_marginals_track_bias():
    rng = np.random.default_rng(3)
    n, r = 6, 6
    mu = rng.uniform(-0.8, 0.8, size=n)
    u = rng.standard_normal((n, r))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    w = u * np.sqrt(1.0 - mu**2)[:, None]
    profile = BiasProfile(mu=mu, w=w, degenerate=np.zeros(n, dtype=bool))
    trials = 200_000
    labels = round_many(profile, trials, seed=11)
    emp = (labels == 1).mean(axis=0)
    target = (1.0 + mu) / 2.0
    sigma = np.sqrt(target * (1 - target) / trials)
    assert np.all(np.abs(emp - target) <= 4 * sigma)


def test_anticorrelated_pair_always_separates():
    profile = BiasProfile(mu=np.zeros(2),
                          w=np.array([[1.0], [-1.0]]),
                          degenerate=np.zeros(2, dtype=bool))
    labels = round_many(profile, 500, seed=2)
    assert np.all(labels[:, 0] == -labels[:, 1])


def test_separation_identity_on_exact_solutions():
    inst = generate("cycle", 6)
    sol = exact_mixture_moments(
        inst, [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0), (0, 0, 1, 1, 0, 1)],
        [0.4, 0.4, 0.2], level=2)
    assert separation_identity_gap(sol, inst) <= 1e-12


def test_repair_balance_restores_target():
    inst = generate("complete", 6)
    bad = RoundedAssignment(labels=np.array([1, 1, 1, 1, 1, -1]),
                            value=None, balance=None, seed=0)
    bad = repair_balance(inst, bad)
    assert bad.balance == pytest.approx(0.0)
    assert not bad.repair_failed
    assert len(bad.repair_moves) == 2


def test_repair_balance_noop_when_balanced():
    inst = generate("cycle", 4)
    ok = RoundedAssignment(labels=np.array([1, -1, 1, -1]),
                           value=None, balance=None, seed=0)
    out = repair_balance(inst, ok)
    assert out.repair_moves == []
    assert out.value == pytest.approx(1.0)


def test_repair_respects_move_cap():
    inst = generate("complete", 6)
    bad = RoundedAssignment(labels=np.ones(6, dtype=int), value=None,
                            balance=None, seed=0)
    out = repair_balance(inst, bad, delta_cap=0.1)
    assert out.repair_failed
    assert np.array_equal(out.labels, bad.labels)


def test_assignment_json_round_trip():
    a = RoundedAssignment(labels=np.array([1, -1]), value=0.5, balance=0.0,
                          seed=7, repair_moves=[1])
    b = RoundedAssignment.from_json(a.to_json())
    assert np.array_equal(a.labels, b.labels)
    assert (a.value, a.balance, a.seed, a.repair_moves) == \
        (b.value, b.balance, b.seed, b.repair_moves)


def test_pipeline_on_exact_solution():
    inst = generate("cycle", 4)
    sol = exact_mixture_moments(inst, [(0, 1, 0, 1), (1, 0, 1, 0)],
                                [0.5, 0.5], level=3)
    result = pipeline(inst, trials=8, seed=0, solution=sol)
    assert result.best.value == pytest.approx(1.0)
    assert result.best.balance == pytest.approx(0.0)
    assert result.achieved_alpha <= 1e-9
    assert result.solve_report is None


def test_pipeline_reports_its_solve():
    result = pipeline(generate("cycle", 6),
                      solver_config=SolverConfig(max_iterations=500))
    assert result.solve_report.status == "max_iter"
    assert result.solve_report.iterations == 500


def test_round_many_matches_single_trials():
    inst = generate("cycle", 6)
    sol = exact_mixture_moments(
        inst, [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0), (0, 0, 1, 1, 0, 1)],
        [0.4, 0.4, 0.2], level=2)
    profile = bias_decompose(sol)
    batch = round_many(profile, 5, seed=4)
    g = np.random.default_rng(4).standard_normal((5, profile.w.shape[1]))
    for row, draw in zip(batch, g):
        assert np.array_equal(row, labels_from_gaussian(profile, draw))


def test_more_trials_never_hurt():
    inst = generate("gnp", 8, seed=5, p=0.6)
    sol = exact_mixture_moments(
        inst, [(0, 1, 0, 1, 0, 1, 0, 1), (1, 1, 0, 0, 1, 0, 1, 0)],
        [0.5, 0.5], level=2)
    one = pipeline(inst, trials=1, seed=3, solution=sol)
    many = pipeline(inst, trials=32, seed=3, solution=sol)
    assert many.best.value >= one.best.value - 1e-12
