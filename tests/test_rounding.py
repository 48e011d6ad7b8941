import json
import logging
import math
import re
from dataclasses import replace
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import ndtr, ndtri

from cardcsp import rounding, sdp_solver
from cardcsp.errors import CardCspError, ParseError
from cardcsp.instance import (CardinalityFunction, CspInstance, PayoffTerm,
                              generate)
from cardcsp.independence import decorrelate
from cardcsp.landscape import EdgeConfig, rounded_value
from cardcsp.sdp_solver import SolverConfig
from cardcsp.lasserre import build_relaxation, integral_lift
from cardcsp.oracle import exact_mixture_moments
from cardcsp.rounding import (BiasProfile, RoundedAssignment, bias_decompose,
                              labels_from_gaussian, pipeline, repair_many,
                              separation_identity_gap, threshold)


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


def test_threshold_refuses_nan():
    for bad in (np.nan, [0.2, np.nan], np.full((2, 2), np.nan)):
        with pytest.raises(CardCspError, match="bias"):
            threshold(bad)
    with pytest.raises(CardCspError, match="bias"):
        rounded_value("cut", EdgeConfig(np.nan, 0.0, 0.0))


def test_threshold_matches_ndtri_in_both_tails():
    rng = np.random.default_rng(3)
    # 1 + mu and 1 - mu down to 1e-16, where p = (1 + mu)/2 is as near 0
    # and 1 as a bias can put it, and the biases +-1 themselves
    tail = 10.0 ** rng.uniform(-16.0, 0.0, 3000)
    mu = np.concatenate([tail - 1.0, 1.0 - tail, rng.uniform(-1, 1, 3000),
                         [-1.0, 0.0, 1.0]])
    got = threshold(mu)
    ref = ndtri((1.0 + mu) / 2.0)
    assert (got[[-3, -1]] == [-np.inf, np.inf]).all()
    finite = np.isfinite(ref)
    assert (got[~finite] == ref[~finite]).all()
    got, ref = got[finite], ref[finite]
    assert np.all(np.abs(got - ref) <= 2e-15 * np.abs(ref))


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
    g = np.random.default_rng(0).standard_normal((3, profile.w.shape[1]))
    labels = labels_from_gaussian(profile, g)
    assert labels.tolist() == [[1, -1, 1, -1]] * 3
    assert inst.evaluate((1 - labels) // 2).tolist() == [1.0] * 3


@st.composite
def mixtures(draw):
    """Exact moment matrices of 1-4 assignments on n = 4..8 vertices at
    level 2 or 3, with weights of at least 1/37 each."""
    n = draw(st.sampled_from([4, 6, 8]))
    level = draw(st.integers(2, 3))
    k = draw(st.integers(1, 4))
    X = draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n),
                      min_size=k, max_size=k))
    weights = np.array(draw(st.lists(st.integers(1, 10), min_size=k, max_size=k)))
    return exact_mixture_moments(generate("cycle", n), X, weights / weights.sum(),
                                 level=level)


@settings(max_examples=60, deadline=None)
@given(mixtures(), st.data())
def test_bias_decomposition_preserves_every_bias(sol, data):
    profile = bias_decompose(sol)
    n = sol.n
    p0 = np.array([sol.prob((i,), (0,)) for i in range(n)])
    assert np.allclose(profile.mu, 2 * p0 - 1, rtol=0, atol=1e-12)
    live = ~profile.degenerate
    assert np.allclose(np.linalg.norm(profile.wbar[live], axis=1), 1.0,
                       rtol=0, atol=1e-9)
    assert np.allclose(ndtr(profile.thresholds()), (1 + profile.mu) / 2,
                       rtol=0, atol=1e-12)
    g = data.draw(arrays(float, (3, profile.w.shape[1]),
                         elements=st.floats(-1e6, 1e6)))
    labels = labels_from_gaussian(profile, g)
    assert (labels[:, profile.degenerate]
            == np.where(profile.mu[profile.degenerate] >= 0, 1, -1)).all()


def test_rounding_marginals_track_bias():
    rng = np.random.default_rng(3)
    n, r = 6, 6
    mu = rng.uniform(-0.8, 0.8, size=n)
    u = rng.standard_normal((n, r))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    w = u * np.sqrt(1.0 - mu**2)[:, None]
    profile = BiasProfile(mu=mu, w=w, degenerate=np.zeros(n, dtype=bool))
    trials = 200_000
    labels = labels_from_gaussian(
        profile, np.random.default_rng(11).standard_normal((trials, r)))
    emp = (labels == 1).mean(axis=0)
    target = (1.0 + mu) / 2.0
    sigma = np.sqrt(target * (1 - target) / trials)
    assert np.all(np.abs(emp - target) <= 4 * sigma)


def test_anticorrelated_pair_always_separates():
    profile = BiasProfile(mu=np.zeros(2),
                          w=np.array([[1.0], [-1.0]]),
                          degenerate=np.zeros(2, dtype=bool))
    labels = labels_from_gaussian(
        profile, np.random.default_rng(2).standard_normal((500, 1)))
    assert np.all(labels[:, 0] == -labels[:, 1])


def test_separation_identity_on_exact_solutions():
    inst = generate("cycle", 6)
    sol = exact_mixture_moments(
        inst, [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0), (0, 0, 1, 1, 0, 1)],
        [0.4, 0.4, 0.2], level=2)
    assert separation_identity_gap(sol, inst) <= 1e-12


def test_rounding_rejects_q_other_than_2():
    # bias_decompose reads each pair row as the four +-1 events of q = 2
    not_equal = tuple(float(a != b) for a in range(3) for b in range(3))
    inst = CspInstance(3, 3, tuple(PayoffTerm(e, not_equal, 1 / 3, 3)
                                   for e in ((0, 1), (1, 2), (0, 2))),
                       (1 / 3,) * 3, CardinalityFunction((Fraction(1, 3),) * 3))
    with pytest.raises(CardCspError, match="needs q = 2, got q = 3"):
        bias_decompose(integral_lift(inst, (0, 1, 2)))
    with pytest.raises(CardCspError, match="q = 2 only, got q = 3"):
        pipeline(inst, trials=4, solution=integral_lift(inst, (0, 1, 2)))


@pytest.mark.parametrize("trials", [0, -1, True, 2.0, "4"])
def test_pipeline_trials_must_be_an_int_of_at_least_1(trials):
    # True once ran one trial and 2.0 failed inside numpy
    inst = generate("cycle", 4)
    with pytest.raises(CardCspError, match="trials must be an int >= 1"):
        pipeline(inst, trials=trials, solution=integral_lift(inst, (0, 1, 0, 1)))


def test_repair_balance_restores_target():
    inst = generate("complete", 6)
    out = repair_many(inst, np.array([[1, 1, 1, 1, 1, -1]]))
    assert out.labels[0] @ inst.weights_array == pytest.approx(0.0)
    assert not out.failed[0]
    assert (out.moves[0] >= 0).sum() == 2


def test_repair_balance_noop_when_balanced():
    inst = generate("cycle", 4)
    out = repair_many(inst, np.array([[1, -1, 1, -1]]))
    assert (out.moves == -1).all()
    assert np.array_equal(out.labels, [[1, -1, 1, -1]])
    assert out.moved_weight[0] == 0.0


def test_repair_respects_move_cap(monkeypatch):
    monkeypatch.setattr(rounding, "_DELTA_CAP", 0.2)
    inst = generate("complete", 6)
    bad = np.array([[1, 1, 1, 1, 1, 1], [1, 1, 1, 1, -1, -1]])
    out = repair_many(inst, bad)
    # the first row would move half its weight, the second one sixth
    assert out.failed.tolist() == [True, False]
    assert np.array_equal(out.labels[0], bad[0])
    assert (out.moves[0] == -1).all()
    assert out.moved_weight[0] == pytest.approx(0.5)
    assert out.labels[1] @ inst.weights_array == pytest.approx(0.0)


@st.composite
def assignments(draw):
    """+-1 labels, a value and a balance that may be None or any finite
    float, a 64-bit seed and distinct repair moves."""
    labels = draw(st.lists(st.sampled_from([1, -1]), min_size=1, max_size=12))
    maybe_float = st.one_of(st.none(),
                            st.floats(allow_nan=False, allow_infinity=False))
    return RoundedAssignment(
        labels=np.array(labels), value=draw(maybe_float),
        balance=draw(maybe_float), seed=draw(st.integers(0, 2**64 - 1)),
        repair_moves=draw(st.lists(st.integers(0, len(labels) - 1), unique=True)))


@settings(max_examples=200, deadline=None)
@given(assignments())
@example(RoundedAssignment(labels=np.array([1, -1]), value=1, balance=0,
                           seed=0))
def test_assignment_json_round_trip(a):
    text = a.to_json()
    b = RoundedAssignment.from_json(text)
    assert np.array_equal(a.labels, b.labels)
    assert (a.value, a.balance) == (b.value, b.balance)
    assert (a.seed, a.repair_moves) == (b.seed, b.repair_moves)
    assert b.to_json() == text


@pytest.mark.parametrize("change", [
    {"labels": [2, 7]}, {"labels": [1, 0]}, {"repair_moves": [9]},
    {"repair_moves": [-1]}, {"repair_moves": [1, 1]}, {"seed": -4},
    {"seed": 2.5}, {"seed": True}, {"seed": None}, {"value": "1.5"},
    {"balance": True}, {"value": [1.0]},
    {"labels": [1, 0, 2], "seed": -5, "repair_moves": [7, 7]}])
def test_assignment_constructor_and_reader_refuse_the_same_values(change):
    fields = dict(labels=[1, -1], value=0.5, balance=0.0, seed=3,
                  repair_moves=[1]) | change
    with pytest.raises(CardCspError):
        RoundedAssignment(**fields)
    doc = json.loads(RoundedAssignment(np.array([1, -1]), 0.5, 0.0, 3,
                                       [1]).to_json()) | change
    with pytest.raises(ParseError):
        RoundedAssignment.from_json(json.dumps(doc))


def _seeded_entry_points():
    from cardcsp.dictator import dictator, round_with_function
    from cardcsp.oracle import mc_bvn
    from cardcsp.suite import run_bench

    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    return {
        "generate": lambda seed: generate("gnp", 6, seed=seed, p=0.5),
        "decorrelate": lambda seed: decorrelate(sol, inst, 0.1, seed=seed),
        "pipeline": lambda seed: pipeline(inst, trials=4, seed=seed,
                                          solution=sol),
        "round_with_function": lambda seed: round_with_function(
            sol, inst, dictator(2, 0), 0.1, seed),
        "mc_bvn": lambda seed: mc_bvn(0.0, 0.0, 0.5, samples=10**4, seed=seed),
        "run_bench": lambda seed: run_bench([("c4", inst)], trials=4,
                                            seed=seed),
    }


@pytest.mark.parametrize("entry", sorted(_seeded_entry_points()))
@pytest.mark.parametrize("seed", [-1, 2.0, True])
def test_seeded_entry_points_refuse_a_bad_seed_with_a_typed_error(entry, seed):
    with pytest.raises(CardCspError, match="seed must be an int >= 0"):
        _seeded_entry_points()[entry](seed)


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
    # tolerances no iterate reaches force max_iter at the cap, however fast
    # the solver converges; 100 iterations are consistent enough to round
    result = pipeline(generate("cycle", 6),
                      solver_config=SolverConfig(max_iterations=100,
                                                 tolerance=1e-15))
    assert result.solve_report.status == "max_iter"
    assert result.solve_report.iterations == 100


def test_pipeline_never_returns_a_failed_repair():
    # every trial rounds to all +1 (balance 1.0) against a target of -0.5:
    # repair would have to move 0.75 of the weight, over its 0.5 cap
    inst = replace(generate("cycle", 8), cardinality=CardinalityFunction(
        (Fraction(1, 4), Fraction(3, 4))))
    with pytest.raises(CardCspError, match="move a weight fraction of 0.75"):
        pipeline(inst, trials=4, seed=0,
                 solution=integral_lift(inst, (0,) * 8))


def test_pipeline_picks_among_repaired_trials(monkeypatch):
    inst = generate("cycle", 4)
    sol = exact_mixture_moments(inst, [(0, 1, 0, 1), (1, 0, 1, 0)],
                                [0.5, 0.5], level=2)
    real_repair = rounding.repair_many

    def first_fails(instance, labels):
        # trial 0 flagged failed, with a best value of all that it would
        # win on the tie
        out = real_repair(instance, labels)
        values = instance.evaluate((1 - out.labels) // 2)
        out.labels[0] = out.labels[int(np.argmax(values))]
        out.failed[0] = True
        return out

    monkeypatch.setattr(rounding, "repair_many", first_fails)
    result = pipeline(inst, trials=4, seed=0, solution=sol)
    first = int(np.random.SeedSequence(0).spawn(1)[0].generate_state(1)[0])
    assert result.best.seed != first
    assert result.best.value == pytest.approx(1.0)


def test_labels_from_gaussian_batch_matches_single_draws():
    inst = generate("cycle", 6)
    sol = exact_mixture_moments(
        inst, [(0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0), (0, 0, 1, 1, 0, 1)],
        [0.4, 0.4, 0.2], level=2)
    profile = bias_decompose(sol)
    g = np.random.default_rng(4).standard_normal((5, profile.w.shape[1]))
    batch = labels_from_gaussian(profile, g)
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


def _repair_moves_by_loop(instance, labels, target_balance):
    """Moves of the greedy repair, one Python scan over all vertices per
    move: the lightest-degree heavy-side vertex (lowest index on ties) whose
    move brings the balance strictly closer to the target."""
    labels = labels.copy()
    w = instance.weights_array
    deg = instance.weighted_degrees()
    moves = []
    while True:
        gap = float(w @ labels) - target_balance
        if gap == 0.0:
            return moves, labels
        heavy = 1 if gap > 0 else -1
        candidates = [i for i in range(instance.n)
                      if labels[i] == heavy and i not in moves
                      and abs(gap - 2 * heavy * w[i]) < abs(gap) - 1e-15]
        if not candidates:
            return moves, labels
        best = min(candidates, key=lambda i: (deg[i], i))
        labels[best] = -heavy
        moves.append(best)


@st.composite
def repair_cases(draw):
    """Random vertex weights (ties likely), payoff terms of equal weight on
    random pairs (degree ties likely), a batch of random label rows, a
    random cardinality target and a random move cap."""
    n = draw(st.integers(2, 12))
    parts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)
                 .filter(lambda ps: sum(ps) > 0))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1))
                          .filter(lambda e: e[0] != e[1]),
                          min_size=1, max_size=2 * n))
    terms = tuple(PayoffTerm(e, (0.0, 1.0, 1.0, 0.0), 1.0 / len(pairs))
                  for e in pairs)
    parts_of = draw(st.integers(1, 16))
    share = draw(st.integers(0, parts_of))
    inst = CspInstance(n, 2, terms, tuple(p / sum(parts) for p in parts),
                       CardinalityFunction((Fraction(share, parts_of),
                                            Fraction(parts_of - share, parts_of))))
    row = st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)
    labels = np.array(draw(st.lists(row, min_size=1, max_size=6)))
    cap = draw(st.sampled_from([0.25, 0.5, 2.0]))
    return inst, labels, cap


@settings(max_examples=200, deadline=None)
@given(repair_cases())
def test_repair_moves_match_the_loop_scan(case):
    inst, labels, cap = case
    with patch.object(rounding, "_DELTA_CAP", cap):
        out = repair_many(inst, labels)
    c = inst.cardinality.as_floats()
    target = float(c[0] - c[1])
    w = inst.weights_array
    for k, row in enumerate(labels):
        moves, expected = _repair_moves_by_loop(inst, row, target)
        # the cap compares the weight summed in move order
        moved = 0.0
        for v in moves:
            moved += w[v]
        assert out.moved_weight[k] == moved
        assert out.failed[k] == (moved > cap)
        if out.failed[k]:
            moves, expected = [], row
        assert out.moves[k][out.moves[k] >= 0].tolist() == moves
        assert (out.moves[k][len(moves):] == -1).all()
        assert np.array_equal(out.labels[k], expected)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_stacked_evaluate_equals_row_by_row(n, m, seed):
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(m):
        scope = tuple(int(v) for v in rng.choice(n, size=rng.integers(1, 3),
                                                 replace=False))
        table = tuple(float(v) for v in rng.random(2 ** len(scope)))
        terms.append((scope, table, float(rng.random()) + 1e-3))
    total = sum(t[2] for t in terms)
    inst = CspInstance(n, 2, tuple(PayoffTerm(s, t, w / total)
                                   for s, t, w in terms),
                       (1.0 / n,) * n, CardinalityFunction((Fraction(1, 2),
                                                            Fraction(1, 2))))
    stack = rng.integers(0, 2, size=(2, 5, n))
    values = inst.evaluate(stack)
    assert values.shape == (2, 5)
    for idx in np.ndindex(2, 5):
        # bit for bit, not approximately, and equal to the term-order sum
        row = stack[idx]
        assert values[idx] == inst.evaluate(row) == sum(
            t.weight * t.value(row[list(t.scope)]) for t in inst.payoffs)
    assert isinstance(inst.evaluate(stack[0, 0]), float)


def _pipeline_best_by_trial(instance, profile, trials, seed):
    """(labels, value, seed, moves) of the best repaired trial, one trial
    at a time: its own Gaussian, the loop repair, its own evaluation."""
    c = instance.cardinality.as_floats()
    w = instance.weights_array
    best = None
    for s in np.random.SeedSequence(seed).spawn(trials):
        sub = int(s.generate_state(1)[0])
        g = np.random.default_rng(sub).standard_normal(profile.w.shape[1])
        moves, labels = _repair_moves_by_loop(
            instance, labels_from_gaussian(profile, g), float(c[0] - c[1]))
        if sum(w[v] for v in moves) > 0.5:
            continue
        value = instance.evaluate((1 - labels) // 2)
        better = (value > best[1] if instance.sense == "max"
                  else value < best[1]) if best else True
        if better:
            best = (labels.tolist(), value, sub, moves)
    return best


@pytest.mark.parametrize("kind", ["maxcut-bisection", "mincut-bisection"])
def test_pipeline_best_matches_trial_by_trial(kind):
    # a mixture of assignments off balance, so most trials need repair
    inst = replace(generate("gnp", 10, seed=2, p=0.5), kind=kind)
    sol = exact_mixture_moments(
        inst, [(0, 1, 1, 1, 0, 1, 0, 1, 0, 1), (1, 1, 0, 0, 1, 1, 1, 0, 1, 1),
               (0, 1, 1, 1, 0, 0, 1, 1, 1, 0)], [0.5, 0.3, 0.2], level=2)
    result = pipeline(inst, trials=64, seed=3, solution=sol)
    best = result.best
    assert best.repair_moves
    assert (best.labels.tolist(), best.value, best.seed,
            best.repair_moves) == _pipeline_best_by_trial(
                inst, bias_decompose(sol), 64, 3)


def _messages(caplog, module):
    return [r.getMessage() for r in caplog.records
            if r.name == f"cardcsp.{module}"]


@pytest.mark.parametrize("family", ["two_cliques", "cycle"])
def test_conditioning_and_repair_are_logged(family, caplog):
    inst = generate(family, 6)
    sol, _ = sdp_solver.solve(build_relaxation(inst, 3))
    pipeline(inst, trials=8, seed=0, solution=sol)
    assert caplog.records == []  # silent by default
    caplog.set_level(logging.DEBUG, logger="cardcsp")
    dec = decorrelate(sol, inst, 0.1, seed=0)
    assert len(dec.steps) == 1  # level 3 allows one conditioning step
    assert _messages(caplog, "independence") == [
        f"condition on x_{s.pivot} = {s.value} (marginal "
        f"{s.marginal_probability:.6g}): average MI {dec.achieved_alpha:.6g}"
        for s in dec.steps] + [
        f"decorrelate: {len(dec.steps)} steps, average MI "
        f"{dec.achieved_alpha:.6g}, target "
        f"{'reached' if dec.reached_target else 'missed'}"]
    caplog.clear()
    result = pipeline(inst, trials=8, seed=0, solution=sol)
    # the summary, then one line per move of the chosen trial
    line, *moves = _messages(caplog, "rounding")
    assert len(moves) == len(result.best.repair_moves)
    repaired, trials, failed, largest, mean = (
        float(v) for v in re.fullmatch(
            r"repair: (\d+) of (\d+) rows repaired, (\d+) failed; moved "
            r"weight max (\S+), mean (\S+)", line).groups())
    assert trials == 8 and repaired + failed <= trials
    assert largest >= mean >= 0 and (largest > 0) == (repaired + failed > 0)


def test_chosen_trial_repair_moves_are_logged(caplog):
    inst = generate("two_cliques", 6)
    # vertices 0, 1 and 4, 5 take opposite sides in both halves of the
    # mixture and 2, 3 side 0 in both, so every trial rounds to one of the
    # two assignments, each with four vertices on side 0: the chosen trial
    # is repaired whatever the Gaussians
    sol = exact_mixture_moments(inst, [(0, 0, 0, 0, 1, 1), (1, 1, 0, 0, 0, 0)],
                                [0.5, 0.5], level=3)
    caplog.set_level(logging.DEBUG, logger="cardcsp.rounding")
    best = pipeline(inst, trials=8, seed=0, solution=sol).best
    assert best.repair_moves  # the chosen trial moves at least one vertex
    seeds = [int(s.generate_state(1)[0])
             for s in np.random.SeedSequence(0).spawn(8)]
    trial = seeds.index(best.seed)
    # a moved vertex left the side opposite to its repaired label
    assert _messages(caplog, "rounding")[1:] == [
        f"repair of trial {trial}: vertex {v} left side {-best.labels[v]:+d}"
        for v in best.repair_moves]
