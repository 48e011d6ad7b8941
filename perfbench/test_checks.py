"""Tests of the benchmark's independent checks.

Each checker must agree with ``cardcsp.oracle.brute_force`` on the bundled
suite, and the workload checks built on it must reject an output that has been
unbalanced or altered.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from cardcsp import (brute_force, build_gadget, bvn_cdf, default_suite,  # noqa: E402
                     exact_mixture_moments, generate, soundness_enumerate)
from cardcsp.independence import condition  # noqa: E402
from cardcsp.landscape import EdgeConfig, RatioCertificate  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

SUITE = default_suite()


def _witness_mixture(inst, weight=0.3):
    """The brute-force witness and its complement: both optimal cuts."""
    x = np.array(brute_force(inst).witness)
    return np.vstack([x, 1 - x]), np.array([weight, 1 - weight])


@pytest.mark.parametrize("name,inst", SUITE, ids=[n for n, _ in SUITE])
def test_exhaustive_optimum_agrees_with_brute_force(name, inst):
    assert checks.exhaustive_optimum(inst) == pytest.approx(
        brute_force(inst).optimum, abs=1e-12)


def test_check_assignment_rejects_unbalanced_or_altered():
    inst = generate("cycle", 6)
    exact = brute_force(inst)
    labels = 1 - 2 * np.array(exact.witness)
    assert checks.check_assignment(inst, labels, exact.optimum,
                                   exact.optimum) == exact.optimum
    plus = np.flatnonzero(labels == 1)
    unbalanced = labels.copy()
    unbalanced[plus[:2]] = -1          # two vertex weights off balance
    with pytest.raises(CheckFailed, match="balance"):
        checks.check_assignment(inst, unbalanced, inst.evaluate(
            (1 - unbalanced) // 2), exact.optimum)
    with pytest.raises(CheckFailed, match="reported value"):
        checks.check_assignment(inst, labels, exact.optimum - 1e-9, exact.optimum)
    with pytest.raises(CheckFailed, match="beats optimum"):
        checks.check_assignment(inst, labels, exact.optimum, exact.optimum - 0.1)


@pytest.mark.parametrize("name,inst", SUITE[:8], ids=[n for n, _ in SUITE[:8]])
def test_mixture_moments_agree_with_oracle(name, inst):
    X, p = _witness_mixture(inst)
    gram = checks.mixture_moments(X, p, 2)
    program = exact_mixture_moments(inst, X, p, level=2)
    assert np.abs(gram - program.gram).max() <= 1e-15
    assert checks.mixture_value(inst, X, p) == pytest.approx(
        brute_force(inst).optimum, abs=1e-12)


def test_conditioned_mixture_matches_condition():
    inst = generate("gnp", 6, seed=3, p=0.5)
    X, values = checks.balanced_assignments(inst)
    rng = np.random.default_rng(0)
    pick = rng.choice(len(X), size=4, replace=False)
    p = rng.dirichlet(np.ones(4))
    solution = exact_mixture_moments(inst, X[pick], p, level=3)
    for pivot in range(inst.n):
        for v in (0, 1):
            if not (X[pick, pivot] == v).any():
                continue
            Xc, pc = checks.conditioned_mixture(X[pick], p, pivot, v)
            reference = checks.mixture_moments(Xc, pc, 2)
            assert np.abs(condition(solution, pivot, v).gram - reference).max() <= 1e-12


def test_mixture_checks_reject_bad_mixtures():
    inst = generate("cycle", 6)
    X = np.array([[0, 0, 0, 0, 1, 1]])
    with pytest.raises(CheckFailed, match="unbalanced"):
        checks.check_balanced_mixture(inst, X)
    with pytest.raises(CheckFailed, match="distribution"):
        checks.mixture_moments(X, [0.9], 2)


def _relax_round_op(level):
    inst = generate("gnp", 6, seed=5, p=0.5)
    rng = np.random.default_rng(1)
    X, p = workloads.near_optimal_mixture(inst, rng)
    return workloads._relax_round_op("t", inst, level, X, p,
                                     brute_force(inst).optimum, seed=2)


@pytest.mark.parametrize("level", [2, 3])
def test_relax_round_check_rejects_altered_output(level):
    op = _relax_round_op(level)
    program, feas, objective, result = op.run()
    assert op.check((program, feas, objective, result)) >= 0.84
    altered = result.solution.copy()
    altered.gram[1, 2] += 1e-9
    with pytest.raises(CheckFailed, match="neither the mixture"):
        op.check((program, feas, objective, replace(result, solution=altered)))
    with pytest.raises(CheckFailed, match="solution_objective"):
        op.check((program, feas, objective + 1e-9, result))
    best = replace(result.best, labels=-np.abs(result.best.labels))
    with pytest.raises(CheckFailed, match="balance"):
        op.check((program, feas, objective, replace(result, best=best)))


def test_solver_check_rejects_altered_output():
    inst = generate("cycle", 4)
    op = workloads._solver_op("cycle4", inst, 2, brute_force(inst).optimum, 8, 0)
    solution, report, feas, result = op.run()
    assert op.check((solution, report, feas, result)) == pytest.approx(1.0)
    best = replace(result.best, value=result.best.value + 1e-6)
    with pytest.raises(CheckFailed, match="reported value"):
        op.check((solution, report, feas, replace(result, best=best)))
    with pytest.raises(workloads.OpFailed, match="max_iter"):
        op.check((solution, replace(report, status="max_iter"), feas, result))


@pytest.mark.parametrize("name,inst", SUITE, ids=[n for n, _ in SUITE])
def test_edge_values_of_integral_solution_give_optimum(name, inst):
    # with every bias at +-1 the rounding is the witness itself, so the
    # per-edge rounded values sum to the brute-force optimum
    exact = brute_force(inst)
    mu = 1 - 2 * np.array(exact.witness, dtype=float)
    total = 0.0
    for t in inst.payoffs:
        i, j = t.scope
        rounded, sdp = checks.edge_values("cut", mu[i], mu[j], 0.0)
        assert rounded == pytest.approx(sdp, abs=1e-15)
        total += t.weight * rounded
    assert total == pytest.approx(exact.optimum, abs=1e-12)


def test_orthant_probability_matches_program_kernel():
    rng = np.random.default_rng(4)
    for t1, t2, rho in zip(rng.normal(size=20), rng.normal(size=20),
                           rng.uniform(-0.99, 0.99, size=20)):
        assert checks.orthant_probability(t1, t2, rho) == pytest.approx(
            bvn_cdf(t1, t2, rho), abs=1e-10)


def test_ratio_check_rejects_altered_certificate():
    argmin = EdgeConfig(-0.2761479591836735, -0.2755102040816326, -0.5676020408163265)
    low = checks.edge_ratio("cut", argmin.mu1, argmin.mu2, argmin.rhobar)
    cert = RatioCertificate("cut", 50, low, argmin, [], error_bar=1.3e-4)
    op = workloads._ratio_op("cut")
    assert op.check(cert) == low
    with pytest.raises(CheckFailed, match="beyond error bar"):
        op.check(replace(cert, minimum_ratio=low + 1e-3))
    with pytest.raises(CheckFailed, match="outside"):
        op.check(replace(cert, minimum_ratio=0.84, error_bar=1.0))


@pytest.mark.parametrize("name,inst", SUITE, ids=[n for n, _ in SUITE])
def test_soundness_max_of_noiseless_single_coordinate_gadget_is_optimum(name, inst):
    # R = 1, eps = 0: the gadget is the witness cut's edge distribution, and
    # the only balanced functions are the two dictators
    X, p = _witness_mixture(inst, 0.5)
    gadget = build_gadget(exact_mixture_moments(inst, X, p, level=2), inst, 0.0, 1)
    best, admitted = checks.soundness_max(gadget, 1.0)
    assert admitted == 2
    assert best == pytest.approx(brute_force(inst).optimum, abs=1e-12)


@pytest.mark.parametrize("family,n", [("cycle", 4), ("complete", 4), ("cycle", 6)])
def test_soundness_max_agrees_with_program_enumeration(family, n):
    inst = generate(family, n)
    X, p = workloads._symmetric_mixture(inst, np.random.default_rng(n))
    gadget = build_gadget(exact_mixture_moments(inst, X, p, level=2), inst, 0.1, 3)
    for tau in (0.3, 0.8, 1.0):
        best, admitted = checks.soundness_max(gadget, tau)
        report = soundness_enumerate(gadget, tau)
        assert admitted == report.candidates
        assert (best is None) == report.empty
        if best is not None:
            assert best == pytest.approx(report.max_value, abs=1e-12)


def test_gadget_check_rejects_altered_soundness():
    inst = generate("cycle", 4)
    X, p = workloads._symmetric_mixture(inst, np.random.default_rng(0))
    op = workloads._gadget_op("cycle4", inst, X, p, 3)
    gadget, complete, sound = op.run()
    op.check((gadget, complete, sound))
    with pytest.raises(CheckFailed, match="soundness maximum"):
        op.check((gadget, complete, replace(sound, max_value=sound.max_value + 1e-6)))
    with pytest.raises(CheckFailed, match="completeness"):
        op.check((gadget, replace(complete, ok=False), sound))


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
