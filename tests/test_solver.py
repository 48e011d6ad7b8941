import logging
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardcsp import sdp_solver
from cardcsp.errors import CardCspError
from cardcsp.instance import (CardinalityFunction, CspInstance, PayoffTerm,
                              cut_instance, generate, max2sat_instance)
from cardcsp.lasserre import _offsets, build_relaxation, check_feasibility
from cardcsp.oracle import brute_force
from cardcsp.sdp_solver import SolverConfig, project_psd
from cardcsp.suite import default_suite
from solver_draws import instance


def test_config_validation():
    with pytest.raises(CardCspError):
        SolverConfig(tolerance=0.0)
    with pytest.raises(CardCspError):
        SolverConfig(max_iterations=0)


@pytest.mark.parametrize("field, value", [
    ("tolerance", float("nan")), ("tolerance", float("inf")),
    ("tolerance", -1e-6), ("max_iterations", 2.5), ("max_iterations", True),
    ("max_iterations", "100"),
])
def test_config_rejects_values_that_break_the_solve(field, value):
    with pytest.raises(CardCspError):
        SolverConfig(**{field: value})


def test_project_psd():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    p = project_psd(m)
    eigs = np.linalg.eigvalsh(p)
    assert eigs.min() >= -1e-12
    assert np.allclose(p, [[1.5, 1.5], [1.5, 1.5]])


@pytest.mark.parametrize("family,n,expected", [
    ("cycle", 4, 1.0),
    ("complete", 4, 2.0 / 3.0),
    ("complete", 6, 0.6),
])
def test_relaxation_optima_match_brute_force(family, n, expected):
    # these instances have no integrality gap at level 2
    inst = generate(family, n)
    program = build_relaxation(inst, 2)
    sol, report = sdp_solver.solve(program)
    assert report.status == "optimal"
    assert sol.objective_value == pytest.approx(expected, abs=1e-4)
    assert brute_force(inst).optimum == pytest.approx(expected)


def test_solver_output_is_feasible():
    inst = generate("gnp", 8, seed=5, p=0.6)
    program = build_relaxation(inst, 2)
    sol, report = sdp_solver.solve(program)
    rep = check_feasibility(sol, inst)
    assert rep.psd_violation <= 1e-5
    assert rep.consistency_violation <= 1e-5
    assert rep.cardinality_violation <= 1e-5


def test_returned_gram_meets_the_rows_to_rounding():
    """Events of probability 2.9e-9 stay live here, and the conditional
    cardinality check divides each row's error by that probability: rows
    that hold only to 5e-14 read 1.7e-5."""
    inst = CspInstance(
        4, 3, (PayoffTerm((2, 0), (0.0, 0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
                          1.0, 3),),
        (3 / 12, 4 / 12, 1 / 12, 4 / 12),
        CardinalityFunction((Fraction(1, 3), Fraction(5, 12), Fraction(1, 4))))
    program = build_relaxation(inst, 2)
    sol, report = sdp_solver.solve(program)
    assert report.status == "optimal"
    assert np.abs(program.constraints.residual(sol.gram)).max() <= 1e-15
    assert check_feasibility(sol, inst).cardinality_violation <= 1e-6


def test_relaxation_upper_bounds_optimum():
    inst = generate("gnp", 8, seed=9, p=0.5)
    program = build_relaxation(inst, 2)
    sol, _ = sdp_solver.solve(program)
    assert sol.objective_value >= brute_force(inst).optimum - 1e-5


def test_determinism():
    inst = generate("cycle", 6)
    program = build_relaxation(inst, 2)
    sol_a, rep_a = sdp_solver.solve(program)
    sol_b, rep_b = sdp_solver.solve(program)
    sol_c, rep_c = sdp_solver.solve(program)
    assert rep_a.iterations == rep_b.iterations == rep_c.iterations
    assert np.array_equal(sol_a.gram, sol_b.gram)
    assert np.array_equal(sol_b.gram, sol_c.gram)
    assert rep_b.residual_history == rep_c.residual_history


def test_mincut_sense():
    from cardcsp.instance import cut_instance
    edges = [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)]
    inst = cut_instance(4, edges, kind="mincut-bisection")
    program = build_relaxation(inst, 2)
    assert program.sense == "min"
    sol, _ = sdp_solver.solve(program)
    # min bisection of C4 cuts two edges
    assert sol.objective_value == pytest.approx(0.5, abs=1e-4)


def test_history_recording():
    inst = generate("cycle", 4)
    program = build_relaxation(inst, 2)
    _, report = sdp_solver.solve(program)
    assert report.residual_history
    assert report.residual_history[-1][0] == report.iterations


# -- Anderson acceleration between rho moves ----------------------------------

def test_accelerated_level3_cycle8():
    program = build_relaxation(generate("cycle", 8), 3)
    _, report = sdp_solver.solve(program)
    assert report.status == "optimal"
    assert report.iterations <= 500  # 1,825 with plain steps throughout


def test_accelerated_planted10_e01():
    program = build_relaxation(dict(default_suite())["planted10_e01"], 2)
    _, report = sdp_solver.solve(program)
    assert report.status == "optimal"
    assert report.iterations <= 1000  # 3,550 with plain steps throughout


def test_gnp12_level2_converges():
    program = build_relaxation(dict(default_suite())["gnp12"], 2)
    _, report = sdp_solver.solve(program)
    assert report.status == "optimal"
    assert report.iterations <= 2500  # 6,075 with rho frozen at acceleration


def test_planted12_level3_converges():
    """8,425 iterations with rho frozen once acceleration started."""
    program = build_relaxation(dict(default_suite())["planted12_e10"], 3)
    _, report = sdp_solver.solve(program, SolverConfig(max_iterations=1500))
    assert report.status == "optimal"
    assert report.objective == pytest.approx(0.9, abs=1e-5)


def _odd_moments(sol):
    """E[chi_U], chi_U = prod_{i in U} (1 - 2 x_i), for every odd-size U up
    to the level, read off row 0 of G."""
    out = []
    for s in range(1, sol.level + 1, 2):
        lo, hi = _offsets(sol.n, 2, s)[-2:]
        signs = [(-1) ** sum(a) for a in product((0, 1), repeat=s)]
        out.append(sol.gram[0, lo:hi].reshape(-1, 2 ** s) @ signs)
    return np.concatenate(out)


def _check_solve(inst, level):
    """Solve; the solution is optimal, feasible within 1e-5 and bounds the
    brute-force optimum."""
    sol, report = sdp_solver.solve(build_relaxation(inst, level))
    assert report.status == "optimal"
    feas = check_feasibility(sol, inst)
    assert max(feas.psd_violation, feas.consistency_violation,
               feas.cardinality_violation) <= 1e-5
    optimum = brute_force(inst).optimum
    if inst.sense == "max":
        assert sol.objective_value >= optimum - 1e-5
    else:
        assert sol.objective_value <= optimum + 1e-5
    return sol, report


@settings(max_examples=25, deadline=None)
# acceleration from iteration 1 fails on these two draws
@example(n=5, level=2, kind="maxcut-bisection", p=0.8, seed=774, zero=True)
@example(n=5, level=2, kind="maxcut-bisection", p=0.8, seed=2, zero=True)
@given(n=st.integers(4, 7), level=st.integers(2, 3),
       kind=st.sampled_from(["maxcut-bisection", "mincut-bisection"]),
       p=st.sampled_from([0.3, 0.5, 0.8]), seed=st.integers(0, 2**16),
       zero=st.booleans())
def test_accelerated_solve_is_feasible_and_bounds_the_optimum(n, level, kind,
                                                               p, seed, zero):
    # the last vertex may weigh 0; with an odd number of weighted vertices,
    # vertex 0 weighs double, so an exact bisection exists
    inst = instance(kind, "uniform", n, seed, p, zero)
    sol, report = _check_solve(inst, level)
    # flip-invariant: the even- and the odd-size subsets, no odd moment
    even = sum(comb(n, s) for s in range(0, level + 1, 2))
    assert report.blocks == [even, sum(comb(n, s) for s in range(level + 1))
                             - even]
    assert np.abs(_odd_moments(sol)).max() <= 1e-12


# -- the scaled parity basis and the label-flip split ---------------------------

@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("inst", [
    max2sat_instance(6, [(0, 1, 1, -1, 0.25), (1, 2, -1, -1, 0.25),
                         (2, 5, 1, 1, 0.25), (3, 4, -1, 1, 0.25)]),
    # a third of the weight on value 0: the flip maps the target elsewhere
    cut_instance(6, [(i, (i + 1) % 6, 1.0) for i in range(6)],
                 kind="alpha-cut", cardinality=CardinalityFunction(
                     (Fraction(1, 3), Fraction(2, 3)))),
], ids=["max2sat", "alpha-cut-third"])
def test_solves_that_are_not_flip_invariant_run_on_one_block(inst, level):
    _, report = _check_solve(inst, level)
    assert report.blocks == [sum(comb(6, s) for s in range(level + 1))]


def _ternary(n):
    """q = 3 on an n-cycle, payoff 1 where the endpoints differ, a third of
    the weight on each value."""
    table = tuple(float(a != b) for a in range(3) for b in range(3))
    return CspInstance(
        n, 3, tuple(PayoffTerm((min(i, (i + 1) % n), max(i, (i + 1) % n)),
                               table, 1.0 / n, 3) for i in range(n)),
        (1.0 / n,) * n, CardinalityFunction((Fraction(1, 3),) * 3))


@pytest.mark.parametrize("n, level, status, iterations", [
    (5, 2, "optimal", 335),
    (6, 2, "optimal", 290),
    (4, 3, "infeasible", 25),  # no third of 4 equal weights
])
def test_ternary_solves_keep_their_basis_and_iterations(n, level, status,
                                                        iterations):
    # q >= 3 keeps the reduced basis R with amplitude 1 on one block: the
    # iterates, and so the counts, are those of the solver before the
    # parity basis
    _, report = sdp_solver.solve(build_relaxation(_ternary(n), level))
    assert (report.status, report.iterations) == (status, iterations)
    assert report.blocks == [sum(comb(n, s) * 2 ** s
                                 for s in range(level + 1))]


def _singular(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


def test_anderson_step_is_the_least_squares_extrapolation(monkeypatch):
    rng = np.random.default_rng(0)
    fs, gs = rng.standard_normal((13, 30)), rng.standard_normal((13, 30))
    accel = sdp_solver._Anderson(30)
    for f, g in zip(fs, gs):
        accel.push(f, g)
    # only the last 10 differences are kept; the ridge is negligible here
    dF, dG = np.diff(fs, axis=0)[-10:], np.diff(gs, axis=0)[-10:]
    theta = np.linalg.lstsq(dG.T, gs[-1], rcond=None)[0]
    np.testing.assert_allclose(accel.step(), fs[-1] - theta @ dF, atol=1e-6)
    # a fresh accelerator's first push records no difference: a plain step
    fresh = sdp_solver._Anderson(30)
    fresh.push(fs[0], gs[0])
    np.testing.assert_array_equal(fresh.step(), fs[0])
    monkeypatch.setattr(np.linalg, "solve", _singular)
    assert accel.step() is None


def test_check_iterations_take_the_plain_step(monkeypatch, caplog):
    events = []
    for name in ("push", "step"):
        def spy(self, *args, _original=getattr(sdp_solver._Anderson, name),
                _name=name):
            events.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(sdp_solver._Anderson, name, spy)
    monkeypatch.setattr(sdp_solver, "_PROBE_EVERY", 4)
    monkeypatch.setattr(sdp_solver, "_CHECK_EVERY", 10)
    caplog.set_level(logging.DEBUG, logger="cardcsp.sdp_solver")
    _, report = sdp_solver.solve(build_relaxation(generate("cycle", 8), 3))
    # one start: rho never moves on this solve
    [start] = _iterations_of(_solver_messages(caplog), "acceleration on")
    # one push per iteration after the start, then a step unless a probe or
    # a check
    pushes = [i for i, e in enumerate(events) if e == "push"]
    assert len(pushes) == report.iterations - start
    plain = {start + 1 + k for k, i in enumerate(pushes)
             if events[i + 1:i + 2] != ["step"]}
    assert plain == {it for it in range(start + 1, report.iterations + 1)
                     if it % 4 == 0 or it % 10 == 0}


# -- logging --------------------------------------------------------------------

def _solver_messages(caplog):
    return [r.getMessage() for r in caplog.records
            if r.name == "cardcsp.sdp_solver"]


def _iterations_of(messages, text):
    return [int(m.split()[1].rstrip(":")) for m in messages if text in m]


def test_solver_logs_rho_changes_acceleration_and_result(caplog):
    caplog.set_level(logging.DEBUG, logger="cardcsp.sdp_solver")
    program = build_relaxation(dict(default_suite())["gnp12"], 2)
    _, report = sdp_solver.solve(program)
    messages = _solver_messages(caplog)
    # gnp12: acceleration starts at the first probe; a 100x imbalance at a
    # full check doubles rho and drops it; the next balanced probe restarts
    # it.  The residuals pass three probes before the returned point passes
    # the PSD test.
    assert messages[:-1] == [
        "iteration 5: Anderson acceleration on at rho 0.05 (primal 3.96, "
        "dual 0.0901)",
        "iteration 225: rho 0.05 -> 0.1 (primal 0.003, dual 2.17e-05)",
        "iteration 235: Anderson acceleration on at rho 0.1 (primal 0.0029, "
        "dual 2.96e-05)",
        "iteration 335: residuals pass but psd violation 2.71e-06 > "
        "tolerance 1e-06",
        "iteration 340: residuals pass but psd violation 1.41e-06 > "
        "tolerance 1e-06",
        "iteration 345: residuals pass but psd violation 1.61e-06 > "
        "tolerance 1e-06"]
    assert messages[-1].startswith(
        f"optimal after {report.iterations} iterations: primal ")
    # flip-invariant at n = 12, level 2: the 1 + 66 even-size subsets and
    # the 12 odd-size ones
    assert messages[-1].endswith(", rho 0.1, blocks [67, 12]")
    assert (report.rho, report.blocks) == (0.1, [67, 12])


def test_solver_logs_a_returned_point_that_fails_the_psd_test(caplog):
    # both residuals pass at iteration 90, but the point the solve would
    # return there is not PSD within the tolerance; at the next probe it is
    inst = instance("max2sat", "integer", 7, 35267)
    caplog.set_level(logging.DEBUG, logger="cardcsp.sdp_solver")
    solution, report = sdp_solver.solve(build_relaxation(inst, 2))
    [line] = [m for m in _solver_messages(caplog) if "residuals pass" in m]
    assert line == ("iteration 90: residuals pass but psd violation 2.11e-06 "
                    "> tolerance 1e-06")
    assert (report.status, report.iterations) == ("optimal", 95)
    assert check_feasibility(solution, inst).passes()


@pytest.mark.parametrize("failure", ["singular", "nan"])
def test_failed_small_solve_drops_the_accelerator(monkeypatch, caplog,
                                                   failure):
    def nan(a, b):
        return np.full_like(b, np.nan)

    monkeypatch.setattr(np.linalg, "solve",
                        _singular if failure == "singular" else nan)
    caplog.set_level(logging.DEBUG, logger="cardcsp.sdp_solver")
    _, report = sdp_solver.solve(build_relaxation(generate("cycle", 6), 2))
    messages = _solver_messages(caplog)
    starts = _iterations_of(messages, "acceleration on")
    drops = _iterations_of(messages, "step failed")
    # every extrapolation fails: each accelerator takes its plain first
    # step, is dropped at the next, and the following check starts a fresh
    # one; the solve converges on plain steps
    assert len(starts) > 1
    assert drops == [it + 2 for it in starts]
    assert report.status == "optimal"


# -- infeasibility certificates -------------------------------------------------

_TRIANGLE = [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]
_CYCLE5 = [(i, (i + 1) % 5, 1.0) for i in range(5)]


def test_solver_logs_its_certificate(caplog):
    # n = 3 has no bisection, and level 3 is exact for n = 3
    caplog.set_level(logging.DEBUG, logger="cardcsp.sdp_solver")
    _, report = sdp_solver.solve(build_relaxation(cut_instance(3, _TRIANGLE),
                                                  3))
    assert (report.status, report.iterations) == ("infeasible", 25)
    messages = _solver_messages(caplog)
    [line] = [m for m in messages if "Farkas certificate" in m]
    assert line.startswith("iteration 25: Farkas certificate, margin -")
    margin = float(line.split("margin ")[1].split()[0])
    slack = float(line.split("slack ")[1].rstrip(")"))
    assert margin < -slack < 0
    assert messages[-1].startswith("infeasible after 25 iterations")


@pytest.mark.parametrize("inst, level", [
    (cut_instance(3, _TRIANGLE), 3),
    (cut_instance(3, _TRIANGLE, vertex_weights=[0.4, 0.3, 0.3]), 3),
    (cut_instance(5, _CYCLE5, vertex_weights=[0.6, 0.1, 0.1, 0.1, 0.1]), 2),
    (cut_instance(5, _CYCLE5, vertex_weights=[0.6, 0.1, 0.1, 0.1, 0.1]), 3),
])
def test_infeasible_relaxations_end_infeasible(inst, level):
    # no side weighs within 0.05 of 1/2, so no integral point is feasible
    # and brute_force finds no split; level 3 = n is exact for the triangles
    w = inst.weights_array
    assert all(abs(w[list(side)].sum() - 0.5) > 0.05
               for r in range(inst.n + 1)
               for side in combinations(range(inst.n), r))
    with pytest.raises(CardCspError, match="no assignment satisfies"):
        brute_force(inst)
    _, report = sdp_solver.solve(build_relaxation(inst, level))
    assert report.status == "infeasible"
    assert report.iterations <= 100


_KINDS = st.sampled_from(["maxcut-bisection", "mincut-bisection", "max2sat"])


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 7), level=st.integers(2, 3), kind=_KINDS,
       complete=st.booleans(), seed=st.integers(0, 2**16),
       cap=st.sampled_from([25, 100, 1000]))
def test_feasible_relaxations_never_end_infeasible(n, level, kind, complete,
                                                    seed, cap):
    # vertex weights that admit an exact split, so the integral lift of that
    # split is feasible at every level; complete graphs (p = 1) with uniform
    # weights have an objective constant on the feasible set, where the
    # margin of the certificate tends to 0
    inst = instance(kind, "uniform" if complete else "integer", n, seed, p=1.0)
    _, report = sdp_solver.solve(build_relaxation(inst, level),
                                 SolverConfig(max_iterations=cap))
    assert report.status != "infeasible"


@pytest.mark.parametrize("tolerance", [SolverConfig().tolerance, 1e-7])
@settings(max_examples=25, deadline=None)
# ending on the residuals alone, checked every 25 iterations, leaves this
# draw at iteration 100 with psd violation 2.0e-6
@example(n=7, level=2, kind="max2sat", weights="integer", seed=35267)
@given(n=st.integers(3, 7), level=st.integers(2, 3), kind=_KINDS,
       weights=st.sampled_from(["integer", "uniform"]),
       seed=st.integers(0, 2**16))
def test_optimal_solves_pass_the_feasibility_check(tolerance, n, level, kind,
                                                   weights, seed):
    # vertex weights that admit an exact split
    inst = instance(kind, weights, n, seed)
    config = SolverConfig(max_iterations=5000, tolerance=tolerance)
    solution, report = sdp_solver.solve(build_relaxation(inst, level), config)
    if report.status == "optimal":
        assert check_feasibility(solution, inst).passes(config.tolerance)


def test_default_solve_writes_nothing_to_stderr(tmp_path):
    path = tmp_path / "c6.edges"
    path.write_text("".join(f"{i} {(i + 1) % 6}\n" for i in range(6)))
    src = str(Path(sdp_solver.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c",
                          "import sys; from cardcsp.cli import main; "
                          "sys.exit(main(sys.argv[1:]))", "solve", str(path)],
                         capture_output=True, text=True, env=env, check=True)
    assert run.stderr == ""
    assert '"status": "optimal"' in run.stdout
