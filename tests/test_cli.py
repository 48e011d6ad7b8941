import json
from fractions import Fraction

import numpy as np
import pytest

from cardcsp import rounding, sdp_solver
from cardcsp.cli import main
from cardcsp.dictator import DictGadget
from cardcsp.instance import (CardinalityFunction, CspInstance, PayoffTerm,
                              generate)
from cardcsp.lasserre import MomentSolution


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.edges"
    path.write_text("kind maxcut-bisection\n0 1\n1 2\n2 3\n0 3\n")
    return str(path)


def test_oracle_subcommand(c4_file, capsys):
    assert main(["oracle", c4_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["optimum"] == pytest.approx(1.0)
    assert doc["witness"] == [0, 1, 0, 1]


def test_solve_subcommand(c4_file, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["solve", c4_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["objective"] == pytest.approx(1.0, abs=1e-4)
    assert doc["status"] == "optimal"
    assert doc["feasibility"]["psd_violation"] <= 1e-5


def test_solve_reports_its_residuals_and_penalty(c4_file, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["solve", c4_file, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "cardcsp.solve/1"
    assert doc["status"] == "optimal"
    # optimal: both residuals within the tolerance (1e-6) times max(1, |X|)
    assert 0 <= doc["primal_residual"] <= 1e-5
    assert 0 <= doc["dual_residual"] <= 1e-5
    assert doc["rho"] > 0 and doc["seconds"] > 0
    assert "residual_history" not in doc


def test_solve_reports_its_blocks(c4_file, tmp_path):
    # max bisection is invariant under the label flip: the solve runs on the
    # 1 + 6 even-size subsets of the 4 vertices and the 4 odd-size ones
    out = tmp_path / "sol.json"
    assert main(["solve", c4_file, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["blocks"] == [7, 4]
    # a 2-Sat clause is not: one block of all 11
    path = tmp_path / "sat.json"
    path.write_text(CspInstance(4, 2, (PayoffTerm((0, 1), (0.0, 1.0, 1.0, 1.0),
                                                  1.0),),
                                (0.25,) * 4, CardinalityFunction(
                                    (Fraction(1, 2), Fraction(1, 2))),
                                "max2sat").to_json())
    assert main(["solve", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["blocks"] == [11]


def test_solve_trace_adds_the_residual_history(c4_file, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["solve", c4_file, "--trace", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    history = doc["residual_history"]
    # one entry per residual check, every 25 iterations and at the last
    assert [h["iteration"] for h in history] == list(
        range(25, doc["iterations"] + 1, 25))
    assert history[-1] == {"iteration": doc["iterations"],
                           "primal": doc["primal_residual"],
                           "dual": doc["dual_residual"]}


def test_solve_full_embeds_a_readable_solution(c4_file, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["solve", c4_file, "--full", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    sol = MomentSolution.from_json(json.dumps(doc["solution"]))
    assert (sol.n, sol.level) == (4, 2)
    assert sol.objective_value == pytest.approx(doc["objective"], abs=1e-9)


def test_solve_accepts_json_instances(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(generate("cycle", 4).to_json())
    assert main(["solve", str(path)]) == 0


def test_round_subcommand(c4_file, tmp_path):
    out = tmp_path / "round.json"
    assert main(["round", c4_file, "--trials", "4", "--seed", "1",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["best"]["value"] == pytest.approx(1.0, abs=1e-6)
    assert abs(doc["best"]["balance"]) <= 1e-9
    assert doc["status"] == "optimal"
    assert doc["iterations"] > 0


@pytest.fixture
def triangle_file(tmp_path):
    """No side of a triangle weighs 1/2, and level 3 is exact for n = 3:
    the solver certifies the relaxation infeasible at its first check."""
    path = tmp_path / "tri.edges"
    path.write_text("0 1\n1 2\n0 2\n")
    return str(path)


def test_solve_exits_4_on_an_infeasible_relaxation(triangle_file, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["solve", triangle_file, "--level", "3",
                 "--out", str(out)]) == 4
    doc = json.loads(out.read_text())
    assert doc["status"] == "infeasible"
    assert doc["iterations"] <= 100


def test_solve_exits_4_at_the_iteration_cap(c4_file, tmp_path):
    out = tmp_path / "sol.json"
    assert main(["solve", c4_file, "--max-iterations", "1",
                 "--out", str(out)]) == 4
    doc = json.loads(out.read_text())
    assert (doc["status"], doc["iterations"]) == ("max_iter", 1)


def test_round_exits_4_without_json_on_an_infeasible_relaxation(
        triangle_file, tmp_path, capsys):
    out = tmp_path / "round.json"
    assert main(["round", triangle_file, "--level", "3", "--trials", "4",
                 "--out", str(out)]) == 4
    assert not out.exists()
    assert "relaxation is infeasible" in capsys.readouterr().err


def test_bench_exits_4_unless_every_solve_is_optimal(tmp_path, monkeypatch):
    # the generated suite instances are all feasible and converge: the
    # second solve's status is faked
    real_solve = sdp_solver.solve
    calls = []

    def second_solve_capped(program, config=None):
        solution, report = real_solve(program, config)
        calls.append(program)
        if len(calls) == 2:
            report.status = "max_iter"
        return solution, report

    monkeypatch.setattr(sdp_solver, "solve", second_solve_capped)
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"instances": [
        {"name": "c4", "family": "cycle", "n": 4},
        {"name": "k4", "family": "complete", "n": 4},
    ]}))
    out = tmp_path / "bench_out.json"
    assert main(["bench", "--config", str(config), "--trials", "4",
                 "--out", str(out)]) == 4
    rows = json.loads(out.read_text())["rows"]
    assert [r["status"] for r in rows] == ["optimal", "max_iter"]


def test_round_exits_2_when_every_repair_fails(c4_file, tmp_path, capsys,
                                              monkeypatch):
    real_repair = rounding.repair_many

    def failed_repair(instance, labels):
        out = real_repair(instance, labels)
        out.failed[:] = True
        out.moved_weight[:] = 0.75
        return out

    monkeypatch.setattr(rounding, "repair_many", failed_repair)
    out = tmp_path / "round.json"
    assert main(["round", c4_file, "--trials", "4", "--out", str(out)]) == 2
    assert "weight fraction of 0.75" in capsys.readouterr().err
    assert not out.exists()


def test_round_exits_2_on_a_ternary_instance(tmp_path, capsys, monkeypatch):
    # a 3-cycle with "not equal" payoffs over three values, one per vertex:
    # rounding reads +-1 labels, so it cannot meet this cardinality target
    not_equal = tuple(float(a != b) for a in range(3) for b in range(3))
    third = Fraction(1, 3)
    inst = CspInstance(3, 3, tuple(PayoffTerm(e, not_equal, 1 / 3, 3)
                                   for e in ((0, 1), (1, 2), (0, 2))),
                       (1 / 3,) * 3, CardinalityFunction((third,) * 3))
    path = tmp_path / "ternary.json"
    path.write_text(inst.to_json())

    def no_solve(*args, **kwargs):
        raise AssertionError("the instance is rejected before the solve")

    monkeypatch.setattr(sdp_solver, "solve", no_solve)
    out = tmp_path / "round.json"
    assert main(["round", str(path), "--trials", "4", "--out", str(out)]) == 2
    assert "q = 2 only, got q = 3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    pytest.param(["-R", "0"], "R must be an int >= 1, got 0",
                 id="flags0-R must be at least 1, got 0"),
    pytest.param(["-R", "-1"], "R must be an int >= 1, got -1",
                 id="flags1-R must be at least 1, got -1"),
    pytest.param(["--eps", "-0.5"],
                 "eps must be a finite real in [0, 1], got -0.5",
                 id="flags2-eps must lie in [0, 1], got -0.5"),
    pytest.param(["--eps", "1.5"],
                 "eps must be a finite real in [0, 1], got 1.5",
                 id="flags3-eps must lie in [0, 1], got 1.5"),
    pytest.param(["--eps", "nan"],
                 "eps must be a finite real in [0, 1], got nan",
                 id="flags4-eps must lie in [0, 1], got nan"),
])
def test_dict_rejects_meaningless_r_or_eps_with_exit_2(c4_file, tmp_path, capsys,
                                                      flags, message):
    out = tmp_path / "dict.json"
    assert main(["dict", c4_file, "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [
    {"instances": [{"family": "cycle", "n": "6"}]},
    [1],
    {"instances": [{"family": "gnp", "n": 6, "params": [1]}]},
    {"instances": [{"family": "gnp", "n": 6, "params": {"p": "x"}}]},
    {"instances": [{"family": "gnp", "n": 6, "seed": -1}]},
    {"instances": {"family": "cycle", "n": 6}},
    {"instances": [{"n": 6}]},
])
def test_bench_rejects_badly_typed_configs_with_exit_2(tmp_path, capsys, doc):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "bench_out.json"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 2
    assert "benchmark" in capsys.readouterr().err
    assert not out.exists()


def test_bench_rejects_params_the_family_does_not_read_with_exit_2(tmp_path,
                                                                 capsys):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"instances": [
        {"family": "gnp", "n": 8, "params": {"prob": 0.9}}]}))
    out = tmp_path / "bench_out.json"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 2
    assert "gnp does not read params prob" in capsys.readouterr().err
    assert not out.exists()


def test_bench_config_errors_name_the_entry(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"instances": [
        {"name": "a", "family": "cycle", "n": 4},
        {"name": "b", "family": "gnp", "n": 8, "params": {"prob": 0.9}},
        {"family": "gnp", "n": 8, "p": 2}]}))
    assert main(["bench", "--config", str(config)]) == 2
    assert "benchmark entry 2 ('b'): gnp does not read params prob" in \
        capsys.readouterr().err


def test_bench_rejects_unknown_entry_keys_with_exit_2(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"instances": [
        {"name": "a", "family": "cycle", "n": 4},
        {"family": "gnp", "n": 8, "p": 2}]}))
    assert main(["bench", "--config", str(config)]) == 2
    assert "benchmark entry 2: unknown keys p" in capsys.readouterr().err


def test_bench_rejects_instances_the_oracle_cannot_score_with_exit_3(tmp_path,
                                                                     capsys):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"instances": [
        {"family": "cycle", "n": 4}, {"family": "cycle", "n": 10**12}]}))
    assert main(["bench", "--config", str(config)]) == 3
    assert "n=1000000000000 exceeds the cap of 24" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_round_rejects_trials_below_one(c4_file, tmp_path, capsys, trials):
    out = tmp_path / "round.json"
    assert main(["round", c4_file, "--trials", trials, "--out", str(out)]) == 2
    assert "trials must be an int >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_bench_rejects_trials_below_one(tmp_path, capsys, trials):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"instances": [
        {"name": "c4", "family": "cycle", "n": 4}]}))
    out = tmp_path / "bench_out.json"
    assert main(["bench", "--config", str(config), "--trials", trials,
                 "--out", str(out)]) == 2
    assert "trials must be an int >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_round_rejects_a_negative_seed_with_exit_2(c4_file, tmp_path, capsys):
    out = tmp_path / "round.json"
    assert main(["round", c4_file, "--seed", "-5", "--out", str(out)]) == 2
    assert "seed must be an int >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_round_is_deterministic(c4_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["round", c4_file, "--trials", "4", "--seed", "9", "--out", str(a)])
    main(["round", c4_file, "--trials", "4", "--seed", "9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_landscape_sqrt_eps(tmp_path):
    out = tmp_path / "curve.json"
    assert main(["landscape", "sqrt-eps", "--eps", "0.01,0.04",
                 "--resolution", "80", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 2


def test_landscape_ratio(tmp_path):
    out = tmp_path / "ratio.json"
    assert main(["landscape", "ratio", "--resolution", "50",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "cardcsp.ratio_certificate/1"
    assert doc["grid_resolution"] == 50


@pytest.mark.parametrize("eps, message", [
    ("", "invalid number_list value"), ("0.01,abc", "invalid number_list value"),
    ("0.01", "two distinct eps"), ("0.01,0.01", "two distinct eps"),
])
def test_landscape_sqrt_eps_rejects_lists_that_cannot_fit(tmp_path, capsys,
                                                          eps, message):
    out = tmp_path / "curve.json"
    assert main(["landscape", "sqrt-eps", "--eps", eps, "--resolution", "20",
                 "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--max-iterations", "0"], "max_iterations"),
    pytest.param(["--tolerance", "-1"],
                 "tolerance must be a finite real in (0, inf), got -1.0",
                 id="flags1-tolerances"),
    pytest.param(["--tolerance", "0"],
                 "tolerance must be a finite real in (0, inf), got 0.0",
                 id="flags2-tolerances"),
    pytest.param(["--tolerance", "nan"],
                 "tolerance must be a finite real in (0, inf), got nan",
                 id="flags3-tolerances"),
])
def test_solve_rejects_bad_solver_flags_with_exit_2(c4_file, tmp_path, capsys,
                                                   flags, message):
    out = tmp_path / "sol.json"
    assert main(["solve", c4_file, "--out", str(out)] + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode", ["ratio", "csv", "sqrt-eps"])
def test_landscape_resolution_over_the_cap_exits_3(tmp_path, capsys,
                                                   monkeypatch, mode):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built before the resolution gate")

    monkeypatch.setattr(np, "linspace", no_grid)
    out = tmp_path / "landscape.out"
    assert main(["landscape", mode, "--resolution", "1000000",
                 "--out", str(out)]) == 3
    assert "exceeds the cap" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, resolution", [
    ("sqrt-eps", "1"), ("sqrt-eps", "0"), ("csv", "1"), ("csv", "0"),
    ("csv", "-3"),
])
def test_landscape_rejects_grids_too_small_to_step(tmp_path, capsys, mode,
                                                   resolution):
    out = tmp_path / "landscape.out"
    assert main(["landscape", mode, "--resolution", resolution,
                 "--out", str(out)]) == 2
    assert "resolution must be an int >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_dict_subcommand(c4_file, tmp_path):
    out = tmp_path / "dict.json"
    assert main(["dict", c4_file, "--eps", "0.1", "-R", "3", "--soundness",
                 "--tau", "1.0", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["completeness_ok"]
    assert doc["soundness"]["candidates"] > 0
    assert doc["status"] == "optimal"
    assert doc["iterations"] > 0


@pytest.mark.parametrize("tau", ["nan", "inf", "-1"])
def test_dict_refuses_a_tau_that_is_not_finite_and_nonnegative(c4_file,
                                                                tmp_path,
                                                                capsys, tau):
    out = tmp_path / "dict.json"
    assert main(["dict", c4_file, "-R", "2", "--soundness", "--tau", tau,
                 "--out", str(out)]) == 2
    assert "tau must be a finite real in [0, inf)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, alpha", [("round", "nan"), ("round", "-1"),
                                            ("round", "inf"), ("bench", "-1"),
                                            ("bench", "nan")])
def test_round_and_bench_refuse_an_alpha_that_is_not_finite_and_nonnegative(
        c4_file, tmp_path, capsys, monkeypatch, command, alpha):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before alpha was checked")

    monkeypatch.setattr(sdp_solver, "solve", no_solve)
    out = tmp_path / "out.json"
    inputs = [c4_file] if command == "round" else []
    assert main([command, *inputs, "--alpha", alpha, "--out", str(out)]) == 2
    assert "alpha must be a finite real in [0, inf)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["round", "--depth", "1"],
                                  ["dict", "--balance-tol", "1e-9"]])
def test_removed_flags_are_usage_errors(c4_file, tmp_path, argv):
    out = tmp_path / "out.json"
    assert main([argv[0], c4_file, "--out", str(out)] + argv[1:]) == 2
    assert not out.exists()


def test_dict_gadget_out_reads_back(c4_file, tmp_path):
    gadget_path = tmp_path / "gadget.json"
    assert main(["dict", c4_file, "--eps", "0.1", "-R", "2", "--gadget-out",
                 str(gadget_path), "--out", str(tmp_path / "dict.json")]) == 0
    gadget = DictGadget.from_json(gadget_path.read_text())
    assert (gadget.R, gadget.eps) == (2, 0.1)
    assert gadget.edge_weights.shape == (4, 4)
    assert gadget.edge_weights.sum() == pytest.approx(1.0)


def test_dict_exits_4_on_an_infeasible_relaxation(triangle_file, tmp_path,
                                                  capsys):
    """No moment solution, so no gadget: neither the JSON nor the gadget
    file is written, even with --soundness."""
    out, gadget = tmp_path / "dict.json", tmp_path / "gadget.json"
    assert main(["dict", triangle_file, "--level", "3", "-R", "2",
                 "--soundness", "--gadget-out", str(gadget),
                 "--out", str(out)]) == 4
    assert not out.exists() and not gadget.exists()
    assert "relaxation is infeasible" in capsys.readouterr().err


def test_bench_with_config(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"instances": [
        {"name": "c4", "family": "cycle", "n": 4},
        {"name": "k4", "family": "complete", "n": 4},
    ]}))
    out = tmp_path / "bench_out.json"
    assert main(["bench", "--config", str(config), "--trials", "4",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["min_ratio"] >= 0.84
    assert [r["name"] for r in doc["rows"]] == ["c4", "k4"]
    assert [r["status"] for r in doc["rows"]] == ["optimal", "optimal"]
    assert all(r["iterations"] > 0 for r in doc["rows"])


def test_bench_rows_carry_the_solve_time(tmp_path):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({"instances": [
        {"name": "c4", "family": "cycle", "n": 4},
        {"name": "c6", "family": "cycle", "n": 6},
    ]}))
    out = tmp_path / "bench_out.json"
    assert main(["bench", "--config", str(config), "--trials", "4",
                 "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 2
    assert all(r["solve_s"] > 0 for r in rows)


def test_usage_errors_exit_2(tmp_path):
    assert main(["solve", str(tmp_path / "missing.edges")]) == 2
    bad = tmp_path / "bad.edges"
    bad.write_text("kind maxcut-bisection\n0 zero\n")
    assert main(["solve", str(bad)]) == 2
    assert main(["frobnicate"]) == 2
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"instances": []}))
    assert main(["bench", "--config", str(empty)]) == 2


@pytest.mark.parametrize("edit", [
    {"kind": "mincut_bisection"},
    {"payoffs": [{"scope": [0, 1], "table": ["x", 1, 1, 0], "weight": 1.0}]},
    {"payoffs": [{"scope": [0, "1"], "table": [0, 1, 1, 0], "weight": 1.0}]},
    {"n": 4.0},
])
def test_bad_json_instances_exit_2(tmp_path, capsys, edit):
    doc = json.loads(generate("cycle", 4).to_json())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc | edit))
    assert main(["oracle", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: bad instance document")


@pytest.mark.parametrize("text, line", [
    ("0 1 nan\n", 1),
    ("0 1\n1 2 1e400\n", 2),
    ("vertex 0 nan\n0 1\n", 1),
    ("0 1 0\n", 1),
    ("kind alpha-cut 1/0\n0 1\n", 1),
])
def test_oracle_rejects_bad_weights_with_exit_2(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.edges"
    bad.write_text(text)
    assert main(["oracle", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: line {line}: ")


@pytest.mark.parametrize("weights", ["", "vertex 0 4\nvertex 1 3\nvertex 2 3\n"])
def test_oracle_exits_2_when_no_side_has_the_exact_weight(tmp_path, capsys,
                                                          weights):
    path = tmp_path / "tri.edges"
    path.write_text(weights + "0 1\n1 2\n0 2\n")
    assert main(["oracle", str(path)]) == 2
    assert "no assignment satisfies the cardinality constraint" in \
        capsys.readouterr().err


def test_capacity_errors_exit_3(tmp_path):
    big = tmp_path / "big.edges"
    lines = ["kind maxcut-bisection"]
    lines += [f"{i} {i + 1}" for i in range(29)]
    big.write_text("\n".join(lines) + "\n")
    assert main(["solve", str(big), "--level", "3"]) == 3
