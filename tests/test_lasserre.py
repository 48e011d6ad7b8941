import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cardcsp import lasserre, sdp_solver
from cardcsp.dictator import DictGadget, build_gadget
from cardcsp.errors import (CapacityError, CardCspError,
                            InconsistentSolutionError, ParseError)
from cardcsp.independence import condition
from cardcsp.instance import cut_instance, generate
from cardcsp.lasserre import (MomentSolution, _cached_layout, _layout,
                              build_index_set, build_relaxation,
                              check_feasibility, integral_lift,
                              local_distribution, solution_objective)
from cardcsp.oracle import exact_mixture_moments
from cardcsp.rounding import RoundedAssignment, bias_decompose, pipeline
from test_operator_properties import merge_assignments


def test_index_set_size():
    # 1 + n q + C(n,2) q^2 at level 2
    idx = build_index_set(4, 2, 2)
    assert len(idx) == 1 + 8 + 24
    assert idx[0] == ((), ())


def _value_table_by_loop(indices, n):
    values = np.full((len(indices), n), -1, dtype=np.int8)
    for r, (subset, alpha) in enumerate(indices):
        for v, a in zip(subset, alpha):
            values[r, v] = a
    return values


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 7), q=st.integers(2, 3), level=st.integers(1, 3),
       data=st.data())
def test_value_table_equals_the_index_loop(n, q, level, data):
    level = min(level, n)
    layout = _layout(n, q, level)
    assert list(layout.indices) == build_index_set(n, q, level)
    # every prefix that conditioning reads (a lower level's index set) and
    # one of arbitrary length
    ends = list(layout.offsets[1:])
    ends.append(data.draw(st.integers(0, len(layout.indices))))
    for end in ends:
        got = layout.values[:end]
        want = _value_table_by_loop(layout.indices[:end], n)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 7), q=st.integers(2, 3), level=st.integers(2, 3))
def test_lower_level_layout_is_a_prefix(n, q, level):
    """``condition`` reads the level-(k-1) indices and value table off the
    front of the level-k ones."""
    level = min(level, n)
    upper, lower = _layout(n, q, level), _layout(n, q, level - 1)
    end = upper.offsets[level]
    assert lower.indices == upper.indices[:end]
    assert np.array_equal(lower.values, upper.values[:end])
    assert np.array_equal(lower.offsets, upper.offsets[:-1])


def test_each_shape_builds_its_layout_once(monkeypatch):
    """build_relaxation -> solve -> check_feasibility -> pipeline derives
    the index list, value table, reduced basis, its QR factor, the
    consistency pairs and the block's rows once for the shape."""
    calls = {}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("build_index_set", "_value_table", "_reduced_basis",
                 "_consistency_pairs"):
        counted(lasserre, name)
    counted(np.linalg, "qr")
    counted(lasserre._Layout.block, "func")  # what derives ``block``
    _cached_layout.cache_clear()
    inst = generate("cycle", 6)
    for _ in range(2):
        solution, report = sdp_solver.solve(build_relaxation(inst, 2))
        assert report.status == "optimal"
        assert check_feasibility(solution, inst).passes(1e-5)
        pipeline(inst, level=2, trials=4, solution=solution)
        pipeline(inst, level=2, trials=4)
    assert calls == dict.fromkeys(["build_index_set", "_value_table",
                                   "_reduced_basis", "_consistency_pairs",
                                   "qr", "func"], 1)
    assert _cached_layout.cache_info().currsize == 1


def test_merge_assignments():
    assert merge_assignments((0, 2), (1, 0), (2,), (0,)) == ((0, 2), (1, 0))
    assert merge_assignments((0,), (1,), (0,), (0,)) is None
    assert merge_assignments((1,), (0,), (3,), (1,)) == ((1, 3), (0, 1))


def test_integral_lift_is_feasible():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    rep = check_feasibility(sol, inst)
    assert rep.psd_violation <= 1e-12
    assert rep.consistency_violation <= 1e-12
    assert rep.cardinality_violation <= 1e-12
    assert solution_objective(sol, inst) == pytest.approx(1.0)


def test_integral_lift_unbalanced_violates_cardinality():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 0, 0, 1))
    rep = check_feasibility(sol, inst)
    assert rep.cardinality_violation > 0.1


def test_local_distribution_and_moments():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    mu = local_distribution(sol, (0, 1)).probabilities
    assert mu.tolist() == [0.0, 1.0, 0.0, 0.0]
    profile = bias_decompose(sol)
    second = profile.w @ profile.w.T + np.outer(profile.mu, profile.mu)
    assert profile.mu[0] == pytest.approx(1.0)
    assert second[0, 1] == pytest.approx(-1.0)


def test_local_distribution_rejects_drift():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    sol.gram[0, sol.indices.index(((0,), (0,)))] += 1e-3
    with pytest.raises(InconsistentSolutionError):
        local_distribution(sol, (0,))


def test_relaxation_objective_on_integral_points():
    # the program objective evaluated at a lift equals the instance value
    inst = generate("gnp", 6, seed=2, p=0.6)
    program = build_relaxation(inst, 2)
    sol = integral_lift(inst, (0, 1, 0, 1, 0, 1))
    total = program.c @ sol.gram[0]
    assert total == pytest.approx(inst.evaluate((0, 1, 0, 1, 0, 1)))


def test_relaxation_constraints_hold_on_lifts():
    inst = generate("cycle", 6)
    program = build_relaxation(inst, 2)
    sol = integral_lift(inst, (0, 0, 1, 0, 1, 1))
    assert np.abs(program.constraints.residual(sol.gram)).max() <= 1e-12


def test_capacity_cap():
    inst = generate("cycle", 18)
    with pytest.raises(CapacityError):
        build_relaxation(inst, 3)


def _from_json(inst, x, level, text):
    return MomentSolution.from_json(text)


@pytest.mark.parametrize("entry", [
    lambda inst, x, level, text: build_relaxation(inst, level),
    lambda inst, x, level, text: pipeline(inst, level=level, trials=4),
    lambda inst, x, level, text: integral_lift(inst, x, level),
    lambda inst, x, level, text: exact_mixture_moments(inst, [x], [1.0],
                                                       level),
    lambda inst, x, level, text: MomentSolution(level, inst.n, inst.q, [],
                                                np.zeros((1, 1))),
    _from_json,
], ids=["build_relaxation", "pipeline", "integral_lift",
        "exact_mixture_moments", "MomentSolution", "from_json"])
@pytest.mark.parametrize("n, level", [
    (4, 2.0), (4, "2"), (4, True), (4, 0), (24, 4)])
def test_bad_shapes_are_refused_before_any_layout(monkeypatch, entry, n,
                                                  level):
    """A shape that is not positive ints, or whose index set is over
    INDEX_CAP (n = 24 at level 4: 187,361 indices), is refused by the one
    gate, with no layout built or read from the cache."""
    doc = json.loads(integral_lift(generate("cycle", 4), (0, 1, 0, 1)).to_json())
    doc.update(n=n, level=level)

    def no_layout(*args):
        raise AssertionError("a layout was built")
    monkeypatch.setattr(lasserre, "_Layout", no_layout)
    _cached_layout.cache_clear()
    inst = generate("cycle", n)
    error = (ParseError if entry is _from_json
             else CapacityError if n == 24 else CardCspError)
    with pytest.raises(error, match="cap" if n == 24 else "level"):
        entry(inst, (0, 1) * (n // 2), level, json.dumps(doc))


def test_build_relaxation_refuses_level_1_before_any_layout(monkeypatch):
    """Level 1 is a valid shape for lifts, so it sits outside the crossed
    parametrization above; the relaxation needs level 2."""
    def no_layout(*args):
        raise AssertionError("a layout was built")
    monkeypatch.setattr(lasserre, "_Layout", no_layout)
    _cached_layout.cache_clear()
    with pytest.raises(CardCspError, match="level must be an int >= 2"):
        build_relaxation(generate("cycle", 4), 1)


@pytest.mark.parametrize("entry", [
    lambda inst, x: integral_lift(inst, x),
    lambda inst, x: exact_mixture_moments(inst, [x], [1.0]),
], ids=["integral_lift", "exact_mixture_moments"])
@pytest.mark.parametrize("assignment", [
    (0, 1, 0, -1), (0, 1, 0, 5), (0, 1, 0, 2), (0, 1, 0), (0, 1, 0, 1, 0)],
    ids=["value -1", "value 5", "value q", "short", "long"])
def test_lifts_refuse_assignments_that_do_not_fit(entry, assignment):
    """Each value must lie in 0..q-1 and there must be n of them: -1 once
    read table[-1] and returned a wrong objective."""
    with pytest.raises(CardCspError, match="assignment"):
        entry(generate("cycle", 4), assignment)


def test_feasibility_check_reads_the_gram_in_place():
    """At n = 12, level 3 (d = 2,049) a check allocates less than one d x d
    float array: no symmetric copy of G is made."""
    inst = generate("gnp", 12, seed=1, p=0.5)
    halves = [(0,) * 6 + (1,) * 6, (1, 0) * 6, (0, 1) * 6, (1,) * 6 + (0,) * 6]
    sol = exact_mixture_moments(inst, halves, [0.4, 0.3, 0.2, 0.1], level=3)
    check_feasibility(sol, inst)  # derives the shape's layout
    tracemalloc.start()
    try:
        report = check_feasibility(sol, inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    d = len(sol.indices)
    assert d == 2049 and report.passes(1e-9)
    assert peak < d * d * 8


def test_level_3_feasibility_of_lifts():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (1, 0, 1, 0), level=3)
    rep = check_feasibility(sol, inst)
    assert rep.passes(1e-12)


def _mixture(level=3):
    inst = generate("cycle", 6)
    sol = exact_mixture_moments(
        inst, [(0, 1, 0, 1, 0, 1), (1, 1, 0, 0, 1, 0), (0, 0, 1, 1, 0, 1)],
        [1 / 3, 1 / 7, 1 - 1 / 3 - 1 / 7], level=level)
    return inst, sol


@st.composite
def moment_solutions(draw):
    """Solutions of any shape up to n = 3, q = 3, level 2 with arbitrary
    finite symmetric grams; the objective is NaN (its default) or any float."""
    n, q = draw(st.integers(1, 3)), draw(st.sampled_from([2, 3]))
    level = draw(st.integers(1, 2))
    indices = build_index_set(n, q, level)
    d = len(indices)
    lower = np.tril(draw(arrays(float, (d, d), elements=st.floats(
        allow_nan=False, allow_infinity=False))))
    objective = draw(st.one_of(st.just(math.nan), st.floats()))
    return MomentSolution(level, n, q, indices, lower + np.tril(lower, -1).T,
                          objective)


@settings(max_examples=100, deadline=None)
@given(moment_solutions())
def test_solution_json_round_trip(sol):
    text = sol.to_json()
    back = MomentSolution.from_json(text)
    assert (back.level, back.n, back.q) == (sol.level, sol.n, sol.q)
    assert back.indices == sol.indices
    assert np.array_equal(back.gram, sol.gram)
    assert back.objective_value == sol.objective_value or (
        math.isnan(back.objective_value) and math.isnan(sol.objective_value))
    assert back.to_json() == text
    # the lower triangle as the entry-by-entry writer spelled it
    doc = json.loads(text)
    d = len(sol.indices)
    doc["gram_lower"] = [[float(sol.gram[r, c]) for c in range(r + 1)]
                         for r in range(d)]
    assert json.dumps(doc) == text


def test_solution_rejects_another_index_order():
    _, sol = _mixture(level=2)
    doc = json.loads(sol.to_json())
    doc["indices"].reverse()
    with pytest.raises(CardCspError, match="build_index_set"):
        MomentSolution.from_json(json.dumps(doc))
    with pytest.raises(CardCspError, match="build_index_set"):
        MomentSolution(2, 6, 2, sol.indices[:-1], sol.gram[:-1, :-1])


def test_solution_rejects_gram_of_wrong_shape():
    _, sol = _mixture(level=2)
    with pytest.raises(CardCspError, match="shape"):
        MomentSolution(2, 6, 2, sol.indices, sol.gram[:-1, :-1])
    with pytest.raises(CardCspError, match="shape"):
        MomentSolution(2, 6, 2, sol.indices, sol.gram[0])


@pytest.mark.parametrize("entry, value, on_block", [
    ((2, 4), math.nan, False), ((1, 3), math.nan, True),
    ((2, 4), math.inf, False)])
def test_solution_rejects_a_non_finite_gram(entry, value, on_block):
    """A NaN or inf pair on or off the reduced block R x R, where the
    feasibility check would misread or fail on it."""
    sol = integral_lift(generate("cycle", 4), (0, 1, 0, 1))
    assert np.isin(entry, _layout(4, 2, 2).basis[0]).all() == on_block
    gram = sol.gram.copy()
    gram[entry] = gram[entry[::-1]] = value
    with pytest.raises(CardCspError, match=re.escape(
            f"gram entry {entry} is {value}, not finite")):
        MomentSolution(2, 4, 2, sol.indices, gram)


def _lacks(key):
    return lambda doc: doc.pop(key)


def _sets(key, value):
    return lambda doc: doc.__setitem__(key, value)


def _updates(**fields):
    return lambda doc: doc.update(fields)


def _sets_entry(value):
    return lambda doc: doc["gram_lower"][2].__setitem__(1, value)


def _solution_text():
    return integral_lift(generate("cycle", 4), (0, 1, 0, 1)).to_json()


def _assignment_text():
    return RoundedAssignment(np.array([1, -1]), 0.5, 0.0, 3, [1]).to_json()


def _gadget_text():
    return DictGadget(1, 0.1, np.full(2, 0.5), np.full((2, 2), 0.25),
                      np.full(2, 0.5), np.full(2, 0.5), {}).to_json()


@pytest.mark.parametrize("reader, text, edit", [
    (MomentSolution, _solution_text, _lacks("level")),
    (MomentSolution, _solution_text, _lacks("indices")),
    (MomentSolution, _solution_text, _sets_entry("x")),
    (MomentSolution, _solution_text, _sets("indices", 5)),
    (MomentSolution, _solution_text, _sets_entry(math.nan)),
    (MomentSolution, _solution_text, None),
    (MomentSolution, _solution_text, _sets("schema", "something/9")),
    (MomentSolution, _solution_text, _sets("objective_value", "x")),
    (MomentSolution, _solution_text, _sets_entry("0.5")),
    (MomentSolution, _solution_text, _sets_entry(True)),
    (RoundedAssignment, _assignment_text, _lacks("seed")),
    (RoundedAssignment, _assignment_text, None),
    (RoundedAssignment, _assignment_text, _sets("schema", "something/9")),
    (DictGadget, _gadget_text, _lacks("edge_weights")),
    (DictGadget, _gadget_text, None),
    (DictGadget, _gadget_text, _sets("schema", "cardcsp.assignment/1")),
    (DictGadget, _gadget_text, _sets("R", "2")),
    (RoundedAssignment, _assignment_text, _sets("seed", "3")),
    (RoundedAssignment, _assignment_text, _sets("labels", ["x", "y"])),
    (RoundedAssignment, _assignment_text, _sets("value", "v")),
    (DictGadget, _gadget_text, _sets("eps", "0.1")),
    (DictGadget, _gadget_text, _sets("vertex_weights", ["a", "b"])),
    (DictGadget, _gadget_text, _sets("eps", 7.0)),
    (DictGadget, _gadget_text, _sets("eps", -0.1)),
    (DictGadget, _gadget_text, _sets("R", 0)),
    (DictGadget, _gadget_text, _sets("R", 13)),
    (DictGadget, _gadget_text, _sets("R", 5)),
    (DictGadget, _gadget_text,
     _updates(R=2, vertex_weights=[0.25] * 4, edge_weights=[[1.0]])),
    (DictGadget, _gadget_text, _sets("edge_weights", [[0.5, 0.5]])),
    (DictGadget, _gadget_text, _sets("vertex_weights", [])),
    (DictGadget, _gadget_text, _sets("vertex_marginals", [0.5])),
    (DictGadget, _gadget_text, _updates(vertex_marginals=[],
                                        source_weights=[])),
    (DictGadget, _gadget_text, _sets("provenance", 5)),
    (RoundedAssignment, _assignment_text, _sets("labels", [2, 7])),
    (RoundedAssignment, _assignment_text, _sets("labels", [1, 0])),
    (RoundedAssignment, _assignment_text, _sets("repair_moves", [9])),
    (RoundedAssignment, _assignment_text, _sets("repair_moves", [-1])),
    (RoundedAssignment, _assignment_text, _sets("repair_moves", [1, 1])),
    (RoundedAssignment, _assignment_text, _sets("seed", -4)),
], ids=["no level", "no indices", "string entry", "indices 5", "NaN entry",
        "not JSON", "solution schema", "string objective", "numeral entry",
        "boolean entry", "assignment without seed", "assignment not JSON",
        "assignment schema", "gadget without edges", "gadget not JSON",
        "gadget schema", "gadget R string", "assignment seed string",
        "assignment string labels", "assignment string value",
        "gadget eps string", "gadget string vertex weights", "gadget eps 7",
        "gadget eps negative", "gadget R 0", "gadget R over cap",
        "gadget R 5 on R 1 tables", "gadget 1x1 edges at R 2",
        "gadget 1x2 edges", "gadget no vertex weights",
        "gadget one marginal for two sources", "gadget no sources",
        "gadget provenance 5", "assignment labels 2 7", "assignment label 0",
        "assignment move out of range", "assignment negative move",
        "assignment repeated move", "assignment seed -4"])
def test_malformed_solution_document_raises_parse_error(reader, text, edit):
    """Moment solution, assignment and gadget documents alike."""
    text = text()
    if edit is None:
        text = text[:-1]
    else:
        doc = json.loads(text)
        edit(doc)
        text = json.dumps(doc)
    with pytest.raises(ParseError):
        reader.from_json(text)


@pytest.mark.parametrize("subset, assignment", [
    ((1, 1), (0, 0)),   # repeated vertex
    ((6,), (0,)),       # vertex out of range
    ((-1,), (0,)),
    ((0,), (2,)),       # value >= q
    ((0, 1), (0,)),     # assignment of another length
    ((0, 1, 2), (0, 0, 0)),  # above the level
])
def test_event_reads_reject_bad_events(subset, assignment):
    _, sol = _mixture(level=2)
    with pytest.raises(CardCspError):
        sol.prob(subset, assignment)


@pytest.mark.parametrize("subset", [(1, 1), (6,), (-1,), (0, 1, 2)])
def test_local_distribution_rejects_bad_subsets(subset):
    _, sol = _mixture(level=2)
    with pytest.raises(CardCspError):
        local_distribution(sol, subset)


@pytest.mark.parametrize("size", [1.0, True, 3, -1])
def test_local_distributions_rejects_bad_sizes(size):
    """A size must be a plain int in 0..level: 1.0 once escaped as a bare
    TypeError and True was read as 1."""
    _, sol = _mixture(level=2)
    with pytest.raises(CardCspError, match="subset size"):
        lasserre.local_distributions(sol, size)


@pytest.mark.parametrize("pivot, value", [(6, 0), (-1, 0), (0, 2), (0, -1)])
def test_condition_rejects_bad_events(pivot, value):
    _, sol = _mixture()
    with pytest.raises(CardCspError):
        condition(sol, pivot, value)


@pytest.mark.parametrize("name, value", [
    ("level", "2"), ("n", 4.0), ("q", None), ("q", True), ("level", 0)])
def test_solution_shape_must_be_positive_ints(name, value):
    sol = integral_lift(generate("cycle", 4), (0, 1, 0, 1))
    doc = json.loads(sol.to_json())
    doc[name] = value
    with pytest.raises(ParseError, match=f"{name} must be an int >= 1"):
        MomentSolution.from_json(json.dumps(doc))
    shape = {"level": 2, "n": 4, "q": 2, name: value}
    with pytest.raises(CardCspError, match=f"{name} must be an int >= 1"):
        MomentSolution(shape["level"], shape["n"], shape["q"], sol.indices,
                       sol.gram)


@pytest.mark.parametrize("entry", [
    lambda sol, inst: check_feasibility(sol, inst),
    lambda sol, inst: solution_objective(sol, inst),
    lambda sol, inst: pipeline(inst, trials=4, solution=sol),
    lambda sol, inst: build_gadget(sol, inst, 0.1, 2),
], ids=["check_feasibility", "solution_objective", "pipeline", "build_gadget"])
def test_solution_of_another_shape_is_refused(entry):
    solution = integral_lift(generate("cycle", 4), (0, 1, 0, 1))
    with pytest.raises(CardCspError, match="n=4, q=2 but the instance has "
                                           "n=6, q=2"):
        entry(solution, generate("cycle", 6))
