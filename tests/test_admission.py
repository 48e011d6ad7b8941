"""The two admission rules at every gated entry point and document reader.

An int argument must be a plain int (not a bool, a float or a numpy
integer) in its range; a real one a finite real, numpy scalars included, in
its interval.  An assignment's labels take numpy integers too, as rows of
integer arrays hold them.  Anything else raises CardCspError (CapacityError
above a cap); a document reader raises ParseError.
"""

import dataclasses
import json
import math
from functools import cache

import numpy as np
import pytest

from cardcsp import landscape
from cardcsp.dictator import (R_CAP, DictGadget, build_gadget, dictator,
                              influence, round_with_function,
                              soundness_enumerate)
from cardcsp.errors import CapacityError, CardCspError, ParseError
from cardcsp.independence import decorrelate
from cardcsp.instance import CUT_TABLE, CspInstance, PayoffTerm, generate
from cardcsp.lasserre import (MomentSolution, build_relaxation, integral_lift,
                              local_distributions)
from cardcsp.oracle import exact_mixture_moments, mc_bvn
from cardcsp.rounding import RoundedAssignment, pipeline
from cardcsp.sdp_solver import SolverConfig
from cardcsp.suite import entries_from_config, run_bench


@cache
def _cycle4():
    inst = generate("cycle", 4)
    sol = integral_lift(inst, (0, 1, 0, 1))
    return inst, sol, build_gadget(sol, inst, 0.1, 2)


def _instance(**change):
    inst = _cycle4()[0]
    return dataclasses.replace(inst, **change)


def _solution(level=2, n=4, q=2):
    sol = _cycle4()[1]
    return MomentSolution(level, n, q, sol.indices, sol.gram)


def _assignment(value=0.5, balance=0.0, seed=3):
    return RoundedAssignment(np.array([1, -1]), value, balance, seed)


def _inst():
    return _cycle4()[0]


def _sol():
    return _cycle4()[1]


def _gadget():
    return _cycle4()[2]


# name: (call, a valid value)
INT_ARGUMENTS = {
    "generate n": (lambda v: generate("cycle", v), 4),
    "generate seed": (lambda v: generate("gnp", 6, seed=v, p=0.5), 0),
    "CspInstance n": (lambda v: _instance(n=v), 4),
    "CspInstance q": (lambda v: _instance(q=v), 2),
    "MomentSolution level": (lambda v: _solution(level=v), 2),
    "MomentSolution n": (lambda v: _solution(n=v), 4),
    "MomentSolution q": (lambda v: _solution(q=v), 2),
    "build_relaxation level": (lambda v: build_relaxation(_inst(), v), 2),
    "local_distributions size": (lambda v: local_distributions(_sol(), v), 1),
    "MomentSolution.prob vertex": (lambda v: _sol().prob((v,), (0,)), 1),
    "MomentSolution.prob value": (lambda v: _sol().prob((1,), (v,)), 0),
    "SolverConfig max_iterations": (lambda v: SolverConfig(max_iterations=v),
                                    1),
    "decorrelate seed": (lambda v: decorrelate(_sol(), _inst(), 0.1, seed=v),
                         0),
    "pipeline trials": (lambda v: pipeline(_inst(), trials=v,
                                           solution=_sol()), 4),
    "pipeline seed": (lambda v: pipeline(_inst(), trials=4, seed=v,
                                         solution=_sol()), 0),
    "run_bench seed": (lambda v: run_bench([("c4", _inst())], trials=4,
                                           seed=v), 0),
    "RoundedAssignment seed": (lambda v: _assignment(seed=v), 3),
    "ratio_search resolution": (lambda v: landscape.ratio_search("cut", v),
                                50),
    "landscape_csv resolution": (lambda v: landscape.landscape_csv("cut", v),
                                 2),
    "worst_separation resolution": (
        lambda v: landscape.worst_separation(0.1, v), 2),
    "build_gadget R": (lambda v: build_gadget(_sol(), _inst(), 0.1, v), 2),
    "DictGadget R": (lambda v: dataclasses.replace(_gadget(), R=v), 2),
    "round_with_function seed": (
        lambda v: round_with_function(_sol(), _inst(), dictator(2, 0), 0.1, v),
        0),
    "influence ell": (lambda v: influence(dictator(3, 0), v, 0.5), 1),
    "mc_bvn samples": (lambda v: mc_bvn(0.0, 0.0, 0.5, samples=v), 10**4),
    "mc_bvn seed": (lambda v: mc_bvn(0.0, 0.0, 0.5, samples=10**4, seed=v),
                    0),
}

# name: (call, a valid value); -1 is a bad value unless the interval holds it
REAL_ARGUMENTS = {
    "generate p": (lambda v: generate("gnp", 6, p=v), 0.5),
    "generate eps": (lambda v: generate("planted", 6, eps=v), 0.05),
    "SolverConfig tolerance": (lambda v: SolverConfig(tolerance=v), 1e-6),
    "decorrelate alpha": (lambda v: decorrelate(_sol(), _inst(), v), 0.1),
    "pipeline alpha_target": (
        lambda v: pipeline(_inst(), alpha_target=v, trials=4,
                           solution=_sol()), 0.1),
    "RoundedAssignment value": (lambda v: _assignment(value=v), 0.5),
    "RoundedAssignment balance": (lambda v: _assignment(balance=v), 0.0),
    "build_gadget eps": (lambda v: build_gadget(_sol(), _inst(), v, 2), 0.1),
    "DictGadget eps": (lambda v: dataclasses.replace(_gadget(), eps=v), 0.1),
    "round_with_function eps": (
        lambda v: round_with_function(_sol(), _inst(), dictator(2, 0), v, 0),
        0.1),
    "soundness_enumerate tau": (lambda v: soundness_enumerate(_gadget(), v),
                                0.8),
    "worst_separation eps": (lambda v: landscape.worst_separation(v, 8), 0.1),
    "exact_mixture_moments probability": (
        lambda v: exact_mixture_moments(_inst(), [(0, 1, 0, 1)], [v]), 1.0),
    "influence marginal": (lambda v: influence(dictator(3, 0), 0, v), 0.5),
    "mc_bvn rho": (lambda v: mc_bvn(0.0, 0.0, v, samples=10**4), 0.5),
}
HOLDS_MINUS_ONE = {"RoundedAssignment value", "RoundedAssignment balance",
                   "assignment value", "mc_bvn rho"}


# name: (call with one label set to the value, a valid label); q = 2
LABEL_ARGUMENTS = {
    "integral_lift label": (
        lambda v: integral_lift(_inst(), (0, 1, 0, v)), 1),
    "exact_mixture_moments label": (
        lambda v: exact_mixture_moments(_inst(), [(0, 1, 0, 1), (1, 0, 1, v)],
                                        [0.5, 0.5]), 0),
}


def _int_cases(table):
    for name, (_, valid) in table.items():
        for bad in (True, np.int64(valid), float(valid), math.nan, math.inf,
                    -1, "1"):
            yield pytest.param(name, bad, id=f"{name}-{bad!r}")


def _real_cases(table):
    for name in table:
        for bad in (True, math.nan, math.inf, -math.inf, -1, "1"):
            if not (bad == -1 and name in HOLDS_MINUS_ONE):
                yield pytest.param(name, bad, id=f"{name}-{bad!r}")


@pytest.mark.parametrize("name, bad", list(_int_cases(INT_ARGUMENTS)))
def test_int_arguments_take_only_plain_ints_in_range(name, bad):
    call, _ = INT_ARGUMENTS[name]
    with pytest.raises(CardCspError, match="must be an int") as raised:
        call(bad)
    assert not isinstance(raised.value, CapacityError)


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), 0.7, 1.0,
                                 np.float64(0.0), math.nan, -1, 2,
                                 np.int64(2), "1"])
@pytest.mark.parametrize("name", sorted(LABEL_ARGUMENTS))
def test_labels_take_only_ints_in_range(name, bad):
    """A float label was once truncated and a bool read as 0 or 1."""
    call, _ = LABEL_ARGUMENTS[name]
    with pytest.raises(CardCspError, match="assignment label must be an int"):
        call(bad)


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
@pytest.mark.parametrize("name", sorted(LABEL_ARGUMENTS))
def test_labels_take_numpy_integers(name, kind):
    call, valid = LABEL_ARGUMENTS[name]
    assert np.array_equal(call(kind(valid)).gram, call(valid).gram)


@pytest.mark.parametrize("name, bad", list(_real_cases(REAL_ARGUMENTS)))
def test_real_arguments_take_only_finite_reals_in_their_interval(name, bad):
    call, _ = REAL_ARGUMENTS[name]
    with pytest.raises(CardCspError, match="must be a finite real in"):
        call(bad)


@pytest.mark.parametrize("kind", [np.float32, np.float64])
@pytest.mark.parametrize("name", sorted(REAL_ARGUMENTS))
def test_real_arguments_take_numpy_floats(name, kind):
    call, valid = REAL_ARGUMENTS[name]
    call(kind(valid))


@pytest.mark.parametrize("bad", ["x", True, None, math.inf])
def test_solution_objective_is_a_finite_real_or_nan(bad):
    """Each but inf was once stored, and the solution's own ``to_json``
    then refused by ``from_json``."""
    sol = _sol()
    with pytest.raises(CardCspError, match="objective_value must be a finite"):
        MomentSolution(2, 4, 2, sol.indices, sol.gram, bad)


@pytest.mark.parametrize("value", [np.float32(0.5), np.float64(math.nan)])
def test_solution_objective_is_stored_as_a_float(value):
    """A float32 was once stored as given, and ``to_json`` then raised."""
    sol = _sol()
    made = MomentSolution(2, 4, 2, sol.indices, sol.gram, value)
    assert isinstance(made.objective_value, float)
    back = MomentSolution.from_json(made.to_json()).objective_value
    assert back == made.objective_value == 0.5 or math.isnan(back)


# (scope, table) of a PayoffTerm of weight 1, and the rule it breaks
PAYOFF_TERMS = [
    ((0.5, 1), CUT_TABLE, "scope vertex must be an int"),
    ((True, 2), CUT_TABLE, "scope vertex must be an int"),
    ((np.int64(0), 1), CUT_TABLE, "scope vertex must be an int"),
    ((-1, 1), CUT_TABLE, "scope vertex must be an int"),
    ((0, 1), ("0", 1.0, 1.0, 0.0), "payoff values must be a finite real"),
    ((0, 1), (False, True, True, False), "payoff values must be a finite"),
    ((0, 1), (0.0, 1.5, 1.0, 0.0), "payoff values must be a finite real"),
]


@pytest.mark.parametrize("scope, table, message", PAYOFF_TERMS)
def test_payoff_terms_take_int_vertices_and_real_values(scope, table, message):
    """A float vertex was once truncated by the relaxation and failed
    ``evaluate``, a bool vertex failed ``evaluate``, and a string or bool
    table value escaped the constructor or was stored as given."""
    with pytest.raises(CardCspError, match=message):
        PayoffTerm(scope, table, 1.0)


def test_payoff_terms_store_a_tuple_of_ints_and_floats():
    term = PayoffTerm([0, 1], (0, 1, np.float32(1.0), 0), 1.0)
    assert term.scope == (0, 1) and type(term.scope) is tuple
    assert term.table == CUT_TABLE
    assert {type(v) for v in term.table} == {float}


def test_instance_reader_refuses_a_float_scope_vertex():
    doc = json.loads(_inst().to_json())
    doc["payoffs"][0]["scope"] = [0.5, 1]
    with pytest.raises(ParseError, match="scope vertex must be an int"):
        CspInstance.from_json(json.dumps(doc))


@pytest.mark.parametrize("call, cap", [
    (lambda v: build_gadget(_sol(), _inst(), 0.1, v), R_CAP),
    (lambda v: dataclasses.replace(_gadget(), R=v), R_CAP),
    (lambda v: landscape.ratio_search("cut", v), landscape._RESOLUTION_CAP),
    (lambda v: landscape.landscape_csv("cut", v), landscape._RESOLUTION_CAP),
    (lambda v: landscape.worst_separation(0.1, v), landscape._RESOLUTION_CAP),
    (lambda v: entries_from_config({"instances": [
        {"family": "cycle", "n": v}]}), 24),
])
def test_int_arguments_above_their_cap_raise_capacity_error(call, cap):
    with pytest.raises(CapacityError, match=f"exceeds the cap of {cap}"):
        call(cap + 1)


def _bench_doc(**fields):
    return {"instances": [{"family": "gnp", "n": 6, "seed": 0,
                           "params": {"p": 0.5}} | fields]}


# name: (read a document holding the value, a valid value)
READERS = {
    "instance n": (lambda v: CspInstance.from_json(
        _edited(_inst().to_json(), n=v)), 4),
    "instance q": (lambda v: CspInstance.from_json(
        _edited(_inst().to_json(), q=v)), 2),
    "moment solution level": (lambda v: MomentSolution.from_json(
        _edited(_sol().to_json(), level=v)), 2),
    "assignment seed": (lambda v: RoundedAssignment.from_json(
        _edited(_assignment().to_json(), seed=v)), 3),
    "assignment value": (lambda v: RoundedAssignment.from_json(
        _edited(_assignment().to_json(), value=v)), 0.5),
    "gadget R": (lambda v: DictGadget.from_json(
        _edited(_gadget().to_json(), R=v)), 2),
    "gadget eps": (lambda v: DictGadget.from_json(
        _edited(_gadget().to_json(), eps=v)), 0.1),
    "benchmark entry n": (lambda v: entries_from_config(_bench_doc(n=v)), 6),
    "benchmark entry seed": (lambda v: entries_from_config(_bench_doc(seed=v)),
                             0),
    "benchmark entry p": (lambda v: entries_from_config(
        _bench_doc(params={"p": v})), 0.5),
}


def _edited(text, **fields):
    return json.dumps(json.loads(text) | fields)


def _reader_cases():
    """JSON holds no numpy scalars; an int field also gets its float."""
    for name, (_, valid) in READERS.items():
        bad = [True, math.nan, math.inf, "1"]
        if name not in HOLDS_MINUS_ONE:
            bad.append(-1)
        if isinstance(valid, int):
            bad.append(float(valid))
        for value in bad:
            yield pytest.param(name, value, id=f"{name}-{value!r}")


@pytest.mark.parametrize("name, bad", list(_reader_cases()))
def test_document_readers_refuse_bad_scalars_with_parse_error(name, bad):
    read, _ = READERS[name]
    with pytest.raises(ParseError):
        read(bad)


@pytest.mark.parametrize("name", sorted(READERS))
def test_document_readers_take_valid_scalars(name):
    read, valid = READERS[name]
    read(valid)
