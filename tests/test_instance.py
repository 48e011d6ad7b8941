import json
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cardcsp.errors import CardCspError, ParseError
from cardcsp.instance import (CUT_TABLE, KNOWN_KINDS, CardinalityFunction,
                              CspInstance, PayoffTerm, bisection_cardinality,
                              clause_table, cut_instance, generate,
                              load_edge_list, max2sat_instance)
from cardcsp.suite import entries_from_config


def test_cardinality_sums_to_one():
    with pytest.raises(CardCspError):
        CardinalityFunction(("1/2", "1/3"))
    c = bisection_cardinality()
    assert c.as_floats().tolist() == [0.5, 0.5]


def test_cut_instance_evaluate():
    inst = cut_instance(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
    assert inst.evaluate([0, 1, 0, 1]) == pytest.approx(1.0)
    assert inst.evaluate([0, 0, 1, 1]) == pytest.approx(0.5)
    assert inst.evaluate([0, 0, 0, 0]) == pytest.approx(0.0)


def test_balance_and_degrees():
    inst = cut_instance(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert inst.balance([0, 0, 1, 1]).tolist() == [0.5, 0.5]
    assert inst.weighted_degrees().tolist() == [0.5, 0.5, 0.5, 0.5]


def test_clause_table():
    # (+x_i or +x_j): unsatisfied only when both take value 1
    assert clause_table(1, 1) == (1.0, 1.0, 1.0, 0.0)
    assert clause_table(-1, -1) == (0.0, 1.0, 1.0, 1.0)


def test_max2sat_evaluate():
    inst = max2sat_instance(2, [(0, 1, 1, 1, 1.0)])
    assert inst.evaluate([0, 1]) == 1.0
    assert inst.evaluate([1, 1]) == 0.0


@st.composite
def instances(draw):
    """Instances of every kind over q = 2 or 3: payoff terms on one or two
    vertices with random tables, random term and vertex weights, and a
    random cardinality target."""
    q, n = draw(st.sampled_from([2, 3])), draw(st.integers(2, 6))
    scopes = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1,
                                    max_size=2, unique=True),
                           min_size=1, max_size=4))
    tables = [draw(st.lists(st.floats(0.0, 1.0), min_size=q ** len(s),
                            max_size=q ** len(s))) for s in scopes]
    mass = draw(st.lists(st.floats(0.01, 1.0), min_size=len(scopes),
                         max_size=len(scopes)))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    parts = draw(st.lists(st.integers(0, 5), min_size=q, max_size=q).filter(any))
    return CspInstance(
        n, q, tuple(PayoffTerm(tuple(s), tuple(t), m / sum(mass), q)
                    for s, t, m in zip(scopes, tables, mass)),
        tuple(w / sum(weights) for w in weights),
        CardinalityFunction(tuple(Fraction(p, sum(parts)) for p in parts)),
        draw(st.sampled_from(KNOWN_KINDS)))


@settings(max_examples=200, deadline=None)
@given(instances())
def test_json_round_trip(inst):
    text = inst.to_json()
    back = CspInstance.from_json(text)
    for f in fields(CspInstance):
        assert getattr(back, f.name) == getattr(inst, f.name), f.name
    assert back.to_json() == text


def test_payoff_weights_must_normalize():
    with pytest.raises(CardCspError):
        CspInstance(n=2, q=2,
                    payoffs=(PayoffTerm((0, 1), (0, 1, 1, 0), 0.5),),
                    vertex_weights=(0.5, 0.5),
                    cardinality=bisection_cardinality())


def test_edge_list_loader():
    inst = load_edge_list("kind maxcut-bisection\n0 1\n1 2 2.0\n2 3\n")
    assert inst.n == 4
    assert inst.payoffs[1].weight == pytest.approx(0.5)


def test_edge_list_vertex_weights():
    text = "kind maxcut-bisection\nvertex 0 3\nvertex 1 1\n0 1\n"
    inst = load_edge_list(text)
    assert inst.vertex_weights == (0.75, 0.25)


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        load_edge_list("kind maxcut-bisection\n0 zero\n")
    with pytest.raises(ParseError):
        load_edge_list("kind maxcut-bisection\n1 1\n")  # self loop
    with pytest.raises(ParseError, match="no payoff"):
        load_edge_list("kind maxcut-bisection\n")


def test_edge_list_rejects_negative_vertex_id():
    with pytest.raises(ParseError, match="line 1: vertex ids") as err:
        load_edge_list("vertex -1 0.9\n0 1\n1 2\n2 3\n")
    assert err.value.lineno == 1


@pytest.mark.parametrize("text, line, message", [
    ("0 1 nan\n", 1, "edge weight .* is not finite"),
    ("0 1\n1 2 1e400\n", 2, "edge weight .* is not finite"),
    ("0 1 -1\n", 1, "edge weight '-1' is not finite and nonnegative"),
    ("vertex 0 nan\n0 1\n", 1, "vertex weight .* is not finite"),
    ("vertex 0 -1\nvertex 1 3\n0 1\n", 1, "vertex weight .* is not finite"),
    ("0 1 0\n", 1, "payoff weights must have a positive, finite total"),
    ("0 1 0\n1 2 0\n", 2, "positive, finite total"),
    ("0 1 1e308\n1 2 1e308\n", 2, "positive, finite total"),
    ("vertex 0 0\nvertex 1 0\n0 1\n", 2, "positive, finite total"),
    ("kind alpha-cut 1/0\n0 1\n", 1, "bad alpha"),
    ("0 1\nkind max2sat\n1 2\n", 2, "kind must precede"),
])
def test_edge_list_rejects_bad_input_with_line_numbers(text, line, message):
    with pytest.raises(ParseError, match=message) as err:
        load_edge_list(text)
    assert err.value.lineno == line


def test_instances_reject_non_finite_weights():
    with pytest.raises(CardCspError, match="finite"):
        PayoffTerm((0, 1), CUT_TABLE, float("nan"))
    with pytest.raises(CardCspError, match="finite"):
        PayoffTerm((0, 1), CUT_TABLE, float("inf"))
    with pytest.raises(CardCspError, match="payoff values"):
        PayoffTerm((0, 1), (0.0, float("nan"), 1.0, 0.0), 1.0)
    term = PayoffTerm((0, 1), CUT_TABLE, 1.0)
    for weights in ((float("nan"), 1.0), (float("inf"), 0.0)):
        with pytest.raises(CardCspError, match="finite"):
            CspInstance(2, 2, (term,), weights, bisection_cardinality())


def test_edge_list_max2sat_literals():
    inst = load_edge_list("kind max2sat\n1 2\n-1 3 2.0\n")
    assert inst.kind == "max2sat"
    assert inst.n == 3
    # clause (x1 or x2): true whenever x1 takes value 0
    assert inst.payoffs[0].table == (1.0, 1.0, 1.0, 0.0)
    # clause (not x1 or x3): x1 at value 1 satisfies it
    assert inst.evaluate([1, 1, 1]) == pytest.approx(2 / 3)
    with pytest.raises(ParseError, match="literal 0"):
        load_edge_list("kind max2sat\n0 2\n")
    with pytest.raises(ParseError, match="single variable"):
        load_edge_list("kind max2sat\n1 -1\n")


def test_edge_list_alpha_cut():
    inst = load_edge_list("kind alpha-cut 1/4\n0 1\n1 2\n2 3\n")
    assert inst.cardinality.as_floats().tolist() == [0.25, 0.75]
    with pytest.raises(ParseError):
        load_edge_list("kind alpha-cut 5/4\n0 1\n")


def test_generate_families_deterministic():
    for family in ("cycle", "complete", "gnp", "two_cliques", "planted"):
        a = generate(family, 6, seed=4)
        b = generate(family, 6, seed=4)
        assert a == b
    with pytest.raises(CardCspError):
        generate("cycle", 5)
    with pytest.raises(CardCspError):
        generate("moebius", 6)


@pytest.mark.parametrize("family, params", [
    ("gnp", {"prob": 0.9}), ("gnp", {"p": 0.5, "eps": 0.1}),
    ("planted", {"p": 0.5}), ("cycle", {"p": 0.5}), ("two_cliques", {"eps": 0})])
def test_generate_rejects_params_its_family_does_not_read(family, params):
    with pytest.raises(CardCspError, match=f"{family} does not read params"):
        generate(family, 6, **params)


def test_planted_has_high_bisection():
    inst = generate("planted", 8, seed=0, eps=0.05)
    planted = [0] * 4 + [1] * 4
    assert inst.evaluate(planted) == pytest.approx(0.95)
    assert inst.balance(planted).tolist() == [0.5, 0.5]


def test_mincut_sense():
    inst = cut_instance(4, [(0, 1, 1.0)], kind="mincut-bisection")
    assert inst.sense == "min"
    assert generate("cycle", 4).sense == "max"


# edge-list tokens: vertex ids and literals up to 20 in size (so no huge n
# is built), weights and fractions good and bad, the grammar's words, junk
IDS = [str(v) for v in range(21)]
GOOD = ["1", "0.25", "2.5", "5e-324", "1e-300"]
BAD = ["-1", "-3", "0", "-0", "1/2", "-1.5", "nan", "inf", "-inf", "1e400",
       "1e308"]
ALPHAS = ["1/2", "1/4", "0", "1/0", "3/2", "-1/2", "nan", "x"]
JUNK = ["kind", "vertex", "#", "x", "--", "1e", ".", "0x1", "1,2", "kind#"]


def _line(*parts):
    return st.tuples(*parts).map(lambda ts: " ".join(t for t in ts if t))


# mostly well-formed lines, so that a fair share of documents parse
_id = st.one_of(st.sampled_from(IDS), st.sampled_from(IDS),
                st.sampled_from(IDS), st.sampled_from(["-1", "-3", "1.5"]))
_weight = st.one_of(st.sampled_from(GOOD), st.sampled_from(GOOD),
                    st.sampled_from(BAD))
_edge = _line(_id, _id, st.one_of(st.just(""), _weight))
EDGE_LIST_LINES = st.one_of(
    _edge, _edge, _edge, _edge,
    _line(st.just("vertex"), _id, _weight),
    _line(st.just("kind"), st.sampled_from(KNOWN_KINDS),
          st.sampled_from([""] + ALPHAS)),
    st.lists(st.sampled_from(IDS + GOOD + BAD + ALPHAS + JUNK
                             + list(KNOWN_KINDS)), max_size=4).map(" ".join),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(EDGE_LIST_LINES, max_size=8).map("\n".join))
def test_edge_list_fuzz_raises_only_parse_errors(text):
    try:
        inst = load_edge_list(text)
    except ParseError:
        return
    assert all(np.isfinite(t.weight) for t in inst.payoffs)
    assert np.isfinite(inst.weights_array).all()


def test_instances_refuse_a_term_of_another_domain_size():
    """A q = 2 term read on a q = 3 instance would index the wrong table
    entry (or none)."""
    cut = PayoffTerm((0, 1), CUT_TABLE, 1.0)
    with pytest.raises(CardCspError, match="has q = 2, not 3"):
        CspInstance(3, 3, (cut,), (1 / 3,) * 3, bisection_cardinality(3))


def test_unknown_kind_is_rejected():
    with pytest.raises(CardCspError, match="unknown problem kind"):
        cut_instance(4, [(0, 1, 1.0)], kind="mincut_bisection")


@pytest.mark.parametrize("schema", ["cardcsp.gadget/1", "cardcsp.instance/2",
                                    None, "missing"])
def test_instance_reader_checks_the_schema_tag(schema):
    doc = json.loads(generate("cycle", 4).to_json())
    if schema == "missing":
        del doc["schema"]
    else:
        doc["schema"] = schema
    with pytest.raises(ParseError, match="schema is not cardcsp.instance/1"):
        CspInstance.from_json(json.dumps(doc))


# JSON instance documents with one value replaced, a key dropped or the
# text cut short
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10**30),
              st.floats(allow_nan=True, allow_infinity=True),
              st.sampled_from(["x", "1", "1/0", "nan", "mincut_bisection"]
                              + list(KNOWN_KINDS))),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(["scope", "table",
                                                             "weight"]),
                                            inner, max_size=3)),
    max_leaves=6)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


@settings(max_examples=500, deadline=None)
@given(data=st.data(), family=st.sampled_from(["cycle", "max2sat"]),
       how=st.sampled_from(["replace", "drop", "truncate"]))
def test_json_fuzz_raises_only_parse_errors(data, family, how):
    inst = (generate("cycle", 4) if family == "cycle" else
            max2sat_instance(3, [(0, 1, 1, -1, 1.0), (1, 2, -1, -1, 2.0)]))
    text = inst.to_json()
    doc = json.loads(text)
    path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    if how == "replace":
        owner[path[-1]] = data.draw(JSON_VALUES)
    elif how == "drop":
        del owner[path[-1]]
    text = (text[:data.draw(st.integers(0, len(text) - 1))]
            if how == "truncate" else json.dumps(doc))
    try:
        back = CspInstance.from_json(text)
    except ParseError:
        return
    assert back.kind in KNOWN_KINDS
    assert np.isfinite(back.weights_array).all()


# benchmark configs with one value replaced (the whole document included) or
# a key dropped
BENCH_CONFIG = {"instances": [
    {"name": "c6", "family": "cycle", "n": 6},
    {"family": "gnp", "n": 8, "seed": 3, "params": {"p": 0.5}},
    {"family": "planted", "n": 6, "params": {"eps": 0.1}},
]}
CONFIG_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 10**30),
              st.floats(allow_nan=True, allow_infinity=True),
              st.sampled_from(["x", "6", "cycle", "gnp", "planted", "complete",
                               "two_cliques"])),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(
                                ["instances", "name", "family", "n", "seed",
                                 "params", "p", "eps"]), inner, max_size=3)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), how=st.sampled_from(["replace", "drop"]))
def test_bench_config_fuzz_raises_only_cardcsp_errors(data, how):
    doc = json.loads(json.dumps(BENCH_CONFIG))
    paths = list(_paths(doc))
    path = data.draw(st.sampled_from(paths if how == "replace" else paths[1:]))
    if not path:
        doc = data.draw(CONFIG_VALUES)
    else:
        owner = doc
        for key in path[:-1]:
            owner = owner[key]
        if how == "replace":
            owner[path[-1]] = data.draw(CONFIG_VALUES)
        else:
            del owner[path[-1]]
    try:
        entries = entries_from_config(doc)
    except CardCspError:
        return
    assert all(isinstance(name, str) and isinstance(inst, CspInstance)
               for name, inst in entries)
