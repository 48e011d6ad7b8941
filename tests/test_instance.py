import numpy as np
import pytest

from cardcsp.errors import CardCspError, ParseError
from cardcsp.instance import (CardinalityFunction, CspInstance,
                              bisection_cardinality, clause_table,
                              cut_instance, generate, load_edge_list,
                              max2sat_instance)


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


def test_json_round_trip():
    inst = generate("gnp", 6, seed=3, p=0.7)
    back = CspInstance.from_json(inst.to_json())
    assert back == inst


def test_payoff_weights_must_normalize():
    from cardcsp.instance import PayoffTerm
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


def test_planted_has_high_bisection():
    inst = generate("planted", 8, seed=0, eps=0.05)
    planted = [0] * 4 + [1] * 4
    assert inst.evaluate(planted) == pytest.approx(0.95)
    assert inst.balance(planted).tolist() == [0.5, 0.5]


def test_mincut_sense():
    inst = cut_instance(4, [(0, 1, 1.0)], kind="mincut-bisection")
    assert inst.sense == "min"
    assert generate("cycle", 4).sense == "max"
