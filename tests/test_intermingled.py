import itertools
import math

import pytest

from zecap.graphs import BudgetExceededError, graph_by_name
from zecap.intermingled import (build_transition_graph, count_sequences,
                                full_rule, rate, rule_from_json,
                                single_open_rule, table_rule, varlen_rule,
                                verify_zero_error)
from zecap.numerics import spectral_radius
from zecap.varlen import GeneratorSet, count_concatenations

C5P1 = graph_by_name("C5+1")
PENTAGON_SET = GeneratorSet.from_strings(C5P1, ["0", "11", "23", "35", "42", "54"])


def test_varlen_rule_reproduces_plain_counts():
    tg = build_transition_graph(PENTAGON_SET, varlen_rule())
    assert count_sequences(tg, 8) == count_concatenations(PENTAGON_SET, 8)


def test_varlen_rule_rate_matches_characteristic_root():
    tg = build_transition_graph(PENTAGON_SET, varlen_rule())
    assert rate(tg).nu == pytest.approx((1 + math.sqrt(21)) / 2, abs=1e-9)


def test_single_open_transition_graph_shape():
    tg = build_transition_graph(PENTAGON_SET, single_open_rule(hub=0))
    # one closed state plus one open state per two-letter word
    assert tg.state_count() == 6
    assert tg.states[0] == (0,) * 6
    succ = tg.successors()
    assert len(succ[0]) == 6
    # from any open state: finish the word or emit the hub letter
    for i in range(1, 6):
        assert len(succ[i]) == 2


def test_single_open_matrix_is_golden():
    tg = build_transition_graph(PENTAGON_SET, single_open_rule(hub=0))
    open_states = sorted(range(1, 6), key=lambda i: tg.states[i])
    order = [0] + open_states
    succ = tg.successors()
    m = [[succ[a].count(b) for b in order] for a in order]
    expected = [
        [1, 1, 1, 1, 1, 1],
        [1, 1, 0, 0, 0, 0],
        [1, 0, 1, 0, 0, 0],
        [1, 0, 0, 1, 0, 0],
        [1, 0, 0, 0, 1, 0],
        [1, 0, 0, 0, 0, 1],
    ]
    assert m == expected
    expected_succ = [[j for j, k in enumerate(row) for _ in range(k)] for row in expected]
    assert spectral_radius(expected_succ) == pytest.approx(1 + math.sqrt(5), abs=1e-9)


def test_single_open_rate_golden():
    tg = build_transition_graph(PENTAGON_SET, single_open_rule(hub=0))
    r = rate(tg)
    assert r.nu == pytest.approx(1 + math.sqrt(5), abs=1e-9)
    assert r.r_bits == pytest.approx(math.log2(1 + math.sqrt(5)), abs=1e-9)


def test_single_open_counts():
    tg = build_transition_graph(PENTAGON_SET, single_open_rule(hub=0))
    assert count_sequences(tg, 5) == [1, 1, 6, 16, 56, 176]


def test_verify_single_open_zero_error():
    res = verify_zero_error(PENTAGON_SET, single_open_rule(hub=0))
    assert res.ok and res.exact


def test_verify_varlen_zero_error():
    res = verify_zero_error(PENTAGON_SET, varlen_rule())
    assert res.ok and res.exact


def test_verify_full_rule_fails():
    res = verify_zero_error(PENTAGON_SET, full_rule())
    assert not res.ok
    assert res.exact
    a, b = res.violation
    assert a != b and len(a) == len(b)
    g = PENTAGON_SET.graph
    assert all(x == y or g.has_edge(x, y) for x, y in zip(a, b))
    # both sequences must be emittable by the machine, ending closed
    tg = build_transition_graph(PENTAGON_SET, full_rule())
    for seq in (a, b):
        frontier = {tg.zero_state_index}
        for letter in seq:
            frontier = {j for i, j, l, _w in tg.edges
                        if i in frontier and l == letter}
        assert tg.zero_state_index in frontier


def hub_cube():
    """{0} with every concatenation of three pentagon hub words W."""
    w = ["11", "23", "35", "42", "54"]
    return GeneratorSet.from_strings(
        C5P1, ["0"] + ["".join(p) for p in itertools.product(w, repeat=3)])


def test_verify_hub_cube_is_exact():
    # 626 states: the pair search covers every reachable product state
    res = verify_zero_error(hub_cube(), single_open_rule(0))
    assert res.ok and res.exact


def test_verify_budget_exceeded():
    with pytest.raises(BudgetExceededError):
        verify_zero_error(hub_cube(), single_open_rule(0), product_state_budget=10)


def test_table_rule_round_trip():
    rule = single_open_rule(hub=0)
    tg = build_transition_graph(PENTAGON_SET, rule)
    table = {s: rule(s, PENTAGON_SET) for s in tg.states}
    tg2 = build_transition_graph(PENTAGON_SET, table_rule(table))
    assert [sorted(s) for s in tg2.successors()] == [sorted(s) for s in tg.successors()]
    assert rate(tg2).nu == pytest.approx(rate(tg).nu, abs=1e-12)


def test_table_rule_missing_state():
    rule = table_rule({})
    with pytest.raises(ValueError):
        build_transition_graph(PENTAGON_SET, rule)


def test_rule_from_json():
    assert rule_from_json({"family": "varlen"}).family == "varlen"
    r = rule_from_json({"family": "single-open", "hub": 2})
    assert r.params["hub"] == 2
    assert rule_from_json({"family": "full"}).family == "full"
    with pytest.raises(ValueError):
        rule_from_json({"family": "nope"})


def test_empty_choice_rejected():
    rule = table_rule({(0,) * 6: []})
    with pytest.raises(ValueError):
        build_transition_graph(PENTAGON_SET, rule)
