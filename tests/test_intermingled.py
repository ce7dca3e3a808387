import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zecap.graphs import BudgetExceededError, ChannelGraph, graph_by_name
from zecap.intermingled import (SuccessionRule, _length_successors, _pair_search,
                                build_transition_graph, count_sequences, full_rule, rate,
                                rule_from_json, single_open_rule, table_rule, varlen_rule,
                                verify_zero_error)
from zecap.numerics import count_walks, lump, spectral_radius, trim
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
        frontier = {0}
        for letter in seq:
            frontier = {j for i, j, l, _w in tg.edges
                        if i in frontier and l == letter}
        assert 0 in frontier


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
    # the hub word 00 has two letters, so the product search runs
    square = GeneratorSet(C7, tuple(a + b for a, b in
                                    itertools.product(HEPTAGON_SET.words, repeat=2)))
    with pytest.raises(BudgetExceededError):
        verify_zero_error(square, single_open_rule(0), product_state_budget=10)


def test_verify_hub_cube_needs_no_product_search():
    # the hub 0 has no neighbour and no other word uses it: {0} u W^3 is
    # zero-error as W^3 is, which the trie test proves
    res = verify_zero_error(hub_cube(), single_open_rule(0), product_state_budget=10)
    assert res.ok and res.exact and res.violation is None


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


# ---------------------------------------------------------------------------
# Two walks that emit one sequence, and rates on the zero state's component

BINARY = ChannelGraph.from_edges(["0", "1"], [])
C7 = graph_by_name("C7")
HEPTAGON_SET = GeneratorSet.from_strings(C7, ["0", "20", "22", "24", "40", "42", "44"])


def emits_by_two_walks(tg, seq):
    """Number of walks from the zero state back to it that emit seq."""
    walks = {0: 1}
    for letter in seq:
        nxt = {}
        for i, j, l, _w in tg.edges:
            if l == letter and i in walks:
                nxt[j] = nxt.get(j, 0) + walks[i]
        walks = nxt
    return walks.get(0, 0)


def test_ambiguous_binary_single_open_code_is_rejected():
    gs = GeneratorSet(BINARY, ((0, 1), (1, 1)))
    res = verify_zero_error(gs, single_open_rule(0))
    assert not res.ok and res.exact
    a, b = res.violation
    assert a == b
    assert emits_by_two_walks(build_transition_graph(gs, single_open_rule(0)), a) >= 2


def test_heptagon_single_open_code_is_rejected():
    res = verify_zero_error(HEPTAGON_SET, single_open_rule(0))
    assert not res.ok and res.exact
    assert res.violation == ((2, 0, 0), (2, 0, 0))


def test_pentagon_hub_code_still_verifies():
    rule = single_open_rule(0)
    assert verify_zero_error(PENTAGON_SET, rule).ok
    assert rate(build_transition_graph(PENTAGON_SET, rule)).nu == pytest.approx(
        1 + math.sqrt(5), abs=1e-9)


def test_rate_ignores_states_that_never_return_to_zero():
    gs = GeneratorSet(ChannelGraph.from_edges(["0", "1", "2"], []), ((0,), (1, 1), (2, 2)))
    rule = rule_from_json({"family": "table", "table": {
        "[0,0,0]": [0, 1], "[0,1,0]": [0, 2], "[0,1,1]": [0, 2]}})
    tg = build_transition_graph(gs, rule)
    assert count_sequences(tg, 12) == [1] * 13
    assert rate(tg).nu == pytest.approx(1.0, abs=1e-9)


def dihedral_relabellings():
    return st.tuples(st.sampled_from([1, -1]), st.integers(0, 4))


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(6)), dihedral_relabellings())
def test_full_rule_witness_strings_differ(order, dihedral):
    s, r = dihedral
    words = [(0,)] + [tuple(1 + (s * (x - 1) + r) % 5 for x in w)
                      for w in PENTAGON_SET.words[1:]]
    gs = GeneratorSet(C5P1, tuple(words[i] for i in order))
    res = verify_zero_error(gs, full_rule())
    assert not res.ok
    a, b = res.violation
    assert a != b and len(a) == len(b)
    assert all(x == y or C5P1.has_edge(x, y) for x, y in zip(a, b))


def _advance_state(state, wi, words):
    nxt = list(state)
    nxt[wi] = (state[wi] + 1) % len(words[wi])
    return tuple(nxt)


@st.composite
def small_codes(draw):
    """A channel graph on up to three letters, up to three words of length
    at most three, and a succession rule of one of the four families."""
    k = draw(st.integers(1, 3))
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = ChannelGraph.from_edges([str(i) for i in range(k)], edges)
    words = tuple(draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=3)
                                .map(tuple), min_size=1, max_size=3, unique=True)))
    gs = GeneratorSet(g, words)
    family = draw(st.sampled_from(["varlen", "single-open", "full", "table"]))
    if family == "varlen":
        return gs, varlen_rule()
    if family == "single-open":
        return gs, single_open_rule(draw(st.integers(0, len(words) - 1)))
    if family == "full":
        return gs, full_rule()
    table = {}
    stack = [(0,) * len(words)]
    while stack:
        state = stack.pop()
        if state in table:
            continue
        choice = draw(st.lists(st.integers(0, len(words) - 1), min_size=1,
                               max_size=len(words), unique=True))
        table[state] = sorted(choice)
        stack += [_advance_state(state, wi, words) for wi in choice]
    return gs, table_rule(table)


def closed_walk_strings(tg, up_to):
    """Emitted string of every walk from the zero state back to it, by length."""
    out = [[] for _ in range(up_to + 1)]
    zero = 0
    by_source = [[] for _ in tg.states]
    for i, j, letter, _w in tg.edges:
        by_source[i].append((j, letter))

    def walk(state, emitted):
        if state == zero:
            out[len(emitted)].append(emitted)
        if len(emitted) < up_to:
            for j, letter in by_source[state]:
                walk(j, emitted + (letter,))

    walk(zero, ())
    return out


@settings(max_examples=150, deadline=None)
@given(small_codes())
def test_verified_codes_count_distinct_strings_and_rate_is_the_trimmed_spectrum(code):
    gs, rule = code
    if not verify_zero_error(gs, rule).ok:
        return
    tg = build_transition_graph(gs, rule)
    up_to = 6
    strings = closed_walk_strings(tg, up_to)
    assert count_sequences(tg, up_to) == [len(set(s)) for s in strings]
    g = gs.graph
    for same_length in strings:  # zero-error: no two codewords are confusable
        for a, b in itertools.combinations(same_length, 2):
            assert any(x != y and not g.has_edge(x, y) for x, y in zip(a, b))
    zero = 0
    trimmed = trim(tg.successors(), zero, (zero,))
    m = np.zeros((len(trimmed), len(trimmed)))
    for i, targets in enumerate(trimmed):
        for j in targets:
            m[i, j] += 1
    want = max(abs(np.linalg.eigvals(m))) if trimmed[0] else 0.0
    assert rate(tg).nu == pytest.approx(want, rel=1e-6, abs=1e-9)


# ---------------------------------------------------------------------------
# Transition graphs counted and rated on their lumped quotient

C11 = graph_by_name("C11")
# every concatenation of two words of a maximum independent set of C7 x C7
C7_SQUARE_SET = GeneratorSet(C7, tuple(
    a + b for a, b in itertools.product(
        [(0, 0), (0, 2), (1, 4), (2, 1), (2, 6), (3, 3), (4, 1), (4, 5), (5, 3), (6, 5)],
        repeat=2)))
C11_WORDS = GeneratorSet(C11, ((0,), (1, 3, 5, 7), (2, 4, 6, 8, 10), (3, 6, 9),
                               (4, 8, 1, 5, 9, 2), (5, 10, 4)))


def heptagon_cube():
    """Every concatenation of three heptagon words."""
    return GeneratorSet(C7, tuple(sum(p, ()) for p in
                                  itertools.product(HEPTAGON_SET.words, repeat=3)))


def reference_rule(family, hub=0):
    """The succession rules as plain generator expressions over the state."""
    def choose(state, gs):
        closed = all(z == 0 for i, z in enumerate(state) if family == "varlen" or i != hub)
        if closed:
            return tuple(range(len(gs.words)))
        open_words = {i for i, z in enumerate(state) if z != 0}
        return tuple(sorted(open_words | ({hub} if family == "single-open" else set())))
    return SuccessionRule(family, choose)


@pytest.mark.parametrize("code, family, hub", [
    (hub_cube, "single-open", 0),
    (hub_cube, "varlen", 0),
    (heptagon_cube, "varlen", 0),
    (lambda: PENTAGON_SET, "single-open", 2),  # a hub word that opens
])
def test_rules_build_the_reference_transition_graph(code, family, hub):
    gs = code()
    rule = single_open_rule(hub) if family == "single-open" else varlen_rule()
    assert build_transition_graph(gs, rule) == \
        build_transition_graph(gs, reference_rule(family, hub))


@pytest.mark.parametrize("code, rule, states, classes", [
    (hub_cube, single_open_rule(0), 626, 6),
    (hub_cube, varlen_rule(), 626, 6),
    (heptagon_cube, varlen_rule(), 1569, 6),
    (lambda: C7_SQUARE_SET, varlen_rule(), 301, 4),
    (lambda: C11_WORDS, full_rule(), 1080, 720),
])
def test_quotient_sizes_are_pinned(code, rule, states, classes):
    tg = build_transition_graph(code(), rule)
    quotient, zero = lump(tg.successors(), 0)
    assert (tg.state_count(), len(quotient), zero) == (states, classes, 0)


def test_hub_cube_counts_on_the_quotient_match_the_full_graph():
    tg = build_transition_graph(hub_cube(), single_open_rule(0))
    assert count_sequences(tg, 100) == count_walks(tg.successors(), 0, (0,), 100)


def test_single_open_hub_outside_the_words_is_rejected():
    with pytest.raises(ValueError):
        single_open_rule(-1)
    with pytest.raises(ValueError):
        build_transition_graph(PENTAGON_SET, single_open_rule(6))


# ---------------------------------------------------------------------------
# The length automaton of the varlen and single-open rules


@st.composite
def length_codes(draw):
    """One to seven distinct words of length 1 to 5 over C5+1, under the
    varlen rule or the single-open rule with the hub at any index."""
    words = draw(st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=5).map(tuple),
                          min_size=1, max_size=7, unique=True))
    hub = draw(st.none() | st.integers(0, len(words) - 1))
    return GeneratorSet(C5P1, words), varlen_rule() if hub is None else single_open_rule(hub)


@settings(max_examples=200, deadline=None)
@given(length_codes())
# two words of length 3 below a hub of length 2; a word of length 1 beside one
@example((GeneratorSet(C5P1, [(0, 2, 5), (1, 0, 1), (5, 4)]), single_open_rule(2)))
@example((PENTAGON_SET, single_open_rule(2)))
def test_length_automaton_counts_and_rates_like_the_transition_graph(code):
    gs, rule = code
    tg = build_transition_graph(gs, rule)
    successors, states = _length_successors(gs, rule)
    quotient, zero = lump(successors, 0)
    assert states == tg.state_count()
    assert (quotient, zero) == lump(tg.successors(), 0)
    assert count_walks(quotient, zero, (zero,), 30) == count_sequences(tg, 30)
    assert spectral_radius(trim(quotient, zero, (zero,))) == rate(tg).nu


# ---------------------------------------------------------------------------
# The trie test proves varlen codes and isolated-hub codes before any search


def searched_verdict(gs, rule):
    """The two pair searches of verify_zero_error, run on the transition graph
    without the trie test in front of them."""
    tg = build_transition_graph(gs, rule)
    confusable = [m | 1 << v for v, m in enumerate(gs.graph.neighbor_masks)]
    walks = _pair_search(tg, lambda la, lb: confusable[la] >> lb & 1,
                         lambda ea, eb: ea[2] != eb[2], math.inf)
    if walks is None:
        walks = _pair_search(tg, lambda la, lb: la == lb, lambda ea, eb: ea is not eb, math.inf)
    return walks is None, walks and tuple(tuple(e[2] for e in walk) for walk in walks)


@st.composite
def varlen_and_hub_codes(draw):
    """A set W of up to four words over a graph on two to four letters, as a
    varlen code, or as the single-open code {0} u W with hub 0 at a random
    index; the letter 0 has neighbours or not, and W uses it or not."""
    k = draw(st.integers(2, 4))
    isolated = draw(st.booleans())
    pairs = [(u, v) for u in range(k) for v in range(u + 1, k) if u or not isolated]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = ChannelGraph.from_edges([str(i) for i in range(k)], edges)
    letters = st.integers(0 if draw(st.booleans()) else 1, k - 1)
    words = draw(st.lists(st.lists(letters, min_size=1, max_size=3).map(tuple),
                          min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        return GeneratorSet(g, words), varlen_rule()
    words = [w for w in words if w != (0,)]
    hub = draw(st.integers(0, len(words)))
    return GeneratorSet(g, words[:hub] + [(0,)] + words[hub:]), single_open_rule(hub)


@settings(max_examples=300, deadline=None)
@given(varlen_and_hub_codes())
def test_verify_matches_the_pair_searches(code):
    gs, rule = code
    res = verify_zero_error(gs, rule)
    assert (res.ok, res.violation) == searched_verdict(gs, rule)
    assert res.exact
