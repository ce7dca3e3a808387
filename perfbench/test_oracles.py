"""Tests of the benchmark's own checks, against brute force on tiny cases.

    python3 -m pytest perfbench
"""

import functools
import itertools
import math
import random
import re

import pytest

import oracles
import workloads
from oracles import Graph


# -- theta and alpha ---------------------------------------------------------


def test_theta_known_values():
    assert oracles.theta(Graph([("cycle", 5)])) == pytest.approx(math.sqrt(5))
    assert oracles.theta(Graph([("cycle", 7)])) == pytest.approx(3.3176672, abs=1e-7)
    assert oracles.theta(Graph([("cycle", 6)])) == 3
    assert oracles.theta(Graph([("complete", 4)])) == 1
    assert oracles.theta(Graph([("edgeless", 5)])) == 5
    assert oracles.theta(Graph([("edgeless", 1), ("cycle", 5)])) == pytest.approx(1 + math.sqrt(5))


@pytest.mark.parametrize("components", [
    [("cycle", 5)], [("cycle", 7)], [("edgeless", 1), ("cycle", 5)],
    [("cycle", 6)], [("path", 3)], [("complete", 3)],
])
def test_alpha_formulas_match_exhaustive_search(components):
    g = Graph(components)
    for l in (1, 2):
        best = oracles.max_independent_set(oracles.power_adjacency(g, l))
        assert oracles.is_independent_in_power(g, l, best)
        assert len(best) == oracles.alpha_formula(components, l)


def test_independence_uses_the_strong_product_rule():
    c5 = Graph([("cycle", 5)])
    # (0,0) and (1,1): both coordinates adjacent, so adjacent in C5^2
    assert not oracles.is_independent_in_power(c5, 2, [0, 6])
    # (0,0) and (2,1): first coordinates neither equal nor adjacent
    assert oracles.is_independent_in_power(c5, 2, [0, 11])
    assert not oracles.is_independent_in_power(c5, 2, [0, 0])


def test_c7_square_set_is_a_maximum_independent_set():
    c7 = Graph([("cycle", 7)])
    vertices = [7 * a + b for a, b in workloads.C7_SQUARE_SET]
    assert oracles.is_independent_in_power(c7, 2, vertices)
    assert len(vertices) == oracles.alpha_formula(c7.components, 2)


# -- generator sets ----------------------------------------------------------


def _brute_uniquely_decodable(words, up_to):
    """Whether every string up to the given length has one factorization."""
    ways = [{(): 1}]
    for L in range(1, up_to + 1):
        here: dict = {}
        for w in words:
            if len(w) <= L:
                for s, c in ways[L - len(w)].items():
                    here[s + w] = here.get(s + w, 0) + c
        if any(c > 1 for c in here.values()):
            return False
        ways.append(here)
    return True


def test_sardinas_patterson_matches_brute_force():
    binary = [w for n in (1, 2, 3) for w in itertools.product((0, 1), repeat=n)]
    for k in (2, 3):
        for code in itertools.combinations(binary, k):
            assert oracles.uniquely_decodable(code) == _brute_uniquely_decodable(code, 9), code
    assert not oracles.uniquely_decodable([(0,), (0,) * 9])


def test_histogram_counts_and_root():
    assert oracles.histogram_counts([1] * 5, 10) == [5 ** L for L in range(11)]
    pentagon = [1, 2, 2, 2, 2, 2]
    assert oracles.characteristic_root(pentagon) == pytest.approx((1 + math.sqrt(21)) / 2)
    assert oracles.characteristic_root([1] + [2] * 6) == pytest.approx(3.0)


# -- intermingled codes ------------------------------------------------------


def _brute_walks(words, family, hub, length):
    """Every closed walk of the given length, simulating the rule directly."""
    enc = oracles.Encoder(words, family, hub)  # only for its rule
    walks = []

    def extend(state, path, letters):
        if len(path) == length:
            if not any(state):
                walks.append((tuple(path), tuple(letters)))
            return
        for wi in enc._choices(state):
            nxt = list(state)
            nxt[wi] = (state[wi] + 1) % len(words[wi])
            extend(tuple(nxt), path + [(state, wi)], letters + [words[wi][state[wi]]])

    extend(tuple(0 for _ in words), [], [])
    return walks


CODES = [
    (Graph([("edgeless", 2)]), [(0, 1), (1, 1)], "single-open", 0),  # ambiguous walks
    (workloads.C5_PLUS_1, [(0,)] + workloads.PENTAGON, "single-open", 0),
    (workloads.C5_PLUS_1, [(0,)] + workloads.PENTAGON, "varlen", 0),
    (workloads.C5_PLUS_1, [(0,)] + workloads.PENTAGON, "full", 0),
    (Graph([("cycle", 7)]), workloads.HEPTAGON, "varlen", 0),
    (Graph([("cycle", 7)]), workloads.HEPTAGON + [(2, 1)], "varlen", 0),
]


@pytest.mark.parametrize("g,words,family,hub", CODES)
def test_walk_counts_and_zero_error_match_brute_force(g, words, family, hub):
    enc = oracles.Encoder(words, family, hub)
    counts = enc.closed_walk_counts(6)
    confusable = False
    for L in range(1, 7):
        walks = _brute_walks(words, family, hub, L)
        assert counts[L] == len(walks)
        assert all(enc.emits(letters) for _, letters in walks)
        if L <= 4:
            confusable = confusable or any(
                oracles.confusable_words(g, a[1], b[1])
                for a, b in itertools.combinations(walks, 2))
    witness = enc.confusable_walks(g)
    if confusable:
        assert witness is not None
    if witness is not None:
        a, b = witness
        assert len(a) == len(b) and oracles.confusable_words(g, a, b)
        assert enc.emits(a) and enc.emits(b)
    if family == "varlen":
        lengths = [len(w) for w in words]
        assert counts == oracles.histogram_counts(lengths, 6)


def test_zero_error_codes_have_no_confusable_walks():
    for g, words, family, hub in CODES[1:3] + CODES[4:5]:
        assert oracles.Encoder(words, family, hub).confusable_walks(g) is None
    # the fault reproduced in the codes workload: two walks emit 0111
    g, words, family, hub = CODES[0]
    assert oracles.Encoder(words, family, hub).confusable_walks(g) is not None


# -- expressions -------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _parses(node, word):
    """Number of parse trees of the word (star iterations are non-empty)."""
    op = node[0]
    if op == "#":
        return 0
    if op == "@":
        return int(not word)
    if op == "a":
        return int(word == (node[1],))
    if op == "+":
        return _parses(node[1], word) + _parses(node[2], word)
    if op == ".":
        return sum(_parses(node[1], word[:i]) * _parses(node[2], word[i:])
                   for i in range(len(word) + 1))
    if not word:
        return 1
    return sum(_parses(node[1], word[:i]) * _parses(node, word[i:])
               for i in range(1, len(word) + 1))


EXPRESSIONS = ["(0+11)*", "(0+00)*", "(0+1(0)*2+2(0)*1)*", "(0+1((0)*3)*2)*",
               "(0+1(((0)*3)*4)*2+2((0)*4)*1)*", "(012+10+2)*", "(01+0)(1+10)",
               "(0+01+10)*", "0(1+@)2*"]


@pytest.mark.parametrize("text", EXPRESSIONS)
def test_position_automaton_matches_brute_force(text):
    expr = oracles.parse_regex(text)
    pa = oracles.PositionAutomaton(expr)
    dfa = pa.determinize()
    pattern = re.compile(text.replace("+", "|").replace("@", ""))
    alphabet = sorted(set(c for c in text if c.isdigit()))
    counts = dfa.word_counts(6)
    ambiguous = False
    for L in range(7):
        words = ["".join(w) for w in itertools.product(alphabet, repeat=L)]
        assert counts[L] == sum(bool(pattern.fullmatch(w)) for w in words)
        ambiguous = ambiguous or any(_parses(expr, tuple(map(int, w))) > 1 for w in words)
    witness = pa.ambiguous_word()
    assert (witness is not None) == ambiguous
    if witness is not None:
        assert _parses(expr, witness) > 1


def test_long_ambiguity_is_found():
    pa = oracles.PositionAutomaton(oracles.parse_regex("(0+" + "0" * 20 + ")*"))
    assert pa.ambiguous_word() == (0,) * 20


def test_dfa_equivalence_and_minimality():
    dfa = oracles.PositionAutomaton(oracles.parse_regex("(0+11)*")).determinize()
    # minimal DFA over (0, 1): 0 accepting, 1 after a single 1, 2 the sink
    table = [[0, 1], [2, 0], [2, 2]]
    assert dfa.equivalent_to((0, 1), table, 0, {0})
    assert not dfa.equivalent_to((0, 1), table, 0, {0, 1})
    assert oracles.moore_classes(table, {0}) == 3
    padded = table + [[0, 1]]  # a copy of state 0
    assert oracles.moore_classes(padded, {0, 3}) == 3


def test_fraction_parsing_and_growth():
    num, den = oracles.parse_fraction("(-z +1) / (-8z^2 -2z +1)")
    assert (num, den) == ([1, -1], [1, -2, -8])
    assert oracles.parse_fraction("(1) / (-z^3 -z +1)") == ([1], [1, -1, 0, -1])
    expr = oracles.parse_regex("(0+1(0)*2+2(0)*1+1(0)*1+2(0)*2+3(0)*3+1(0)*3+3(0)*1+2(0)*3+3(0)*2)*")
    want = oracles.PositionAutomaton(expr).determinize().word_counts(12)
    assert oracles.expand_series(num, den, 12) == want
    assert oracles.growth_from_denominator(den) == pytest.approx(4.0)
    assert oracles.growth_from_denominator([1, -1, -1]) == pytest.approx((1 + math.sqrt(5)) / 2)


def test_workload_inputs_do_not_repeat(tmp_path):
    for build in (workloads.codes, workloads.expressions):
        jobs = build(random.Random(0), tmp_path, zecap=None)
        argvs = [tuple(j.argv) for j in jobs]
        assert len(set(argvs)) == len(argvs)
        assert sum(j.known_fault for j in jobs) == 2
