import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zecap.graphs import BudgetExceededError, cycle, distinguishable, graph_by_name
from zecap.varlen import (GeneratorSet, NonUniquelyDecodableError,
                          count_concatenations, enumerate_codewords, rate,
                          two_factorizations, verify_zero_error)

C5P1 = graph_by_name("C5+1")


def gen(words):
    return GeneratorSet.from_strings(C5P1, words)


PENTAGON_SET = gen(["0", "11", "23", "35", "42", "54"])
PRUNED_SET = gen(["11", "23", "35", "42", "54", "001", "003"])


def test_construction_validates():
    with pytest.raises(ValueError):
        GeneratorSet(C5P1, [[]])
    with pytest.raises(ValueError):
        GeneratorSet(C5P1, [[1], [1]])
    with pytest.raises(ValueError):
        GeneratorSet(C5P1, [[9]])


def test_length_stats():
    assert PENTAGON_SET.min_length == 1
    assert PENTAGON_SET.max_length == 2
    assert PENTAGON_SET.length_gcd == 1
    assert PENTAGON_SET.length_histogram() == {1: 1, 2: 5}
    assert PRUNED_SET.length_histogram() == {2: 5, 3: 2}
    assert PRUNED_SET.length_gcd == 1
    d2 = gen(["11", "23", "35", "42", "54"])
    assert d2.length_gcd == 2


def test_characteristic_polynomial():
    assert PENTAGON_SET.characteristic_polynomial().coefficients == (-5, -1, 1)
    assert PRUNED_SET.characteristic_polynomial().coefficients == (-2, -5, 0, 1)


def test_json_round_trip():
    again = GeneratorSet.from_json(PENTAGON_SET.to_json())
    assert again.words == PENTAGON_SET.words
    named = GeneratorSet.from_json(PENTAGON_SET.to_json(graph_name="C5+1"))
    assert named.words == PENTAGON_SET.words
    assert named.graph == C5P1


def test_verify_golden_sets():
    ok, violation = verify_zero_error(PENTAGON_SET)
    assert ok and violation is None
    ok, _ = verify_zero_error(PRUNED_SET)
    assert ok


def test_verify_catches_confusable_pair():
    bad = gen(["11", "12"])
    ok, violation = verify_zero_error(bad)
    assert not ok
    assert violation == ((1, 1), (1, 2))


def test_verify_prefix_rule():
    # 11 is confusable with 112: only the first two letters matter
    bad = gen(["11", "112"])
    ok, violation = verify_zero_error(bad)
    assert not ok
    assert violation == ((1, 1), (1, 1, 2))


def test_verify_heptagon_code():
    c7 = cycle(7)
    gs = GeneratorSet.from_strings(c7, ["0", "20", "22", "24", "40", "42", "44"])
    ok, _ = verify_zero_error(gs)
    assert ok


def test_count_golden_pentagon():
    assert count_concatenations(PENTAGON_SET, 5) == [1, 1, 6, 11, 41, 96]


def test_count_golden_pruned():
    assert count_concatenations(PRUNED_SET, 5) == [1, 0, 5, 2, 25, 20]


def test_count_matches_enumeration():
    for gs in (PENTAGON_SET, PRUNED_SET):
        counts = count_concatenations(gs, 6)
        for L in range(7):
            assert counts[L] == len(enumerate_codewords(gs, L))


def test_enumeration_cap_is_the_factorization_count():
    count = count_concatenations(PENTAGON_SET, 6)[6]
    with pytest.raises(BudgetExceededError):
        enumerate_codewords(PENTAGON_SET, 6, cap=count - 1)
    words = enumerate_codewords(PENTAGON_SET, 6, cap=count)
    assert len(words) == count and words == sorted(words)


def test_count_rejects_ambiguous_set():
    # 1 and 11 give two factorizations of 11
    bad = gen(["1", "11"])
    with pytest.raises(NonUniquelyDecodableError):
        count_concatenations(bad, 4)


def test_enumerated_codewords_pairwise_distinguishable():
    for gs in (PENTAGON_SET, PRUNED_SET):
        for L in range(1, 7):
            words = enumerate_codewords(gs, L)
            for a, b in itertools.combinations(words, 2):
                assert distinguishable(gs.graph, a, b)


def test_rate_golden():
    assert rate(PENTAGON_SET).nu == pytest.approx((1 + math.sqrt(21)) / 2, abs=1e-9)
    assert rate(PRUNED_SET).nu == pytest.approx(1 + math.sqrt(2), abs=1e-9)
    c7 = cycle(7)
    hat = GeneratorSet.from_strings(c7, ["0", "20", "22", "24", "40", "42", "44"])
    assert rate(hat).nu == pytest.approx(3, abs=1e-9)
    assert rate(hat).r_bits == pytest.approx(math.log2(3), abs=1e-9)


def test_rate_is_correctly_rounded():
    # (1 + sqrt 21) / 2 rounded to the nearest double
    assert rate(PENTAGON_SET).nu == 2.79128784747792


@settings(max_examples=150, deadline=None)
@given(st.sets(st.text("012345", min_size=1, max_size=6), min_size=1, max_size=6))
def test_rate_matches_sympy(words):
    sympy = pytest.importorskip("sympy")
    gs = gen(sorted(words))
    if two_factorizations(gs) is not None:
        with pytest.raises(NonUniquelyDecodableError):
            rate(gs)
        return
    nu = rate(gs).nu
    X = sympy.Symbol("X")
    coeffs = gs.characteristic_polynomial().coefficients
    want = sympy.N(max(sympy.Poly(list(reversed(coeffs)), X).real_roots()), 40)
    assert abs(sympy.Float(nu, 40) - want) <= math.ulp(nu)


def test_rate_even_length_set():
    d2 = gen(["11", "23", "35", "42", "54"])
    assert rate(d2).nu == pytest.approx(math.sqrt(5), abs=1e-9)
    counts = count_concatenations(d2, 8)
    assert counts[::2] == [1, 5, 25, 125, 625]
    assert all(c == 0 for c in counts[1::2])


def test_superadditivity_of_log_counts():
    # log #C*_[L] is superadditive: #C*_[a+b] >= #C*_[a] * #C*_[b]
    for gs in (PENTAGON_SET, PRUNED_SET):
        counts = count_concatenations(gs, 40)
        for a in range(1, 20):
            for b in range(1, 21):
                assert counts[a + b] >= counts[a] * counts[b]


def test_root_convergence_to_rate():
    # L-th roots approach nu with O(1/L) error along the full-support tail
    nu = rate(PENTAGON_SET).nu
    counts = count_concatenations(PENTAGON_SET, 60)
    errs = [abs(counts[L] ** (1 / L) - nu) for L in range(20, 61)]
    assert errs[-1] < errs[0]
    assert errs[-1] < 0.05


def test_ambiguity_beyond_old_window_is_rejected():
    # 0 and 0^9: 0^9 has two factorizations, first at length 9
    bad = gen(["0", "000000000"])
    with pytest.raises(NonUniquelyDecodableError):
        count_concatenations(bad, 10)
    with pytest.raises(NonUniquelyDecodableError):
        rate(bad)


def factorization_count(gs, word):
    ways = [1] + [0] * len(word)
    for i in range(1, len(word) + 1):
        ways[i] = sum(ways[i - len(w)] for w in gs.words
                      if len(w) <= i and word[i - len(w):i] == w)
    return ways[-1]


@settings(max_examples=300, deadline=None)
@given(st.sets(st.text("01", min_size=1, max_size=4), min_size=1, max_size=5))
def test_two_factorizations_matches_brute_force(words):
    gs = gen(sorted(words))
    pair = two_factorizations(gs)
    if pair is None:
        # factorizations (the recurrence) and distinct words agree
        counts = count_concatenations(gs, 9)
        for L in range(10):
            assert counts[L] == len(enumerate_codewords(gs, L))
        assert rate(gs).nu > 0
    else:
        a, b = pair
        assert a != b and sum(a, ()) == sum(b, ())
        assert all(w in gs.words for w in a + b)
        assert factorization_count(gs, sum(a, ())) >= 2
        with pytest.raises(NonUniquelyDecodableError):
            count_concatenations(gs, 0)
        with pytest.raises(NonUniquelyDecodableError):
            rate(gs)


@settings(max_examples=300, deadline=None)
@given(st.sets(st.text("01", min_size=1, max_size=4), min_size=1, max_size=5))
def test_two_factorizations_witness_is_a_shortest_ambiguous_word(words):
    gs = gen(sorted(words))
    pair = two_factorizations(gs)
    if pair is None:
        return
    n = len(sum(pair[0], ()))
    for L in range(1, n):
        assert all(factorization_count(gs, w) == 1 for w in enumerate_codewords(gs, L))


def pairwise_loop(gs):
    """The quadratic test that verify_zero_error replaced: the first pair, in
    the words' order sorted by length, confusable on its shorter length."""
    confusable = [m | 1 << v for v, m in enumerate(gs.graph.neighbor_masks)]
    words = sorted(gs.words, key=len)
    for i, c in enumerate(words):
        for cp in words[i + 1:]:
            if all(confusable[x] >> y & 1 for x, y in zip(c, cp)):
                return False, (c, cp)
    return True, None


@st.composite
def prefix_sharing_sets(draw):
    """Up to eight words over C5, C5+1, C7 or P4, each a short stem drawn
    from up to three shared ones followed by a short tail."""
    g = graph_by_name(draw(st.sampled_from(["C5", "C5+1", "C7", "P4"])))
    letters = st.integers(0, len(g.labels) - 1)
    stems = draw(st.lists(st.lists(letters, max_size=3), min_size=1, max_size=3))
    words = draw(st.lists(st.tuples(st.sampled_from(stems), st.lists(letters, max_size=2))
                          .map(lambda p: tuple(p[0] + p[1])).filter(bool),
                          min_size=1, max_size=8, unique=True))
    return GeneratorSet(g, words)


@settings(max_examples=250, deadline=None)
@given(prefix_sharing_sets())
def test_verify_matches_the_pairwise_loop(gs):
    assert verify_zero_error(gs) == pairwise_loop(gs)
