import functools
import itertools
import json
import math
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zecap.automata
from zecap.automata import (AmbiguousExpressionError, Concat, Dfa, Empty, Epsilon,
                            Letter, RationalCode, Star, Union, _check_against_dfa,
                            channel_series_prefix, count_language,
                            generator_series, parse_regex,
                            rational_code_rate, regex_to_dfa)
from zecap.graphs import complete, cycle, graph_by_name, one_vertex
from zecap.numerics import (RationalFraction, count_walks, polynomial_gcd,
                            series_coefficients, spectral_radius, trim)

HUB_REGEX = "(0+1(0)*1+2(0)*3+3(0)*5+4(0)*2+5(0)*4)*"


def letters_of(e):
    if isinstance(e, Letter):
        return {e.symbol}
    if isinstance(e, (Union, Concat)):
        return letters_of(e.left) | letters_of(e.right)
    if isinstance(e, Star):
        return letters_of(e.inner)
    return set()


def words_over(alphabet, length):
    return itertools.product(alphabet, repeat=length)


def language_by_enumeration(e, alphabet, up_to):
    """Membership oracle: recursive descent on the tree, no automata."""
    def lang(node, n):
        if isinstance(node, Empty):
            return set()
        if isinstance(node, Epsilon):
            return {()} if True else set()
        if isinstance(node, Letter):
            return {(node.symbol,)}
        if isinstance(node, Union):
            return lang(node.left, n) | lang(node.right, n)
        if isinstance(node, Concat):
            left = lang(node.left, n)
            right = lang(node.right, n)
            return {a + b for a in left for b in right if len(a) + len(b) <= n}
        out = {()}
        frontier = {()}
        base = lang(node.inner, n)
        while frontier:
            frontier = {a + b for a in frontier for b in base
                        if b and len(a) + len(b) <= n} - out
            out |= frontier
        return out
    full = lang(e, up_to)
    return [sum(1 for w in full if len(w) == L) for L in range(up_to + 1)]


def test_parse_round_trip_structure():
    e = parse_regex("0+11*")
    assert isinstance(e, Union)
    assert isinstance(e.right, Concat)
    assert isinstance(e.right.right, Star)
    e2 = parse_regex("(0.1)*")
    assert isinstance(e2, Star)
    assert parse_regex("@") == Epsilon()
    assert parse_regex("#") == Empty()


def test_parse_errors():
    for bad in ["", "(", "0+", "*", "0)", "a"]:
        with pytest.raises(ValueError):
            parse_regex(bad)


def reference_parse_regex(text: str):
    """The recursive-descent parser that parse_regex replaced, kept as its oracle."""
    pos = 0

    def peek():
        return text[pos] if pos < len(text) else None

    def parse_union():
        nonlocal pos
        node = parse_concat()
        while peek() == "+":
            pos += 1
            node = Union(node, parse_concat())
        return node

    def parse_concat():
        nonlocal pos
        node = parse_postfix()
        while True:
            c = peek()
            if c == ".":
                pos += 1
                node = Concat(node, parse_postfix())
            elif c is not None and (c.isdigit() or c in "(@#"):
                node = Concat(node, parse_postfix())
            else:
                return node

    def parse_postfix():
        nonlocal pos
        node = parse_atom()
        while peek() == "*":
            pos += 1
            node = Star(node)
        return node

    def parse_atom():
        nonlocal pos
        c = peek()
        if c is None:
            raise ValueError(f"unexpected end of regex {text!r}")
        if c == "(":
            pos += 1
            node = parse_union()
            if peek() != ")":
                raise ValueError(f"missing ')' at position {pos} in {text!r}")
            pos += 1
            return node
        if c == "@":
            pos += 1
            return Epsilon()
        if c == "#":
            pos += 1
            return Empty()
        if c.isdigit():
            pos += 1
            return Letter(int(c))
        raise ValueError(f"unexpected character {c!r} at position {pos} in {text!r}")

    node = parse_union()
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos} in {text!r}")
    return node


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValueError as ex:
        return f"ValueError: {ex}"


regex_texts = st.recursive(
    st.sampled_from(list("0123@#")),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["+", ".", ""]), inner).map("".join),
        inner.map(lambda t: t + "*"),
        inner.map(lambda t: "(" + t + ")")),
    max_leaves=10)


# "²" passes str.isdigit but not int; "٣" passes both
@settings(max_examples=1000, deadline=None)
@given(st.text(list("0123456789+.*()@# a²٣"), max_size=20) | regex_texts)
def test_parse_regex_matches_the_recursive_parser(text):
    assert parse_outcome(parse_regex, text) == parse_outcome(reference_parse_regex, text)


def test_deep_nesting_parses_without_recursion():
    assert parse_regex("(" * 1200 + "0" + ")" * 1200) == Letter(0)


def test_dfa_star_letter():
    dfa = regex_to_dfa(parse_regex("(0)*"))
    # one live state plus the sink
    assert dfa.state_count() == 2
    assert dfa.accepts(())
    assert dfa.accepts((0, 0, 0))
    assert count_language(dfa, 5) == [1] * 6


def test_dfa_hub_expression_is_golden():
    dfa = regex_to_dfa(parse_regex(HUB_REGEX))
    assert dfa.state_count() == 7
    assert dfa.accepting == frozenset([dfa.start])
    assert count_language(dfa, 5) == [1, 1, 6, 16, 56, 176]


def test_dfa_two_or_three_zeros():
    e = parse_regex("(00+000)*")
    dfa = regex_to_dfa(e)
    assert count_language(dfa, 6) == [1, 0, 1, 1, 1, 1, 1]


def test_dfa_empty_language():
    dfa = regex_to_dfa(Empty(), alphabet=[0])
    assert count_language(dfa, 3) == [0, 0, 0, 0]


def test_dfa_matches_enumeration_oracle():
    cases = ["(0+1)*", "0(01)*1", "(00+000)*", "(0+11)*", "@+0", "(01+10)*0*"]
    for text in cases:
        e = parse_regex(text)
        dfa = regex_to_dfa(e)
        assert count_language(dfa, 7) == language_by_enumeration(e, [0, 1], 7)


def test_dfa_counting_invariant_under_alphabet_extension():
    e = parse_regex("(0+11)*")
    small = regex_to_dfa(e)
    big = regex_to_dfa(e, alphabet=[0, 1, 2])
    assert count_language(small, 8) == count_language(big, 8)


def test_dfa_json_dump():
    dfa = regex_to_dfa(parse_regex("(0)*"))
    data = json.loads(dfa.to_json())
    assert set(data) == {"alphabet", "transitions", "start", "accepting", "sink"}
    assert len(data["transitions"]) == dfa.state_count()


def test_series_star_letter():
    f = generator_series(parse_regex("(0)*"))
    assert str(f.denominator) in ("-X +1", "1 -X") or f.denominator.coefficients == (1, -1)
    assert series_coefficients(f, 5) == [1] * 6


def test_series_two_letters():
    f = generator_series(parse_regex("0+1"))
    assert f.numerator.coefficients == (0, 2)
    assert f.denominator.coefficients == (1,)


def test_series_hub_expression_golden():
    from zecap.numerics import IntPolynomial, RationalFraction
    f = generator_series(parse_regex(HUB_REGEX))
    expected = RationalFraction(IntPolynomial([-1, 1]), IntPolynomial([-1, 2, 4]))
    assert f == expected
    assert series_coefficients(f, 5) == [1, 1, 6, 16, 56, 176]


def test_series_matches_dfa_counts_everywhere():
    cases = ["(0+1)*", "0(01)*1", "(0+11)*", "(01+10)*", HUB_REGEX]
    for text in cases:
        e = parse_regex(text)
        f = generator_series(e)
        dfa = regex_to_dfa(e)
        window = 2 * dfa.state_count() + 5
        assert series_coefficients(f, window) == count_language(dfa, window)


def test_series_rejects_ambiguous_union():
    with pytest.raises(AmbiguousExpressionError):
        generator_series(parse_regex("0+0"))


def test_series_rejects_ambiguous_star():
    with pytest.raises(AmbiguousExpressionError):
        generator_series(parse_regex("(00+000)*"))
    with pytest.raises(AmbiguousExpressionError):
        generator_series(parse_regex("(0+@)*"))


def test_ambiguity_error_names_subexpression():
    try:
        generator_series(parse_regex("1(0+0)1"))
    except AmbiguousExpressionError as ex:
        assert str(ex.subexpression) == "(0+0)"
    else:
        pytest.fail("expected ambiguity rejection")


def test_rational_code_requires_star():
    with pytest.raises(ValueError):
        RationalCode.from_expression(parse_regex("0+1"))


def test_rational_code_rate_hub_golden():
    rr = rational_code_rate(RationalCode.from_expression(parse_regex(HUB_REGEX)))
    assert rr.nu == pytest.approx(1 + math.sqrt(5), abs=1e-9)
    assert rr.pole.real == pytest.approx((-1 + math.sqrt(5)) / 4, abs=1e-9)
    assert abs(rr.pole.imag) < 1e-9
    assert rr.r_bits == pytest.approx(math.log2(1 + math.sqrt(5)), abs=1e-9)


def test_rational_code_rate_trivial():
    rr = rational_code_rate(RationalCode.from_expression(parse_regex("(0)*")))
    assert rr.nu == pytest.approx(1, abs=1e-9)
    assert rr.r_bits == pytest.approx(0, abs=1e-9)


def test_rational_code_rate_full_alphabet():
    for k in (2, 3, 4):
        text = "(" + "+".join(str(x) for x in range(k)) + ")*"
        rr = rational_code_rate(RationalCode.from_expression(parse_regex(text)))
        assert rr.nu == pytest.approx(k, abs=1e-8)


def test_rational_code_rate_agrees_with_spectral_radius():
    cases = ["(0+11)*", "(01+10)*", HUB_REGEX]
    for text in cases:
        e = parse_regex(text)
        rr = rational_code_rate(RationalCode.from_expression(e))
        dfa = regex_to_dfa(e)
        rho = spectral_radius(trim(dfa.transitions, dfa.start, dfa.accepting))
        assert rr.nu == pytest.approx(rho, abs=1e-8)


def test_rational_code_rate_is_correctly_rounded_on_a_large_hub():
    # 0 and 63 branches a(0)*b: nu = 1 + sqrt 63, correctly rounded
    pairs = [(a, b) for a in range(1, 10) for b in range(1, 10)][:63]
    e = parse_regex("(0+" + "+".join(f"{a}(0)*{b}" for a, b in pairs) + ")*")
    assert rational_code_rate(RationalCode.from_expression(e)).nu == 8.937253933193771


def sympy_growth(den):
    """1 / (smallest positive root of den), to 40 digits."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    roots = sympy.Poly(list(reversed(den.coefficients)), z).real_roots()
    return sympy.N(1 / min(r for r in roots if r > 0), 40)


def assert_rate_within_one_ulp_of_sympy(e):
    try:
        rr = rational_code_rate(RationalCode.from_expression(e))
    except AmbiguousExpressionError:
        return
    if rr.polynomial_growth:
        assert rr.nu == 0 and count_language(regex_to_dfa(e), 6) == [1, 0, 0, 0, 0, 0, 0]
        return
    sympy = pytest.importorskip("sympy")
    assert abs(sympy.Float(rr.nu, 40) - sympy_growth(rr.series.denominator)) <= math.ulp(rr.nu)
    assert rr.pole == pytest.approx(1 / rr.nu, rel=1e-15)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.text("012", min_size=1, max_size=5), min_size=1, max_size=5))
def test_rate_of_starred_word_sets_matches_sympy(words):
    assert_rate_within_one_ulp_of_sympy(parse_regex("(" + "+".join(sorted(words)) + ")*"))


def test_ambiguous_star_beyond_old_window():
    # (0+0^20)* is 0*, not 1/(1-z-z^20); the two first differ at index 20
    e = parse_regex("(0+" + "0" * 20 + ")*")
    with pytest.raises(AmbiguousExpressionError):
        generator_series(e)
    with pytest.raises(AmbiguousExpressionError):
        rational_code_rate(RationalCode.from_expression(e))


def test_channel_series_prefix_c5():
    prefix = channel_series_prefix(cycle(5), 2)
    assert prefix.terms == (1, 2, 5)
    assert all(prefix.exact)


def test_channel_series_prefix_c5_plus_one():
    prefix = channel_series_prefix(graph_by_name("C5+1"), 1)
    assert prefix.terms == (1, 3)


def test_channel_series_prefix_k1():
    prefix = channel_series_prefix(one_vertex(), 4)
    assert prefix.terms == (1, 1, 1, 1, 1)


def test_channel_series_roots_nondecreasing_by_fekete():
    for g in (cycle(5), cycle(7), complete(3)):
        prefix = channel_series_prefix(g, 2)
        r1 = prefix.terms[1]
        r2 = prefix.terms[2] ** 0.5
        assert r2 >= r1 - 1e-9


# ---------------------------------------------------------------------------
# One series check per expression, and the DFA construction behind it

expressions = st.recursive(
    st.sampled_from([Letter(0), Letter(1), Epsilon(), Empty()]),
    lambda inner: st.one_of(st.builds(Union, inner, inner),
                            st.builds(Concat, inner, inner),
                            st.builds(Star, inner)),
    max_leaves=5)


def reference_str(node):
    """Reference: the string form by recursion on the tree."""
    if isinstance(node, Union):
        return f"({reference_str(node.left)}+{reference_str(node.right)})"
    if isinstance(node, Concat):
        return reference_str(node.left) + reference_str(node.right)
    if isinstance(node, Star):
        return f"({reference_str(node.inner)})*"
    return "#" if isinstance(node, Empty) else "@" if isinstance(node, Epsilon) else \
        str(node.symbol)


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    st.sampled_from([Letter(0), Letter(7), Letter(12), Epsilon(), Empty()]),
    lambda inner: st.one_of(st.builds(Union, inner, inner), st.builds(Concat, inner, inner),
                            st.builds(Star, inner)),
    max_leaves=30))
def test_str_matches_the_recursive_formatter(e):
    assert str(e) == reference_str(e)


@pytest.mark.parametrize("walk", [str, regex_to_dfa, generator_series])
def test_walks_reject_what_is_not_a_regex_node(walk):
    with pytest.raises(TypeError, match="not a regex node: 'x'"):
        walk(Concat(Letter(0), Star("x")))


@settings(max_examples=150, deadline=None)
@given(expressions)
def test_rate_of_starred_expressions_matches_sympy(e):
    assert_rate_within_one_ulp_of_sympy(Star(e))


def per_subexpression_series(e):
    """Reference: compose the series and check it at every composite node."""
    alphabet = sorted(letters_of(e))

    def compose(node):
        if isinstance(node, Empty):
            return RationalFraction.from_int(0)
        if isinstance(node, Epsilon):
            return RationalFraction.from_int(1)
        if isinstance(node, Letter):
            return RationalFraction.z()
        if isinstance(node, Union):
            f = compose(node.left) + compose(node.right)
        elif isinstance(node, Concat):
            f = compose(node.left) * compose(node.right)
        else:
            inner = compose(node.inner)
            if inner.value_at_zero() != 0:
                raise AmbiguousExpressionError(
                    "starred language contains the empty word", node)
            f = inner.star()
        dfa = regex_to_dfa(node, alphabet)
        window = max(f.numerator.degree, f.denominator.degree) + dfa.state_count()
        if series_coefficients(f, window) != count_language(dfa, window):
            raise AmbiguousExpressionError(
                "series composition disagrees with word counts", node)
        return f

    return compose(e)


def outcome(fn, e):
    try:
        return fn(e)
    except AmbiguousExpressionError as ex:
        return str(ex)


@settings(max_examples=300, deadline=None)
@given(expressions)
def test_series_checked_at_root_matches_per_subexpression_checks(e):
    assert outcome(generator_series, e) == outcome(per_subexpression_series, e)


def python_pattern(node):
    if isinstance(node, Empty):
        return "(?!)"
    if isinstance(node, Epsilon):
        return ""
    if isinstance(node, Letter):
        return str(node.symbol)
    if isinstance(node, Union):
        return f"(?:{python_pattern(node.left)}|{python_pattern(node.right)})"
    if isinstance(node, Concat):
        return python_pattern(node.left) + python_pattern(node.right)
    return f"(?:{python_pattern(node.inner)})*"


@settings(max_examples=200, deadline=None)
@given(expressions)
def test_dfa_accepts_what_python_re_matches(e):
    dfa = regex_to_dfa(e, alphabet=[0, 1])
    pattern = re.compile(python_pattern(e))
    for n in range(7):
        for w in words_over((0, 1), n):
            text = "".join(map(str, w))
            assert dfa.accepts(w) == (pattern.fullmatch(text) is not None), text


@settings(max_examples=200, deadline=None)
@given(expressions)
def test_dfa_states_are_numbered_breadth_first(e):
    dfa = regex_to_dfa(e, alphabet=[0, 1])
    order = [dfa.start]
    for s in order:
        for t in dfa.transitions[s]:  # letters in sorted order
            if t not in order:
                order.append(t)
    n = dfa.state_count()
    assert order == list(range(len(order)))
    if len(order) < n:  # an added sink, unreachable, comes last
        assert len(order) == n - 1 and dfa.sink == n - 1
    # minimal: Moore refinement separates every state
    block = [s in dfa.accepting for s in range(n)]
    while True:
        sigs = [(block[s],) + tuple(block[t] for t in dfa.transitions[s])
                for s in range(n)]
        refined = [sorted(set(sigs)).index(sig) for sig in sigs]
        if len(set(refined)) == len(set(block)):
            break
        block = refined
    assert len(set(block)) == n


def test_series_of_unambiguous_expression_builds_one_dfa(monkeypatch):
    calls = []

    def counting(e, alphabet=None):
        calls.append(str(e))
        return regex_to_dfa(e, alphabet)

    monkeypatch.setattr(zecap.automata, "regex_to_dfa", counting)
    generator_series(parse_regex(HUB_REGEX))
    assert calls == [str(parse_regex(HUB_REGEX))]


def test_rate_builds_one_dfa(monkeypatch):
    calls = []

    def counting(e, alphabet=None):
        calls.append(str(e))
        return regex_to_dfa(e, alphabet)

    monkeypatch.setattr(zecap.automata, "regex_to_dfa", counting)
    rr = rational_code_rate(RationalCode.from_expression(parse_regex(HUB_REGEX)))
    assert rr.nu == pytest.approx(1 + math.sqrt(5), rel=1e-9)
    assert calls == [str(parse_regex(HUB_REGEX))]


@pytest.mark.parametrize("text", ["(0+0)#", "((0+0)#)*"])
def test_ambiguity_under_empty_language_is_named(text):
    with pytest.raises(AmbiguousExpressionError) as info:
        generator_series(parse_regex(text))
    assert str(info.value.subexpression) == "(0+0)"


# ---------------------------------------------------------------------------
# The position automaton against the Thompson construction it replaced


def thompson_dfa(e, alphabet):
    """Reference: Thompson NFA with ε-moves, subset construction over
    ε-closures, then the same Moore minimization as regex_to_dfa."""
    eps, moves = [], []

    def new_state():
        eps.append(set())
        moves.append({})
        return len(eps) - 1

    def build(node):
        s, t = new_state(), new_state()
        if isinstance(node, Epsilon):
            eps[s].add(t)
        elif isinstance(node, Letter):
            moves[s].setdefault(node.symbol, set()).add(t)
        elif isinstance(node, (Union, Concat)):
            ls, lt = build(node.left)
            rs, rt = build(node.right)
            if isinstance(node, Union):
                eps[s] |= {ls, rs}
                eps[lt].add(t)
            else:
                eps[s].add(ls)
                eps[lt].add(rs)
            eps[rt].add(t)
        elif isinstance(node, Star):
            is_, it = build(node.inner)
            eps[s] |= {is_, t}
            eps[it] |= {is_, t}
        return s, t

    start, accept = build(e)

    def closure(states):
        seen = set(states)
        stack = list(states)
        while stack:
            for t in eps[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    alphabet = tuple(sorted(alphabet))
    subsets = [closure({start})]
    index = {subsets[0]: 0}
    table = []
    for cur in subsets:
        row = []
        for a in alphabet:
            nxt = closure({t for s in cur for t in moves[s].get(a, ())})
            if nxt not in index:
                index[nxt] = len(subsets)
                subsets.append(nxt)
            row.append(index[nxt])
        table.append(row)
    accepting = {i for i, sub in enumerate(subsets) if accept in sub}
    return zecap.automata._minimize(alphabet, table, 0, accepting)


wide_expressions = st.recursive(
    st.sampled_from([Letter(a) for a in range(4)] + [Epsilon(), Empty()]),
    lambda inner: st.one_of(st.builds(Union, inner, inner),
                            st.builds(Concat, inner, inner),
                            st.builds(Star, inner)),
    max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(wide_expressions, st.booleans())
def test_position_automaton_dfa_equals_thompson_dfa(e, extend):
    alphabet = [0, 1, 2, 3, 4] if extend else sorted(letters_of(e))
    want = thompson_dfa(e, alphabet)
    assert regex_to_dfa(e, alphabet if extend else None) == want


@settings(max_examples=300, deadline=None)
@given(wide_expressions, st.booleans())
def test_count_language_without_the_sink_matches_walks_with_it(e, extend):
    dfa = regex_to_dfa(e, [0, 1, 2, 3, 4] if extend else None)
    assert count_language(dfa, 12) == count_walks(dfa.transitions, dfa.start,
                                                  dfa.accepting, 12)


@pytest.mark.parametrize("text", [HUB_REGEX, "((0)*1+2((0)*3)*)*", "@", "#", "(@)*",
                                  "(#)*", "0#+1", "((0+@)(1+@))*"])
def test_position_automaton_dfa_equals_thompson_dfa_on_fixed_expressions(text):
    e = parse_regex(text)
    assert regex_to_dfa(e) == thompson_dfa(e, sorted(letters_of(e)))


def frozenset_moore_dfa(e, alphabet):
    """Reference: the position automaton on sets of positions, subsets as
    frozensets found breadth-first, Moore rounds over every state until no
    block splits, blocks reachable from the start numbered in order of
    their first state, and the explicit sink."""
    letter, follow = [], []

    def walk(node):
        if isinstance(node, Empty):
            return False, set(), set()
        if isinstance(node, Epsilon):
            return True, set(), set()
        if isinstance(node, Letter):
            letter.append(node.symbol)
            follow.append(set())
            return False, {len(letter) - 1}, {len(letter) - 1}
        if isinstance(node, Star):
            _, first, last = walk(node.inner)
            for p in last:
                follow[p] |= first
            return True, first, last
        n1, f1, l1 = walk(node.left)
        n2, f2, l2 = walk(node.right)
        if isinstance(node, Union):
            return n1 or n2, f1 | f2, l1 | l2
        for p in l1:
            follow[p] |= f2
        return n1 and n2, f1 | f2 if n1 else f1, l1 | l2 if n2 else l2

    nullable, first, last = walk(e)
    follow.append(first)
    if nullable:
        last.add(len(follow) - 1)
    subsets = [frozenset([len(follow) - 1])]
    index = {subsets[0]: 0}
    table = []
    for cur in subsets:
        row = []
        for a in alphabet:
            nxt = frozenset(q for p in cur for q in follow[p] if letter[q] == a)
            if nxt not in index:
                index[nxt] = len(subsets)
                subsets.append(nxt)
            row.append(index[nxt])
        table.append(row)
    n = len(table)
    block = [int(not last.isdisjoint(sub)) for sub in subsets]
    while True:
        signatures = {}
        new_block = [signatures.setdefault((block[s], tuple(block[t] for t in table[s])),
                                           len(signatures)) for s in range(n)]
        if new_block == block:
            break
        block = new_block
    reachable, queue = {block[0]}, [0]
    for s in queue:
        for t in table[s]:
            if block[t] not in reachable:
                reachable.add(block[t])
                queue.append(t)
    remap = {b: i for i, b in enumerate(sorted(reachable))}
    rows, accepting = {}, set()
    for s in range(n):
        if block[s] in remap:
            rows.setdefault(remap[block[s]], tuple(remap[block[t]] for t in table[s]))
            if not last.isdisjoint(subsets[s]):
                accepting.add(remap[block[s]])
    rows = [rows[i] for i in range(len(rows))]
    sink = next((i for i, row in enumerate(rows)
                 if i not in accepting and all(t == i for t in row)), None)
    if sink is None:
        sink = len(rows)
        rows.append(tuple(sink for _ in alphabet))
    return Dfa(tuple(alphabet), tuple(rows), remap[block[0]], frozenset(accepting), sink)


three_letter_expressions = st.recursive(
    st.sampled_from([Letter(0), Letter(1), Letter(2), Epsilon(), Empty()]),
    lambda inner: st.one_of(st.builds(Union, inner, inner),
                            st.builds(Concat, inner, inner),
                            st.builds(Star, inner)),
    max_leaves=14)


@settings(max_examples=400, deadline=None)
@given(three_letter_expressions, st.booleans())
def test_mask_dfa_equals_frozenset_moore_dfa(e, extend):
    alphabet = [0, 1, 2, 3] if extend else sorted(letters_of(e))
    assert regex_to_dfa(e, alphabet if extend else None) == frozenset_moore_dfa(e, alphabet)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=8), st.data())
def test_without_removes_a_sub_multiset(key, data):
    key = tuple(sorted(key))
    picked = data.draw(st.sets(st.integers(0, len(key) - 1)) if key else st.just(set()))
    part = data.draw(st.permutations([key[i] for i in picked]))
    rest = list(key)  # reference: one list.remove per element of part
    for i in part:
        rest.remove(i)
    assert zecap.automata._without(key, part) == tuple(rest)


# ---------------------------------------------------------------------------
# Wide unions: shared shapes, alternatives summed per denominator


def relabel(node, letters):
    if isinstance(node, Letter):
        return Letter(letters[node.symbol])
    if isinstance(node, (Union, Concat)):
        return type(node)(relabel(node.left, letters), relabel(node.right, letters))
    if isinstance(node, Star):
        return Star(relabel(node.inner, letters))
    return node


pool_subtrees = st.recursive(
    st.sampled_from([Letter(a) for a in range(4)]),
    lambda inner: st.one_of(st.builds(Union, inner, inner),
                            st.builds(Concat, inner, inner),
                            st.builds(Star, inner)),
    max_leaves=4)


# (0^k)*: the block of alternatives f, z f, ..., z^(k-1) f sums to a
# fraction that a reduction takes to 1 / (1 - z)
starred_powers = st.integers(2, 3).map(lambda k: Star(functools.reduce(Concat, [Letter(0)] * k)))


@st.composite
def wide_unions(draw):
    """A left-deep union of 2 to 12 alternatives, in blocks t, t0, t00 of
    one to three, each t a subtree from a pool of one or two with its
    letters 0-3 renamed, so that shapes repeat and denominators coincide.
    Distinct two-letter prefixes, when drawn, make the union itself
    unambiguous."""
    pool = draw(st.lists(starred_powers | pool_subtrees, min_size=1, max_size=2))
    n, alternatives = draw(st.integers(2, 12)), []
    while len(alternatives) < n:
        t = relabel(draw(st.sampled_from(pool)), draw(st.permutations(range(4))))
        for _ in range(min(draw(st.integers(1, 3)), n - len(alternatives))):
            alternatives.append(t)
            t = Concat(t, Letter(0))
    if draw(st.booleans()):
        prefixes = draw(st.permutations(list(itertools.product(range(4), repeat=2))))
        alternatives = [Concat(Concat(Letter(a), Letter(b)), t)
                        for (a, b), t in zip(prefixes, alternatives)]
    e = functools.reduce(Union, alternatives)
    return draw(st.sampled_from([e, Star(e), Concat(Letter(0), e), Union(Letter(1), e)]))


@settings(max_examples=300, deadline=None)
@given(wide_unions())
def test_wide_union_series_matches_per_subexpression_series(e):
    # str, not ==: the printed series must match, and == cross-multiplies
    assert str(outcome(generator_series, e)) == str(outcome(per_subexpression_series, e))


HUB81_REGEX = "(0+" + "+".join(f"{a}(0)*{b}" for a in range(1, 10) for b in range(1, 10)) + ")*"


@pytest.mark.parametrize("text, want", [
    ("(00)*+0(00)*", "(1) / (-z +1)"),  # the grouped sum needs a reduction
    ("1+2(0)*+3(00)*+45+5(0)*6+6(00)*7", None),  # denominators 1, 1 - z and 1 - z^2
    pytest.param(HUB81_REGEX, "(-z +1) / (-80z^2 -2z +1)", id="hub81"),
])
def test_wide_union_series_on_fixed_expressions(text, want):
    e = parse_regex(text)
    got = str(generator_series(e))
    assert got == str(per_subexpression_series(e))
    assert want is None or got == want


def test_hub_series_takes_at_most_two_gcds(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return polynomial_gcd(a, b)

    monkeypatch.setattr(zecap.numerics, "polynomial_gcd", counting)
    assert str(generator_series(parse_regex(HUB81_REGEX))) == "(-z +1) / (-80z^2 -2z +1)"
    assert len(calls) <= 2


def long_words_regex(lengths, rng):
    """A starred union of words ending in 0, with distinct first letters and
    distinct letters before the final 0."""
    firsts, lasts = rng.sample(range(1, 10), len(lengths)), rng.sample(range(1, 10), len(lengths))
    words = [str(f) + "".join(rng.choice("123456789") for _ in range(L - 3)) + f"{z}0"
             for f, z, L in zip(firsts, lasts, lengths)]
    return "(" + "+".join(words) + ")*"


@pytest.mark.parametrize("text", [
    pytest.param(HUB81_REGEX, id="hub81"),
    pytest.param(long_words_regex((9, 14, 21, 31, 42, 53), random.Random(53)), id="long53"),
])
def test_follow_class_dfa_equals_references_on_large_expressions(text):
    e = parse_regex(text)
    alphabet = sorted(letters_of(e))
    dfa = regex_to_dfa(e)
    assert dfa == frozenset_moore_dfa(e, alphabet)
    assert dfa == thompson_dfa(e, alphabet)


# ---------------------------------------------------------------------------
# Counting on the accepting-labelled quotient, and the window it sizes


def composed_series(node):
    """The series by the composition rules alone, unchecked; None when a
    starred series has a constant term."""
    if isinstance(node, (Empty, Epsilon)):
        return RationalFraction.from_int(int(isinstance(node, Epsilon)))
    if isinstance(node, Letter):
        return RationalFraction.z()
    if isinstance(node, Star):
        inner = composed_series(node.inner)
        return None if inner is None or inner.value_at_zero() else inner.star()
    left, right = composed_series(node.left), composed_series(node.right)
    if left is None or right is None:
        return None
    return left + right if isinstance(node, Union) else left * right


def sink_free_walks(dfa, up_to):
    successors = [[t for t in row if t != dfa.sink] for row in dfa.transitions]
    return count_walks(successors, dfa.start, dfa.accepting, up_to)


def check_with_state_window(node, f, dfa):
    """Reference: the series check with the window sized by the DFA's state
    count, counted on the DFA itself."""
    window = max(f.numerator.degree, f.denominator.degree) + dfa.state_count()
    if series_coefficients(f, window) != sink_free_walks(dfa, window):
        raise AmbiguousExpressionError("series composition disagrees with word counts", node)


starred_word_unions = st.lists(st.text("012", min_size=1, max_size=8), min_size=1,
                               max_size=4).map(lambda words: parse_regex(f"({'+'.join(words)})*"))


@settings(max_examples=400, deadline=None)
@given(three_letter_expressions | starred_word_unions)
@example(parse_regex("((1)*1)*"))  # the counts first differ one index before the window ends
@example(parse_regex("(0+00)*"))
@example(parse_regex("(0+" + "0" * 20 + ")*"))
def test_quotient_window_check_agrees_with_the_state_window_check(e):
    f = composed_series(e)
    if f is None:
        return
    dfa = regex_to_dfa(e)
    assert outcome(lambda node: _check_against_dfa(node, f, dfa), e) == \
        outcome(lambda node: check_with_state_window(node, f, dfa), e)


@settings(max_examples=300, deadline=None)
@given(three_letter_expressions | starred_word_unions, st.booleans())
def test_count_language_on_the_quotient_matches_walks_on_the_dfa(e, extend):
    dfa = regex_to_dfa(e, [0, 1, 2, 3] if extend else None)
    assert count_language(dfa, 30) == sink_free_walks(dfa, 30)
