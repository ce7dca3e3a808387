"""Regular expressions, DFAs, generator series and pole-based rates."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Optional, Sequence, Union as TyUnion

from .graphs import (ChannelGraph, _alpha, _check_power_size, connected_components,
                     coordinate_swaps, cover_weight, induced_subgraph, lift_automorphisms,
                     section_bound, strong_product, transitive_automorphisms)
from .numerics import (RationalFraction, _refine, count_walks, series_coefficients,
                       smallest_positive_root)


class AmbiguousExpressionError(Exception):
    """The series composition rules do not apply to this expression."""

    def __init__(self, message: str, subexpression: "Regex"):
        super().__init__(f"{message}: {subexpression}")
        self.subexpression = subexpression


# ---------------------------------------------------------------------------
# Regular expression trees


@dataclass(frozen=True)
class Empty:
    def __str__(self) -> str:
        return "#"


@dataclass(frozen=True)
class Epsilon:
    def __str__(self) -> str:
        return "@"


@dataclass(frozen=True)
class Letter:
    symbol: int

    def __str__(self) -> str:
        return str(self.symbol)


@dataclass(frozen=True)
class Union:
    left: "Regex"
    right: "Regex"

    def __str__(self) -> str:
        return f"({self.left}+{self.right})"


@dataclass(frozen=True)
class Concat:
    left: "Regex"
    right: "Regex"

    def __str__(self) -> str:
        return f"{self.left}{self.right}"


@dataclass(frozen=True)
class Star:
    inner: "Regex"

    def __str__(self) -> str:
        return f"({self.inner})*"


Regex = TyUnion[Empty, Epsilon, Letter, Union, Concat, Star]

_LETTERS = {str(d): Letter(d) for d in range(10)}  # leaves are immutable, so shared


def parse_regex(text: str) -> Regex:
    """CLI regex syntax: digits as letters, + union, . or juxtaposition for
    concatenation, * star, parentheses, @ for epsilon, # for the empty set.

    One left-to-right loop builds left-deep trees. Each open parenthesis
    pushes the union and the concatenation built before it, so nesting depth
    costs stack entries, not recursion.
    """
    stack: list[tuple[Optional[Regex], Optional[Regex]]] = []
    union: Optional[Regex] = None
    concat: Optional[Regex] = None
    pos, end = 0, len(text)
    while True:  # an atom starts at pos
        c = text[pos] if pos < end else ""
        if c == "(":
            stack.append((union, concat))
            union = concat = None
            pos += 1
            continue
        if not c:
            raise ValueError(f"unexpected end of regex {text!r}")
        if c == "@":
            node: Regex = Epsilon()
        elif c == "#":
            node = Empty()
        elif c.isdigit():
            node = _LETTERS.get(c) or Letter(int(c))
        else:
            raise ValueError(f"unexpected character {c!r} at position {pos} in {text!r}")
        pos += 1
        while True:  # node is an atom or a closed group
            while pos < end and text[pos] == "*":
                node = Star(node)
                pos += 1
            concat = node if concat is None else Concat(concat, node)
            c = text[pos] if pos < end else ""
            if c == "+":
                union = concat if union is None else Union(union, concat)
                concat = None
            if c == "+" or c == ".":
                pos += 1
                break
            if c and (c.isdigit() or c in "(@#"):
                break
            node = concat if union is None else Union(union, concat)
            if not stack:
                if pos != end:
                    raise ValueError(f"trailing input at position {pos} in {text!r}")
                return node
            if c != ")":
                raise ValueError(f"missing ')' at position {pos} in {text!r}")
            union, concat = stack.pop()
            pos += 1


# ---------------------------------------------------------------------------
# DFA construction


@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton with an explicit sink state."""

    alphabet: tuple[int, ...]
    transitions: tuple[tuple[int, ...], ...]  # transitions[state][letter index]
    start: int
    accepting: frozenset[int]
    sink: int

    def state_count(self) -> int:
        return len(self.transitions)

    def accepts(self, word: Sequence[int]) -> bool:
        s = self.start
        for x in word:
            if x not in self.alphabet:
                return False
            s = self.transitions[s][self.alphabet.index(x)]
        return s in self.accepting

    def to_data(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "transitions": [list(row) for row in self.transitions],
            "start": self.start,
            "accepting": sorted(self.accepting),
            "sink": self.sink,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_data())


def _positions(e: Regex) -> tuple[list[int], list[int], int]:
    """Position (Glushkov) automaton of e, without ε-moves.

    Returns the letter of each position, the mask of positions that may
    follow each one, and the mask of final positions; bit p of a mask stands
    for position p.  The last position is a sentinel for "before any
    letter": it is followed by the first positions of e and is final when e
    accepts the empty word.
    """
    letter: list[int] = []
    follow: list[int] = []

    def link(last: int, first: int) -> None:
        while last:
            low = last & -last
            follow[low.bit_length() - 1] |= first
            last ^= low

    def walk(node: Regex) -> tuple[bool, int, int]:
        """(nullable, first, last) of node; fills in follow on the way."""
        if isinstance(node, Empty):
            return False, 0, 0
        if isinstance(node, Epsilon):
            return True, 0, 0
        if isinstance(node, Letter):
            letter.append(node.symbol)
            follow.append(0)
            bit = 1 << (len(follow) - 1)
            return False, bit, bit
        if isinstance(node, Star):
            _, first, last = walk(node.inner)
            link(last, first)
            return True, first, last
        if isinstance(node, (Union, Concat)):
            n1, f1, l1 = walk(node.left)
            n2, f2, l2 = walk(node.right)
            if isinstance(node, Union):
                return n1 or n2, f1 | f2, l1 | l2
            link(l1, f2)
            return n1 and n2, f1 | f2 if n1 else f1, l1 | l2 if n2 else l2
        raise TypeError(f"not a regex node: {node!r}")

    nullable, first, last = walk(e)
    follow.append(first)
    return letter, follow, last | nullable << (len(follow) - 1)


def regex_to_dfa(e: Regex, alphabet: Optional[Sequence[int]] = None) -> Dfa:
    """Position automaton, subset construction over bit masks of positions,
    then ``_minimize``.  A subset's successors and finality depend only on
    the OR of its follow masks and whether it holds a final position, so a
    state is that pair, a follow class (Ilie and Yu, 2003), numbered
    breadth-first; blocks numbered by their first state keep ``dfa-dump``
    stable.  Each new mask gets one OR, each class one AND per letter."""
    letter, follow, last = _positions(e)
    if alphabet is None:
        alphabet = sorted(set(letter))
    else:
        alphabet = sorted(int(a) for a in alphabet)
        missing = set(letter) - set(alphabet)
        if missing:
            raise ValueError(f"expression letters {sorted(missing)} not in alphabet")
    alphabet = tuple(alphabet)
    masks = dict.fromkeys(alphabet, 0)  # the positions of each letter
    for p, a in enumerate(letter):
        masks[a] |= 1 << p
    letter_masks = [masks[a] for a in alphabet]
    start = 1 << (len(follow) - 1)
    reaches = [follow[-1]]  # the follow OR of each class
    classes = {(follow[-1], bool(start & last)): 0}
    state = {start: 0}  # the class of each subset mask
    table: list[list[int]] = []
    for reach in reaches:  # grows while it is walked
        row = []
        for mask in letter_masks:
            sub = reach & mask
            if sub not in state:
                nxt, cur = 0, sub
                while cur:
                    low = cur & -cur
                    nxt |= follow[low.bit_length() - 1]
                    cur ^= low
                state[sub] = classes.setdefault((nxt, bool(sub & last)), len(reaches))
                if state[sub] == len(reaches):
                    reaches.append(nxt)
            row.append(state[sub])
        table.append(row)
    accepting = {i for (_, final), i in classes.items() if final}
    return _minimize(alphabet, table, 0, accepting)


def _minimize(alphabet: tuple[int, ...], table: list[list[int]], start: int,
              accepting: set[int]) -> Dfa:
    """The minimal DFA, with an explicit sink, of a table whose states are all
    reachable from ``start``: the worklist refinement ``numerics._refine``,
    shared with ``numerics.lump``, numbers its blocks by their first state."""
    block, final_table = _refine(table, [s in accepting for s in range(len(table))],
                                 ordered=True)
    final_accepting = frozenset(block[s] for s in accepting)
    # identify (or add) the explicit sink: non-accepting all-self-loop state
    sink = next((i for i, row in enumerate(final_table)
                 if i not in final_accepting and all(t == i for t in row)), None)
    if sink is None:
        sink = len(final_table)
        final_table.append([sink] * len(alphabet))
    return Dfa(alphabet, tuple(map(tuple, final_table)), block[start], final_accepting, sink)


# ---------------------------------------------------------------------------
# Counting and series


def _accepting_quotient(dfa: Dfa) -> tuple[list[list[int]], int, list[int]]:
    """The sink-stripped DFA lumped by ``numerics._refine`` from accepting /
    non-accepting labels: the quotient, the start's class and the accepting
    classes.  ``numerics.lump``'s A P = P B holds; the accepting set is a
    union of classes and P's row at the start picks its class, so accepted
    walks number the same on both graphs."""
    sink = dfa.sink
    successors = [[t for t in row if t != sink] for row in dfa.transitions]
    block, quotient = _refine(successors, [s in dfa.accepting for s in range(len(successors))],
                              ordered=False)
    return quotient, block[dfa.start], sorted({block[s] for s in dfa.accepting})


def count_language(dfa: Dfa, up_to: int) -> list[int]:
    """Words accepted per length, exact, by counting walks on the DFA's
    accepting-labelled quotient (``_accepting_quotient``); walks into the
    sink, which accept nothing, are dropped."""
    return count_walks(*_accepting_quotient(dfa), up_to)


def generator_series(e: Regex) -> RationalFraction:
    """Counting series of L(e) by the recursive composition rules.

    The composed series is proven equal to the word counts of e once, at the
    root, against a DFA of e (see _check_against_dfa).  Subexpressions are
    checked one by one, in post-order, only to name the first one whose
    union, concatenation or star is ambiguous, or when e contains #.

    Every letter is z, so a node's series depends only on its shape with the
    letters erased: shapes are numbered by node type and children's numbers,
    and each is composed once.  A left-deep chain of unions is one shape,
    summed by ``RationalFraction.total``.
    """
    # shape -> index into series; a leaf's shape is its type
    number: dict[tuple, int] = {(Empty,): 0, (Epsilon,): 1, (Letter,): 2}
    series = [RationalFraction.from_int(0), RationalFraction.from_int(1), RationalFraction.z()]
    met_empty = False

    def shape(key: tuple) -> int:
        if key not in number:
            f = series[key[1]]
            number[key] = len(series)
            series.append(f * series[key[2]] if key[0] is Concat else f.star() if key[0] is Star
                          else RationalFraction.total(series[i] for i in key[1:]))
        return number[key]

    def compose(node: Regex, check_each: bool) -> int:
        nonlocal met_empty
        if isinstance(node, (Empty, Epsilon, Letter)):
            met_empty = met_empty or isinstance(node, Empty)
            return number[(type(node),)]
        if isinstance(node, Union):
            chain = []
            while isinstance(node, Union):
                chain.append(node)
                node = node.left
            key = [Union, compose(node, check_each)]
            for u in reversed(chain):  # in post-order, each union after its right side
                key.append(compose(u.right, check_each))
                if check_each:
                    _check_against_dfa(u, series[shape(tuple(key))], regex_to_dfa(u))
            return shape(tuple(key))
        if isinstance(node, Concat):
            i = shape((Concat, compose(node.left, check_each), compose(node.right, check_each)))
        elif isinstance(node, Star):
            inner = compose(node.inner, check_each)
            if series[inner].value_at_zero() != 0:
                raise AmbiguousExpressionError(
                    "starred language contains the empty word", node)
            i = shape((Star, inner))
        else:
            raise TypeError(f"not a regex node: {node!r}")
        if check_each:
            _check_against_dfa(node, series[i], regex_to_dfa(node))
        return i

    # One check at the root suffices.  Let s be the composed series and c the
    # word counts; both have nonnegative coefficients.  By induction s >= c
    # coefficient-wise at every node: c(F+G) <= c(F)+c(G), c(FG) <= c(F)c(G)
    # and c(F*) <= sum_k c(F)^k, and the rules compose s with the same
    # monotone operations.  So s = c at the root forces equality in every
    # step, hence s(F) = c(F) at every subexpression F, provided no language
    # is empty: c(G) = 0 makes c(FG) = 0 whatever F is.  A language can be
    # empty only if e contains Empty; then every subexpression is checked.
    try:
        f = series[compose(e, False)]
        if not met_empty:
            _check_against_dfa(e, f, regex_to_dfa(e))
            return f
    except AmbiguousExpressionError:
        pass  # redo with every check, to name the first failing node
    return series[compose(e, True)]


def _check_against_dfa(node: Regex, f: RationalFraction, dfa: Dfa) -> None:
    """AmbiguousExpressionError unless f = P/Q counts the DFA's words.

    The n-class quotient of ``_accepting_quotient`` counts u B^L v: N/D with
    D = det(I - zB), deg D <= n, D(0) = 1, deg N < n.  So f - N/D has a
    numerator of degree <= max(deg P, deg Q) + n, the window: agreement
    through it proves f = N/D."""
    quotient, start, accepting = _accepting_quotient(dfa)
    window = max(f.numerator.degree, f.denominator.degree) + len(quotient)
    expected = count_walks(quotient, start, accepting, window)
    got = series_coefficients(f, window)
    if got != expected:
        raise AmbiguousExpressionError(
            "series composition disagrees with word counts", node)


@dataclass(frozen=True)
class RationalCode:
    """A starred regular expression used as a fixed-length codebook family."""

    inner: Regex

    @staticmethod
    def from_expression(e: Regex) -> "RationalCode":
        if not isinstance(e, Star):
            raise ValueError("a rational code must be a starred expression")
        return RationalCode(e.inner)


@dataclass(frozen=True)
class RationalRate:
    nu: float
    r_bits: float
    pole: Optional[float]
    series: RationalFraction
    polynomial_growth: bool = False


def rational_code_rate(code: RationalCode) -> RationalRate:
    """Rate 1/z, z the smallest positive root of the series' denominator.

    The series has nonnegative coefficients and is kept in lowest terms, so
    by Pringsheim's theorem its radius of convergence z is a pole, and no
    pole lies closer to 0.  A finite series means the inner language is
    empty: the code is {ε} and its rate is 0.
    """
    f = generator_series(Star(code.inner))
    if f.denominator.degree == 0:
        return RationalRate(0.0, float("-inf"), None, f, polynomial_growth=True)
    lo, hi = smallest_positive_root(f.denominator)
    nu = float(2 / (lo + hi))
    return RationalRate(nu, math.log2(nu), float((lo + hi) / 2), f)


@dataclass(frozen=True)
class ChannelSeriesPrefix:
    terms: tuple[int, ...]
    exact: tuple[bool, ...]

    def running_rate_lower_bound(self) -> float:
        """max over computed l of alpha(G^boxtimes l)^(1/l)."""
        best = 0.0
        for l, a in enumerate(self.terms[1:], start=1):
            best = max(best, a ** (1.0 / l))
        return best


def channel_series_prefix(g: ChannelGraph, up_to: int,
                          node_budget: int = 10 ** 8,
                          max_vertices: int = 1_000_000) -> ChannelSeriesPrefix:
    """alpha(G^boxtimes l) for l = 0..up_to; term 0 is 1 by the empty product.

    The strong power of a disjoint union is the disjoint union of the products
    of its components taken l at a time, in order (Shannon, 1956).  An
    isolated vertex drops out of a product, since H boxtimes K1 = H.  So with
    k isolated vertices, and a_j the sum over multisets of j other components
    of alpha of their product times the number of its orderings,
    alpha(G^l) = sum_j C(l, j) k^(l-j) a_j.

    Each product P of level l gets two proven bounds from the smaller
    products before any search.  The seed alpha(S) alpha(P/S), maximised
    over sub-products S, is a lower bound; the section bound
    floor(w(F) U(P/F)), minimised over factors F with w(F) the weight of a
    fractional clique cover of F (graphs.cover_weight) and U an upper bound
    on alpha, is an upper bound.  When they meet, the term is exact and P is
    never built.  Otherwise the search starts above the seed and stops at
    the section bound.  When automorphisms of each factor act transitively
    on it, their lifts act transitively on the product; they are
    automorphisms by construction, so the search fixes vertex 0 without
    checking them again on the product, and branches at its root on one
    vertex per orbit of the swaps of equal factors.  Any other product gets
    the plain search.  The products of one level share ``node_budget``, and
    the searches for the factors' weights count against level 1.  For a
    connected G the only product of level l is G's l-th power.
    """
    comps = [induced_subgraph(g, c)[0] for c in connected_components(g) if len(c) > 1]
    isolated = g.vertex_count - sum(f.vertex_count for f in comps)
    perms = [transitive_automorphisms(f) for f in comps]
    weights, spent = [], 0
    for f, p in zip(comps, perms):
        w, nodes = cover_weight(f, p is not None, node_budget - spent)
        weights.append(w)
        spent += nodes
    # proven bounds lower[P] <= alpha(P) <= upper[P], by sorted factor tuple P
    lower: dict[tuple[int, ...], int] = {(): 1}
    upper: dict[tuple[int, ...], int] = {(): 1}
    built: dict[tuple[int, ...], ChannelGraph] = {}

    def product(key: tuple[int, ...]) -> ChannelGraph:
        if key not in built:
            f = comps[key[-1]]
            built[key] = strong_product(product(key[:-1]), f) if len(key) > 1 else f
        return built[key]

    a, a_exact = [1], [True]
    terms, exact = [1], [True]
    for l in range(1, up_to + 1):
        _check_power_size(g, l, max_vertices)
        total, level_exact = 0, True
        for key in combinations_with_replacement(range(len(comps)), l):
            seed, cap = _bounds(key, lower, upper, weights)
            res_exact = True
            if seed < cap:
                factor_perms = [perms[i] for i in key]
                lifts = lift_automorphisms(factor_perms) if all(factor_perms) else None
                res = _alpha(product(key), lifts, node_budget - spent, seed, cap,
                             coordinate_swaps([comps[i] for i in key]))
                spent += res.nodes
                seed, res_exact = res.alpha, res.exact
                if res_exact:
                    cap = res.alpha
            lower[key], upper[key] = seed, cap
            total += seed * math.factorial(l) // math.prod(
                math.factorial(key.count(i)) for i in set(key))
            level_exact = level_exact and res_exact
        a.append(total)
        a_exact.append(level_exact)
        terms.append(sum(math.comb(l, j) * isolated ** (l - j) * a[j] for j in range(l + 1)))
        exact.append(all(a_exact[j] for j in range(l + 1) if isolated or j == l))
        spent = 0
    return ChannelSeriesPrefix(tuple(terms), tuple(exact))


def _bounds(key: tuple[int, ...], lower: dict, upper: dict,
            weights: Sequence[Fraction]) -> tuple[int, int]:
    """The seed and the section bound of the product of the components in
    ``key``, from bounds on the products of fewer components."""
    seed = max((lower[s] * lower[_without(key, s)]
                for r in range(1, len(key)) for s in set(combinations(key, r))),
               default=1)
    cap = min(section_bound(weights[i], upper[_without(key, (i,))]) for i in set(key))
    if seed > cap:
        raise AssertionError(f"seed {seed} above section bound {cap}")
    return seed, cap


def _without(key: tuple[int, ...], part: Sequence[int]) -> tuple[int, ...]:
    """The sorted multiset ``key`` less the sub-multiset ``part``."""
    return tuple((Counter(key) - Counter(part)).elements())
