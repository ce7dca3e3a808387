"""Generator sets of variable-length words: verification, counting, rate."""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import BudgetExceededError, ChannelGraph, Word, graph_by_name
from .intermingled import _pair_search, _prefix_confusable, build_transition_graph, varlen_rule
from .numerics import IntPolynomial, unique_positive_root


class NonUniquelyDecodableError(Exception):
    """Some word is a concatenation of generator words in two ways."""


@dataclass(frozen=True)
class GeneratorSet:
    """A finite set of non-empty variable-length words over a channel graph."""

    graph: ChannelGraph
    words: tuple[Word, ...]

    def __init__(self, graph: ChannelGraph, words: Sequence[Sequence[int]]):
        normalized = tuple(tuple(operator.index(x) for x in w) for w in words)
        if any(not w for w in normalized):
            raise ValueError("generator words must be non-empty")
        if len(set(normalized)) != len(normalized):
            raise ValueError("generator words must be pairwise distinct")
        if not graph.word_in_range({x for w in normalized for x in w}):
            w = next(w for w in normalized if not graph.word_in_range(w))
            raise ValueError(f"word {w} uses out-of-range vertex index")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "words", normalized)

    @property
    def min_length(self) -> int:
        return min((len(w) for w in self.words), default=0)

    @property
    def max_length(self) -> int:
        return max((len(w) for w in self.words), default=0)

    @property
    def length_gcd(self) -> int:
        """gcd of word lengths; Fekete applies directly exactly when it is 1."""
        return math.gcd(*(len(w) for w in self.words)) if self.words else 1

    def length_histogram(self) -> dict[int, int]:
        return dict(Counter(len(w) for w in self.words))

    def characteristic_polynomial(self) -> IntPolynomial:
        """X^lmax - sum #C_[l] X^(lmax - l)."""
        if not self.words:
            raise ValueError("empty generator set has no characteristic polynomial")
        lmax = self.max_length
        coeffs = [0] * (lmax + 1)
        coeffs[lmax] = 1
        for l, cnt in self.length_histogram().items():
            coeffs[lmax - l] -= cnt
        return IntPolynomial(coeffs)

    def to_json(self, graph_name: Optional[str] = None) -> str:
        graph_field = graph_name if graph_name is not None else json.loads(self.graph.to_json())
        return json.dumps({"graph": graph_field, "words": [list(w) for w in self.words]})

    @staticmethod
    def from_json(text: str) -> "GeneratorSet":
        return GeneratorSet._from_data(json.loads(text))

    @staticmethod
    def _from_data(data) -> "GeneratorSet":
        spec = data["graph"]
        if isinstance(spec, str):
            graph = graph_by_name(spec)
        else:
            graph = ChannelGraph.from_edges(spec["labels"], [tuple(e) for e in spec["edges"]])
        return GeneratorSet(graph, [tuple(w) for w in data["words"]])

    @staticmethod
    def from_strings(graph: ChannelGraph, words: Sequence[str]) -> "GeneratorSet":
        """Build from label strings, e.g. ["0", "11", "23"] on C5+1."""
        return GeneratorSet(graph, [tuple(graph.index_of(ch) for ch in w) for w in words])


def verify_zero_error(gs: GeneratorSet) -> tuple[bool, Optional[tuple[Word, Word]]]:
    """(True, None) for a prefix-distinguishable set, else the first confusable pair by length."""
    words = sorted(gs.words, key=len)
    pair = _prefix_confusable(gs.graph, words)
    return pair is None, pair and (words[pair[0]], words[pair[1]])


def count_concatenations(gs: GeneratorSet, up_to: int) -> list[int]:
    """#C*_[L] for L = 0..up_to by the length-histogram linear recurrence.

    The recurrence counts factorizations; they are distinct words exactly
    when the set is uniquely decodable, which is proven first.
    """
    _require_uniquely_decodable(gs)
    return _count_factorizations(gs, up_to)


def _count_factorizations(gs: GeneratorSet, up_to: int) -> list[int]:
    """Factorizations over gs of each length L = 0..up_to, at least #C*_[L]."""
    hist = gs.length_histogram()
    counts = [1]
    for L in range(1, up_to + 1):
        counts.append(sum(cnt * counts[L - l] for l, cnt in hist.items() if l <= L))
    return counts


def two_factorizations(gs: GeneratorSet) -> Optional[tuple[tuple[Word, ...], tuple[Word, ...]]]:
    """Two distinct factorizations of one word over gs, or None if gs is a code.

    Under ``varlen_rule`` the transition graph is the flower automaton of gs,
    whose walks from the closed state back to it are the factorizations, one
    word per return.  gs is a code exactly when no two distinct walks spell
    one string (Berstel, Perrin, Reutenauer, Codes and Automata, 2009); the
    product of the automaton with itself is finite, so no budget is needed.
    """
    tg = build_transition_graph(gs, varlen_rule())
    walks = _pair_search(tg, lambda la, lb: la == lb, lambda ea, eb: ea != eb, math.inf)
    return walks and tuple(tuple(gs.words[e[3]] for e in walk if e[1] == 0)
                           for walk in walks)


def _require_uniquely_decodable(gs: GeneratorSet) -> None:
    """Raise NonUniquelyDecodableError, naming a word with two factorizations."""
    if gs.words and _prefix_confusable(gs.graph, gs.words) is None:
        return  # distinguishable on every common prefix: a prefix code
    pair = two_factorizations(gs)
    if pair is not None:
        a, b = (".".join("".join(gs.graph.labels[x] for x in w) for w in p) for p in pair)
        raise NonUniquelyDecodableError(
            f"generator set is not uniquely decodable: {a} = {b}")


def enumerate_codewords(gs: GeneratorSet, length: int, cap: int = 10 ** 6) -> list[Word]:
    """All distinct concatenations of exactly the given length, sorted."""
    expected = _count_factorizations(gs, length)[length]
    if expected > cap:
        raise BudgetExceededError(f"{expected} codewords exceed enumeration cap {cap}")
    by_length: list[set[Word]] = [set() for _ in range(length + 1)]
    by_length[0].add(())
    for L in range(1, length + 1):
        for w in gs.words:
            if len(w) <= L:
                for prefix in by_length[L - len(w)]:
                    by_length[L].add(prefix + w)
    return sorted(by_length[length])


@dataclass(frozen=True)
class RateResult:
    nu: float
    r_bits: float
    char_poly: IntPolynomial


def rate(gs: GeneratorSet) -> RateResult:
    """Average symbols per channel use as the characteristic polynomial root.

    When the word-length gcd d is not 1 the value is read along multiples of
    d; the root of the polynomial is unchanged.  The root is the rate only
    for a uniquely decodable set; any other is rejected.
    """
    _require_uniquely_decodable(gs)
    poly = gs.characteristic_polynomial()
    nu = unique_positive_root(poly)
    return RateResult(nu, math.log2(nu), poly)
