"""Intermingled codes: succession rules, transition graphs, spectral rates.

A transmission state is one counter per generator word, giving the position
reached inside that word (0 = closed).  The succession rule picks which words
may emit their next letter; advancing a word wraps its counter modulo the word
length, so returning to all-zeros closes every word.
"""

from __future__ import annotations

import json
import math
import operator
from collections import defaultdict, deque
from dataclasses import dataclass, field
from itertools import compress, count
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .graphs import BudgetExceededError, ChannelGraph, Word
from .numerics import count_walks, lump, spectral_radius, trim

if TYPE_CHECKING:
    from .varlen import GeneratorSet

State = tuple[int, ...]
Edge = tuple[int, int, int, int]  # (from, to, letter, word index)


@dataclass(frozen=True)
class SuccessionRule:
    """Maps a transmission state to the indices of transmittable words."""

    family: str
    choose: Callable[[State, GeneratorSet], tuple[int, ...]] = field(compare=False)
    params: dict = field(default_factory=dict)

    def __call__(self, state: State, gs: GeneratorSet) -> tuple[int, ...]:
        choices = self.choose(state, gs)
        if not choices:
            raise ValueError(f"succession rule returned no choice for state {state}")
        return choices


def varlen_rule() -> SuccessionRule:
    """Plain concatenation: everything from a closed state, else the open word."""
    def choose(state: State, gs: GeneratorSet) -> tuple[int, ...]:
        if not any(state):
            return tuple(range(len(gs.words)))
        return tuple(compress(range(len(state)), state))
    return SuccessionRule("varlen", choose)


def single_open_rule(hub: int = 0) -> SuccessionRule:
    """One designated hub word stays always available next to the open word."""
    if hub < 0:
        raise ValueError(f"hub index {hub} is negative")

    def choose(state: State, gs: GeneratorSet) -> tuple[int, ...]:
        if hub >= len(state):
            raise ValueError(f"hub index {hub} is outside the {len(state)} words")
        if not any(state[:hub]) and not any(state[hub + 1:]):
            return tuple(range(len(gs.words)))
        return tuple(sorted({hub, *compress(range(len(state)), state)}))
    return SuccessionRule("single-open", choose, {"hub": hub})


def table_rule(table: dict[State, Sequence[int]]) -> SuccessionRule:
    def choose(state: State, gs: GeneratorSet) -> tuple[int, ...]:
        try:
            choices = tuple(table[state])
        except KeyError:
            raise ValueError(f"succession table has no entry for state {state}") from None
        if not all(0 <= i < len(state) for i in choices):
            raise ValueError(f"succession table entry {choices} is outside the {len(state)} words")
        return choices
    return SuccessionRule("table", choose,
                          {"table": {k: tuple(v) for k, v in table.items()}})


def full_rule() -> SuccessionRule:
    """Every word is always transmittable; generally not zero-error."""
    def choose(state: State, gs: GeneratorSet) -> tuple[int, ...]:
        return tuple(range(len(gs.words)))
    return SuccessionRule("full", choose)


def rule_from_json(data: dict) -> SuccessionRule:
    family = data["family"]
    if family == "varlen":
        return varlen_rule()
    if family == "single-open":
        return single_open_rule(operator.index(data.get("hub", 0)))
    if family == "full":
        return full_rule()
    if family == "table":
        table = {tuple(json.loads(k) if isinstance(k, str) else k):
                 tuple(map(operator.index, v)) for k, v in data["table"].items()}
        return table_rule(table)
    raise ValueError(f"unknown succession rule family {family!r}")


@dataclass(frozen=True)
class TransitionGraph:
    """Directed multigraph over reachable transmission states; state 0 is the
    zero state, where every code sequence starts and ends.

    Edges are letter-labelled: two rule choices reaching the same successor
    with different letters are two edges, since walk counts must count
    emitted sequences rather than state paths.
    """

    states: tuple[State, ...]
    edges: tuple[Edge, ...]

    def state_count(self) -> int:
        return len(self.states)

    def successors(self) -> list[list[int]]:
        """Target of every edge, listed by source state."""
        succ: list[list[int]] = [[] for _ in self.states]
        for i, j, _letter, _wi in self.edges:
            succ[i].append(j)
        return succ


def _advance(state: State, word_index: int, gs: GeneratorSet) -> tuple[State, int]:
    w = gs.words[word_index]
    z = state[word_index]
    letter = w[z]
    nxt = list(state)
    nxt[word_index] = (z + 1) % len(w)
    return tuple(nxt), letter


def build_transition_graph(gs: GeneratorSet, rule: SuccessionRule,
                           state_budget: int = 10 ** 6) -> TransitionGraph:
    """Explore states from the all-zeros vector and record labelled edges."""
    if not gs.words:
        raise ValueError("need a non-empty generator set")
    zero: State = tuple(0 for _ in gs.words)
    index = {zero: 0}
    states = [zero]
    edges = []
    for i, s in enumerate(states):  # breadth first: states grows while read
        for wi in rule(s, gs):
            nxt, letter = _advance(s, wi, gs)
            j = index.get(nxt)
            if j is None:
                if len(states) >= state_budget:
                    raise BudgetExceededError(f"state budget {state_budget} exceeded")
                j = index[nxt] = len(states)
                states.append(nxt)
            edges.append((i, j, letter, wi))
    return TransitionGraph(tuple(states), tuple(edges))


def _length_successors(gs: GeneratorSet, rule: SuccessionRule) -> tuple[list[list[int]], int]:
    """Successor lists of a graph that lumps to the transition graph's quotient,
    and that graph's state count.  Under the varlen and single-open rules a state
    is (hub position, letters left in the one open non-hub word, whether that word
    is below the hub), edges in the rule's word order; other rules build the graph.
    """
    hub = rule.params.get("hub", -1)  # varlen: no word is the hub
    if rule.family not in ("varlen", "single-open") or not gs.words or hub >= len(gs.words):
        tg = build_transition_graph(gs, rule)  # raises for the bad inputs
        return tg.successors(), tg.state_count()
    lengths = [len(w) for w in gs.words]
    m = lengths[hub] if hub >= 0 else 1
    states, successors = [(0, 0, False)], []
    index = {states[0]: 0}
    for p, left, below in states:  # breadth first: states grows while read
        if not left:
            targets = [((p + 1) % m, 0, False) if i == hub else (p, n - 1, n > 1 and i < hub)
                       for i, n in enumerate(lengths)]
        else:
            targets = [(p, left - 1, below and left > 1)]
            if hub >= 0:  # the hub's edge comes second when the open word is below it
                targets.insert(below, ((p + 1) % m, left, below))
        successors.append([index.setdefault(t, len(index)) for t in targets])
        states += dict.fromkeys(t for t in targets if index[t] >= len(states))  # new ones
    return successors, m * (1 + sum(n - 1 for i, n in enumerate(lengths) if i != hub))


def count_sequences(tg: TransitionGraph, up_to: int) -> list[int]:
    """Closed-walk counts from the zero state, exact big integers."""
    return _count(tg.successors(), up_to)


def _count(successors: list[list[int]], up_to: int) -> list[int]:
    """Closed walks at state 0 of the successor lists, counted on the lumped
    quotient, which has the same counts (``numerics.lump``).  The CLI passes
    the lists of ``_length_successors``."""
    quotient, zero = lump(successors, 0)
    return count_walks(quotient, zero, (zero,), up_to)


@dataclass(frozen=True)
class IntermingledRate:
    nu: float
    r_bits: float


def rate(tg: TransitionGraph) -> IntermingledRate:
    """Growth of the closed walks at the zero state (``_rate``)."""
    return _rate(tg.successors())


def _rate(successors: list[list[int]]) -> IntermingledRate:
    """Growth of the closed walks at state 0 of the successor lists, as the
    spectral radius of the trimmed lumped quotient.

    Only states on a closed walk at zero carry codewords, and trimming to
    them leaves the zero state alone or one strongly connected graph, whose
    spectral radius is the growth rate of its closed walks at any state
    (Perron-Frobenius).  The quotient B of ``numerics.lump`` satisfies
    A P = P B, so B's spectrum is part of A's, and it has the same closed
    walks at zero as A; its trimmed graph is again one strongly connected
    graph, so both spectral radii are the growth rate of the same sequence.
    The CLI passes the lists of ``_length_successors``.
    """
    quotient, zero = lump(successors, 0)
    nu = spectral_radius(trim(quotient, zero, (zero,)))
    return IntermingledRate(nu, math.log2(nu) if nu > 0 else float("-inf"))


@dataclass(frozen=True)
class IntermingledVerifyResult:
    ok: bool
    violation: Optional[tuple[Word, Word]]
    exact: bool  # always True: the search is exhaustive or raises


def verify_zero_error(gs: GeneratorSet, rule: SuccessionRule,
                      product_state_budget: int = 250_000) -> IntermingledVerifyResult:
    """Search for two distinct walks of the encoder that a receiver confuses.

    A pair product machine tracks both encoders' states plus a flag for "the
    walks differ somewhere"; both return to the zero state with the flag set
    is a violation, and exhausting the finite product space proves the code
    zero-error for all lengths.  A first search pairs confusable letters
    (equal or adjacent in the channel graph) and flags differing letters; if
    it finds nothing, a second pairs equal letters and flags differing edges,
    so its witness is one sequence emitted by two walks.  Only reachable
    product states are visited; visiting more than ``product_state_budget``
    in one search raises BudgetExceededError.  Neither runs when the trie
    test ``_prefix_confusable`` finds no confusable words: under varlen, the
    rule of ``varlen.verify_zero_error``, the graph is the flower automaton;
    under single-open, a one-letter hub h with no neighbour and in no word of
    W makes {h} u W zero-error exactly when W is.
    """
    words = gs.words if rule.family == "varlen" else None
    hub = rule.params.get("hub", len(gs.words))  # a rule without a hub is not proven here
    if rule.family == "single-open" and hub < len(gs.words):
        (h, *more), rest = gs.words[hub], gs.words[:hub] + gs.words[hub + 1:]
        words = None if more or gs.graph.neighbor_masks[h] or any(h in w for w in rest) else rest
    if gs.words and words is not None and not _prefix_confusable(gs.graph, words):
        return IntermingledVerifyResult(True, None, True)
    tg = build_transition_graph(gs, rule)
    confusable = [m | 1 << v for v, m in enumerate(gs.graph.neighbor_masks)]
    walks = _pair_search(tg, lambda la, lb: confusable[la] >> lb & 1,
                         lambda ea, eb: ea[2] != eb[2], product_state_budget)
    if walks is None:
        # parallel edges are distinct tuples of tg.edges, so identity tells them apart
        walks = _pair_search(tg, lambda la, lb: la == lb,
                             lambda ea, eb: ea is not eb, product_state_budget)
    violation = walks and tuple(tuple(e[2] for e in walk) for walk in walks)
    return IntermingledVerifyResult(walks is None, violation, True)


def _prefix_confusable(graph: ChannelGraph, words: Sequence[Word]) -> bool:
    """Whether two of the words are confusable letter by letter on their common
    length, from pairs of trie nodes stepped by confusable letters.  The word
    ending at u is confusable with every other word through v; paired nodes share
    a depth, so it passes through v only when u = v.  False proves a zero-error
    prefix code: unequal concatenations first differ in two distinguishable words."""
    children, ends, fresh = defaultdict(dict), set(), count(1)  # the root is node 0
    for w in words:
        node = 0
        for x in w:
            node = children[node].setdefault(x, next(fresh))
        ends.add(node)
    confusable = [m | 1 << v for v, m in enumerate(graph.neighbor_masks)]
    pairs, seen = [(0, 0)], {(0, 0)}
    for u, v in pairs:  # grows while read
        if u in ends and (u != v or children[u]):
            return True
        for x, cu in children[u].items():
            for y, cv in children[v].items():
                if confusable[x] >> y & 1 and (cu, cv) not in seen:
                    seen.add((cu, cv))
                    pairs.append((cu, cv))
    return False


def _pair_search(tg: TransitionGraph, compatible, differ,
                 budget) -> Optional[tuple[tuple[Edge, ...], tuple[Edge, ...]]]:
    """Two walks of tg from the zero state back to it, as edge tuples,
    compatible letter by letter and differing at some step, or None if there
    are none.

    ``compatible`` takes two letters, ``differ`` two edges; each state's
    out-edges are tried in ``tg.edges`` order, which fixes the witness.
    """
    out: list[list[Edge]] = [[] for _ in tg.states]
    for e in tg.edges:
        out[e[0]].append(e)
    start, goal = (0, 0, False), (0, 0, True)
    parent: dict[tuple[int, int, bool], Optional[tuple]] = {start: None}
    queue = deque([start])
    while queue:
        a, b, flag = node = queue.popleft()
        for ea in out[a]:
            _, na, la, _ = ea
            for eb in out[b]:
                if not compatible(la, eb[2]):
                    continue  # no pair of codewords continues this way
                nxt = (na, eb[1], flag or differ(ea, eb))
                if nxt in parent:
                    continue
                if nxt != goal and len(parent) >= budget:
                    raise BudgetExceededError(f"product state budget {budget} exceeded")
                parent[nxt] = (node, ea, eb)
                if nxt == goal:
                    return _reconstruct(parent, goal)
                queue.append(nxt)
    return None


def _reconstruct(parent, node) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    steps = []
    while parent[node] is not None:
        node, ea, eb = parent[node]
        steps.append((ea, eb))
    return tuple(zip(*reversed(steps)))
