"""Computations made apart from zecap, used to check the answers it prints.

Nothing here imports zecap.  Graphs are plain adjacency sets over vertices
0..n-1, words are tuples of vertex indices, expressions are parsed by this
module's own parser.  Each routine is the textbook method, written for
clarity rather than speed: the benchmark runs these checks outside the timed
region.
"""

from __future__ import annotations

import math
import re
from collections import deque
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# Channel graphs as disjoint unions of named components


class Graph:
    """A channel graph built from components; keeps the structure for theta."""

    def __init__(self, components: Sequence[tuple[str, int]]):
        self.components = tuple(components)
        self.adj: list[set[int]] = []
        for kind, size in self.components:
            off = len(self.adj)
            self.adj.extend(set() for _ in range(size))
            if kind == "cycle":
                pairs = [(i, (i + 1) % size) for i in range(size)]
            elif kind == "complete":
                pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
            elif kind == "path":
                pairs = [(i, i + 1) for i in range(size - 1)]
            elif kind == "edgeless":
                pairs = []
            else:
                raise ValueError(f"unknown component kind {kind!r}")
            for i, j in pairs:
                self.adj[off + i].add(off + j)
                self.adj[off + j].add(off + i)

    @property
    def n(self) -> int:
        return len(self.adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def confusable(self, a: int, b: int) -> bool:
        """Equal or adjacent letters can be confused."""
        return a == b or b in self.adj[a]


def theta(g: Graph) -> float:
    """Lovász theta, additive over the components of a disjoint union."""
    total = 0.0
    for kind, size in g.components:
        if kind == "edgeless":
            total += size
        elif kind == "complete":
            total += 1
        elif kind == "path":
            total += (size + 1) // 2
        elif kind == "cycle" and size % 2 == 0:
            total += size // 2
        else:
            c = math.cos(math.pi / size)
            total += size * c / (1 + c)
    return total


# ---------------------------------------------------------------------------
# Independence numbers of strong powers


def power_vertex_digits(v: int, n: int, l: int) -> list[int]:
    """Coordinates of vertex v of G^l, first factor most significant."""
    digits = []
    for _ in range(l):
        digits.append(v % n)
        v //= n
    return digits[::-1]


def strong_adjacent(g: Graph, l: int, u: int, v: int) -> bool:
    """Distinct vertices of G^l are adjacent iff every coordinate pair is
    equal or adjacent in G."""
    if u == v:
        return False
    du = power_vertex_digits(u, g.n, l)
    dv = power_vertex_digits(v, g.n, l)
    return all(g.confusable(a, b) for a, b in zip(du, dv))


def is_independent_in_power(g: Graph, l: int, vertices: Sequence[int]) -> bool:
    vs = list(vertices)
    if len(set(vs)) != len(vs) or any(not 0 <= v < g.n ** l for v in vs):
        return False
    return not any(strong_adjacent(g, l, vs[i], vs[j])
                   for i in range(len(vs)) for j in range(i + 1, len(vs)))


def alpha_formula(components: Sequence[tuple[str, int]], l: int) -> Optional[int]:
    """alpha(G^l) from closed forms, or None when none is known here.

    Odd cycles: floor(n/2) at l=1, floor(n*floor(n/2)/2) at l=2 (Hales, 1973)
    and 10 for C5 at l=3.  Even cycles C_2m: m^l; P3: 2^l; K_n: 1.  A cycle
    plus an isolated vertex: alpha(G)+1 at l=1 and alpha(G^2)+2alpha(G)+1 at
    l=2.
    """
    if l == 0:
        return 1
    comps = list(components)
    if len(comps) == 2 and ("edgeless", 1) in comps:
        rest = [c for c in comps if c != ("edgeless", 1)] or [("edgeless", 1)]
        a1 = alpha_formula(rest, 1)
        if l == 1:
            return None if a1 is None else a1 + 1
        a2 = alpha_formula(rest, 2)
        if l == 2 and a1 is not None and a2 is not None:
            return a2 + 2 * a1 + 1
        return None
    if len(comps) != 1:
        return None
    kind, n = comps[0]
    if kind == "complete":
        return 1
    if kind == "path" and n == 3:
        return 2 ** l
    if kind == "cycle" and n % 2 == 0:
        return (n // 2) ** l
    if kind == "cycle":
        if l == 1:
            return n // 2
        if l == 2:
            return n * (n // 2) // 2
        if l == 3 and n == 5:
            return 10
    return None


def max_independent_set(adj: Sequence[set[int]]) -> list[int]:
    """Exhaustive maximum independent set: branch on the closed
    neighbourhood of a minimum-degree vertex, one of which is in every
    maximal independent set."""
    best: list[int] = []

    def search(cand: frozenset, chosen: list[int]) -> None:
        nonlocal best
        if len(chosen) + len(cand) <= len(best):
            return
        if not cand:
            best = list(chosen)
            return
        v = min(cand, key=lambda x: (len(adj[x] & cand), x))
        for u in sorted((adj[v] & cand) | {v}):
            chosen.append(u)
            search(cand - adj[u] - {u}, chosen)
            chosen.pop()

    search(frozenset(range(len(adj))), [])
    return sorted(best)


def power_adjacency(g: Graph, l: int) -> list[set[int]]:
    n = g.n ** l
    return [{v for v in range(n) if strong_adjacent(g, l, u, v)} for u in range(n)]


# ---------------------------------------------------------------------------
# Generator sets: distinguishability, unique decodability, counts, root


def confusable_words(g: Graph, a: Word, b: Word) -> bool:
    """Position-wise confusable over the shorter length."""
    return all(g.confusable(x, y) for x, y in zip(a, b))


def uniquely_decodable(words: Iterable[Word]) -> bool:
    """Sardinas-Patterson test on a finite set of distinct words."""
    code = set(words)

    def dangling(xs, ys):
        out = set()
        for x in xs:
            for y in ys:
                if len(x) < len(y) and y[:len(x)] == x:
                    out.add(y[len(x):])
        return out

    current = dangling(code, code)
    seen: set = set()
    while current:
        if current & code:
            return False
        frozen = frozenset(current)
        if frozen in seen:
            return True
        seen.add(frozen)
        current = dangling(current, code) | dangling(code, current)
    return True


def histogram_counts(lengths: Iterable[int], up_to: int) -> list[int]:
    """Number of word sequences of each total length, by the length
    histogram recurrence N[L] = sum_l n_l N[L-l]."""
    hist: dict[int, int] = {}
    for l in lengths:
        hist[l] = hist.get(l, 0) + 1
    counts = [1]
    for L in range(1, up_to + 1):
        counts.append(sum(c * counts[L - l] for l, c in hist.items() if l <= L))
    return counts


def characteristic_root(lengths: Iterable[int]) -> float:
    """Unique positive x with sum_l n_l x^-l = 1, by bisection."""
    lengths = list(lengths)

    def excess(x: float) -> float:
        return sum(x ** -l for l in lengths) - 1.0

    lo, hi = 1e-9, 1.0 + len(lengths)
    for _ in range(200):
        mid = (lo + hi) / 2
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Intermingled codes: transmission states, walks, pair product


class Encoder:
    """Transmission-state graph of a generator set under a succession rule.

    A state holds, per word, the position reached in it (0 = closed).  The
    rule picks the words that may emit next: ``varlen`` every word from the
    all-closed state and otherwise only the open word; ``single-open`` also
    keeps the hub word available while another word is open; ``full`` every
    word always.  Emitting wraps the word's position modulo its length.
    """

    def __init__(self, words: Sequence[Word], family: str, hub: int = 0):
        self.words = [tuple(w) for w in words]
        self.family = family
        self.hub = hub
        zero = tuple(0 for _ in self.words)
        self.index = {zero: 0}
        self.states = [zero]
        self.out: list[list[tuple[int, int, int]]] = []  # (dst, letter, word)
        pos = 0
        while pos < len(self.states):
            s = self.states[pos]
            pos += 1
            row = []
            for wi in self._choices(s):
                nxt = list(s)
                nxt[wi] = (s[wi] + 1) % len(self.words[wi])
                nxt = tuple(nxt)
                if nxt not in self.index:
                    self.index[nxt] = len(self.states)
                    self.states.append(nxt)
                row.append((self.index[nxt], self.words[wi][s[wi]], wi))
            self.out.append(row)

    def _choices(self, s) -> list[int]:
        everything = list(range(len(self.words)))
        if self.family == "full":
            return everything
        if self.family == "varlen":
            open_words = [i for i, z in enumerate(s) if z]
            return open_words or everything
        if self.family == "single-open":
            if all(z == 0 for i, z in enumerate(s) if i != self.hub):
                return everything
            return sorted({self.hub} | {i for i, z in enumerate(s) if z})
        raise ValueError(f"unknown rule family {self.family!r}")

    @property
    def state_count(self) -> int:
        return len(self.states)

    def closed_walk_counts(self, up_to: int) -> list[int]:
        """Closed walks from the all-closed state, one sparse step per length."""
        vec = {0: 1}
        out = [1]
        for _ in range(up_to):
            nxt: dict[int, int] = {}
            for s, c in vec.items():
                for d, _letter, _wi in self.out[s]:
                    nxt[d] = nxt.get(d, 0) + c
            vec = nxt
            out.append(vec.get(0, 0))
        return out

    def emits(self, letters: Sequence[int]) -> bool:
        """Whether some closed walk emits exactly this letter sequence."""
        current = {0}
        for x in letters:
            current = {d for s in current for d, letter, _wi in self.out[s]
                       if letter == x}
            if not current:
                return False
        return 0 in current

    def confusable_walks(self, g: Graph) -> Optional[tuple[Word, Word]]:
        """Two distinct closed walks whose letters are pairwise confusable.

        Breadth-first search over (state, state, walks-differ) pairs; the
        flag is set when the walks take different edges, so two walks that
        emit the same string count.  Returns their letter sequences.
        """
        start = (0, 0, False)
        parent = {start: None}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            a, b, differ = node
            for ea in self.out[a]:
                for eb in self.out[b]:
                    if not g.confusable(ea[1], eb[1]):
                        continue
                    nxt = (ea[0], eb[0], differ or ea != eb)
                    if nxt in parent:
                        continue
                    parent[nxt] = (node, ea[1], eb[1])
                    if nxt == (0, 0, True):
                        sa, sb = [], []
                        cur = nxt
                        while parent[cur] is not None:
                            cur, la, lb = parent[cur]
                            sa.append(la)
                            sb.append(lb)
                        return tuple(reversed(sa)), tuple(reversed(sb))
                    queue.append(nxt)
        return None


# ---------------------------------------------------------------------------
# Regular expressions: parser, position automaton, subset DFA


def parse_regex(text: str):
    """Same syntax as the zecap CLI: digits are letters, ``+`` union,
    juxtaposition or ``.`` concatenation, ``*`` star, ``@`` the empty word,
    ``#`` the empty language.  Returns nested tuples."""
    pos = 0

    def peek():
        return text[pos] if pos < len(text) else None

    def union():
        nonlocal pos
        node = concat()
        while peek() == "+":
            pos += 1
            node = ("+", node, concat())
        return node

    def concat():
        nonlocal pos
        node = postfix()
        while True:
            c = peek()
            if c == ".":
                pos += 1
                node = (".", node, postfix())
            elif c is not None and (c.isdigit() or c in "(@#"):
                node = (".", node, postfix())
            else:
                return node

    def postfix():
        nonlocal pos
        node = atom()
        while peek() == "*":
            pos += 1
            node = ("*", node)
        return node

    def atom():
        nonlocal pos
        c = peek()
        if c == "(":
            pos += 1
            node = union()
            if peek() != ")":
                raise ValueError(f"missing ')' in {text!r}")
            pos += 1
            return node
        if c in ("@", "#"):
            pos += 1
            return (c,)
        if c is not None and c.isdigit():
            pos += 1
            return ("a", int(c))
        raise ValueError(f"unexpected {c!r} at {pos} in {text!r}")

    node = union()
    if pos != len(text):
        raise ValueError(f"trailing input in {text!r}")
    return node


class PositionAutomaton:
    """Glushkov automaton: one state per letter occurrence plus a start
    state.  It is unambiguous exactly when the expression is."""

    def __init__(self, expr):
        self.letter: list[int] = []
        self.follow: list[set[int]] = []
        nullable, first, last = self._walk(expr)
        self.start_next = first
        self.final = set(last)
        self.start_final = nullable

    def _walk(self, node):
        op = node[0]
        if op == "#":
            return False, set(), set()
        if op == "@":
            return True, set(), set()
        if op == "a":
            p = len(self.letter)
            self.letter.append(node[1])
            self.follow.append(set())
            return False, {p}, {p}
        if op == "+":
            n1, f1, l1 = self._walk(node[1])
            n2, f2, l2 = self._walk(node[2])
            return n1 or n2, f1 | f2, l1 | l2
        if op == ".":
            n1, f1, l1 = self._walk(node[1])
            n2, f2, l2 = self._walk(node[2])
            for p in l1:
                self.follow[p] |= f2
            return (n1 and n2, f1 | f2 if n1 else f1, l1 | l2 if n2 else l2)
        n1, f1, l1 = self._walk(node[1])  # star
        for p in l1:
            self.follow[p] |= f1
        return True, f1, l1

    def successors(self, state: int) -> set[int]:
        """State -1 is the start state."""
        return self.start_next if state < 0 else self.follow[state]

    def accepting(self, state: int) -> bool:
        return self.start_final if state < 0 else state in self.final

    def ambiguous_word(self) -> Optional[Word]:
        """A word with two accepting paths, or None if there is none."""
        start = (-1, -1, False)
        parent = {start: None}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            p, q, differ = node
            if differ and self.accepting(p) and self.accepting(q):
                word = []
                while parent[node] is not None:
                    node, x = parent[node]
                    word.append(x)
                return tuple(reversed(word))
            for p2 in self.successors(p):
                for q2 in self.successors(q):
                    if self.letter[p2] != self.letter[q2]:
                        continue
                    nxt = (p2, q2, differ or p2 != q2)
                    if nxt not in parent:
                        parent[nxt] = (node, self.letter[p2])
                        queue.append(nxt)
        return None

    def determinize(self) -> "SubsetDfa":
        return SubsetDfa(self)


class SubsetDfa:
    """Reachable subsets of the position automaton (no sink state)."""

    def __init__(self, pa: PositionAutomaton):
        start = frozenset([-1])
        self.index = {start: 0}
        self.subsets = [start]
        self.delta: list[dict[int, int]] = []
        pos = 0
        while pos < len(self.subsets):
            cur = self.subsets[pos]
            pos += 1
            by_letter: dict[int, set[int]] = {}
            for s in cur:
                for t in pa.successors(s):
                    by_letter.setdefault(pa.letter[t], set()).add(t)
            row = {}
            for x, targets in sorted(by_letter.items()):
                key = frozenset(targets)
                if key not in self.index:
                    self.index[key] = len(self.subsets)
                    self.subsets.append(key)
                row[x] = self.index[key]
            self.delta.append(row)
        self.accepting = {i for i, sub in enumerate(self.subsets)
                          if any(pa.accepting(s) for s in sub)}

    @property
    def state_count(self) -> int:
        return len(self.subsets)

    def word_counts(self, up_to: int) -> list[int]:
        vec = {0: 1}
        out = []
        for L in range(up_to + 1):
            if L:
                nxt: dict[int, int] = {}
                for s, c in vec.items():
                    for t in self.delta[s].values():
                        nxt[t] = nxt.get(t, 0) + c
                vec = nxt
            out.append(sum(c for s, c in vec.items() if s in self.accepting))
        return out

    def equivalent_to(self, alphabet: Sequence[int], table: Sequence[Sequence[int]],
                      start: int, accepting: set[int]) -> bool:
        """Language equality with a total DFA, by a product search; a
        missing move here goes to an implicit dead state (None)."""
        col = {x: i for i, x in enumerate(alphabet)}
        letters = set(alphabet) | {x for row in self.delta for x in row}
        seen = {(0, start)}
        queue = deque(seen)
        while queue:
            mine, theirs = queue.popleft()
            if (mine in self.accepting) != (theirs in accepting):
                return False
            for x in letters:
                m2 = self.delta[mine].get(x) if mine is not None else None
                if x not in col:
                    if m2 is not None:
                        return False
                    continue
                pair = (m2, table[theirs][col[x]])
                if pair not in seen:
                    seen.add(pair)
                    queue.append(pair)
        return True


def moore_classes(table: Sequence[Sequence[int]], accepting: set[int]) -> int:
    """Number of Myhill-Nerode classes of a total DFA's states."""
    block = [int(s in accepting) for s in range(len(table))]
    while True:
        sigs: dict = {}
        new = [sigs.setdefault((block[s], tuple(block[t] for t in table[s])), len(sigs))
               for s in range(len(table))]
        if len(set(new)) == len(set(block)):
            return len(set(new))
        block = new


# ---------------------------------------------------------------------------
# Printed rational fractions


_TERM = re.compile(r"^([+-]?)(\d*)(z(?:\^(\d+))?)?$")


def parse_polynomial(text: str) -> list[int]:
    """Coefficients, lowest degree first, of a polynomial printed as
    ``-8z^2 -2z +1``."""
    coeffs: dict[int, int] = {}
    for token in text.split():
        m = _TERM.match(token)
        if not m or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad polynomial term {token!r} in {text!r}")
        mag = int(m.group(2)) if m.group(2) else 1
        deg = 0 if not m.group(3) else int(m.group(4) or 1)
        coeffs[deg] = coeffs.get(deg, 0) + (-mag if m.group(1) == "-" else mag)
    top = max(coeffs, default=0)
    return [coeffs.get(i, 0) for i in range(top + 1)]


def parse_fraction(text: str) -> tuple[list[int], list[int]]:
    """(numerator, denominator) of ``(num) / (den)`` or a bare polynomial."""
    if " / " not in text:
        return parse_polynomial(text), [1]
    num, den = text.split(" / ")
    return parse_polynomial(num.strip("()")), parse_polynomial(den.strip("()"))


def expand_series(num: Sequence[int], den: Sequence[int], up_to: int) -> list[Fraction]:
    out: list[Fraction] = []
    for L in range(up_to + 1):
        acc = Fraction(num[L] if L < len(num) else 0)
        for j in range(1, min(L, len(den) - 1) + 1):
            acc -= den[j] * out[L - j]
        out.append(acc / den[0])
    return out


def growth_from_denominator(den: Sequence[int]) -> float:
    """1 / (smallest positive real root of the denominator), with sympy's
    exact real-root isolation.  For a counting series in lowest terms this is
    the growth rate (Pringsheim's theorem)."""
    import sympy

    z = sympy.Symbol("z")
    poly = sympy.Poly(list(reversed(den)), z)
    roots = [r for r in poly.real_roots() if r > 0]
    if not roots:
        raise ValueError("denominator has no positive real root")
    return float(1 / sympy.N(min(roots), 30))
