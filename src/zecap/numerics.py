"""Exact integer polynomials, rational fractions, recurrences and root finding.

All counting stays in big integers (or exact :class:`~fractions.Fraction`);
floating point appears only in roots and spectral radii.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

ABERTH_TOL = 1e-10
ABERTH_MAX_ITER = 200
POWER_ITER_TOL = 1e-12


class MultipleRootError(ArithmeticError):
    """Closed forms with repeated characteristic roots are not supported."""


@dataclass(frozen=True)
class IntPolynomial:
    """Polynomial with arbitrary-precision integer coefficients.

    ``coefficients[i]`` is the coefficient of degree i; trailing zeros are
    stripped so the leading coefficient is nonzero unless the polynomial is 0.
    """

    coefficients: tuple[int, ...]

    def __init__(self, coefficients: Sequence[int]):
        coeffs = [int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1  # -1 for the zero polynomial

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __call__(self, x):
        acc = 0 * x
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coefficients])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial([])
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    out[i + j] += a * b
        return IntPolynomial(out)

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial([k * c for c in self.coefficients])

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coefficients)][1:])

    def content(self) -> int:
        return math.gcd(*self.coefficients) if self.coefficients else 0

    def primitive(self) -> "IntPolynomial":
        c = self.content()
        if c in (0, 1):
            return self
        return IntPolynomial([x // c for x in self.coefficients])

    def constant_term(self) -> int:
        return self.coefficients[0] if self.coefficients else 0

    def leading(self) -> int:
        return self.coefficients[-1] if self.coefficients else 0

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coefficients[i]
            if c == 0:
                continue
            mag = "" if (abs(c) == 1 and i > 0) else str(abs(c))
            var = "" if i == 0 else ("X" if i == 1 else f"X^{i}")
            parts.append(("-" if c < 0 else ("+" if parts else "")) +
                         (mag + var if mag or var else str(abs(c))))
        return " ".join(parts) if parts else "0"


def _pseudo_remainder(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    # exact integer pseudo-remainder lc(b)^j * a mod b, where j >= 0 counts
    # the reduction steps taken
    lead = b.leading()
    r = list(a.coefficients)
    db = b.degree
    while len(r) - 1 >= db and any(r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db:
            break
        shift = len(r) - 1 - db
        top = r[-1]
        r = [c * lead for c in r]
        for i, bc in enumerate(b.coefficients):
            r[shift + i] -= top * bc
        r.pop()
    return IntPolynomial(r)


def polynomial_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """GCD over the integers via primitive pseudo-remainder sequence, with a
    positive leading coefficient."""
    a, b = a.primitive(), b.primitive()
    while not b.is_zero:  # a first step with deg a < deg b swaps them
        a, b = b, _pseudo_remainder(a, b).primitive()
    return -a if a.leading() < 0 else a


@dataclass(frozen=True)
class RationalFraction:
    """Quotient of integer polynomials, kept in lowest terms.

    The sign is normalized so the denominator's constant term is positive
    (falling back to a positive leading coefficient when it is zero).
    """

    numerator: IntPolynomial
    denominator: IntPolynomial

    def __init__(self, numerator: IntPolynomial, denominator: IntPolynomial):
        if denominator.is_zero:
            raise ZeroDivisionError("rational fraction with zero denominator")
        numerator, denominator = _cancel(numerator, denominator)
        self._set(numerator, denominator)

    def _set(self, numerator: IntPolynomial, denominator: IntPolynomial) -> None:
        """Store polynomials without a common factor of positive degree,
        after dividing out their common content and fixing the sign."""
        if numerator.is_zero:
            numerator, denominator = IntPolynomial([]), IntPolynomial([1])
        else:
            c = math.gcd(numerator.content(), denominator.content())
            if c > 1:
                numerator = IntPolynomial([x // c for x in numerator.coefficients])
                denominator = IntPolynomial([x // c for x in denominator.coefficients])
            anchor = denominator.constant_term() or denominator.leading()
            if anchor < 0:
                numerator = numerator.scale(-1)
                denominator = denominator.scale(-1)
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    @staticmethod
    def _coprime(numerator: IntPolynomial, denominator: IntPolynomial) -> "RationalFraction":
        """The fraction of polynomials known to have no common factor of
        positive degree: no gcd is taken."""
        f = object.__new__(RationalFraction)
        f._set(numerator, denominator)
        return f

    @staticmethod
    def from_int(k: int) -> "RationalFraction":
        return RationalFraction(IntPolynomial([k]), IntPolynomial([1]))

    @staticmethod
    def z() -> "RationalFraction":
        return _Z

    def __add__(self, other: "RationalFraction") -> "RationalFraction":
        if self.denominator == other.denominator:
            return RationalFraction(self.numerator + other.numerator, self.denominator)
        return RationalFraction(
            self.numerator * other.denominator + other.numerator * self.denominator,
            self.denominator * other.denominator)

    @staticmethod
    def total(fractions: Iterable["RationalFraction"]) -> "RationalFraction":
        """The sum of at least one fraction.  The numerators over one
        denominator are added first, so each denominator costs one reduction."""
        groups: dict[IntPolynomial, IntPolynomial] = {}
        for f in fractions:
            groups[f.denominator] = f.numerator + groups.get(f.denominator, IntPolynomial([]))
        parts = [RationalFraction(n, d) for d, n in groups.items()]
        return sum(parts[1:], parts[0])

    def __mul__(self, other: "RationalFraction") -> "RationalFraction":
        # both factors are in lowest terms, so a common factor of the
        # product pairs one numerator with the other denominator
        n1, d2 = _cancel(self.numerator, other.denominator)
        n2, d1 = _cancel(other.numerator, self.denominator)
        return RationalFraction._coprime(n1 * n2, d1 * d2)

    def __sub__(self, other: "RationalFraction") -> "RationalFraction":
        return self + RationalFraction(other.numerator.scale(-1), other.denominator)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFraction):
            return NotImplemented
        return (self.numerator * other.denominator).coefficients == \
               (other.numerator * self.denominator).coefficients

    def star(self) -> "RationalFraction":
        """1/(1 - f); requires f(0) = 0 so the series is well defined."""
        if self.numerator.constant_term() != 0:
            raise ValueError("star of a series with nonzero constant term")
        # gcd(d, d - n) = gcd(d, n) = 1
        return RationalFraction._coprime(self.denominator, self.denominator - self.numerator)

    def value_at_zero(self) -> Fraction:
        d = self.denominator.constant_term()
        if d == 0:
            raise ZeroDivisionError("fraction has a pole at 0")
        return Fraction(self.numerator.constant_term(), d)

    def __str__(self) -> str:
        num = str(self.numerator).replace("X", "z")
        den = str(self.denominator).replace("X", "z")
        if self.denominator.degree == 0 and self.denominator.leading() == 1:
            return num
        return f"({num}) / ({den})"


def _cancel(a: IntPolynomial, b: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """a and b divided by their polynomial gcd, when it has positive degree."""
    # a constant or zero side leaves nothing of positive degree to divide out
    if a.degree > 0 and b.degree > 0:
        va = next(i for i, c in enumerate(a.coefficients) if c)
        vb = next(i for i, c in enumerate(b.coefficients) if c)
        if va == a.degree or vb == b.degree:
            # a side c z^k: the gcd is z^j, j the least valuation, a shift
            j = min(va, vb)
            return (IntPolynomial(a.coefficients[j:]), IntPolynomial(b.coefficients[j:])) \
                if j else (a, b)
        g = polynomial_gcd(a, b)
        if g.degree > 0:
            return _exact_div(a, g), _exact_div(b, g)
    return a, b


def _exact_div(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """a / b over the integers; ArithmeticError unless b divides a there."""
    num = list(a.coefficients)
    db, lead = b.degree, b.leading()
    out = [0] * (len(num) - db)
    for shift in range(len(out) - 1, -1, -1):
        # a remainder stays behind in num[shift + db]
        q = out[shift] = num[shift + db] // lead
        if q:
            for i, bc in enumerate(b.coefficients):
                num[shift + i] -= q * bc
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return IntPolynomial(out)


_Z = RationalFraction(IntPolynomial([0, 1]), IntPolynomial([1]))


def _is_rate_characteristic(p: IntPolynomial) -> bool:
    # shape X^n - sum a_l X^(n-l), a_l >= 0 not all zero
    if p.degree < 1 or p.leading() != 1:
        return False
    lower = p.coefficients[:-1]
    return all(c <= 0 for c in lower) and any(c < 0 for c in lower)


def _sign_at(p: IntPolynomial, m: int, k: int) -> int:
    """Sign of p(m / 2^k), from the integer 2^(k deg p) p(m / 2^k)."""
    acc, shift = 0, 0
    for c in reversed(p.coefficients):
        acc = acc * m + (c << shift)
        shift += k
    return (acc > 0) - (acc < 0)


def smallest_positive_root(p: IntPolynomial) -> tuple[Fraction, Fraction]:
    """Dyadic lo <= x <= hi, hi - lo < lo / 2^64, around the smallest positive
    root x of p, in exact integer arithmetic; ValueError if there is none.

    Dividing out roots at 0 and repeated factors leaves a square-free q with
    q(0) != 0.  When q's coefficients change sign once, q has exactly one
    positive root (Descartes' rule of signs).  Otherwise, by Sturm's theorem,
    q has V(0) - V(t) roots in (0, t], V(t) the sign changes of q, q',
    -rem(q, q'), ... at t, and bisection on that count isolates x.  Once x is
    isolated, q(t) differs in sign from q(0) exactly when t >= x.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial has no isolated roots")
    q = IntPolynomial(p.coefficients[next(i for i, c in enumerate(p.coefficients) if c):])
    q = _exact_div(q, polynomial_gcd(q, q.derivative()))
    signs = [c > 0 for c in q.coefficients if c]
    once = sum(a != b for a, b in zip(signs, signs[1:])) == 1  # Descartes: one root
    sturm = [] if once else [q, q.derivative()]
    while sturm and sturm[-1].degree > 0:
        # the pseudo-remainder is a positive multiple of the remainder
        # when the divisor's leading coefficient is positive
        b = sturm[-1] if sturm[-1].leading() > 0 else -sturm[-1]
        sturm.append(-_pseudo_remainder(sturm[-2], b).primitive())

    def variations(m: int, k: int) -> int:  # V(m / 2^k)
        signs = [x for x in (_sign_at(s, m, k) for s in sturm) if x]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    v0, sign0 = variations(0, 0), _sign_at(q, 0, 0)
    # every root has modulus below 1 + max |c_i| <= hi (Cauchy)
    lo, hi, k = 0, 1 << max(abs(c) for c in q.coefficients).bit_length(), 0
    inside = 1 if once else v0 - variations(hi, k)  # roots in (lo, hi], none in (0, lo]
    if not inside:
        raise ValueError(f"polynomial {p} has no positive root")
    while inside > 1 or (hi - lo) << 64 >= lo:
        lo, hi, k, mid = 2 * lo, 2 * hi, k + 1, lo + hi
        if inside > 1:
            count = v0 - variations(mid, k)
        else:
            count = int(_sign_at(q, mid, k) != sign0)
        if count:
            hi, inside = mid, count
        else:
            lo = mid
    return Fraction(lo, 1 << k), Fraction(hi, 1 << k)


def unique_positive_root(p: IntPolynomial) -> float:
    """The unique positive root of X^n = sum a_l X^(n-l) with a_l >= 0: the
    inverse of the positive root of 1 - sum a_l z^l, decreasing on (0, inf)."""
    if not _is_rate_characteristic(p):
        raise ValueError("polynomial is not of the form X^n - sum a_l X^(n-l) with a_l >= 0")
    lo, hi = smallest_positive_root(IntPolynomial(list(reversed(p.coefficients))))  # z^n p(1/z)
    return float(2 / (lo + hi))


def aberth_roots(p: IntPolynomial, tol: float = ABERTH_TOL,
                 max_iter: int = ABERTH_MAX_ITER) -> list[complex]:
    """All complex roots by simultaneous (Aberth-Ehrlich) iteration.

    ArithmeticError when no step of ``max_iter`` moves every root by less
    than ``tol``.
    """
    if p.degree < 1:
        raise ValueError("need a non-constant polynomial")
    coeffs = list(p.coefficients)
    roots: list[complex] = []
    while coeffs[0] == 0:  # factor out roots at the origin
        roots.append(0j)
        coeffs.pop(0)
    n = len(coeffs) - 1
    if n == 0:
        return roots
    lead = coeffs[-1]
    radius = 1.0 + max(abs(c) for c in coeffs[:-1]) / abs(lead)
    zs = [radius * cmath.exp(2j * math.pi * (k + 0.25) / n) for k in range(n)]
    dp = [i * c for i, c in enumerate(coeffs)][1:]

    def horner(cs, x):
        acc = 0j
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    for _ in range(max_iter):
        offsets = []
        for k, z in enumerate(zs):
            pv = horner(coeffs, z)
            dv = horner(dp, z)
            if dv == 0:
                offsets.append(0.0)
                continue
            ratio = pv / dv
            s = sum(1 / (z - zj) for j, zj in enumerate(zs) if j != k)
            offsets.append(ratio / (1 - ratio * s))
        zs = [z - w for z, w in zip(zs, offsets)]
        if max(abs(w) for w in offsets) < tol:
            break
    else:
        raise ArithmeticError(f"Aberth iteration did not converge in {max_iter} steps")
    for _ in range(5):  # Newton polish
        zs = [z - horner(coeffs, z) / horner(dp, z) if horner(dp, z) != 0 else z
              for z in zs]
    return roots + zs


def count_walks(successors: Sequence[Sequence[int]], start: int,
                accepting: Iterable[int], up_to: int) -> list[int]:
    """Walks of each length 0..up_to from ``start`` that end in ``accepting``.

    ``successors[i]`` lists the target of each edge leaving state i, a target
    repeated once per parallel edge.  Counts are exact big integers.
    """
    n = len(successors)
    accepting = list(accepting)
    vec = [0] * n
    vec[start] = 1
    out = [sum(vec[s] for s in accepting)]
    for _ in range(up_to):
        nxt = [0] * n
        for s, v in enumerate(vec):
            if v:
                for t in successors[s]:
                    nxt[t] += v
        vec = nxt
        out.append(sum(vec[s] for s in accepting))
    return out


def trim(successors: Sequence[Sequence[int]], start: int,
         accepting: Iterable[int]) -> list[list[int]]:
    """Successor lists restricted to the states that are reachable from
    ``start`` and co-reachable to ``accepting``, renumbered in increasing
    order; edges to dropped states drop out, parallel edges stay.

    One forward pass over successors, then one backward pass over the
    predecessors of the reached states.
    """
    reach = {start}
    stack = [start]
    while stack:
        for t in successors[stack.pop()]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    preds: dict[int, list[int]] = {s: [] for s in reach}
    for s in reach:
        for t in successors[s]:
            preds[t].append(s)
    useful = {s for s in accepting if s in reach}
    stack = list(useful)
    while stack:
        for s in preds[stack.pop()]:
            if s not in useful:
                useful.add(s)
                stack.append(s)
    keep = sorted(useful)
    index = {s: i for i, s in enumerate(keep)}
    return [[index[t] for t in successors[s] if t in index] for s in keep]


def lump(successors: Sequence[Sequence[int]], start: int) -> tuple[list[list[int]], int]:
    """Quotient of a multigraph by its coarsest stable partition in which
    ``start`` is a class of its own, and the class of ``start``.

    Stable means that every state of a class has the same multiset of
    successor classes, parallel edges counted.  The partition comes from the
    worklist refinement ``_refine``, shared with ``automata._minimize``.
    Classes are numbered by their first state, and ``quotient[c]`` lists the
    class of each edge target of that state.

    With P the 0/1 matrix of states by classes, stability is A P = P B for
    the adjacency matrices A of the graph and B of the quotient, so
    A^L P = P B^L.  The column of P at the class of ``start`` is the unit
    vector at ``start``, hence walks of length L from ``start`` back to it
    number (A^L)[start, start] = (B^L)[c, c]: ``count_walks`` gives the same
    counts on both graphs (ordinary lumpability; Kemeny and Snell, 1960).
    """
    block, quotient = _refine(successors, [s == start for s in range(len(successors))],
                              ordered=False)
    return quotient, block[start]


def _refine(successors: Sequence[Sequence[int]], labels: Sequence[object],
            ordered: bool) -> tuple[list[int], list[list[int]]]:
    """The coarsest partition refining ``labels`` whose blocks agree on their
    states' successor blocks, as a sequence if ``ordered`` (one per letter of
    a DFA), else as a multiset; the block of each state, numbered by first
    state, and the successor blocks of each block's first state.

    Each round re-signs only the predecessors of the states that moved in the
    round before (Hopcroft, 1971; Valmari and Franceschinis, 2010).  A block's
    clean states share one signature, the one its last split kept; they keep
    the block's number, or else its largest part does, and the other parts
    move to new blocks.
    """
    n = len(successors)
    preds: list[list[int]] = [[] for _ in range(n)]
    for s, targets in enumerate(successors):
        for t in targets:
            preds[t].append(s)
    numbers: dict[object, int] = {}
    block = [numbers.setdefault(label, len(numbers)) for label in labels]
    size = [0] * len(numbers)
    for b in block:
        size[b] += 1
    shared: list[object] = [None] * len(numbers)  # the signature a block's states share

    def signature(s: int) -> tuple:
        targets = map(block.__getitem__, successors[s])
        return tuple(targets) if ordered else tuple(sorted(targets))

    dirty: Iterable[int] = range(n)
    while dirty:
        touched: dict[int, list[int]] = {}
        for s in dirty:
            if size[block[s]] > 1:
                touched.setdefault(block[s], []).append(s)
        moves = []
        for b, states in touched.items():
            clean = len(states) < size[b]
            groups = {shared[b]: []} if clean else {}
            for s in states:
                groups.setdefault(signature(s), []).append(s)
            parts = list(groups.items())
            keep = 0 if clean else parts.index(max(parts, key=lambda p: len(p[1])))
            shared[b] = parts.pop(keep)[0]
            for sig, part in parts:
                size[b] -= len(part)
                moves.append((len(size), part))
                size.append(len(part))
                shared.append(sig)
        for b, part in moves:
            for s in part:
                block[s] = b
        dirty = {p for _, part in moves for s in part for p in preds[s]}
    numbers = {}
    block = [numbers.setdefault(b, len(numbers)) for b in block]
    quotient: list[list[int]] = []
    for s, b in enumerate(block):
        if b == len(quotient):  # the first state of block b
            quotient.append([block[t] for t in successors[s]])
    return block, quotient


def spectral_radius(successors: Sequence[Sequence[int]], tol: float = POWER_ITER_TOL,
                    max_iter: int = 200_000) -> float:
    """Largest eigenvalue modulus of the adjacency matrix of a multigraph.

    ``successors[i]`` lists the target of each edge leaving state i, a target
    repeated once per parallel edge.  Power iteration runs on A + I to break
    periodicity; 1 is subtracted at the end.  Convergence is judged on the
    Rayleigh quotient; ArithmeticError if it has not converged after
    ``max_iter`` iterations.  Each row sums its (target, multiplicity) terms in
    increasing target order with the +I shift merged into the diagonal term,
    so the float is the same as a dense row-by-row product would give.
    """
    n = len(successors)
    rows = []
    for i, targets in enumerate(successors):
        mult = Counter(targets)
        if any(not 0 <= j < n for j in mult):
            raise ValueError(f"state {i} has a successor outside 0..{n - 1}")
        mult[i] += 1
        rows.append([(j, float(mult[j])) for j in sorted(mult)])
    if not any(successors):
        return 0.0
    v = [1.0] * n
    prev = 0.0
    stable = 0
    for _ in range(max_iter):
        w = [sum([m * v[j] for j, m in row]) for row in rows]
        lam = sum(wi * vi for wi, vi in zip(w, v)) / sum(vi * vi for vi in v)
        norm = max(abs(x) for x in w)
        v = [x / norm for x in w]
        if abs(lam - prev) <= tol * max(1.0, abs(lam)):
            stable += 1
            if stable >= 3:
                return lam - 1.0
        else:
            stable = 0
        prev = lam
    raise ArithmeticError(f"power iteration did not converge in {max_iter} iterations")


@dataclass(frozen=True)
class CompanionMatrix:
    """Companion matrix of X^n - sum a_l X^(n-l), last row (a_n, ..., a_1)."""

    last_row: tuple[int, ...]

    @staticmethod
    def from_characteristic(p: IntPolynomial) -> "CompanionMatrix":
        if not _is_rate_characteristic(p):
            raise ValueError("not a rate characteristic polynomial")
        return CompanionMatrix(tuple(-c for c in p.coefficients[:-1]))

    def matrix(self) -> list[list[int]]:
        n = len(self.last_row)
        rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n - 1)]
        rows.append(list(self.last_row))
        return rows

    def recurrence_coefficients(self) -> tuple[int, ...]:
        """Weights (a_1, ..., a_n) with N[L] = sum a_l N[L-l]."""
        return tuple(reversed(self.last_row))


def linear_recurrence_extend(coefficients: Sequence[int], seed: Sequence[int],
                             up_to: int) -> list[int]:
    """Extend an integer sequence by N[L] = sum_l coefficients[l-1] * N[L-l].

    ``coefficients[i]`` is the weight of lag i+1; the seed must cover at least
    one full lag window.
    """
    order = len(coefficients)
    if len(seed) < order:
        raise ValueError(f"seed must provide at least {order} initial terms")
    terms = [int(x) for x in seed]
    for L in range(len(terms), up_to + 1):
        terms.append(sum(c * terms[L - l - 1] for l, c in enumerate(coefficients)))
    return terms[:up_to + 1]


def closed_form_counts(char_poly: IntPolynomial,
                       seed: Sequence[int]) -> list[tuple[complex, complex]]:
    """Coefficients h_i with N[L] = sum h_i root_i^L fitted on the seed.

    Requires distinct characteristic roots (checked through the gcd with the
    derivative); roots are returned sorted by decreasing modulus.
    """
    if polynomial_gcd(char_poly, char_poly.derivative()).degree > 0:
        raise MultipleRootError("characteristic polynomial has repeated roots")
    k = char_poly.degree
    if len(seed) < k:
        raise ValueError(f"need at least {k} seed terms")
    roots = sorted(aberth_roots(char_poly),
                   key=lambda r: (-abs(r), -r.real, -r.imag))
    # Vandermonde system V h = seed on exponents 0..k-1
    rows = [[r ** L for r in roots] + [complex(seed[L])] for L in range(k)]
    h = _gauss_solve(rows, k)
    out = list(zip(roots, h))
    for L, target in enumerate(seed):
        approx = sum(hi * (ri ** L) for ri, hi in out)
        scale = max(1.0, abs(target))
        if abs(approx - target) > 1e-6 * scale:
            raise ArithmeticError("closed form fails to reproduce the seed")
    return out


def _gauss_solve(rows: list[list[complex]], k: int) -> list[complex]:
    for col in range(k):
        piv = max(range(col, k), key=lambda r: abs(rows[r][col]))
        rows[col], rows[piv] = rows[piv], rows[col]
        pval = rows[col][col]
        rows[col] = [c / pval for c in rows[col]]
        for r in range(k):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][k] for i in range(k)]


def series_coefficients(f: RationalFraction, up_to: int) -> list[int]:
    """Exact power-series coefficients of f at 0, indices 0..up_to.

    An integer recurrence over the nonzero denominator terms; a coefficient
    that den[0] does not divide is a Fraction.
    """
    den = f.denominator.coefficients
    if not den or den[0] == 0:
        raise ValueError("denominator must have a nonzero constant term")
    num = f.numerator.coefficients
    d0 = den[0]
    lags = [(j, -c) for j, c in enumerate(den) if j and c]
    out: list = []
    for L in range(up_to + 1):
        acc = num[L] if L < len(num) else 0
        for j, c in lags:
            if j > L:
                break
            acc += c * out[L - j]
        q, r = divmod(acc, d0)
        out.append(Fraction(acc, d0) if r else q)
    return out
