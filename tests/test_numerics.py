import math
import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zecap.numerics import (CompanionMatrix, IntPolynomial, MultipleRootError,
                            RationalFraction, _cancel, _exact_div, _pseudo_remainder,
                            _refine, _sign_at, aberth_roots,
                            closed_form_counts, count_walks, linear_recurrence_extend, lump,
                            polynomial_gcd, series_coefficients, smallest_positive_root,
                            spectral_radius, trim, unique_positive_root)


def P(*coeffs):
    """Ascending-order shorthand."""
    return IntPolynomial(coeffs)


def test_polynomial_basics():
    p = P(-5, -1, 1)  # X^2 - X - 5
    assert p.degree == 2
    assert p(3) == 1
    assert str(p) == "X^2 -X -5"
    assert (p + P(5)).coefficients == (0, -1, 1)
    assert (p * P(0, 1)).coefficients == (0, -5, -1, 1)
    assert p.derivative().coefficients == (-1, 2)
    assert P(0, 0, 0).is_zero


def test_polynomial_trailing_zeros_stripped():
    assert P(1, 2, 0, 0).coefficients == (1, 2)


def test_gcd():
    a = P(-1, 0, 1)          # X^2 - 1
    b = P(1, 2, 1)           # (X+1)^2
    assert polynomial_gcd(a, b).coefficients == (1, 1)
    assert polynomial_gcd(a, P(1)).coefficients == (1,)
    # common factor with content
    assert polynomial_gcd(P(0, 2), P(0, 4)).coefficients == (0, 1)


def test_rational_fraction_reduces():
    f = RationalFraction(P(-1, 0, 1), P(1, 1))  # (X^2-1)/(X+1) = X-1
    assert f.numerator.coefficients == (-1, 1)
    assert f.denominator.coefficients == (1,)


def test_rational_fraction_arithmetic():
    z = RationalFraction.z()
    one = RationalFraction.from_int(1)
    f = one + z  # 1 + z
    assert f.numerator.coefficients == (1, 1)
    g = f * f
    assert g.numerator.coefficients == (1, 2, 1)
    assert (g - f * f) == RationalFraction.from_int(0)


def test_star():
    z = RationalFraction.z()
    f = z.star()  # 1/(1-z)
    assert series_coefficients(f, 4) == [1, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        RationalFraction.from_int(1).star()


def test_series_coefficients_match_division():
    # (1-z)/(1-2z-4z^2): recurrence a_L = 2a_{L-1} + 4a_{L-2}
    f = RationalFraction(P(1, -1), P(1, -2, -4))
    assert series_coefficients(f, 5) == [1, 1, 6, 16, 56, 176]


def test_series_coefficients_fractional():
    f = RationalFraction(P(1), P(2))
    assert series_coefficients(f, 1) == [Fraction(1, 2), 0]


def test_unique_positive_root_golden():
    assert unique_positive_root(P(-5, -1, 1)) == pytest.approx(
        (1 + math.sqrt(21)) / 2, abs=1e-9)
    assert unique_positive_root(P(-2, -5, 0, 1)) == pytest.approx(
        1 + math.sqrt(2), abs=1e-9)
    assert unique_positive_root(P(-6, -1, 1)) == pytest.approx(3, abs=1e-9)


def test_unique_positive_root_rejects_bad_shape():
    with pytest.raises(ValueError):
        unique_positive_root(P(1, 1, 1))
    with pytest.raises(ValueError):
        unique_positive_root(P(0, 0, 1))  # all lower coefficients zero


def test_aberth_roots_quadratic():
    roots = sorted(aberth_roots(P(-6, -1, 1)), key=lambda r: r.real)
    assert roots[0] == pytest.approx(-2, abs=1e-8)
    assert roots[1] == pytest.approx(3, abs=1e-8)


def test_aberth_roots_random_products():
    rng = random.Random(1)
    for _ in range(10):
        true = sorted(rng.sample(range(-8, 9), rng.randint(2, 5)))
        p = P(1)
        for r in true:
            p = p * P(-r, 1)
        got = sorted(r.real for r in aberth_roots(p))
        for a, b in zip(true, got):
            assert b == pytest.approx(a, abs=1e-7)


def test_aberth_reports_no_convergence():
    with pytest.raises(ArithmeticError):
        aberth_roots(P(-6, -1, 1), max_iter=1)


def test_aberth_handles_roots_at_origin():
    roots = aberth_roots(P(0, 0, -1, 1))  # X^2 (X - 1)
    zeros = [r for r in roots if abs(r) < 1e-9]
    assert len(zeros) == 2


def test_smallest_modulus_root():
    # 4z^2 + 2z - 1: roots (-1 +/- sqrt 5)/4
    lo, hi = smallest_positive_root(P(-1, 2, 4))
    assert float((lo + hi) / 2) == pytest.approx((-1 + math.sqrt(5)) / 4, abs=1e-9)


def assert_encloses_smallest_positive_root(p):
    """lo <= r <= hi, r the least of sympy's exact positive real roots of p,
    with hi - lo < lo / 2^64; ValueError when p has no positive root."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    positive = [r for r in sympy.Poly(list(reversed(p.coefficients)), z).real_roots()
                if r > 0]
    if not positive:
        with pytest.raises(ValueError):
            smallest_positive_root(p)
        return
    lo, hi = smallest_positive_root(p)
    r = min(positive)
    assert 0 < lo <= hi and (hi - lo) * 2 ** 64 < lo
    assert sympy.Rational(lo.numerator, lo.denominator) <= r
    assert r <= sympy.Rational(hi.numerator, hi.denominator)


@pytest.mark.parametrize("p", [
    P(1, -2),                                  # dyadic root 1/2
    P(1, -2) * P(1, -2) * P(-3, 1),            # repeated dyadic root
    P(0, 0, -1, 1),                            # roots at 0, then 1
    P(0, -3, 0, 1) * P(-3, 0, 1),              # sqrt 3 twice, -sqrt 3 twice
    P(-1, 2, 4),                               # (-1 + sqrt 5) / 4
    P(1, -60, 899),                            # 1/29 and 1/31, close together
    P(-1, 3, 0, -1),                           # lc(q') < 0, one pseudo-division step
])
def test_smallest_positive_root_examples(p):
    assert_encloses_smallest_positive_root(p)


@pytest.mark.parametrize("p", [P(), P(5), P(0, 0, 3), P(1, 1, 1), P(2, 3, 0, 1),
                               P(1, 2, 1)])
def test_smallest_positive_root_rejects_polynomials_without_one(p):
    with pytest.raises(ValueError):
        smallest_positive_root(p)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-9, 9), min_size=1, max_size=5),
       st.lists(st.integers(-4, 4), min_size=1, max_size=3),
       st.booleans(), st.integers(0, 2))
def test_smallest_positive_root_matches_sympy(base, repeated, dyadic, zeros):
    p = (P(*base) * P(*repeated) * P(*repeated) * (P(1, -2) if dyadic else P(1))
         * P(*[0] * zeros, 1))
    if p.is_zero:
        return
    assert_encloses_smallest_positive_root(p)


def sturm_only_smallest_positive_root(p):
    """Reference: isolation by Sturm sequence alone, without the shortcut for
    one sign change."""
    q = IntPolynomial(p.coefficients[next(i for i, c in enumerate(p.coefficients) if c):])
    q = _exact_div(q, polynomial_gcd(q, q.derivative()))
    sturm = [q, q.derivative()]
    while sturm[-1].degree > 0:
        b = sturm[-1] if sturm[-1].leading() > 0 else -sturm[-1]
        sturm.append(-_pseudo_remainder(sturm[-2], b).primitive())

    def variations(m, k):
        signs = [x for x in (_sign_at(s, m, k) for s in sturm) if x]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    v0, sign0 = variations(0, 0), _sign_at(q, 0, 0)
    lo, hi, k = 0, 1 << max(abs(c) for c in q.coefficients).bit_length(), 0
    inside = v0 - variations(hi, k)
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


def root_or_error(find, p):
    try:
        return find(p)
    except ValueError as ex:
        return str(ex)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=4).filter(any),
       st.lists(st.integers(-9, 0), min_size=1, max_size=4).filter(any),
       st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any),
       st.booleans(), st.integers(0, 2))
@example([1], [-2], [1, 1], False, 0)     # (1 - 2z)(1 + z)^2
@example([1], [-3], [1, 1, 1], False, 0)  # (1 - 3z)(1 + z + z^2)^2
def test_one_sign_change_gives_the_sturm_enclosure(head, tail, repeated, flip, zeros):
    # head then tail changes sign once; the square of another factor makes p
    # not square-free, and its square-free part may change sign more often
    base = P(*head, *tail) * P(-1 if flip else 1)
    p = base * P(*repeated) * P(*repeated) * P(*[0] * zeros, 1)
    assert root_or_error(smallest_positive_root, p) == \
        root_or_error(sturm_only_smallest_positive_root, p)


def test_two_sign_changes_still_isolate_the_smaller_root():
    p = P(1, -2) * P(1, -3)  # roots 1/2 and 1/3
    lo, hi = smallest_positive_root(p)
    assert lo < Fraction(1, 3) < hi and (hi - lo) * 2 ** 64 < lo
    assert (lo, hi) == sturm_only_smallest_positive_root(p)


def successors_of(matrix):
    """Successor lists of a non-negative integer matrix, one entry per unit."""
    return [[j for j, m in enumerate(row) for _ in range(m)] for row in matrix]


def test_spectral_radius_known():
    assert spectral_radius([[0, 0]]) == pytest.approx(2, abs=1e-9)
    assert spectral_radius([[1], [0]]) == pytest.approx(1, abs=1e-9)
    # companion of X^2 - X - 5
    assert spectral_radius(successors_of([[0, 1], [5, 1]])) == pytest.approx(
        (1 + math.sqrt(21)) / 2, abs=1e-9)
    assert spectral_radius([[], []]) == 0.0
    assert spectral_radius([]) == 0.0


def test_spectral_radius_periodic_matrix():
    # plain power iteration would oscillate on this 2-cycle
    m = successors_of([[0, 2], [8, 0]])
    assert spectral_radius(m) == pytest.approx(4, abs=1e-9)


def test_spectral_radius_rejects_negative():
    with pytest.raises(ValueError):
        spectral_radius([[-1]])


def test_companion_matrix():
    cm = CompanionMatrix.from_characteristic(P(-5, -1, 1))
    assert cm.matrix() == [[0, 1], [5, 1]]
    assert cm.recurrence_coefficients() == (1, 5)
    assert spectral_radius(successors_of(cm.matrix())) == pytest.approx(
        unique_positive_root(P(-5, -1, 1)), abs=1e-9)


@st.composite
def multigraphs(draw):
    """Successor lists of a random multigraph on 1..6 states."""
    n = draw(st.integers(1, 6))
    return [draw(st.lists(st.integers(0, n - 1), max_size=3)) for _ in range(n)]


def dense_spectral_radius(matrix, tol=1e-12, max_iter=200_000):
    """Reference: power iteration on the dense matrix M + I, row by row;
    None when it has not converged after max_iter iterations."""
    n = len(matrix)
    rows = [list(map(float, row)) for row in matrix]
    if all(c == 0 for r in rows for c in r):
        return 0.0
    for i in range(n):
        rows[i][i] += 1.0
    v = [1.0] * n
    prev = 0.0
    stable = 0
    for _ in range(max_iter):
        w = [sum(rows[i][j] * v[j] for j in range(n)) for i in range(n)]
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
    return None  # not converged


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.data())
def test_count_walks_matches_enumeration(succ, data):
    n = len(succ)
    start = data.draw(st.integers(0, n - 1))
    accepting = data.draw(st.sets(st.integers(0, n - 1)))
    up_to = 6
    brute = [0] * (up_to + 1)

    def walk(state, length):
        if state in accepting:
            brute[length] += 1
        if length < up_to:
            for t in succ[state]:  # one branch per edge, parallel edges apart
                walk(t, length + 1)

    walk(start, 0)
    assert count_walks(succ, start, accepting, up_to) == brute


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_spectral_radius_matches_dense_reference(succ):
    n = len(succ)
    matrix = [[row.count(j) for j in range(n)] for row in succ]
    # a short iteration cap keeps slowly converging (defective) cases quick;
    # both sides run the same iterations, so the floats must be equal, and
    # both must give up on the same graphs
    want = dense_spectral_radius(matrix, max_iter=3000)
    if want is None:
        with pytest.raises(ArithmeticError):
            spectral_radius(succ, max_iter=3000)
    else:
        assert spectral_radius(succ, max_iter=3000) == want


def test_spectral_radius_reports_non_convergence():
    # stability takes three agreeing Rayleigh quotients, never one iteration
    with pytest.raises(ArithmeticError):
        spectral_radius([[0, 0]], max_iter=1)
    # a Jordan block at rho = 1, the useful part of the DFA of (0)*(1)*:
    # the quotient creeps towards 1 like 1/k and never settles
    with pytest.raises(ArithmeticError):
        spectral_radius([[0, 1], [1]], max_iter=2000)


def test_linear_recurrence_extend():
    fib = linear_recurrence_extend([1, 1], [0, 1], 10)
    assert fib == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
    with pytest.raises(ValueError):
        linear_recurrence_extend([1, 1], [0], 5)


def test_closed_form_fibonacci():
    terms = closed_form_counts(P(-1, -1, 1), [0, 1])
    total = sum(h * r ** 10 for r, h in terms)
    assert total.real == pytest.approx(55, abs=1e-8)
    assert abs(total.imag) < 1e-8


def test_closed_form_rejects_repeated_roots():
    with pytest.raises(MultipleRootError):
        closed_form_counts(P(1, -2, 1), [1, 2])  # (X-1)^2


def test_closed_form_golden_coefficients():
    # counts 1, 0, 5 at L = 0..2 for X^3 - 5X - 2
    terms = closed_form_counts(P(-2, -5, 0, 1), [1, 0, 5])
    roots = [r for r, _ in terms]
    assert roots[0].real == pytest.approx(1 + math.sqrt(2), abs=1e-8)
    h = {round(r.real, 6): c for r, c in terms}
    s2 = math.sqrt(2)
    assert h[round(1 + s2, 6)].real == pytest.approx((6 + 5 * s2) / 28, abs=1e-9)
    assert h[round(-2.0, 6)].real == pytest.approx(4 / 7, abs=1e-9)
    assert h[round(1 - s2, 6)].real == pytest.approx((6 - 5 * s2) / 28, abs=1e-9)


@st.composite
def graphs_with_ends(draw):
    n = draw(st.integers(1, 7))
    succ = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=4), min_size=n, max_size=n))
    start = draw(st.integers(0, n - 1))
    accepting = draw(st.lists(st.integers(0, n - 1), max_size=3))
    return succ, start, accepting


@settings(max_examples=300, deadline=None)
@given(graphs_with_ends())
def test_trim_matches_brute_force_reachability(case):
    succ, start, accepting = case
    n = len(succ)
    # reachable[i][j]: a walk of length 0..n leads from i to j
    reachable = [[i == j for j in range(n)] for i in range(n)]
    for _ in range(n):
        reachable = [[reachable[i][j] or any(reachable[i][k] and j in succ[k] for k in range(n))
                      for j in range(n)] for i in range(n)]
    keep = [s for s in range(n)
            if reachable[start][s] and any(reachable[s][a] for a in accepting)]
    want = [[keep.index(t) for t in succ[s] if t in keep] for s in keep]
    assert trim(succ, start, accepting) == want


def test_trim_keeps_parallel_edges_and_drops_dead_ends():
    # 0 -> 1 twice, 1 -> 0, 1 -> 2 (dead end), 3 unreachable
    assert trim([[1, 1], [0, 2], [], [0]], 0, [0]) == [[1, 1], [0]]


@st.composite
def lifted_multigraphs(draw):
    """A random multigraph on 1..4 states, parallel edges and self-loops
    included, whose states are copied 1..3 times; each copy sends every edge
    to some copy of its target, so copies can lump together.  Then a start
    state, from which some states may be unreachable or unable to return."""
    k = draw(st.integers(1, 4))
    base = [draw(st.lists(st.integers(0, k - 1), max_size=3)) for _ in range(k)]
    sizes = [draw(st.integers(1, 3)) for _ in range(k)]
    copies, n = [], 0
    for size in sizes:
        copies.append(list(range(n, n + size)))
        n += size
    succ = [[draw(st.sampled_from(copies[t])) for t in base[b]]
            for b in range(k) for _ in copies[b]]
    return succ, draw(st.integers(0, n - 1))


def reference_lump(succ, start):
    """Reference: classes as sets, each split by the Counter of its states'
    successor classes until no class splits; ordered by least state."""
    classes = [cls for cls in ({start}, set(range(len(succ))) - {start}) if cls]
    while True:
        of = {s: i for i, cls in enumerate(classes) for s in cls}
        split = []
        for cls in classes:
            groups = {}
            for s in cls:
                key = frozenset(Counter(of[t] for t in succ[s]).items())
                groups.setdefault(key, set()).add(s)
            split += groups.values()
        if len(split) == len(classes):
            return sorted(classes, key=min)
        classes = split


@settings(max_examples=300, deadline=None)
@given(lifted_multigraphs())
def test_lump_keeps_closed_walk_counts_and_rate(case):
    succ, start = case
    n = len(succ)
    quotient, c = lump(succ, start)
    assert count_walks(quotient, c, (c,), 2 * n + 2) == \
        count_walks(succ, start, (start,), 2 * n + 2)
    classes = reference_lump(succ, start)
    of = {s: i for i, cls in enumerate(classes) for s in cls}
    assert classes[c] == {start}
    assert quotient == [[of[t] for t in succ[min(cls)]] for cls in classes]
    # the partition is stable, so lumping the quotient again merges nothing
    assert lump(quotient, c) == (quotient, c)
    assert spectral_radius(trim(quotient, c, (c,))) == pytest.approx(
        spectral_radius(trim(succ, start, (start,))), rel=1e-9, abs=1e-9)


def reference_refine(successors, labels, ordered):
    """Reference: re-sign every state each round by its block and its
    successor blocks (a tuple, or a sorted tuple for a multiset), blocks
    numbered by their first state, until a round splits no block."""
    of = {}
    block = [of.setdefault(label, len(of)) for label in labels]
    while True:
        signatures = {}
        new_block = []
        for s, targets in enumerate(successors):
            key = [block[t] for t in targets]
            sig = (block[s], tuple(key) if ordered else tuple(sorted(key)))
            new_block.append(signatures.setdefault(sig, len(signatures)))
        if len(signatures) == len(set(block)):
            block = new_block
            break
        block = new_block
    firsts = {}
    for s, b in enumerate(block):
        firsts.setdefault(b, s)
    return block, [[block[t] for t in successors[firsts[b]]] for b in range(len(firsts))]


@st.composite
def labelled_dfas(draw):
    """A table of 1..12 states over 1..3 letters, and a label per state."""
    n, k = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    table = [draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)) for _ in range(n)]
    return table, draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))


@st.composite
def labelled_multigraphs(draw):
    """Successor lists on 1..12 states, parallel edges and self-loops
    included, and a label per state."""
    n = draw(st.integers(1, 12))
    succ = [draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)]
    return succ, draw(st.lists(st.booleans(), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(st.one_of(labelled_dfas().map(lambda c: (*c, True)),
                 labelled_multigraphs().map(lambda c: (*c, False)),
                 lifted_multigraphs().map(lambda c: (c[0], [s == c[1] for s in range(len(c[0]))],
                                                     False))))
def test_worklist_refinement_matches_every_state_rounds(case):
    successors, labels, ordered = case
    assert _refine(successors, labels, ordered) == \
        reference_refine(successors, labels, ordered)


# ---------------------------------------------------------------------------
# Integer series arithmetic against the Fraction versions it replaced


def fraction_series_coefficients(f, up_to):
    """Reference: the recurrence in Fractions, integral terms made int."""
    den = f.denominator.coefficients
    num = f.numerator.coefficients
    out = []
    for L in range(up_to + 1):
        acc = Fraction(num[L] if L < len(num) else 0)
        for j in range(1, min(L, len(den) - 1) + 1):
            acc -= den[j] * out[L - j]
        out.append(acc / den[0])
    return [int(x) if x.denominator == 1 else x for x in out]


def fraction_exact_div(a, b):
    """Reference: long division in Fractions; None unless the quotient is an
    integer polynomial."""
    num = [Fraction(c) for c in a.coefficients]
    out = [Fraction(0)] * (len(num) - len(b.coefficients) + 1)
    for shift in range(len(out) - 1, -1, -1):
        q = num[shift + b.degree] / b.leading()
        out[shift] = q
        for i, bc in enumerate(b.coefficients):
            num[shift + i] -= q * bc
    if any(num) or any(q.denominator != 1 for q in out):
        return None
    return IntPolynomial([int(q) for q in out])


def gcd_reduced(numerator, denominator):
    """Reference: lowest terms through polynomial_gcd on every pair, then the
    joint content, then the sign of the denominator's first nonzero anchor."""
    g = polynomial_gcd(numerator, denominator)
    numerator = fraction_exact_div(numerator, g)
    denominator = fraction_exact_div(denominator, g)
    c = math.gcd(numerator.content(), denominator.content())
    numerator = IntPolynomial([x // c for x in numerator.coefficients])
    denominator = IntPolynomial([x // c for x in denominator.coefficients])
    if (denominator.constant_term() or denominator.leading()) < 0:
        numerator, denominator = -numerator, -denominator
    return numerator, denominator


polynomials = st.lists(st.integers(-9, 9), max_size=5).map(IntPolynomial)
nonzero_polynomials = polynomials.filter(lambda p: not p.is_zero)


@settings(max_examples=300, deadline=None)
@given(polynomials, st.sampled_from([1, -1, 2, -2, 3]),
       st.lists(st.integers(-9, 9), max_size=4), st.integers(0, 12))
def test_series_coefficients_match_fraction_reference(num, d0, tail, up_to):
    den = IntPolynomial([d0] + tail)
    # series_coefficients reads only the two polynomials: an unreduced pair
    # keeps den[0] as drawn, a RationalFraction makes it positive
    for f in (SimpleNamespace(numerator=num, denominator=den), RationalFraction(num, den)):
        got, want = series_coefficients(f, up_to), fraction_series_coefficients(f, up_to)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]


@settings(max_examples=300, deadline=None)
@given(polynomials, nonzero_polynomials)
def test_exact_div_matches_fraction_reference(a, b):
    assert _exact_div(a * b, b) == a
    want = fraction_exact_div(a, b)
    if want is None:
        with pytest.raises(ArithmeticError):
            _exact_div(a, b)
    else:
        assert _exact_div(a, b) == want


@settings(max_examples=300, deadline=None)
@given(st.integers(-12, 12).filter(bool), nonzero_polynomials, st.booleans())
def test_rational_fraction_with_a_constant_side_matches_gcd_reduction(c, p, constant_below):
    num, den = (p, IntPolynomial([c])) if constant_below else (IntPolynomial([c]), p)
    f = RationalFraction(num, den)
    assert (f.numerator, f.denominator) == gcd_reduced(num, den)


@settings(max_examples=300, deadline=None)
@given(st.integers(-12, 12).filter(bool), st.integers(0, 4), nonzero_polynomials,
       st.integers(0, 3), st.booleans())
def test_rational_fraction_with_a_monomial_side_matches_gcd_reduction(c, k, p, shift,
                                                                      monomial_below):
    # the other side gets up to three roots at 0, so the shift is not always k
    monomial = IntPolynomial([0] * k + [c])
    other = IntPolynomial([0] * shift + list(p.coefficients))
    num, den = (other, monomial) if monomial_below else (monomial, other)
    f = RationalFraction(num, den)
    assert (f.numerator, f.denominator) == gcd_reduced(num, den)
    assert _cancel(num, den) == tuple(fraction_exact_div(x, polynomial_gcd(num, den))
                                      for x in (num, den))


@settings(max_examples=200, deadline=None)
@given(polynomials, polynomials, nonzero_polynomials)
def test_sum_over_one_denominator_matches_cross_multiplication(a, b, d):
    f = RationalFraction(a, d) + RationalFraction(b, d)
    want = RationalFraction(a * d + b * d, d * d)
    assert (f.numerator, f.denominator) == (want.numerator, want.denominator)


@settings(max_examples=300, deadline=None)
@given(polynomials, nonzero_polynomials, polynomials, nonzero_polynomials,
       st.sampled_from([1, -1, 2, -2, 3]))
def test_product_and_star_match_the_gcd_constructor(n1, d1, n2, d2, d0):
    # both take fewer gcds than the constructor: the factors are in lowest
    # terms, and gcd(d, d - n) = gcd(d, n) = 1
    f, g = RationalFraction(n1, d1), RationalFraction(n2, d2)
    got = f * g
    want = RationalFraction(f.numerator * g.numerator, f.denominator * g.denominator)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    h = RationalFraction(n1 * P(0, 1), P(d0) + d1 * P(0, 1))  # h(0) = 0
    got = h.star()
    want = RationalFraction(h.denominator, h.denominator - h.numerator)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
