"""End-to-end acceptance checks, one printed pass/fail line per criterion."""

import math
import time

import pytest

from zecap.automata import (RationalCode, generator_series, parse_regex,
                            rational_code_rate)
from zecap.graphs import (cycle, cycle_product_independence, graph_by_name,
                          independence_number, strong_power)
from zecap.intermingled import (build_transition_graph, count_sequences,
                                single_open_rule)
from zecap.intermingled import rate as intermingled_rate
from zecap.intermingled import verify_zero_error as verify_intermingled
from zecap.numerics import (CompanionMatrix, IntPolynomial, RationalFraction,
                            closed_form_counts, linear_recurrence_extend,
                            series_coefficients, smallest_positive_root,
                            spectral_radius, unique_positive_root)
from zecap.varlen import GeneratorSet, count_concatenations
from zecap.varlen import rate as varlen_rate
from zecap.varlen import verify_zero_error as verify_generator_set

C5P1 = graph_by_name("C5+1")
PENTAGON_SET = GeneratorSet.from_strings(C5P1, ["0", "11", "23", "35", "42", "54"])
PRUNED_SET = GeneratorSet.from_strings(C5P1, ["11", "23", "35", "42", "54",
                                              "001", "003"])
HUB_REGEX = "(0+1(0)*1+2(0)*3+3(0)*5+4(0)*2+5(0)*4)*"


def report(criterion: int, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"criterion {criterion}: {verdict}{suffix}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_pentagon_counts():
    start = time.monotonic()
    counts = count_concatenations(PENTAGON_SET, 5)
    roots = {L: counts[L] ** (1 / L) for L in range(2, 6)}
    elapsed = time.monotonic() - start
    ok = (counts == [1, 1, 6, 11, 41, 96]
          and round(roots[2], 3) == 2.449
          and round(roots[3], 3) == 2.224
          and round(roots[4], 3) == 2.530
          and round(roots[5], 3) == 2.491
          and elapsed < 1.0)
    report(1, ok, f"counts={counts}, {elapsed:.3f}s")


def test_criterion_2_pruned_counts():
    start = time.monotonic()
    counts = count_concatenations(PRUNED_SET, 5)
    elapsed = time.monotonic() - start
    ok = (counts == [1, 0, 5, 2, 25, 20]
          and round(counts[3] ** (1 / 3), 3) == 1.260
          and round(counts[4] ** (1 / 4), 3) == 2.236
          and round(counts[5] ** (1 / 5), 3) == 1.821
          and elapsed < 1.0)
    report(2, ok, f"counts={counts}, {elapsed:.3f}s")


def test_criterion_3_characteristic_rates():
    start = time.monotonic()
    nu1 = varlen_rate(PENTAGON_SET).nu
    nu2 = varlen_rate(PRUNED_SET).nu
    elapsed = time.monotonic() - start
    ok = (abs(nu1 - (1 + math.sqrt(21)) / 2) < 1e-9
          and abs(nu2 - (1 + math.sqrt(2))) < 1e-9
          and elapsed < 1.0)
    report(3, ok, f"nu={nu1:.9f}, nu'={nu2:.9f}")


def test_criterion_4_closed_form():
    poly = PRUNED_SET.characteristic_polynomial()
    counts = count_concatenations(PRUNED_SET, 30)
    terms = closed_form_counts(poly, counts[:3])
    s2 = math.sqrt(2)
    by_root = {round(r.real, 6): h for r, h in terms}
    h1 = by_root[round(1 + s2, 6)]
    h2 = by_root[-2.0]
    h3 = by_root[round(1 - s2, 6)]
    coeffs_ok = (abs(h1 - (6 + 5 * s2) / 28) < 1e-9
                 and abs(h2 - 4 / 7) < 1e-9
                 and abs(h3 - (6 - 5 * s2) / 28) < 1e-9)
    recon_ok = True
    for L, target in enumerate(counts):
        approx = sum(h * r ** L for r, h in terms).real
        if abs(approx - target) > 1e-6 * max(1, abs(target)):
            recon_ok = False
    report(4, coeffs_ok and recon_ok,
           f"h1={h1.real:.9f}, h2={h2.real:.9f}, h3={h3.real:.9f}")


def test_criterion_5_single_open_code():
    start = time.monotonic()
    rule = single_open_rule(hub=0)
    tg = build_transition_graph(PENTAGON_SET, rule)
    r = intermingled_rate(tg)
    verified = verify_intermingled(PENTAGON_SET, rule)
    elapsed = time.monotonic() - start
    ok = (abs(r.nu - (1 + math.sqrt(5))) < 1e-9
          and verified.ok and verified.exact
          and abs(r.r_bits - math.log2(1 + math.sqrt(5))) < 1e-4
          and round(r.r_bits, 4) == 1.6942
          and elapsed < 1.0)
    report(5, ok, f"rho={r.nu:.9f}, r={r.r_bits:.4f}, {elapsed:.3f}s")


def test_criterion_6_generator_series():
    f = generator_series(parse_regex(HUB_REGEX))
    expected = RationalFraction(IntPolynomial([-1, 1]), IntPolynomial([-1, 2, 4]))
    reduces = (f == expected)
    lo, hi = smallest_positive_root(f.denominator)
    pole = float((lo + hi) / 2)
    s5 = math.sqrt(5)
    pole_ok = abs(pole - (-1 + s5) / 4) < 1e-9
    inv_ok = abs(1 / abs(pole) - (1 + s5)) < 1e-9
    report(6, reduces and pole_ok and inv_ok,
           f"F={f}, pole={pole.real:.9f}")


def test_criterion_7_heptagon_code():
    c7 = cycle(7)
    hat = GeneratorSet.from_strings(c7, ["0", "20", "22", "24", "40", "42", "44"])
    ok_verify, _ = verify_generator_set(hat)
    r = varlen_rate(hat)
    poly_ok = r.char_poly.coefficients == (-6, -1, 1)
    report(7, ok_verify and abs(r.nu - 3) < 1e-9 and poly_ok,
           f"nu={r.nu:.12f}, poly={r.char_poly}")


def test_criterion_8_independence_numbers():
    res1 = independence_number(C5P1)
    one_shot_ok = res1.alpha == 3 and res1.witness == (0, 1, 3) and res1.exact

    c5 = cycle(5)
    res2 = independence_number(strong_power(c5, 2))
    square_ok = res2.alpha == 5 and res2.exact

    # fourth power via the cycle edge-sum bound: alpha(C5 x H) is capped by
    # floor(5 * alpha(H) / 2) with alpha(C5^3) = 10 proven by the search,
    # and the 25-vertex product witness meets the cap
    start = time.monotonic()
    w2 = res2.witness
    seed = [a * 25 + b for a in w2 for b in w2]
    res4 = cycle_product_independence(5, strong_power(c5, 3),
                                      seed_witness=seed)
    elapsed = time.monotonic() - start
    fourth_ok = res4.alpha == 25 and res4.exact and elapsed < 600
    g4 = strong_power(c5, 4)
    masks = g4.neighbor_masks
    fourth_ok &= len(res4.witness) == 25 and all(
        not masks[u] >> v & 1
        for u in res4.witness for v in res4.witness if u != v)
    report(8, one_shot_ok and square_ok and fourth_ok,
           f"alpha(C5+1)={res1.alpha} witness={res1.witness}, "
           f"alpha^2={res2.alpha}, alpha^4={res4.alpha} "
           f"solver-verified exact={res4.exact} in {elapsed:.1f}s")


def test_criterion_9_cross_method_consistency():
    details = []
    ok = True
    for gs in (PENTAGON_SET, PRUNED_SET):
        poly = gs.characteristic_polynomial()
        root = unique_positive_root(poly)
        matrix = CompanionMatrix.from_characteristic(poly).matrix()
        rho = spectral_radius([[j for j, m in enumerate(row) for _ in range(m)]
                               for row in matrix])
        ok &= abs(root - rho) < 1e-8
        details.append(f"{root:.8f}~{rho:.8f}")
    # the hub code: transition-graph radius vs series pole
    tg = build_transition_graph(PENTAGON_SET, single_open_rule(hub=0))
    rho2 = intermingled_rate(tg).nu
    rr = rational_code_rate(RationalCode.from_expression(parse_regex(HUB_REGEX)))
    ok &= abs(rho2 - rr.nu) < 1e-8
    details.append(f"{rho2:.8f}~{rr.nu:.8f}")
    report(9, ok, ", ".join(details))


def test_criterion_10_property_suite():
    from itertools import combinations

    from zecap.automata import count_language, regex_to_dfa
    from zecap.graphs import distinguishable
    from zecap.varlen import enumerate_codewords

    ok = True
    # Fekete superadditivity of log-counts, L <= 40
    for gs in (PENTAGON_SET, PRUNED_SET):
        counts = count_concatenations(gs, 40)
        for a in range(1, 20):
            for b in range(1, 21):
                ok &= counts[a + b] >= counts[a] * counts[b]
    # series vs DFA agreement through 2|states| + 5
    for text in ("(0+1)*", "(0+11)*", "(01+10)*", HUB_REGEX):
        e = parse_regex(text)
        dfa = regex_to_dfa(e)
        window = 2 * dfa.state_count() + 5
        f = generator_series(e)
        ok &= series_coefficients(f, window) == count_language(dfa, window)
    # enumerated codewords pairwise distinguishable, L <= 6
    for gs in (PENTAGON_SET, PRUNED_SET):
        for L in range(1, 7):
            for a, b in combinations(enumerate_codewords(gs, L), 2):
                ok &= distinguishable(gs.graph, a, b)
    report(10, ok)
