"""The three workloads: seeded inputs, the zecap jobs run on them, and the
checks each answer must pass.

A job is one ``zecap`` CLI invocation (argv for ``zecap.cli.main``) or, where
the CLI has no switch for it, one library call.  Every check compares the
answer with a computation from ``oracles`` or with a property the method must
have; none compares with recorded output.  The seed changes the inputs
(labels, graph automorphisms applied to codes, letter choices, word order)
but not their sizes, so that work per run stays the same from seed to seed.
The known-fault jobs use fixed inputs and are flagged ``known_fault``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import string
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import oracles
from oracles import Graph

REL_TOL = 1e-8


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    code: Optional[int]
    out: str
    err: str
    error: Optional[str] = None  # traceback text when the job raised
    value: object = None  # return value of a library job


@dataclass
class Job:
    name: str
    check: Callable[[Outcome], None]
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], object]] = None
    known_fault: bool = False


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(got: float, want: float, what: str, tol: float = REL_TOL) -> None:
    expect(abs(got - want) <= tol * max(1.0, abs(want)),
           f"{what}: got {got!r}, expected {want!r}")


def json_result(o: Outcome, code: int = 0) -> dict:
    expect(o.error is None, f"raised: {o.error and o.error.splitlines()[-1]}")
    expect(o.code == code, f"exit code {o.code}, expected {code}; stderr {o.err.strip()!r}")
    return json.loads(o.out)


def clean_rejection(o: Outcome) -> None:
    expect(o.error is None,
           f"raised instead of rejecting: {o.error and o.error.splitlines()[-1]}")
    expect(o.code not in (0, None), "accepted an input that must be rejected")
    expect(not o.out.strip(), f"printed a result for a rejected input: {o.out[:80]!r}")
    expect("Traceback" not in o.err, "printed a traceback")


# ---------------------------------------------------------------------------
# capacity: alpha of strong powers


def _labels(rng: random.Random, n: int) -> list[str]:
    pool = [a + b for a in string.ascii_lowercase for b in string.ascii_lowercase]
    return rng.sample(pool, n)


def _alpha_check(components, up_to: int, key: str):
    g = Graph(components)

    def check(o: Outcome) -> None:
        data = json_result(o)
        values, exact = data[key], data["exact"]
        expect(len(values) == up_to + 1 and all(exact), f"not exact: {data}")
        for l, a in enumerate(values):
            want = oracles.alpha_formula(g.components, l)
            expect(want is not None, f"no closed form for l={l}")
            expect(a == want, f"alpha at l={l} is {a}, expected {want}")
        if key == "alpha":
            best = max(a ** (1.0 / l) for l, a in enumerate(values) if l)
            close(data["rate_lower_bound"], best, "rate lower bound")
    return check


def _symmetric_alpha_check(g: Graph, l: int):
    def check(o: Outcome) -> None:
        expect(o.error is None, f"raised: {o.error and o.error.splitlines()[-1]}")
        res = o.value
        want = oracles.alpha_formula(g.components, l)
        expect(res.exact and res.alpha == want, f"alpha {res.alpha}, expected {want}")
        expect(len(res.witness) == res.alpha, "witness size differs from alpha")
        expect(oracles.is_independent_in_power(g, l, res.witness),
               "witness is not independent in the strong power")
    return check


CAPACITY_ALPHA = [  # (subcommand, components, L); hard searches first
    ("alpha", [("cycle", 5)], 3),
    ("alpha", [("cycle", 9)], 2),
    ("alpha", [("edgeless", 1), ("cycle", 7)], 2),
    ("series", [("cycle", 7)], 2),
    ("series", [("edgeless", 1), ("cycle", 5)], 2),
    # trivial searches: building the product is most of the work
    ("alpha", [("cycle", 6)], 4),
    ("alpha", [("cycle", 8)], 4),
    ("series", [("complete", 5)], 4),
    ("alpha", [("complete", 6)], 4),
    ("alpha", [("path", 3)], 7),
]


def capacity(rng: random.Random, work: Path, zecap) -> list[Job]:
    jobs = []
    for sub, comps, L in CAPACITY_ALPHA:
        g = Graph(comps)
        spec = json.dumps({"labels": _labels(rng, g.n), "edges": g.edges()})
        key = "alpha" if sub == "alpha" else "coefficients"
        name = f"{sub}-{'+'.join(f'{k[0]}{n}' for k, n in comps)}-L{L}"
        jobs.append(Job(name, _alpha_check(comps, L, key),
                        argv=[sub, "--graph", spec, "--L", str(L), "--format", "json"]))

    # The CLI never takes the symmetry path, so this job calls the library.
    zg = zecap.graphs
    c5 = Graph([("cycle", 5)])
    base = zg.ChannelGraph.from_edges(_labels(rng, 5), c5.edges())

    def symmetric_alpha():
        power = zg.strong_power(base, 3)
        return zg.independence_number(
            power, transitive_symmetries=zg.cycle_power_symmetries(5, 3))

    jobs.insert(1, Job("independence-symmetric-c5-L3",
                       _symmetric_alpha_check(c5, 3), call=symmetric_alpha))
    return jobs


# ---------------------------------------------------------------------------
# codes: generator sets and intermingled codes


C5_PLUS_1 = Graph([("edgeless", 1), ("cycle", 5)])  # zecap's "C5+1" layout
C7 = Graph([("cycle", 7)])
PENTAGON = [(1, 1), (2, 3), (3, 5), (4, 2), (5, 4)]  # hub word (0,) is added
HEPTAGON = [(0,), (2, 0), (2, 2), (2, 4), (4, 0), (4, 2), (4, 4)]
# a maximum independent set of C7 x C7, as words of length 2
C7_SQUARE_SET = [(0, 0), (0, 2), (1, 4), (2, 1), (2, 6), (3, 3), (4, 1),
                 (4, 5), (5, 3), (6, 5)]
ONE_PLUS_SQRT5 = 1 + math.sqrt(5)


def _dihedral(rng: random.Random, n: int) -> Callable[[int], int]:
    s, r = rng.choice((1, -1)), rng.randrange(n)
    return lambda v: (s * v + r) % n


def _concat_power(words, k):
    return [sum(combo, ()) for combo in itertools.product(words, repeat=k)]


def _code_checks(g: Graph, words, family: str, hub: int = 0,
                 nu_closed_form: Optional[float] = None):
    """Checks for verify / rate / count on one code (family None: a
    generator set given with --words, checked as plain concatenation)."""
    words = [tuple(w) for w in words]
    encoder_family = family or "varlen"

    @functools.cache
    def encoder() -> oracles.Encoder:
        return oracles.Encoder(words, encoder_family, hub)

    def verify(o: Outcome) -> None:
        witness = encoder().confusable_walks(g)
        if witness is None:
            data = json_result(o)
            expect(data["zero_error"] and data["exhaustive"], f"not proven: {data}")
            return
        data = json_result(o, code=2)
        expect(not data["zero_error"] and "violation" in data, f"no witness: {data}")
        a, b = (tuple(w) for w in data["violation"])
        expect(a != b, "witness sequences are equal")
        expect(oracles.confusable_words(g, a, b), f"witness {a} / {b} is not confusable")
        if family is None:
            expect(a in words and b in words, "witness words are not code words")
        else:
            expect(len(a) == len(b), "witness sequences differ in length")
            expect(encoder().emits(a) and encoder().emits(b),
                   "witness is not a pair of codewords")

    def rate(o: Outcome) -> None:
        expect(encoder().confusable_walks(g) is None, "rate job on a code that is not zero-error")
        data = json_result(o)
        nu = data["nu"]
        close(data["r_bits"], math.log2(nu), "r_bits")
        expect(nu <= oracles.theta(g) * (1 + REL_TOL),
               f"rate {nu} exceeds theta {oracles.theta(g)}")
        if family is not None:
            expect(data["states"] == encoder().state_count,
                   f"{data['states']} states, expected {encoder().state_count}")
        want = nu_closed_form
        if want is None and encoder_family == "varlen":
            want = oracles.characteristic_root(len(w) for w in words)
        expect(want is not None, "no independent value for this rate")
        close(nu, want, "nu")

    def count(o: Outcome, up_to: int) -> None:
        if family is None:
            if not oracles.uniquely_decodable(words):
                json_result(o, code=2)
                return
            want = oracles.histogram_counts((len(w) for w in words), up_to)
        else:
            want = encoder().closed_walk_counts(up_to)
        data = json_result(o)
        expect(data["counts"] == want, "codeword counts differ from the walk counts")
        if g.components[0][0] == "edgeless" and len(g.components) == 1:
            k = g.n
            expect(all(c == k ** L for L, c in enumerate(data["counts"])),
                   "noiseless counts differ from k^L")

    return verify, rate, count


class _CodeJobs:
    """Collects code jobs; files go to the run's work directory."""

    def __init__(self, work: Path, rng: random.Random):
        self.jobs: list[Job] = []
        self.work = work
        self.rng = rng

    def add(self, name, graph_arg: str, g: Graph, words, subs, family=None,
            hub=0, nu=None, label=str, known_fault=False, shuffle=True):
        words = [tuple(w) for w in words]
        hub_word = words[hub]
        if shuffle:
            self.rng.shuffle(words)
        hub = words.index(hub_word)
        verify, rate, count = _code_checks(g, words, family, hub, nu)
        if family is None:
            source = ["--graph", graph_arg,
                      "--words", ",".join("".join(label(x) for x in w) for w in words)]
        else:
            path = self.work / f"{name}.json"
            graph = graph_arg if not graph_arg.startswith("{") else json.loads(graph_arg)
            rule = {"family": family, **({"hub": hub} if family == "single-open" else {})}
            path.write_text(json.dumps({"generator": {"graph": graph,
                                                      "words": [list(w) for w in words]},
                                        "rule": rule}))
            source = ["--file", str(path)]
        for sub in subs:
            if sub == "verify":
                check = verify
            elif sub == "rate":
                check = rate
            else:
                up_to = int(sub[len("count"):])
                sub = "count"
                check = (lambda n: lambda o: count(o, n))(up_to)
            argv = [sub] + source + ["--format", "json"]
            if sub == "count":
                argv += ["--L", str(up_to)]
            self.jobs.append(Job(f"{sub}-{name}", check, argv=argv,
                                 known_fault=known_fault))


def codes(rng: random.Random, work: Path, zecap) -> list[Job]:
    cj = _CodeJobs(work, rng)

    # Pentagon hub code on C5+1 and its concatenation powers {0} u W^k.
    rot = _dihedral(rng, 5)
    pent = [tuple(1 + rot(x - 1) for x in w) for w in PENTAGON]
    cj.add("pentagon-words", "C5+1", C5_PLUS_1, [(0,)] + pent,
           ["verify", "rate", "count100"])
    cj.add("pentagon2-words", "C5+1", C5_PLUS_1, [(0,)] + _concat_power(pent, 2),
           ["verify", "rate", "count100"])
    for k in (1, 2, 3):
        words = [(0,)] + _concat_power(pent, k)
        # 626 states at k=3: verify would leave the exact product search
        small = ["verify", "rate", "count100"] if k < 3 else ["rate", "count100"]
        cj.add(f"pentagon{k}-single-open", "C5+1", C5_PLUS_1, words, small,
               family="single-open", hub=0, nu=ONE_PLUS_SQRT5)
        cj.add(f"pentagon{k}-varlen", "C5+1", C5_PLUS_1, words,
               small if k < 3 else ["count100"], family="varlen")

    # Heptagon code on C7 and its concatenation square and cube.
    rot = _dihedral(rng, 7)
    hept = [tuple(rot(x) for x in w) for w in HEPTAGON]
    cj.add("heptagon-words", "C7", C7, hept, ["verify", "rate", "count100"])
    cj.add("heptagon2-words", "C7", C7, _concat_power(hept, 2),
           ["verify", "rate", "count100"])
    cj.add("heptagon1-varlen", "C7", C7, hept, ["verify", "rate", "count100"],
           family="varlen", nu=3.0)
    cj.add("heptagon2-varlen", "C7", C7, _concat_power(hept, 2),
           ["verify", "rate", "count100"], family="varlen", nu=3.0)
    cj.add("heptagon3-varlen", "C7", C7, _concat_power(hept, 3), ["count80"],
           family="varlen")

    # Square of a maximum independent set of C7 x C7 (301 states).
    r1, r2 = _dihedral(rng, 7), _dihedral(rng, 7)
    swap = rng.random() < 0.5
    square_set = [(r1(b), r2(a)) if swap else (r1(a), r2(b)) for a, b in C7_SQUARE_SET]
    square = _concat_power(square_set, 2)
    cj.add("c7-square-words", "C7", C7, square, ["verify", "rate", "count100"])
    cj.add("c7-square-varlen", "C7", C7, square, ["verify", "rate", "count100"],
           family="varlen", nu=math.sqrt(10))

    # Noiseless 5-letter channel: count enumerates every word up to length 8.
    letters = rng.sample(string.ascii_lowercase, 5)
    noiseless = Graph([("edgeless", 5)])
    spec = json.dumps({"labels": letters, "edges": []})
    cj.add("noiseless5-words", spec, noiseless, [(i,) for i in range(5)],
           ["verify", "rate", "count100"], label=lambda x: letters[x])

    # Codes with confusable pairs: verify must refute them with a witness.
    a, b = pent[rng.randrange(5)]
    near = (1 + (a % 5), b)  # first letter moved to a cycle neighbour
    cj.add("pentagon-confusable-words", "C5+1", C5_PLUS_1, [(0,)] + pent + [near],
           ["verify"])
    cj.add("pentagon-full", "C5+1", C5_PLUS_1, [(0,)] + pent, ["verify"], family="full")
    extra = (rot(2), rot(1))
    cj.add("heptagon-confusable-varlen", "C7", C7, hept + [extra], ["verify"],
           family="varlen")

    # Known faults (fixed inputs): the right answer is a rejection, exit 2.
    binary = json.dumps({"labels": ["0", "1"], "edges": []})
    cj.add("ambiguous-walks-single-open", binary, Graph([("edgeless", 2)]),
           [(0, 1), (1, 1)], ["verify"], family="single-open", hub=0,
           known_fault=True, shuffle=False)
    cj.add("not-uniquely-decodable-words", "C5+1", C5_PLUS_1, [(0,), (0,) * 9],
           ["count10"], known_fault=True, shuffle=False)
    return cj.jobs


# ---------------------------------------------------------------------------
# expressions: rational codes


def _expression_checks(expr: str, hub_pairs: Optional[int] = None):
    @functools.cache
    def oracle():
        pa = oracles.PositionAutomaton(oracles.parse_regex(expr))
        return pa.ambiguous_word() is not None, pa.determinize()

    def check_fraction(text: str) -> list[int]:
        """The printed series equals the word counts: a window of
        max(deg num, deg den) + |oracle states| terms proves it."""
        num, den = oracles.parse_fraction(text)
        _, dfa = oracle()
        window = max(len(num), len(den)) + dfa.state_count
        want = dfa.word_counts(window)
        expect(oracles.expand_series(num, den, window) == want,
               f"series {text} differs from the word counts")
        return den

    def series(o: Outcome) -> None:
        ambiguous, dfa = oracle()
        if ambiguous:
            clean_rejection(o)
            return
        data = json_result(o)
        check_fraction(data["series"])
        coeffs = data["coefficients"]
        expect(coeffs == dfa.word_counts(len(coeffs) - 1), "printed coefficients are wrong")

    def rate(o: Outcome) -> None:
        ambiguous, _ = oracle()
        if ambiguous:
            clean_rejection(o)
            return
        data = json_result(o)
        den = check_fraction(data["series"])
        if hub_pairs is not None:
            want = 1 + math.sqrt(hub_pairs)
        else:
            want = oracles.growth_from_denominator(den)
        close(data["nu"], want, "nu")
        close(data["r_bits"], math.log2(want), "r_bits")

    def count(o: Outcome) -> None:
        _, dfa = oracle()
        data = json_result(o)
        expect(data["counts"] == dfa.word_counts(len(data["counts"]) - 1),
               "word counts are wrong")

    def dfa_dump(o: Outcome) -> None:
        _, dfa = oracle()
        data = json_result(o)
        table, acc, sink = data["transitions"], set(data["accepting"]), data["sink"]
        n = len(table)
        expect(all(len(row) == len(data["alphabet"]) and all(0 <= t < n for t in row)
                   for row in table), "transition table is not total")
        expect(0 <= sink < n and sink not in acc and all(t == sink for t in table[sink]),
               "sink state is not a non-accepting trap")
        expect(dfa.equivalent_to(data["alphabet"], table, data["start"], acc),
               "automaton accepts a different language")
        expect(oracles.moore_classes(table, acc) == n, "automaton is not minimal")

    return {"series": series, "rate": rate, "count": count, "dfa-dump": dfa_dump}


def _expression_jobs(name: str, expr: str, hub_pairs: Optional[int] = None,
                     known_fault: bool = False, argvs=None) -> list[Job]:
    checks = _expression_checks(expr, hub_pairs)
    argvs = argvs or {"series": ["series", "--regex", expr, "--L", "200"],
                      "rate": ["rate", "--regex", expr],
                      "count": ["count", "--regex", expr, "--L", "200"],
                      "dfa-dump": ["dfa-dump", "--regex", expr]}
    return [Job(f"{sub}-{name}", checks[sub], argv=argv + ["--format", "json"],
                known_fault=known_fault) for sub, argv in argvs.items()]


HUB_SIZES = [9, 18, 27, 36, 45, 54, 63, 72, 81]  # letter pairs per hub expression
LONG_WORD_LENGTHS = [(6, 9, 13, 17, 23, 29), (7, 11, 16, 22, 30, 37),
                     (8, 12, 19, 27, 36, 45), (9, 14, 21, 31, 42, 53)]


def expressions(rng: random.Random, work: Path, zecap) -> list[Job]:
    jobs: list[Job] = []
    pairs = [(a, b) for a in range(1, 10) for b in range(1, 10)]

    # Hub expressions (0 + sum a(0)*b)*, three per size with seeded pairs:
    # rate 1+sqrt(n).
    for i, n in enumerate(HUB_SIZES * 3):
        chosen = rng.sample(pairs, n)
        expr = "(0+" + "+".join(f"{a}(0)*{b}" for a, b in chosen) + ")*"
        jobs += _expression_jobs(f"hub{n}-{i}", expr, hub_pairs=n)

    # Nested stars: openers, middles and closers are disjoint letter sets and
    # the (opener, closer) pairs are distinct, so each expression is
    # unambiguous.
    for i, depth in enumerate((1, 2, 1, 2, 1, 2, 1, 2)):
        digits = list(range(1, 10))
        rng.shuffle(digits)
        openers, middles, closers = digits[:3], digits[3:6], digits[6:]
        terms = []
        for a, b in rng.sample([(a, b) for a in openers for b in closers], 7):
            c, d = rng.sample(middles, 2)
            inner = f"((0)*{c})*" if depth == 1 else f"(((0)*{c})*{d})*"
            terms.append(f"{a}{inner}{b}")
        jobs += _expression_jobs(f"nested{depth}-{i}", "(0+" + "+".join(terms) + ")*")

    # Unions of long words ending in 0, a prefix code: high-degree
    # denominators.  First letters are distinct and so are the letters before
    # the final 0, so the minimal DFA has the same shape for every seed.
    for lengths in LONG_WORD_LENGTHS:
        firsts, lasts = rng.sample(range(1, 10), 6), rng.sample(range(1, 10), 6)
        words = [str(f) + "".join(rng.choice("123456789") for _ in range(L - 3)) + f"{z}0"
                 for f, z, L in zip(firsts, lasts, lengths)]
        jobs += _expression_jobs(f"long{max(lengths)}", "(" + "+".join(words) + ")*")

    # Known fault (fixed input): an ambiguous star the series check misses.
    fault = "(0+" + "0" * 20 + ")*"
    jobs += _expression_jobs("ambiguous-star", fault, known_fault=True,
                             argvs={"series": ["series", "--regex", fault, "--L", "25"],
                                    "rate": ["rate", "--regex", fault]})
    return jobs


WORKLOADS = {"capacity": capacity, "codes": codes, "expressions": expressions}
