"""Command-line interface: verify codes, compute rates, emit count tables."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Optional, Sequence

from . import automata, graphs, intermingled, numerics, varlen

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
EXIT_BUDGET = 3


class CliError(ValueError):
    """A usage error; main() reports it like any ValueError, with exit 1."""


def _load_graph(args) -> graphs.ChannelGraph:
    if args.graph is None:
        raise CliError("a graph is required (--graph NAME or inline JSON)")
    spec = args.graph.strip()
    if spec.startswith("{"):
        try:
            return graphs.ChannelGraph.from_json(spec)
        except (KeyError, ValueError, json.JSONDecodeError) as ex:
            raise CliError(f"bad graph JSON: {ex}") from ex
    return graphs.graph_by_name(spec)


def _parse_words(g: graphs.ChannelGraph, text: str) -> varlen.GeneratorSet:
    items = [w.strip() for w in text.split(",")]
    if any(not w for w in items):
        raise CliError("empty word in --words")
    return varlen.GeneratorSet.from_strings(g, items)


def _load_code(args):
    """Returns ('varlen', GeneratorSet) | ('intermingled', (gs, rule)) |
    ('regex', RegexAst)."""
    sources = [args.file is not None, args.words is not None,
               getattr(args, "regex", None) is not None]
    if sum(sources) != 1:
        raise CliError("specify exactly one of --file, --words, --regex")
    if args.words is not None:
        return "varlen", _parse_words(_load_graph(args), args.words)
    if getattr(args, "regex", None) is not None:
        return "regex", automata.parse_regex(args.regex)
    try:
        with open(args.file) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise CliError(f"cannot read code file: {ex}") from ex
    try:
        if "rule" in data:
            gs = varlen.GeneratorSet.from_json(json.dumps(data["generator"]))
            rule = intermingled.rule_from_json(data["rule"])
            return "intermingled", (gs, rule)
        if "regex" in data:
            return "regex", automata.parse_regex(data["regex"])
        return "varlen", varlen.GeneratorSet.from_json(json.dumps(data))
    except (KeyError, ValueError) as ex:
        raise CliError(f"bad code spec: {ex}") from ex


def _word_label(gs: varlen.GeneratorSet, w: Sequence[int]) -> str:
    return "".join(gs.graph.labels[x] for x in w)


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _emit(args, payload: dict, human_lines: list[str],
          csv_rows: Optional[list[list]] = None) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "csv":
        rows = csv_rows if csv_rows is not None else [[k, v] for k, v in payload.items()]
        for row in rows:
            print(",".join(str(c) for c in row))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommands


def cmd_verify(args) -> int:
    kind, code = _load_code(args)
    if kind == "regex":
        raise CliError("verify applies to generator sets and intermingled codes")
    if kind == "varlen":
        gs = code
        ok, violation = varlen.verify_zero_error(gs)
        exact = True
    else:
        gs, rule = code
        res = intermingled.verify_zero_error(gs, rule)
        ok, violation, exact = res.ok, res.violation, res.exact
    payload = {"kind": kind, "zero_error": ok, "exhaustive": exact}
    lines = [f"zero-error: {'yes' if ok else 'NO'}"]
    if violation is not None:
        a, b = violation
        payload["violation"] = [list(a), list(b)]
        lines.append(f"confusable pair: {_word_label(gs, a)} / {_word_label(gs, b)}")
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_rate(args) -> int:
    kind, code = _load_code(args)
    if kind == "varlen":
        r = varlen.rate(code)
        payload = {"method": "characteristic-root", "nu": r.nu, "r_bits": r.r_bits,
                   "characteristic_polynomial": str(r.char_poly)}
        lines = [f"nu = {_fmt(r.nu)}  (unique positive root of {r.char_poly})",
                 f"r  = {_fmt(r.r_bits)} bits per channel use"]
    elif kind == "intermingled":
        gs, rule = code
        tg = intermingled.build_transition_graph(gs, rule)
        r = intermingled.rate(tg)
        payload = {"method": "spectral-radius", "nu": r.nu, "r_bits": r.r_bits,
                   "states": tg.state_count()}
        lines = [f"nu = {_fmt(r.nu)}  (spectral radius, {tg.state_count()} states)",
                 f"r  = {_fmt(r.r_bits)} bits per channel use"]
    else:
        rr = automata.rational_code_rate(automata.RationalCode.from_expression(code))
        payload = {"method": "series-pole", "nu": rr.nu, "r_bits": rr.r_bits,
                   "series": str(rr.series),
                   "polynomial_growth": rr.polynomial_growth}
        lines = [f"series = {rr.series}"]
        if rr.pole is not None:
            payload["pole"] = [rr.pole, 0.0]
            lines.append(f"pole = {_fmt(rr.pole)}")
        else:
            lines.append("polynomial growth: no pole, only the empty word")
        lines += [f"nu = {_fmt(rr.nu)}",
                  f"r  = {_fmt(rr.r_bits)} bits per channel use"]
    rows = [[k, v] for k, v in payload.items()]
    if math.isinf(payload["r_bits"]):  # nu = 0; JSON has no -Infinity
        payload["r_bits"] = None
    _emit(args, payload, lines, rows)
    return EXIT_OK


def _counts_for(args) -> tuple[list[int], object]:
    kind, code = _load_code(args)
    if kind == "varlen":
        return varlen.count_concatenations(code, args.length), code
    if kind == "intermingled":
        gs, rule = code
        tg = intermingled.build_transition_graph(gs, rule)
        return intermingled.count_sequences(tg, args.length), (gs, rule)
    dfa = automata.regex_to_dfa(code)
    return automata.count_language(dfa, args.length), code


def cmd_count(args) -> int:
    counts, _ = _counts_for(args)
    payload = {"counts": counts}
    lines = [f"L={L}: {c}" for L, c in enumerate(counts)]
    csv_rows = [["L", "count"]] + [[L, c] for L, c in enumerate(counts)]
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK


def cmd_curve(args) -> int:
    counts, code = _counts_for(args)
    envelope = None
    if args.overlay:
        if not isinstance(code, varlen.GeneratorSet):
            raise CliError("--overlay needs a variable-length generator set")
        poly = code.characteristic_polynomial()
        seed = counts[:poly.degree]
        terms = numerics.closed_form_counts(poly, seed)
        envelope = _envelope_functions(terms)
    header = ["L", "count", "root"]
    if envelope:
        header += ["f1", "f2", "f3"]
    rows = [header]
    for L, c in enumerate(counts):
        row = [L, c, "" if L == 0 or c == 0 else _fmt(c ** (1.0 / L))]
        if envelope:
            row += ["" if L == 0 else _fmt(f(L)) for f in envelope]
        rows.append(row)
    payload = {"header": header, "rows": [r for r in rows[1:]]}
    lines = [",".join(str(c) for c in r) for r in rows]
    _emit(args, payload, lines, rows)
    return EXIT_OK


def _envelope_functions(terms):
    """Moduli envelopes bracketing the L-th root oscillations.

    f1 sums all |h_i| |root_i|^L (upper), f2 subtracts the non-dominant terms
    from the dominant one (lower), f3 keeps the dominant term alone.
    """
    mods = [(abs(r), abs(h)) for r, h in terms]

    def f1(L: int) -> float:
        return sum(h * r ** L for r, h in mods) ** (1.0 / L)

    def f2(L: int) -> float:
        r0, h0 = mods[0]
        rest = sum(h * r ** L for r, h in mods[1:])
        val = h0 * r0 ** L - rest
        return val ** (1.0 / L) if val > 0 else 0.0

    def f3(L: int) -> float:
        r0, h0 = mods[0]
        return (h0 * r0 ** L) ** (1.0 / L)

    return [f1, f2, f3]


def cmd_alpha(args) -> int:
    if args.length < 1:
        raise CliError("alpha needs --L of at least 1")
    g = _load_graph(args)
    prefix = automata.channel_series_prefix(g, args.length, node_budget=args.budget_nodes)
    payload = {"alpha": list(prefix.terms), "exact": list(prefix.exact),
               "rate_lower_bound": prefix.running_rate_lower_bound()}
    lines = []
    best = 0.0
    rows = [["l", "alpha", "exact", "root", "running_max"]]
    for l, (a, ex) in enumerate(zip(prefix.terms, prefix.exact)):
        if l == 0:
            rows.append([0, a, ex, "", ""])
            continue
        root = a ** (1.0 / l)
        best = max(best, root)
        flag = "" if ex else "  (lower bound)"
        lines.append(f"l={l}: alpha={a}{flag}  alpha^(1/l)={_fmt(root)}")
        rows.append([l, a, ex, _fmt(root), _fmt(best)])
    lines.append(f"capacity lower bound: log2({_fmt(best)}) = {_fmt(math.log2(best))} bits")
    _emit(args, payload, lines, rows)
    return EXIT_OK if all(prefix.exact) else EXIT_BUDGET


def cmd_series(args) -> int:
    if args.regex is not None:
        f = automata.generator_series(automata.parse_regex(args.regex))
        coeffs = numerics.series_coefficients(f, args.length)
        payload = {"series": str(f), "coefficients": coeffs}
        lines = [f"F = {f}", "coefficients: " + ", ".join(map(str, coeffs))]
        rows = [["L", "coefficient"]] + [[L, c] for L, c in enumerate(coeffs)]
        _emit(args, payload, lines, rows)
        return EXIT_OK
    # channel generator series prefix for a graph
    g = _load_graph(args)
    prefix = automata.channel_series_prefix(g, args.length, node_budget=args.budget_nodes)
    payload = {"coefficients": list(prefix.terms), "exact": list(prefix.exact)}
    terms = " + ".join(f"{a}z^{l}" if l else str(a)
                       for l, a in enumerate(prefix.terms))
    lines = [f"channel series prefix: {terms}"]
    rows = [["l", "alpha", "exact"]] + \
           [[l, a, e] for l, (a, e) in enumerate(zip(prefix.terms, prefix.exact))]
    _emit(args, payload, lines, rows)
    return EXIT_OK if all(prefix.exact) else EXIT_BUDGET


def cmd_dfa_dump(args) -> int:
    if args.regex is None:
        raise CliError("dfa-dump needs --regex")
    dfa = automata.regex_to_dfa(automata.parse_regex(args.regex))
    payload = json.loads(dfa.to_json())
    lines = [f"states: {dfa.state_count()}  start: {dfa.start}  "
             f"accepting: {sorted(dfa.accepting)}  sink: {dfa.sink}",
             "alphabet: " + " ".join(map(str, dfa.alphabet))]
    for s, row in enumerate(dfa.transitions):
        lines.append(f"  s{s}: " + " ".join(f"{a}->s{t}"
                                            for a, t in zip(dfa.alphabet, row)))
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _length(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zecap",
        description="Zero-error codes over channel graphs: verification and rates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, length_default=None, graph=True, code_file=True, budget=False):
        p.add_argument("--format", choices=["human", "json", "csv"], default="human")
        if budget:
            p.add_argument("--budget-nodes", type=int, default=10 ** 8,
                           help="node budget for independence search")
        if graph:
            p.add_argument("--graph", help="built-in graph name or inline JSON")
        if code_file:
            p.add_argument("--file", help="JSON code spec path")
        if length_default is not None:
            p.add_argument("--L", dest="length", type=_length, default=length_default,
                           help="length cap")

    p = sub.add_parser("verify", help="check the zero-error property")
    common(p)
    p.add_argument("--words", help="comma-separated words over graph labels")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("rate", help="asymptotic rate of a code")
    common(p)
    p.add_argument("--words", help="comma-separated words over graph labels")
    p.add_argument("--regex", help="rational code expression, e.g. (0+11)*")
    p.set_defaults(func=cmd_rate)

    p = sub.add_parser("count", help="codeword counts by length")
    common(p, length_default=10)
    p.add_argument("--words", help="comma-separated words over graph labels")
    p.add_argument("--regex", help="regular expression to count")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("curve", help="counts with L-th roots (CSV friendly)")
    common(p, length_default=20)
    p.add_argument("--words", help="comma-separated words over graph labels")
    p.add_argument("--regex", help="regular expression to count")
    p.add_argument("--overlay", action="store_true",
                   help="add closed-form envelope columns f1,f2,f3")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("alpha", help="independence numbers of strong powers")
    common(p, length_default=2, code_file=False, budget=True)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("series", help="generator series of a regex or channel")
    common(p, length_default=10, code_file=False, budget=True)
    p.add_argument("--regex", help="regular expression")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("dfa-dump", help="deterministic automaton of a regex")
    common(p, graph=False, code_file=False)
    p.add_argument("--regex", help="regular expression")
    p.set_defaults(func=cmd_dfa_dump)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except graphs.BudgetExceededError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_BUDGET
    except varlen.NonUniquelyDecodableError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, ArithmeticError, automata.AmbiguousExpressionError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
