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
        except (KeyError, TypeError, ValueError) as ex:
            raise CliError(f"bad graph JSON: {ex}") from ex
    return graphs.graph_by_name(spec)


def _load_code(args):
    """Returns ('varlen', GeneratorSet) | ('intermingled', (gs, rule)) |
    ('regex', RegexAst)."""
    sources = [args.file is not None, args.words is not None,
               getattr(args, "regex", None) is not None]
    if sum(sources) != 1:
        raise CliError("specify exactly one of --file, --words, --regex")
    if args.words is not None:
        g = _load_graph(args)
        items = [w.strip() for w in args.words.split(",")]
        if not all(items):
            raise CliError("empty word in --words")
        return "varlen", varlen.GeneratorSet.from_strings(g, items)
    if getattr(args, "regex", None) is not None:
        return "regex", automata.parse_regex(args.regex)
    try:
        with open(args.file) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise CliError(f"cannot read code file: {ex}") from ex
    try:
        if "rule" in data:
            gs = varlen.GeneratorSet._from_data(data["generator"])
            rule = intermingled.rule_from_json(data["rule"])
            return "intermingled", (gs, rule)
        if "regex" in data:
            return "regex", automata.parse_regex(data["regex"])
        return "varlen", varlen.GeneratorSet._from_data(data)
    except (AttributeError, KeyError, TypeError, ValueError) as ex:
        raise CliError(f"bad code spec: {ex}") from ex


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _emit(args, payload: dict, human_lines: list[str],
          csv_rows: Optional[list[list]] = None) -> None:
    if args.format == "json":
        print(json.dumps(payload))
    elif args.format == "csv":
        import csv  # not at the top: its shared library adds 0.2 MB to json and human runs
        rows = csv_rows if csv_rows is not None else payload.items()
        csv.writer(sys.stdout, lineterminator="\n").writerows(map(str, row) for row in rows)
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
        payload["violation"] = [list(w) for w in violation]
        lines.append("confusable pair: " + " / ".join(
            "".join(gs.graph.labels[x] for x in w) for w in violation))
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_rate(args) -> int:
    kind, code = _load_code(args)
    if kind == "varlen":
        r = varlen.rate(code)
        payload = {"method": "characteristic-root", "nu": r.nu, "r_bits": r.r_bits,
                   "characteristic_polynomial": str(r.char_poly)}
        lines = [f"nu = {_fmt(r.nu)}  (unique positive root of {r.char_poly})"]
    elif kind == "intermingled":
        successors, states = intermingled._length_successors(*code)
        r = intermingled._rate(successors)
        payload = {"method": "spectral-radius", "nu": r.nu, "r_bits": r.r_bits, "states": states}
        lines = [f"nu = {_fmt(r.nu)}  (spectral radius, {states} states)"]
    else:
        r = automata.rational_code_rate(automata.RationalCode.from_expression(code))
        payload = {"method": "series-pole", "nu": r.nu, "r_bits": r.r_bits,
                   "series": str(r.series),
                   "polynomial_growth": r.polynomial_growth}
        lines = [f"series = {r.series}"]
        if r.pole is not None:
            payload["pole"] = [r.pole, 0.0]
            lines.append(f"pole = {_fmt(r.pole)}")
        else:
            lines.append("polynomial growth: no pole, only the empty word")
        lines.append(f"nu = {_fmt(r.nu)}")
    lines.append(f"r  = {_fmt(r.r_bits)} bits per channel use")
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
        return intermingled._count(intermingled._length_successors(*code)[0], args.length), code
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
    header = ["L", "count", "root"]
    if args.overlay:
        if not isinstance(code, varlen.GeneratorSet):
            raise CliError("--overlay needs a variable-length generator set")
        poly = code.characteristic_polynomial()
        seed = counts[:poly.degree]
        terms = numerics.closed_form_counts(poly, seed)
        header += ["f1", "f2", "f3"]
    rows = [header]
    for L, c in enumerate(counts):
        row = [L, c, "" if L == 0 or c == 0 else _fmt(c ** (1.0 / L) if c <= sys.float_info.max
                                                      else math.exp(math.log(c) / L))]
        if args.overlay:
            row += [""] * 3 if L == 0 else [_fmt(f) for f in _envelope(terms, L)]
        rows.append(row)
    payload = {"header": header, "rows": [r for r in rows[1:]]}
    lines = [",".join(str(c) for c in r) for r in rows]
    _emit(args, payload, lines, rows)
    return EXIT_OK


def _envelope(terms, L: int) -> list[float]:
    """Moduli envelopes f1, f2, f3 bracketing the L-th root oscillations, L >= 1.

    Of the parts |h_i| |root_i|^L of the closed-form ``terms``, dominant first,
    f1 sums all (upper), f2 subtracts the others from the dominant one (lower,
    0.0 when not positive) and f3 keeps the dominant one alone.
    """
    try:
        scale, parts = 1.0, [abs(h) * abs(r) ** L for r, h in terms]
    except OverflowError:  # past the float range: parts relative to |root_0|^L
        scale = abs(terms[0][0])
        parts = [abs(h) * (abs(r) / scale) ** L for r, h in terms]
    lower = parts[0] - sum(parts[1:])
    return [scale * sum(parts) ** (1.0 / L),
            scale * lower ** (1.0 / L) if lower > 0 else 0.0,
            scale * parts[0] ** (1.0 / L)]


def cmd_alpha(args) -> int:
    """alpha, and series of a channel: both read the channel series prefix."""
    if args.length < 1 and args.command == "alpha":
        raise CliError("alpha needs --L of at least 1")
    prefix = automata.channel_series_prefix(_load_graph(args), args.length,
                                            node_budget=args.budget_nodes)
    if args.command == "series":
        payload = {"coefficients": list(prefix.terms), "exact": list(prefix.exact)}
        terms = " + ".join(f"{a}z^{l}" if l else str(a)
                           for l, a in enumerate(prefix.terms))
        lines = [f"channel series prefix: {terms}"]
        rows = [["l", "alpha", "exact"]] + \
               [[l, a, e] for l, (a, e) in enumerate(zip(prefix.terms, prefix.exact))]
    else:
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
        bound = math.log2(best) if best > 0 else float("-inf")  # no vertices: alpha = 0
        lines.append(f"capacity lower bound: log2({_fmt(best)}) = {_fmt(bound)} bits")
    _emit(args, payload, lines, rows)
    return EXIT_OK if all(prefix.exact) else EXIT_BUDGET


def cmd_series(args) -> int:
    if args.regex is None:
        return cmd_alpha(args)
    f = automata.generator_series(automata.parse_regex(args.regex))
    coeffs = numerics.series_coefficients(f, args.length)
    payload = {"series": str(f), "coefficients": coeffs}
    lines = [f"F = {f}", "coefficients: " + ", ".join(map(str, coeffs))]
    rows = [["L", "coefficient"]] + [[L, c] for L, c in enumerate(coeffs)]
    _emit(args, payload, lines, rows)
    return EXIT_OK


def cmd_dfa_dump(args) -> int:
    if args.regex is None:
        raise CliError("dfa-dump needs --regex")
    dfa = automata.regex_to_dfa(automata.parse_regex(args.regex))
    payload = dfa.to_data()
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
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zecap",
        description="Zero-error codes over channel graphs: verification and rates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, length_default=None, graph=True, code=True,
                budget=False, regex=None):
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=["human", "json", "csv"], default="human")
        if budget:
            p.add_argument("--budget-nodes", type=_length, default=10 ** 8,
                           help="node budget for independence search")
        if graph:
            p.add_argument("--graph", help="built-in graph name or inline JSON")
        if code:
            p.add_argument("--file", help="JSON code spec path")
        if length_default is not None:
            p.add_argument("--L", dest="length", type=_length, default=length_default,
                           help="length cap")
        if code:
            p.add_argument("--words", help="comma-separated words over graph labels")
        if regex:
            p.add_argument("--regex", help=regex)
        p.set_defaults(func=func)
        return p

    command("verify", cmd_verify, "check the zero-error property")
    command("rate", cmd_rate, "asymptotic rate of a code",
            regex="rational code expression, e.g. (0+11)*")
    command("count", cmd_count, "codeword counts by length", length_default=10,
            regex="regular expression to count")
    curve = command("curve", cmd_curve, "counts with L-th roots (CSV friendly)",
                    length_default=20, regex="regular expression to count")
    curve.add_argument("--overlay", action="store_true",
                       help="add closed-form envelope columns f1,f2,f3")
    command("alpha", cmd_alpha, "independence numbers of strong powers", length_default=2,
            code=False, budget=True)
    command("series", cmd_series, "generator series of a regex or channel",
            length_default=10, code=False, budget=True, regex="regular expression")
    command("dfa-dump", cmd_dfa_dump, "deterministic automaton of a regex",
            graph=False, code=False, regex="regular expression")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return EXIT_USAGE if ex.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (graphs.BudgetExceededError, varlen.NonUniquelyDecodableError, ValueError,
            ArithmeticError, automata.AmbiguousExpressionError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return (EXIT_BUDGET if isinstance(ex, graphs.BudgetExceededError) else
                EXIT_VIOLATION if isinstance(ex, varlen.NonUniquelyDecodableError) else EXIT_USAGE)
    except RecursionError:  # e.g. a word of about a thousand letters in --regex
        print(f"error: input too deep for the recursion limit ({sys.getrecursionlimit()})",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
