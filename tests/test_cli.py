import contextlib
import csv
import io
import itertools
import json
import math
import os
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zecap import numerics, varlen
from zecap.cli import build_parser, main
from zecap.graphs import graph_by_name

HUB_REGEX = "(0+1(0)*1+2(0)*3+3(0)*5+4(0)*2+5(0)*4)*"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--graph", "C5+1",
                       "--words", "0,11,23,35,42,54")
    assert code == 0
    assert "zero-error: yes" in out


def test_verify_violation(capsys):
    code, out, _ = run(capsys, "verify", "--graph", "C5+1", "--words", "11,12")
    assert code == 2
    assert "11 / 12" in out


@pytest.mark.parametrize("words", ["3,30", "31,4", "22,325", "114,2133,2212"])
def test_verify_words_proves_sets_the_trie_test_cannot(capsys, words):
    # each set has two words confusable on their common prefix, yet no two
    # concatenations of equal length are confusable
    code, out, _ = run(capsys, "verify", "--graph", "C5+1", "--words", words)
    assert (code, out) == (0, "zero-error: yes\n")


@pytest.mark.parametrize("words, pair", [("11,112", "11112 / 11211"), ("11,12", "11 / 12")])
def test_verify_words_names_two_confusable_sequences(capsys, words, pair):
    code, out, _ = run(capsys, "verify", "--graph", "C5+1", "--words", words)
    assert (code, out) == (2, f"zero-error: NO\nconfusable pair: {pair}\n")


@pytest.mark.parametrize("words", ["3,30", "31,4", "22,325", "114,2133,2212", "11,112", "11,12",
                                   "0,11,23,35,42,54"])
def test_verify_words_and_varlen_file_agree(tmp_path, capsys, words):
    g = graph_by_name("C5+1")
    spec = {"generator": {"graph": "C5+1",
                          "words": [[g.index_of(ch) for ch in w] for w in words.split(",")]},
            "rule": {"family": "varlen"}}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "verify", "--graph", "C5+1", "--words", words, "--format", "json")
    assert out.startswith('{"kind": "varlen", ')
    want = out.replace('"varlen"', '"intermingled"', 1)
    assert run(capsys, "verify", "--file", str(path), "--format", "json") == (code, want, "")


def test_verify_parse_error(capsys):
    code, _, err = run(capsys, "verify", "--graph", "C5+1", "--words", "")
    assert code == 1
    assert "error" in err


def test_verify_unknown_graph(capsys):
    code, _, err = run(capsys, "verify", "--graph", "Z9", "--words", "0")
    assert code == 1


def test_verify_inline_graph_json(capsys):
    graph = json.dumps({"labels": ["a", "b"], "edges": [[0, 1]]})
    code, out, _ = run(capsys, "verify", "--graph", graph, "--words", "a,b")
    assert code == 2


def test_verify_intermingled_file(tmp_path, capsys):
    spec = {
        "generator": {"graph": "C5+1",
                      "words": [[0], [1, 1], [2, 3], [3, 5], [4, 2], [5, 4]]},
        "rule": {"family": "single-open", "hub": 0},
    }
    path = tmp_path / "code.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 0
    assert "zero-error: yes" in out


def test_rate_varlen(capsys):
    code, out, _ = run(capsys, "rate", "--graph", "C5+1",
                       "--words", "0,11,23,35,42,54")
    assert code == 0
    assert "2.791288" in out
    assert "X^2 -X -5" in out


def test_rate_intermingled_file(tmp_path, capsys):
    spec = {
        "generator": {"graph": "C5+1",
                      "words": [[0], [1, 1], [2, 3], [3, 5], [4, 2], [5, 4]]},
        "rule": {"family": "single-open", "hub": 0},
    }
    path = tmp_path / "code.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "rate", "--file", str(path))
    assert code == 0
    assert "3.236068" in out
    assert "spectral radius" in out


def test_rate_regex(capsys):
    code, out, _ = run(capsys, "rate", "--regex", HUB_REGEX)
    assert code == 0
    assert "3.236068" in out
    assert "0.309017" in out


def test_rate_regex_requires_star(capsys):
    code, _, err = run(capsys, "rate", "--regex", "0+1")
    assert code == 1


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--graph", "C5+1",
                       "--words", "0,11,23,35,42,54", "--L", "5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["counts"] == [1, 1, 6, 11, 41, 96]


def test_count_regex(capsys):
    code, out, _ = run(capsys, "count", "--regex", HUB_REGEX, "--L", "5",
                       "--format", "json")
    assert json.loads(out)["counts"] == [1, 1, 6, 16, 56, 176]


def test_curve_roots(capsys):
    code, out, _ = run(capsys, "curve", "--graph", "C5+1",
                       "--words", "11,23,35,42,54,001,003", "--L", "5",
                       "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["L", "count", "root"]
    by_l = {int(r[0]): r for r in rows[1:]}
    assert by_l[3][2] == "1.259921"
    assert by_l[4][2] == "2.236068"
    assert by_l[5][2] == "1.820564"
    assert by_l[0][2] == ""


def test_curve_overlay_brackets_roots(capsys):
    code, out, _ = run(capsys, "curve", "--graph", "C5+1",
                       "--words", "11,23,35,42,54,001,003", "--L", "30",
                       "--overlay", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()][1:]
    for row in rows:
        L, count = int(row[0]), int(row[1])
        if L == 0 or count == 0:
            continue
        root = float(row[2])
        f1, f2 = float(row[3]), float(row[4])
        assert f2 - 1e-9 <= root <= f1 + 1e-9


def test_alpha(capsys):
    code, out, _ = run(capsys, "alpha", "--graph", "C5", "--L", "2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == [1, 2, 5]
    assert data["rate_lower_bound"] == pytest.approx(math.sqrt(5), abs=1e-9)


def test_alpha_k3(capsys):
    code, out, _ = run(capsys, "alpha", "--graph", "K3", "--L", "3",
                       "--format", "json")
    assert json.loads(out)["alpha"] == [1, 1, 1, 1]


def test_series_regex(capsys):
    code, out, _ = run(capsys, "series", "--regex", HUB_REGEX, "--L", "5",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [1, 1, 6, 16, 56, 176]


def test_series_ambiguous_regex(capsys):
    code, _, err = run(capsys, "series", "--regex", "0+0")
    assert code == 1
    assert "0+0" in err


def test_series_channel(capsys):
    code, out, _ = run(capsys, "series", "--graph", "C5", "--L", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["coefficients"] == [1, 2, 5]


def test_dfa_dump(capsys):
    code, out, _ = run(capsys, "dfa-dump", "--regex", HUB_REGEX,
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["transitions"]) == 7
    assert data["accepting"] == [data["start"]]


def test_budget_exit_code(capsys):
    code, out, _ = run(capsys, "alpha", "--graph", "C5", "--L", "3",
                       "--budget-nodes", "5", "--format", "json")
    assert code == 3
    data = json.loads(out)
    assert not all(data["exact"])


def test_alpha_c5_plus_one_cubed_is_exact(capsys):
    code, out, _ = run(capsys, "alpha", "--graph", "C5+1", "--L", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == [1, 3, 10, 32]
    assert all(data["exact"])


def test_alpha_c5_fourth_power_closes_at_the_section_bound(capsys):
    # seed alpha(C5^2)^2 = 25 meets the section bound floor(5/2 * 10) = 25
    code, out, _ = run(capsys, "alpha", "--graph", "C5", "--L", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == [1, 2, 5, 10, 25]
    assert all(data["exact"])


def test_alpha_c5_plus_one_fourth_power_is_exact(capsys):
    code, out, _ = run(capsys, "alpha", "--graph", "C5+1", "--L", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["alpha"] == [1, 3, 10, 32, 104]
    assert all(data["exact"])


def test_budget_exit_code_on_a_disconnected_graph(capsys):
    # (C7+1)^2 = C7 x C7 + 2 C7 + K1: the C7 x C7 part runs out of nodes
    code, out, _ = run(capsys, "alpha", "--graph", "C7+1", "--L", "2",
                       "--budget-nodes", "5", "--format", "json")
    assert code == 3
    data = json.loads(out)
    assert data["alpha"][:2] == [1, 4] and data["exact"][:2] == [True, True]
    assert not data["exact"][2] and data["alpha"][2] <= 17


def _reject_constant(name):
    raise ValueError(f"not JSON: {name}")


def test_rate_json_of_a_code_with_no_growth_is_valid(tmp_path, capsys):
    # every codeword sequence ends after one word, so nu = 0 and r = -inf bits
    spec = {"generator": {"graph": {"labels": ["0", "1"], "edges": []},
                          "words": [[0], [1, 1]]},
            "rule": {"family": "table", "table": {"[0,0]": [1], "[0,1]": [0]}}}
    path = tmp_path / "code.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "rate", "--file", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out, parse_constant=_reject_constant)
    assert data["nu"] == 0.0 and data["r_bits"] is None
    code, out, _ = run(capsys, "rate", "--file", str(path), "--format", "csv")
    assert code == 0 and "r_bits,-inf" in out


def test_json_round_trip_of_code_spec(tmp_path, capsys):
    # a dumped generator-set spec reproduces the identical report
    from zecap.graphs import graph_by_name
    from zecap.varlen import GeneratorSet
    gs = GeneratorSet.from_strings(graph_by_name("C5+1"),
                                   ["0", "11", "23", "35", "42", "54"])
    path = tmp_path / "gs.json"
    path.write_text(gs.to_json(graph_name="C5+1"))
    _, out_inline, _ = run(capsys, "rate", "--graph", "C5+1",
                           "--words", "0,11,23,35,42,54", "--format", "json")
    _, out_file, _ = run(capsys, "rate", "--file", str(path), "--format", "json")
    assert json.loads(out_inline) == json.loads(out_file)



AMBIGUOUS_STAR = "(0+" + "0" * 20 + ")*"  # 0*, not 1/(1-z-z^20)


@pytest.mark.parametrize("argv", [
    ["series", "--regex", AMBIGUOUS_STAR, "--L", "25"],
    ["rate", "--regex", AMBIGUOUS_STAR],
    ["alpha", "--graph", "C5", "--L", "0"],
    # X^2 - X - 5 needs two seed terms; --L 0 gives one
    ["curve", "--graph", "C5+1", "--words", "0,11,23,35,42,54", "--overlay",
     "--L", "0"],
    ["count", "--graph", "C5+1", "--words", "0,11", "--L", "-1"],
    ["series", "--regex", "(0+11)*", "--L", "-1"],
], ids=["series-ambiguous-star", "rate-ambiguous-star", "alpha-L0",
        "curve-overlay-short", "count-negative-L", "series-negative-L"])
def test_rejected_input_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["count", "--graph", "C5+1", "--words", "0,000000000", "--L", "10"],
    ["rate", "--graph", "C5+1", "--words", "0,000000000"],
], ids=["count", "rate"])
def test_not_uniquely_decodable_set_is_a_violation(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err and "not uniquely decodable" in err


def test_not_uniquely_decodable_error_names_a_shortest_word(capsys):
    # the pair search on the flower automaton is breadth first, so the word
    # it reports, 0^9, is the shortest with two factorizations
    code, out, err = run(capsys, "count", "--graph", "C5+1",
                         "--words", "0,000000000", "--L", "10")
    assert (code, out) == (2, "")
    assert err == ("error: generator set is not uniquely decodable: "
                   "0.0.0.0.0.0.0.0.0 = 000000000\n")


def test_curve_overlay_with_repeated_root_is_a_usage_error(capsys):
    # X^3 - 3X - 2 = (X + 1)^2 (X - 2) has no closed form with distinct roots
    code, out, err = run(capsys, "curve", "--graph", '{"labels":["0","1","2"],"edges":[]}',
                         "--words", "00,11,22,012,120", "--overlay", "--L", "6")
    assert code == 1
    assert out == ""
    assert "error:" in err and "repeated roots" in err and "Traceback" not in err


def test_verify_file_rejects_heptagon_single_open_code(tmp_path, capsys):
    spec = {"generator": {"graph": "C7",
                          "words": [[0], [2, 0], [2, 2], [2, 4], [4, 0], [4, 2], [4, 4]]},
            "rule": {"family": "single-open", "hub": 0}}
    path = tmp_path / "heptagon.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "verify", "--file", str(path))
    assert code == 2
    assert "confusable pair: 200 / 200" in out


@pytest.mark.parametrize("argv", [
    ["dfa-dump", "--regex", "(0+11)*", "--graph", "C5"],
    ["dfa-dump", "--regex", "(0+11)*", "--file", "code.json"],
    ["alpha", "--graph", "C5", "--file", "code.json"],
    ["series", "--regex", "(0+11)*", "--file", "code.json"],
    ["rate", "--regex", "(0+11)*", "--tol", "1e-8"],
    ["verify", "--graph", "C5+1", "--words", "0", "--budget-nodes", "5"],
], ids=["dfa-dump-graph", "dfa-dump-file", "alpha-file", "series-file", "rate-tol",
        "verify-budget"])
def test_subcommands_take_only_the_options_they_read(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == ""


def test_repeated_calls_share_one_parser_and_answer_alike(capsys):
    jobs = [["series", "--regex", "(0+11)*", "--L", "-1"],  # usage error
            ["series", "--regex", "(0+11)*", "--L", "6"],
            ["dfa-dump", "--regex", "(0+11)*"]]
    build_parser.cache_clear()
    first = [run(capsys, *argv) for argv in jobs]
    assert [code for code, _, _ in first] == [1, 0, 0]
    assert "usage: zecap series" in first[0][2]
    parser = build_parser()
    for _ in range(2):
        assert [run(capsys, *argv) for argv in jobs] == first
    assert build_parser() is parser


@pytest.mark.parametrize("spec", [
    {"graph": "C5", "words": [[0], [1.9, 3]]},
    {"generator": {"graph": "C5+1", "words": [[0], [1, 1], [2, 3]]},
     "rule": {"family": "single-open", "hub": 0.7}},
    {"graph": "C5", "words": [["3"], [1]]},
], ids=["float-letter", "float-hub", "digit-string-letter"])
@pytest.mark.parametrize("sub", ["verify", "rate"])
def test_code_file_with_a_non_integer_index_is_rejected(tmp_path, capsys, spec, sub):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(spec))
    code, out, err = run(capsys, sub, "--file", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: bad code spec: ") and "Traceback" not in err


def test_unknown_letter_in_words_names_the_label(capsys):
    code, out, err = run(capsys, "rate", "--graph", "C5", "--words", "0,x")
    assert (code, out) == (1, "")
    assert err == "error: unknown vertex label 'x'\n"


MALFORMED_CODES = {
    "null": None, "list": [1], "number": 5, "string": "my rule",
    "table-as-list": {"generator": {"graph": "C5", "words": [[0]]},
                      "rule": {"family": "table", "table": [[0]]}},
    "rule-as-string": {"generator": {"graph": "C5", "words": [[0]]}, "rule": "full"},
    "table-entry-out-of-range": {"generator": {"graph": "C5", "words": [[0]]},
                                 "rule": {"family": "table", "table": {"[0]": [5]}}},
    "table-entry-negative": {"generator": {"graph": "C5", "words": [[0], [1]]},
                             "rule": {"family": "table", "table": {"[0,0]": [-1]}}},
    "table-entry-string": {"generator": {"graph": "C5", "words": [[0]]},
                           "rule": {"family": "table", "table": {"[0]": ["a"]}}},
}
MALFORMED_GRAPHS = {
    "string-endpoints": {"labels": ["0", "1"], "edges": [["0", "1"]]},
    "null-fields": {"labels": None, "edges": None},
}


@pytest.mark.parametrize("argv", [
    *[[sub, "--file", name] for name in MALFORMED_CODES for sub in ("verify", "rate", "count")],
    *[[sub, "--graph", json.dumps(g)] + (["--words", "0,1"] if sub == "verify" else [])
      for g in MALFORMED_GRAPHS.values() for sub in ("alpha", "verify")],
    ["alpha", "--graph", "C5", "--L", "2", "--budget-nodes", "-1"],
    ["series", "--graph", "C5", "--L", "2", "--budget-nodes", "-1"],
])
def test_malformed_input_is_a_usage_error_without_a_traceback(tmp_path, monkeypatch,
                                                              capsys, argv):
    monkeypatch.chdir(tmp_path)
    for name, spec in MALFORMED_CODES.items():
        (tmp_path / name).write_text(json.dumps(spec))
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "error:" in err and "Traceback" not in err


def test_zero_node_budget_is_allowed(capsys):
    code, out, _ = run(capsys, "alpha", "--graph", "C5", "--L", "2", "--budget-nodes", "0",
                       "--format", "json")
    # no search may run, so every level past l = 0 is a lower bound
    assert code == 3 and json.loads(out)["exact"] == [True, False, False]


SPEC_WORDS = ["C5", "C5+1", "K1", "varlen", "single-open", "full", "table", "(0+11)*",
              "[0]", "[0,0]", "0", "graph", "words", "generator", "rule", "family", "hub",
              "regex", "labels", "edges"]
JSON_SCALARS = (st.none() | st.integers(-2, 6) | st.floats(-2, 6)
                | st.sampled_from(SPEC_WORDS) | st.text("01+*()", max_size=3))
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(SPEC_WORDS), inner, max_size=3),
    max_leaves=8)


def _main_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=150, deadline=None)
@given(JSON_DOCUMENTS, st.sampled_from(["verify", "rate", "count"]))
def test_any_json_code_file_gives_an_exit_code(doc, sub):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = [sub, "--file", path] + (["--L", "6"] if sub == "count" else [])
        assert isinstance(_main_quietly(argv), int)


@settings(max_examples=150, deadline=None)
@given(JSON_DOCUMENTS | st.fixed_dictionaries({"labels": JSON_DOCUMENTS,
                                               "edges": JSON_DOCUMENTS}),
       st.sampled_from(["alpha", "verify"]))
def test_any_json_graph_gives_an_exit_code(doc, sub):
    argv = [sub, "--graph", json.dumps(doc)] + (["--words", "0,1"] if sub == "verify" else [])
    assert isinstance(_main_quietly(argv), int)


@pytest.mark.parametrize("option, value", [("--L", "x"), ("--budget-nodes", "1.5")])
def test_non_integer_length_names_no_function(capsys, option, value):
    code, out, err = run(capsys, "alpha", "--graph", "C5", option, value)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (f"zecap alpha: error: argument {option}: "
                                    f"must be a non-negative integer, got {value!r}")


def closure_envelopes(terms):
    """Reference: the three envelope closures, each summing its own terms."""
    mods = [(abs(r), abs(h)) for r, h in terms]

    def f1(L):
        return sum(h * r ** L for r, h in mods) ** (1.0 / L)

    def f2(L):
        r0, h0 = mods[0]
        rest = sum(h * r ** L for r, h in mods[1:])
        val = h0 * r0 ** L - rest
        return val ** (1.0 / L) if val > 0 else 0.0

    def f3(L):
        r0, h0 = mods[0]
        return (h0 * r0 ** L) ** (1.0 / L)

    return [f1, f2, f3]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text("012345", min_size=1, max_size=3), min_size=1, max_size=7, unique=True))
def test_curve_overlay_columns_match_the_closure_formulas(words):
    # a prefix-free set is uniquely decodable
    words = [w for w in words if not any(v != w and w.startswith(v) for v in words)]
    argv = ["curve", "--graph", "C5+1", "--words", ",".join(words), "--L", "20",
            "--overlay", "--format", "csv"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assume(code == 0)  # a repeated root has no closed form
    gs = varlen.GeneratorSet.from_strings(graph_by_name("C5+1"), words)
    poly = gs.characteristic_polynomial()
    counts = varlen.count_concatenations(gs, 20)
    envelopes = closure_envelopes(numerics.closed_form_counts(poly, counts[:poly.degree]))
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    assert [r[3:] for r in rows] == [[""] * 3] + [[f"{f(L):.6f}" for f in envelopes]
                                                  for L in range(1, 21)]


def hub_fifth_power_file(tmp_path):
    """{0} with every concatenation of five pentagon hub words, as a code file
    under the single-open rule with hub 0."""
    words = ["0"] + ["".join(p) for p in itertools.product(["11", "23", "35", "42", "54"],
                                                           repeat=5)]
    gs = varlen.GeneratorSet.from_strings(graph_by_name("C5+1"), words)
    path = tmp_path / "hub-fifth-power.json"
    path.write_text(json.dumps({"generator": json.loads(gs.to_json("C5+1")),
                                "rule": {"family": "single-open", "hub": 0}}))
    return str(path)


def hub_fifth_power_series(up_to):
    """Coefficients of (1-z)^9 / ((1-z)^10 - 3125 z^10), the series of the
    hub code {0} with every concatenation of five pentagon hub words, by the
    integer recurrence of its denominator."""
    den = [(-1) ** k * math.comb(10, k) for k in range(11)]
    den[10] -= 3125
    num = [(-1) ** k * math.comb(9, k) for k in range(10)]
    out = []
    for L in range(up_to + 1):
        out.append((num[L] if L < 10 else 0)
                   - sum(den[k] * out[L - k] for k in range(1, min(L, 10) + 1)))
    return out


def test_hub_fifth_power_counts_are_its_series(tmp_path, capsys):
    code, out, _ = run(capsys, "count", "--file", hub_fifth_power_file(tmp_path), "--L", "60",
                       "--format", "json")
    counts = json.loads(out)["counts"]
    assert code == 0 and counts[10:13] == [3126, 34376, 206251]
    assert counts == hub_fifth_power_series(60)


def test_hub_fifth_power_rate_names_the_transition_graph_size(tmp_path, capsys):
    code, out, _ = run(capsys, "rate", "--file", hub_fifth_power_file(tmp_path), "--format", "json")
    data = json.loads(out)
    assert (code, data["states"]) == (0, 28126)
    assert abs(data["nu"] - (1 + math.sqrt(5))) < 1e-9


@pytest.mark.parametrize("sub", ["rate", "count"])
def test_single_open_hub_outside_the_words_is_a_usage_error(tmp_path, capsys, sub):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"generator": {"graph": "C5+1", "words": [[0], [1, 1]]},
                                "rule": {"family": "single-open", "hub": 5}}))
    assert run(capsys, sub, "--file", str(path)) == \
        (1, "", "error: hub index 5 is outside the 2 words\n")


@pytest.mark.parametrize("overlay", [[], ["--overlay"]])
def test_curve_roots_past_the_float_range(capsys, overlay):
    code, out, _ = run(capsys, "curve", "--graph", "C5+1", "--words", "0,11,23,35,42,54",
                       "--L", "1100", "--format", "csv", *overlay)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert (code, len(rows)) == (0, 1101)
    c, root = int(rows[-1][1]), rows[-1][2]
    assert root == f"{math.exp(math.log(c) / 1100):.6f}"
    assert abs(float(root) - (1 + math.sqrt(21)) / 2) < 0.01
    if overlay:  # the envelopes through the logs of the closed form's moduli
        gs = varlen.GeneratorSet.from_strings(graph_by_name("C5+1"),
                                              ["0", "11", "23", "35", "42", "54"])
        poly = gs.characteristic_polynomial()
        terms = numerics.closed_form_counts(poly, varlen.count_concatenations(gs, poly.degree))
        logs = [math.log(abs(h)) + 1100 * math.log(abs(r)) for r, h in terms]
        rest = sum(math.exp(x - logs[0]) for x in logs[1:])
        want = [logs[0] + math.log1p(rest), logs[0] + math.log1p(-rest), logs[0]]
        assert rows[-1][3:] == [f"{math.exp(x / 1100):.6f}" for x in want]


def hub_code_file(tmp_path, k):
    """{0} u W^k on C5+1 under the single-open rule, W the pentagon words."""
    w = [[1, 1], [2, 3], [3, 5], [4, 2], [5, 4]]
    words = [[0]] + [sum(p, []) for p in itertools.product(w, repeat=k)]
    path = tmp_path / f"hub{k}.json"
    path.write_text(json.dumps({"generator": {"graph": "C5+1", "words": words},
                                "rule": {"family": "single-open", "hub": 0}}))
    return path


@pytest.mark.parametrize("k", [4, 5])
def test_verify_hub_code_powers_exhaustively(tmp_path, capsys, k):
    # 626 and 3,126 words: the product search would exceed its budget; the
    # hub 0 has no neighbour and no other word uses it, so W^k decides
    code, out, _ = run(capsys, "verify", "--file", str(hub_code_file(tmp_path, k)),
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"kind": "intermingled", "zero_error": True, "exhaustive": True}


@pytest.mark.parametrize("argv, want", [
    (["rate"], '{"method": "characteristic-root", "nu": 1.618033988749895, '
               '"r_bits": 0.6942419136306174, "characteristic_polynomial": "X^2 -X -1"}\n'),
    (["count", "--L", "8"], '{"counts": [1, 1, 2, 3, 5, 8, 13, 21, 34]}\n'),
])
def test_rate_and_count_of_a_set_failing_the_prefix_test(capsys, argv, want):
    # 3 is confusable with the prefix of 30, yet {3, 30} is uniquely
    # decodable: the decodability search runs, and the answer is as before
    code, out, err = run(capsys, *argv, "--graph", "C5+1", "--words", "3,30", "--format", "json")
    assert (code, out, err) == (0, want, "")


def long_word_case(sub, n):
    """argv and JSON answer of sub on (0^n)*, whose series is 1/(1 - z^n)."""
    every_nth = [int(L % n == 0) for L in range(2 * n + 1)]
    series = f"(1) / (-z^{n} +1)"
    answers = {
        "count": {"counts": every_nth},
        "rate": {"method": "series-pole", "nu": 1.0, "r_bits": 0.0, "series": series,
                 "polynomial_growth": False, "pole": [1.0, 0.0]},
        "series": {"series": series, "coefficients": every_nth},
        "dfa-dump": {"alphabet": [0], "transitions": [[s + 1] for s in range(n - 1)] + [[0], [n]],
                     "start": 0, "accepting": [0], "sink": n}}
    lengths = ["--L", str(2 * n)] if sub in ("count", "series") else []
    return pytest.param([sub, "--regex", "(" + "0" * n + ")*"] + lengths, answers[sub],
                        id=sub if n == 1200 else f"{sub}-{n}")


@pytest.mark.parametrize("argv, want", [
    *(long_word_case(sub, 1200) for sub in ["count", "rate", "series", "dfa-dump"]),
    long_word_case("rate", 2000), long_word_case("series", 2000)])
def test_long_word_is_answered(capsys, argv, want):
    # the walks over the expression tree keep explicit stacks, not recursion
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, json.loads(out), err) == (0, want, "")


def test_code_file_nested_past_the_recursion_limit_is_a_usage_error(tmp_path, capsys):
    # Python's JSON reader recurses once per level of nesting
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "rate", "--file", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: input too deep for the recursion limit ({sys.getrecursionlimit()})\n"


def word_dfa(word):
    """dfa-dump's DFA of one word over the letters 0-9 that starts with 0 and
    uses another letter: a chain, numbered breadth-first, with the sink 2."""
    chain = [0, 1] + list(range(3, len(word) + 2))
    transitions = [[2] * 10 for _ in range(len(word) + 2)]
    for i, a in enumerate(word):
        transitions[chain[i]][int(a)] = chain[i + 1]
    return {"alphabet": list(range(10)), "transitions": transitions, "start": 0,
            "accepting": [chain[-1]], "sink": 2}


DEEP_WORD = "0123456789" * 500
# 0000, 0001, ..., 4999: four letters, the first below 5
DEEP_UNION = "+".join(f"{i:04d}" for i in range(5000))
DEEP_STARS = "0" + "*" * 5000


@pytest.mark.parametrize("regex, counts, dfa", [
    (DEEP_WORD, [0] * 11, word_dfa(DEEP_WORD)),
    (DEEP_UNION, [0, 0, 0, 0, 5000] + [0] * 6,
     {"alphabet": list(range(10)), "start": 0, "accepting": [5], "sink": 2,
      "transitions": [[1] * 5 + [2] * 5, [3] * 10, [2] * 10, [4] * 10, [5] * 10, [2] * 10]}),
    (DEEP_STARS, [1] * 11,
     {"alphabet": [0], "transitions": [[0], [1]], "start": 0, "accepting": [0], "sink": 1}),
], ids=["word", "union", "stars"])
def test_count_and_dfa_of_trees_5000_deep(capsys, regex, counts, dfa):
    assert run(capsys, "count", "--regex", regex, "--format", "json") == \
        (0, json.dumps({"counts": counts}) + "\n", "")
    code, out, err = run(capsys, "dfa-dump", "--regex", regex, "--format", "json")
    assert (code, json.loads(out), err) == (0, dfa, "")


def test_series_of_a_union_of_5000_words(capsys):
    code, out, err = run(capsys, "series", "--regex", f"({DEEP_UNION})*", "--L", "8",
                         "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"series": "(1) / (-5000z^4 +1)",
                               "coefficients": [1, 0, 0, 0, 5000, 0, 0, 0, 5000 ** 2]}


@pytest.mark.parametrize("regex, named", [
    ("(" + "0" * 2000 + "+@)*", "((" + "0" * 2000 + "+@))*"),
    (DEEP_STARS, "((0)*)*"),
], ids=["word", "stars"])
def test_star_of_a_nullable_deep_tree_is_named(capsys, regex, named):
    code, out, err = run(capsys, "series", "--regex", regex)
    assert (code, out) == (1, "")
    assert err == f"error: starred language contains the empty word: {named}\n"


def test_ambiguous_union_after_a_2000_letter_word_is_named(capsys):
    code, out, err = run(capsys, "series", "--regex", "0" * 2000 + "(0+0)")
    assert (code, out) == (1, "")
    assert err == "error: series composition disagrees with word counts: (0+0)\n"


def test_count_of_deeply_nested_parentheses(capsys):
    code, out, err = run(capsys, "count", "--regex", "(" * 1200 + "0" + ")" * 1200,
                         "--format", "json")
    assert (code, out, err) == (0, '{"counts": [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]}\n', "")


@pytest.mark.parametrize("fmt, want", [
    ("human", "l=1: alpha=0  alpha^(1/l)=0.000000\nl=2: alpha=0  alpha^(1/l)=0.000000\n"
              "capacity lower bound: log2(0.000000) = -inf bits\n"),
    ("json", '{"alpha": [1, 0, 0], "exact": [true, true, true], "rate_lower_bound": 0.0}\n'),
    ("csv", "l,alpha,exact,root,running_max\n0,1,True,,\n"
            "1,0,True,0.000000,0.000000\n2,0,True,0.000000,0.000000\n"),
])
def test_alpha_of_a_graph_with_no_vertices(capsys, fmt, want):
    code, out, err = run(capsys, "alpha", "--graph", '{"labels":[],"edges":[]}', "--L", "2",
                         "--format", fmt)
    assert (code, out, err) == (0, want, "")


@pytest.mark.parametrize("argv, want_code", [
    (["verify", "--graph", "C5+1", "--words", "11,112"], 2),
    (["rate", "--regex", "(0+11)*"], 0),
    (["dfa-dump", "--regex", "(0+11)*"], 0),
])
def test_csv_fields_holding_commas_are_quoted(capsys, argv, want_code):
    code, out, _ = run(capsys, *argv, "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == want_code
    assert rows and all(len(row) == 2 for row in rows)
    fields = dict(rows)
    if "violation" in fields:
        assert json.loads(fields["violation"]) == [[1, 1, 1, 1, 2], [1, 1, 2, 1, 1]]
