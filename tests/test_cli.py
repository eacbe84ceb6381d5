"""Command line surface: formats, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from graphlab import claims, cli, exact, formulas, graphs, indices, metric
from graphlab.cli import main
from graphlab.exact import _int_from_str, _int_str
from graphlab.formulas import verification_lines
from graphlab.graphs import build_gamma, build_general
from index_definitions import distance_matrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gamma_json(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 3
    assert len(doc["vertices"]) == 8
    assert len(doc["edges"]) == 19


def test_gamma_with_primes_dot(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--k", "3", "--primes", "2,3,5", "--emit", "dot")
    assert code == 0
    assert out.startswith("graph gamma_3 {")
    for label in ("1", "2", "3", "5", "6", "10", "15", "30"):
        assert f'[label="{label}"]' in out


def test_gamma_zero_dot(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--k", "0", "--emit", "dot")
    assert code == 0
    assert out == 'graph gamma_0 {\n  v0 [label="1"];\n}\n'


def test_gamma_csv_distance_matrix(capsys):
    code, out, _ = run_cli(capsys, "gamma", "--k", "1", "--emit", "csv")
    assert code == 0
    assert out == "1,p1\n0,1\n1,0\n"


def test_gamma_invalid_primes(capsys):
    code, _, err = run_cli(capsys, "gamma", "--k", "2", "--primes", "4,6")
    assert code == 2
    assert "not prime" in err
    code, out, err = run_cli(capsys, "gamma", "--k", "2", "--primes", "")
    assert (code, out) == (2, "")
    assert "--primes expects comma-separated integers" in err
    code, out, err = run_cli(capsys, "indices", "--n", "12", "--primes", "")
    assert (code, out) == (2, "")
    assert "--primes applies only to --k" in err


def test_divisor_graph_json(capsys):
    code, out, _ = run_cli(capsys, "divisor-graph", "--n", "12")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 12
    assert len(doc["vertices"]) == 6
    assert len(doc["edges"]) == 12


def test_exports_refuse_graphs_above_the_edge_budget(capsys):
    for argv, edges in ((["gamma", "--k", "13", "--emit", "json"], 3**13 - 2**13),
                        (["divisor-graph", "--n", _int_str(2**4095)], 4096 * 4095 // 2),
                        (["gamma", "--k", "40", "--emit", "csv"], 3**40 - 2**40)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (2, ""), argv
        assert f"{edges} edges, above the budget of 527345 listed edges" in err, argv


def test_gamma_k_above_the_bound_exits_2(capsys):
    for argv in (["indices", "--k", "100000000000000000000", "--index", "wiener"],
                 ["gamma", "--k", "101", "--emit", "csv"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"k={argv[2]} is above the bound of 100 on k for Gamma_k" in err, argv


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the int/str digit limit exists from Python 3.11")
def test_integer_options_read_any_length(capsys):
    """Under the lowest int/str digit limit, integer options of any length
    are read, and reach the check that names the real reason for a refusal."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        big = _int_str(2**4095)  # 1,233 digits
        power = _int_str(9973**161)  # 644 digits, 162 divisors
        for argv, code, text in (
            (["divisor-graph", "--n", big], 2, "8386560 edges, above the budget"),
            (["indices", "--n", _int_str(2**5000)], 2, "has 5001 divisors, above the cap"),
            (["gamma", "--k", "1", "--primes", big], 2, big + " is too large to prove prime"),
            (["gamma", "--k", "-" + big], 2, "k must be >= 0, got -" + big),
            (["verify", "--k-max", big], 2, f"k={big} is above the bound of 100 on k"),
            (["divisor-graph", "--n", power, "--emit", "dot"], 0, f"graph divisors_{power} {{"),
            (["divisor-graph", "--n", power, "--emit", "csv"], 0, f",{power}\n0,"),
        ):
            got, out, err = run_cli(capsys, *argv)
            assert got == code and text in (out if code == 0 else err), argv[:2]
        with pytest.raises(SystemExit) as e:
            main(["gamma", "--k", "1" + "x" * 700])
        assert e.value.code == 2
        assert "argument --k: invalid int value" in capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_prints_integers_past_the_str_digit_limit(capsys):
    """n of 642 digits is past the lowest int/str digit limit (640); the JSON
    index report and graph export still print it, and it reads back."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    limit = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(640)
    try:
        n = 999983**107  # 108 divisors
        for argv in (["indices", "--n", _int_str(n), "--index", "wiener,randic"],
                     ["divisor-graph", "--n", _int_str(n), "--emit", "json"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (argv[0], err)
            doc = json.loads(out, parse_int=_int_from_str)
            assert doc.get("graph", doc)["n"] == n, argv[0]
        assert doc["vertices"][-1]["value"] == n
    finally:
        if set_limit:
            set_limit(limit)


def test_csv_export_builds_no_int_rows(capsys):
    """The CSV export writes the digit rows of the distance rule as they are:
    metric has no list of int distances and no matrix of them to build."""
    cases = ((["gamma", "--k", "6", "--emit", "csv"], build_gamma(6)),
             (["divisor-graph", "--n", "5040", "--emit", "csv"], build_general(5040)))
    want = [distance_matrix(g).to_csv() for _, g in cases]
    assert not {"distance_rows", "distance_matrix", "DistanceMatrix"} & vars(metric).keys()
    for (argv, _), text in zip(cases, want):
        assert run_cli(capsys, *argv) == (0, text, "")


class _Sink(io.TextIOBase):
    """A stdout that counts its writes and keeps their text if asked;
    writelines is io's, which writes each line."""

    def __init__(self, keep: bool):
        self.writes = 0
        self.parts = [] if keep else None

    def write(self, text):
        self.writes += 1
        if self.parts is not None:
            self.parts.append(text)
        return len(text)


def test_exports_stream_row_by_row(monkeypatch):
    """Each export writes its text in pieces as it is made: at least one write
    per row (a non-empty row of edges for JSON and DOT, a matrix line for
    CSV) besides the head and the end, and with the rows of multiples
    already listed it allocates less than half the text it writes."""
    import tracemalloc

    for g in (build_gamma(10), build_gamma(10, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)),
              build_general(720720), build_general(735134400)):
        g.listing(), g.degrees()  # the two-way listing and the degree column
        edge_rows = sum(map(bool, g.multiples()))
        for emit, writes, text in (("json", edge_rows + 2, "".join(g.json_rows())),
                                   ("dot", edge_rows + 2, "".join(g.dot_rows())),
                                   ("csv", g.order + 1, "".join(metric.csv_rows(g)))):
            out = _Sink(keep=True)
            monkeypatch.setattr(sys, "stdout", out)
            assert cli._emit_graph(g, emit) == 0
            assert "".join(out.parts) == text
            assert out.writes >= writes, (g, emit)
            monkeypatch.setattr(sys, "stdout", _Sink(keep=False))
            tracemalloc.start()
            try:
                cli._emit_graph(g, emit)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < len(text) / 2, (g, emit, peak, len(text))


def test_divisor_graph_factorisation_budget(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "divisor-graph", "--n", str(2**61 - 1))
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 2
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "divisor-graph", "--n", str(1000000007 * 1000000009))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "trial division up to 1000000" in err


def test_indices_json_selection(capsys):
    code, out, _ = run_cli(capsys, "indices", "--k", "3", "--index", "wiener,harary")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"] == {"family": "gamma", "k": 3}
    assert doc["indices"]["wiener"] == {"kind": "integer", "value": "37"}
    assert doc["indices"]["harary"] == {"kind": "rational", "num": "47", "den": "2"}


def test_indices_all_on_divisor_graph(capsys):
    code, out, _ = run_cli(capsys, "indices", "--n", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"] == {"family": "divisor", "n": 6}
    assert len(doc["indices"]) == 14


def test_indices_table_appends_decimals(capsys):
    code, out, _ = run_cli(capsys, "indices", "--k", "3", "--index", "randic,mostar",
                           "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["index", "exact", "approx"]
    randic_line = next(l for l in lines if l.startswith("randic"))
    assert "23/14 + 6/7*sqrt(7)" in randic_line
    assert randic_line.rstrip().endswith("3.910644")
    mostar_line = next(l for l in lines if l.startswith("mostar"))
    assert mostar_line.rstrip().endswith("36")


def _reference_table(values: dict) -> str:
    """An indices table with every cell formatted from its value."""
    rows = [("index", "exact", "approx")]
    rows += [(name, exact.format_value(v), exact.to_decimal(v, 6)) for name, v in values.items()]
    w_name = max(len(r[0]) for r in rows)
    w_exact = max(len(r[1]) for r in rows)
    return "".join(f"{a.ljust(w_name)}  {b.ljust(w_exact)}  {c}\n" for a, b, c in rows)


def test_repeated_tables_print_the_kept_cells(capsys, monkeypatch):
    """After one `indices --format table` request, the next one prints the
    same bytes, the cells formatted from each value, from the cells the
    shape's Profile keeps: nothing is formatted again.  A table of a value
    the Profile does not keep formats that value."""
    targets = [("--k", str(k)) for k in range(9)] + [("--n", str(n)) for n in (1, 12, 720, 27720)]
    argvs = [["indices", *target, "--index", index, "--format", "table"]
             for target in targets for index in ("all", "randic,harmonic")]
    first = [run_cli(capsys, *argv) for argv in argvs]
    for argv, (code, out, _) in zip(argvs, first):
        g = build_gamma(int(argv[2])) if argv[1] == "--k" else build_general(int(argv[2]))
        names = None if argv[4] == "all" else argv[4].split(",")
        assert (code, out) == (0, _reference_table(indices.compute_indices(g, names))), argv

    def refuse(*args):
        raise AssertionError("a table cell was formatted again")

    for module in (exact, indices):
        monkeypatch.setattr(module, "format_value", refuse)
        monkeypatch.setattr(module, "to_decimal", refuse)
    assert [run_cli(capsys, *argv) for argv in argvs] == first
    g = build_general(12)
    other = {"wiener": indices.compute_index(g, "wiener"), "harary": Fraction(7, 2),
             "zagreb1": 10**30}  # a kept value beside two the Profile does not hold
    with pytest.raises(AssertionError, match="formatted again"):
        indices.table_text(g, other)
    monkeypatch.undo()
    assert indices.table_text(g, other) == _reference_table(other)


def test_indices_unknown_name_lists_valid(capsys):
    code, _, err = run_cli(capsys, "indices", "--k", "3", "--index", "szeged")
    assert code == 2
    assert "unknown index 'szeged'" in err
    assert "wiener" in err and "mostar" in err


def test_indices_mostar_gamma4(capsys):
    code, out, _ = run_cli(capsys, "indices", "--k", "4", "--index", "mostar")
    assert code == 0
    assert json.loads(out)["indices"]["mostar"] == {"kind": "integer", "value": "268"}


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--k-min", "0", "--k-max", "5")
    assert code == 0
    assert "k=3 wiener: formula 37 == oracle 37" in out
    assert out.rstrip().endswith("checks passed, 0 failed")
    per_k = 9  # eight formula lines plus the degree line
    assert sum(1 for l in out.splitlines() if l.endswith("[pass]")) == per_k * 6


def test_verify_cap_exceeded(capsys, monkeypatch):
    """k-max 99 is within the bound on k, but Gamma_99's edges are far
    above the budget of listed edges: refused before any graph is built."""
    monkeypatch.setattr(formulas, "build_gamma", None)
    code, out, err = run_cli(capsys, "verify", "--k-min", "0", "--k-max", "99")
    assert (code, out) == (2, "")
    assert f"{3**99 - 2**99} edges, above the budget of 527345 listed edges" in err


def test_verify_runs_up_to_the_edge_budget(capsys):
    """Gamma_12 has 527,345 edges, exactly the budget: verify lists them."""
    code, out, _ = run_cli(capsys, "verify", "--k-max", "12")
    assert code == 0
    assert out.endswith("k=12 degree: formula == oracle for all 4096 vertices [pass]\n"
                        "117 checks passed, 0 failed\n")


def test_verify_refuses_gamma_13_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was built before the edge budget was checked")

    monkeypatch.setattr(formulas, "build_gamma", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--k-max", "13")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "the graph has 1586131 edges, above the budget of 527345 listed edges" in err


def test_one_edge_budget_bounds_exports_and_verify(capsys, monkeypatch):
    """Lowering graphs._MAX_LISTED_EDGES to |E(Gamma_4)| = 65 moves the
    refusal of both the exports and verify from Gamma_13 to Gamma_5."""
    monkeypatch.setattr(graphs, "_MAX_LISTED_EDGES", 65)
    for k, code in (("4", 0), ("5", 2)):
        for argv in (["gamma", "--k", k, "--emit", "dot"], ["verify", "--k-max", k]):
            got, out, err = run_cli(capsys, *argv)
            assert got == code, argv
            if code == 2:
                assert out == "" and "above the budget of 65 listed edges" in err, argv


def test_verify_refuses_k_above_the_bound_before_building(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a graph was built before the bound on k was checked")

    monkeypatch.setattr(formulas, "build_gamma", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--k-max", "101")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "k=101 is above the bound of 100 on k for Gamma_k" in err


def test_r_indices_refuse_a_degree_product_above_the_budget(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the degree product was formed")

    indices.shape_profile.cache_clear()
    monkeypatch.setattr(indices, "prod", refuse)
    for k in ("17", "20"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "indices", "--k", k, "--index", "r3")
        assert time.perf_counter() - start < 1.0, k
        assert (code, out) == (2, ""), k
        assert "above the budget of 1048576 bits" in err, k


def test_radical_indices_refuse_degrees_above_the_factorisation_budget(capsys):
    """Randic and Balaban on Gamma_100 split degrees and transmissions near
    2**100: one leaves a composite cofactor past trial division up to 10**6,
    which exits 2 in well under a second per distinct value instead of
    dividing up to its square root."""
    for index in ("randic", "balaban"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "indices", "--k", "100", "--index", index)
        assert time.perf_counter() - start < 5.0, index
        assert (code, out) == (2, ""), index
        assert "trial division up to 1000000, the factorisation budget" in err, index


def test_verify_bad_range(capsys):
    code, out, err = run_cli(capsys, "verify", "--k-min", "5", "--k-max", "2")
    assert (code, out, err) == (2, "", "error: need 0 <= k-min <= k-max, got 5..2\n")


def test_verification_lines_function():
    lines, ok = verification_lines(0, 8)
    assert ok
    assert lines[-1] == "81 checks passed, 0 failed"


@pytest.mark.parametrize("name, off, failed", [
    ("degree_formula", lambda f: lambda k, j: f(k, j) + (k == 4 and j == 2),
     "k=4 degree: formula 7 != oracle 6 at vertex p1p2 [FAIL]"),
    ("size_formula", lambda f: lambda k: f(k) + (k == 3),
     "k=3 size: formula 20 != oracle 19 [FAIL]"),
    ("harary_formula", lambda f: lambda k: f(k) + Fraction(1, 2) * (k == 3),
     "k=3 harary: formula 24 != oracle 47/2 [FAIL]"),
    ("size_recursive", lambda f: lambda k: f(k) - (k == 2),
     "k=2 size_recursive: formula 4 != oracle 5 [FAIL]"),
])
def test_verify_reports_a_wrong_formula(capsys, monkeypatch, name, off, failed):
    """A closed form off at one k (the degree at one omega) fails that line
    alone; the degree line names the first bad vertex in canonical order,
    the summary counts the failure and verify exits 1.  The oracle side of
    each k is kept before the formula is patched: the kept record is
    compared with the live closed form, and the failed degree line builds
    the labels again.  A failed line prints the formula's own value, not the
    oracle's kept text."""
    assert verification_lines(2, 4)[1]
    monkeypatch.setattr(formulas, name, off(getattr(formulas, name)))
    lines, ok = verification_lines(2, 4)
    assert not ok
    assert [line for line in lines if line.endswith("[FAIL]")] == [failed]
    assert lines[-1] == "26 checks passed, 1 failed"
    assert run_cli(capsys, "verify", "--k-min", "2", "--k-max", "4") == (1, "\n".join(lines) + "\n", "")


def test_warm_verify_lists_no_graph_and_reads_no_index(capsys, monkeypatch):
    """After one verify, a second reads the kept oracle side of each k: it
    lists no graph and computes no index value, and prints the same bytes."""
    def refuse(*args):
        raise AssertionError("the oracle side was computed again")

    first = run_cli(capsys, "verify", "--k-max", "8")
    monkeypatch.setattr(graphs.DivisorGraph, "_lists", refuse)
    monkeypatch.setattr(indices, "compute_index", refuse)
    assert run_cli(capsys, "verify", "--k-max", "8") == first
    assert first[0] == 0


def test_cold_and_warm_verify_print_the_same(capsys):
    """For every k-max the edge budget admits, a run with the per-k record
    cleared and the run after it print the same bytes."""
    for k_max in map(str, range(13)):
        formulas._oracle.cache_clear()
        cold = run_cli(capsys, "verify", "--k-max", k_max)
        assert cold[0] == 0 and cold[1].endswith(" 0 failed\n"), k_max
        assert run_cli(capsys, "verify", "--k-max", k_max) == cold, k_max


def test_claims_json(capsys):
    code, out, _ = run_cli(capsys, "claims")
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {"total": 33, "match": 22, "mismatch": 11}


def test_claims_markdown_k3(capsys):
    code, out, _ = run_cli(capsys, "claims", "--k", "3", "--format", "markdown")
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("| gamma3.")) == 13


def test_claims_strict_exit_code(capsys):
    code, out, _ = run_cli(capsys, "claims", "--k", "3", "--strict")
    assert code == 3
    assert json.loads(out)["summary"]["mismatch"] == 2


def test_repeated_claims_requests_print_the_kept_reports(capsys, monkeypatch):
    """A second `claims` request of each (k, format) prints the bytes of the
    first without grading a claim or writing a value, and --strict exits 3
    on the kept verdicts.  Once builtin_claims' cache is cleared, the next
    request grades and writes its report again, from the new registry."""
    argvs = [["claims", *(["--k", str(k)] if k else []), "--format", fmt]
             for k in (None, 3, 4, 5) for fmt in ("json", "markdown")]
    first = [run_cli(capsys, *argv) for argv in argvs]
    assert all(code == 0 for code, _, _ in first)

    def refuse(*args):
        raise AssertionError("a claim was graded or a value written again")

    for name in ("evaluate_claim", "value_text", "format_value"):
        monkeypatch.setattr(claims, name, refuse)
    assert [run_cli(capsys, *argv) for argv in argvs] == first
    assert [run_cli(capsys, *argv, "--strict") for argv in argvs] == [
        (3, out, err) for _, out, err in first]  # every k has a mismatch
    old = claims.builtin_claims()
    claims.builtin_claims.cache_clear()
    with pytest.raises(AssertionError, match="graded or a value written again"):
        main(argvs[0])
    monkeypatch.undo()
    assert [run_cli(capsys, *argv) for argv in argvs] == first
    assert claims.builtin_claims() is not old
    assert claims._formed_report(None, "json")[0] is claims.builtin_claims()


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as e:
        main(["gamma"])  # missing --k
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def _full_parser_main(argv):
    """main as it runs when every argv goes through the top-level parser."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _outcome(capsys, call, argv):
    """(exit code, stdout, stderr) of call(argv); a SystemExit gives its code."""
    try:
        code = call(list(argv))
    except SystemExit as e:
        code = ("SystemExit", e.code)
    out = capsys.readouterr()
    return code, out.out, out.err


#: Argv beside whether the option table reads them (True) or leaves them to
#: argparse (False); argparse parses each declined one to the same namespace,
#: except the last, where it exits 2.
_TABLE_CASES = [
    (["indices", "--k", "3", "--index", ""], True),
    (["claims", "--k", "03"], True),
    (["gamma", "--k", " 3"], True),
    (["divisor-graph", "--n", "1_000"], True),
    (["indices", "--k", "3", "--k", "4"], False),  # repeated option
    (["indices", "--k", "-2"], False),  # value starting with '-'
    (["indices", "--ind", "wiener", "--k", "3"], False),  # abbreviation
    (["indices", "--k", "3", "--index="], False),  # --opt=value
    (["claims", "--strict", "--strict"], False),
    (["verify", "--k-min", "-1"], False),
    (["indices", "--n", "12", "--format", "table", "--format", "json"], False),
    (["gamma", "--k", "2", "--primes", "-3,5"], False),  # argparse: expected one argument
]


@pytest.mark.parametrize("argv, reads", _TABLE_CASES)
def test_option_table_reads_plain_pairs_and_declines_the_rest(argv, reads):
    assert (cli.build_parser().tables[argv[0]](argv) is not None) == reads


@pytest.mark.parametrize("argv", [
    ["gamma"],  # missing --k
    ["indices"],  # missing --k or --n
    ["indices", "--k", "3", "--n", "6"],  # mutually exclusive
    ["indices", "--k", "3", "--bogus"],
    ["indices", "--bogus", "--k", "3", "--n", "6"],
    ["verify", "--k-max", "2", "extra"],
    ["no-such-command"],
    [],
    ["--help"],
    ["-h", "indices"],
    ["indices", "--k", "3", "--format", "xml"],  # invalid choice
    ["claims", "--k", "7"],
    ["gamma", "--k", "x"],
    ["indices", "--help"],
    ["indices", "--k", "3", "--index", "randic,harmonic", "--format", "table"],
    ["indices", "--n", "12", "--primes", "2,3"],  # ValueError, exit 2
    ["indices", "--k", "2", "--", "--n"],
    ["gamma", "--k", "2", "--emit", "dot"],
    ["divisor-graph", "--n=12", "--emit", "csv"],
    ["verify", "--k-max", "3"],
    ["claims", "--k", "3", "--format", "markdown", "--strict"],
    *(argv for argv, _ in _TABLE_CASES),
])
def test_direct_parse_matches_the_full_parser(capsys, argv):
    """main reads a plain argv from the subcommand's option table; exit
    codes, stdout and stderr are those of the top-level parser on every
    argv, and an accepted argv gives the same namespace."""
    direct = _outcome(capsys, main, argv)
    assert direct == _outcome(capsys, _full_parser_main, argv)
    try:
        want = cli.build_parser().parse_args(argv)
    except SystemExit:
        capsys.readouterr()
        return
    assert cli._parse(argv) == want
    assert capsys.readouterr().err == ""


def test_unrecognized_arguments_are_named_by_the_top_level_parser(capsys):
    with pytest.raises(SystemExit) as e:
        main(["indices", "--k", "3", "--bogus"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: graphlab [-h]")
    assert err.endswith("graphlab: error: unrecognized arguments: --bogus\n")


def test_accepted_argv_skips_the_top_level_parser(capsys, monkeypatch):
    """A well-formed request is read by its subcommand's option table, with
    no parser's parse_args or parse_known_args, the top-level parser's or a
    subcommand's; main(None) reads sys.argv[1:]."""
    import argparse

    def refuse(*args, **kwargs):
        raise AssertionError("argparse used")

    requests = (
        ("indices", "--k", "3", "--format", "table"),
        ("gamma", "--k", "3", "--primes", "2,3,5", "--emit", "dot"),
        ("verify", "--k-min", "1", "--k-max", "3"),
        ("claims", "--k", "3", "--strict"),
    )
    want = [run_cli(capsys, *argv) for argv in requests]
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
    assert [run_cli(capsys, *argv) for argv in requests] == want
    monkeypatch.setattr(sys, "argv", ["graphlab", *requests[0]])
    code = main()
    assert (code, *capsys.readouterr()) == want[0]


def cli_digest(argv):
    """[exit code, sha256 of stdout] of one in-process main(argv) call; an
    argparse usage error counts with its SystemExit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as e:
            code = e.code
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def test_output_matches_recorded_digests():
    """The bytes and exit codes of a fixed set of invocations are the output
    contract; tests/cli_digests.json holds [argv, exit code, stdout sha256]
    for each, as cli_digest computed them."""
    cases = json.loads(Path(__file__).with_name("cli_digests.json").read_text())
    assert len(cases) >= 100
    for argv, code, digest in cases:
        assert cli_digest(argv) == [code, digest], argv


def test_byte_identical_reruns(capsys):
    for argv in (
        ["gamma", "--k", "4", "--emit", "json"],
        ["gamma", "--k", "4", "--emit", "dot"],
        ["gamma", "--k", "4", "--emit", "csv"],
        ["indices", "--k", "4"],
        ["claims", "--format", "markdown"],
    ):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


def test_console_script_installed(tmp_path):
    """The ``graphlab`` command declared in pyproject.toml runs end to end.

    A bare checkout has no ``graphlab`` executable on PATH, so the test writes
    the standard console-script launcher for the declared ``module:attr``
    and runs it in a fresh interpreter against the checkout's ``src``.  An
    installed ``graphlab`` found on PATH is run as well.
    """
    import os
    import shutil
    import subprocess
    import sys
    from pathlib import Path

    import graphlab

    tomllib = pytest.importorskip("tomllib")
    root = Path(graphlab.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["graphlab"]
    module, attr = target.split(":")
    launcher = tmp_path / "graphlab_launcher.py"
    launcher.write_text(f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    commands = [[sys.executable, str(launcher)]]
    exe = shutil.which("graphlab")
    if exe:
        commands.append([exe])
    for command in commands:
        out = subprocess.run([*command, "indices", "--k", "2", "--index", "wiener"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["indices"]["wiener"] == {"kind": "integer", "value": "7"}


def _fresh_process_stdout(*argv):
    """Stdout of `python -m graphlab.cli argv` in a new interpreter on this
    checkout's src."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import graphlab

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(graphlab.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-m", "graphlab.cli", *argv],
                         capture_output=True, text=True, env=env, check=True)
    return out.stdout


def test_cli_import_loads_neither_claims_nor_formulas():
    """A fresh `import graphlab.cli` leaves claims and formulas to the
    subcommands that use them, and loads dataclasses only if a bare
    interpreter already has it."""
    import os
    import subprocess

    import graphlab

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(graphlab.__file__).resolve().parents[1]), env.get("PYTHONPATH")) if p)
    names = ("graphlab.claims", "graphlab.formulas", "dataclasses")

    def loaded(code):
        out = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\n"
                              f"print(*[m in sys.modules for m in {names!r}])"],
                             capture_output=True, text=True, env=env, check=True)
        last = out.stdout.splitlines()[-1]  # after any CLI output
        return dict(zip(names, (word == "True" for word in last.split()), strict=True))

    bare, cli = loaded("pass"), loaded("import graphlab.cli")
    assert not cli["graphlab.claims"] and not cli["graphlab.formulas"]
    assert cli["dataclasses"] == bare["dataclasses"]
    assert loaded("import graphlab.cli; graphlab.cli.main(['claims', '--k', '3'])")["graphlab.claims"]


def test_parser_built_once_per_process(capsys, monkeypatch):
    import argparse

    from graphlab import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    try:
        with pytest.raises(SystemExit) as e:
            main(["gamma"])  # missing --k
        assert e.value.code == 2
        first_build = len(built)
        assert first_build > 0
        with pytest.raises(SystemExit) as e:
            main(["indices", "--k", "3", "--n", "6"])  # mutually exclusive
        assert e.value.code == 2
        capsys.readouterr()
        requests = (
            ["indices", "--k", "3", "--index", "randic,harmonic", "--format", "table"],
            ["indices", "--n", "12"],
            ["gamma", "--k", "2", "--emit", "dot"],
        )
        for argv in requests:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert out == _fresh_process_stdout(*argv)
        assert len(built) == first_build
    finally:
        cli.build_parser.cache_clear()


def test_indices_print_integers_beyond_str_digit_limit(capsys):
    """r1 and r2 of n = 735134400 (1344 divisors) have more digits than
    Python's default int/str conversion limit (4300 on 3.11+)."""
    import sys

    from graphlab import build_general, compute_index
    from graphlab.exact import value_from_json

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    g = build_general(735134400)
    want = {name: compute_index(g, name) for name in ("r1", "r2")}
    code, out, err = run_cli(capsys, "indices", "--n", "735134400", "--index", "r1,r2")
    assert code == 0, err
    doc = json.loads(out)["indices"]
    for name, v in want.items():
        assert len(doc[name]["value"]) > 4300
        assert value_from_json(doc[name]) == v
    code, out, err = run_cli(capsys, "indices", "--n", "735134400", "--index", "r1,r2",
                             "--format", "table")
    assert code == 0, err
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [r[0] for r in rows] == ["r1", "r2"]
    for (name, exact_text, approx), v in zip(rows, want.values()):
        assert exact_text == approx == doc[name]["value"]
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


def test_json_outputs_skip_the_pure_python_encoder(capsys, monkeypatch):
    """json.dumps with indent runs the pure-Python encoder below Python 3.13;
    no JSON output may reach it, and the bytes must stay those of a fresh
    process."""
    def refuse(*args, **kwargs):
        raise AssertionError("pure-Python JSON encoder used")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    requests = (
        ["indices", "--n", "5040", "--format", "json"],
        ["indices", "--k", "6", "--primes", "2,3,5,7,11,13"],
        ["gamma", "--k", "5", "--emit", "json"],
        ["divisor-graph", "--n", "720", "--emit", "json"],
        ["claims", "--format", "json"],
    )
    for argv in requests:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == _fresh_process_stdout(*argv)


#: Small primes for random --primes lists, with two composites and the
#: largest prime below 10**6.
_ARGV_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 4, 9, 999983)


def _random_index_option(rng) -> str:
    """'all', or a comma list of one to four index names with, at times, an
    unknown name, an empty name, a repeated name, 'all' or a padded name."""
    if rng.random() < 0.25:
        return "all"
    names = rng.sample(indices.INDEX_NAMES, rng.randint(1, 4))
    extra = rng.choice((None, None, "bogus", "", names[0], "all", f" {names[-1]} "))
    if extra is not None:
        names.insert(rng.randint(0, len(names)), extra)
    return ",".join(names)


def _random_argv(rng) -> list[str]:
    """One seeded argv over the five subcommands: --k from -2 to 18, --n up to
    10**15 or a power of 2 up to 2**64, every --emit and --format, and at
    times a --primes list of the wrong length or with a composite.  An
    R-index on Gamma_13..Gamma_16 prints r-values of up to about a million
    digits (0.1-0.6 s each), so k avoids that range when one is asked for;
    k = 17 and 18 still reach the R-indices' refusal."""
    command = rng.choice(("gamma", "divisor-graph", "indices", "verify", "claims"))
    k = rng.randint(-2, 18)
    n = rng.choice((rng.randint(-2, 10**15), 2 ** rng.randint(0, 64), rng.randint(1, 5000)))
    primes = ",".join(map(str, rng.sample(_ARGV_PRIMES, max(0, min(k + rng.randint(-1, 1), 12)))))
    if command in ("gamma", "divisor-graph"):
        argv = [command, *(("--k", str(k)) if command == "gamma" else ("--n", str(n)))]
        if command == "gamma" and rng.random() < 0.3:
            argv += ["--primes", primes]
        return argv + ["--emit", rng.choice(("json", "dot", "csv"))]
    if command == "indices":
        index = _random_index_option(rng)
        if (index == "all" or {"r1", "r2", "r3"} & {*index.split(",")}) and 13 <= k <= 16:
            k = rng.choice((*range(-2, 13), 17, 18))
        target = ["--k", str(k)] if rng.random() < 0.6 else ["--n", str(n)]
        if rng.random() < 0.2:
            target += ["--primes", primes]
        return [command, *target, "--index", index, "--format", rng.choice(("json", "table"))]
    if command == "verify":
        return [command, "--k-min", str(rng.randint(-2, 18)), "--k-max", str(k)]
    argv = [command, "--format", rng.choice(("json", "markdown"))]
    if rng.random() < 0.6:
        argv += ["--k", str(k)]
    return argv + ["--strict"] * rng.randint(0, 1)


def test_seeded_argv_exit_cleanly_and_quickly(capsys):
    """Random argv, run in-process: each exits 0 with output and no stderr;
    1 only from verify and 3 only from claims --strict; or 2 with output
    nothing and stderr holding one 'error: ' line.  No run takes 2 s.  Each
    argv the full parser accepts parses to the same namespace in main's
    parse."""
    rng = random.Random(20261020)
    seen = set()
    for _ in range(240):
        argv = _random_argv(rng)
        start = time.perf_counter()
        code, out, err = _outcome(capsys, main, argv)
        elapsed = time.perf_counter() - start
        try:
            want = cli.build_parser().parse_args(argv)
        except SystemExit:
            capsys.readouterr()
        else:
            assert cli._parse(argv) == want, argv
        code = code[1] if isinstance(code, tuple) else code  # a SystemExit's code
        seen.add((argv[0], code))
        assert elapsed < 2.0, (argv, elapsed)
        if code == 2:
            assert out == "" and len([line for line in err.splitlines() if "error: " in line]) == 1, argv
        else:
            assert code == 0 or (code, argv[0]) == (1, "verify") or (
                (code, argv[0]) == (3, "claims") and "--strict" in argv), (argv, code)
            assert out and err == "", argv
    assert {c for c, code in seen if code == 0} == {"gamma", "divisor-graph", "indices", "verify", "claims"}
    assert {c for c, code in seen if code == 2} == {"gamma", "divisor-graph", "indices", "verify", "claims"}
