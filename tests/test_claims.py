"""Claim registry: golden verdicts, documented discrepancies, rendering."""

import hashlib
import json
import re
from dataclasses import replace
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

from graphlab import claims, indices
from graphlab.claims import (
    MATCH,
    MISMATCH,
    UNEVALUABLE,
    Claim,
    ClaimReport,
    builtin_claims,
    evaluate_claim,
    parse_report,
    render_report,
    run_all,
    summary_counts,
)
from graphlab.exact import format_value, value_text

F = Fraction

# these printed values must match the oracle; anything else failing here is a bug
GOLDEN_MATCHES = [
    "gamma3.wiener",
    "gamma3.hyper_wiener",
    "gamma3.harary",
    "gamma3.zagreb2",
    "gamma3.degree_distance",
    "gamma3.gutman",
    "gamma3.harmonic",
    "gamma3.mostar",
    "gamma3.randic",
    "gamma3.balaban",
    "gamma3.r1",
    "gamma4.harmonic",
    "gamma4.randic",
    "gamma4.mostar",
]

# printed values the oracle contradicts, with the independently derived truth
EXPECTED_MISMATCHES = {
    "gamma3.r2": 33244258369,
    "gamma3.r3": 1606882,
    "gamma4.zagreb2": 5145,
    "gamma4.degree_distance": 2722,
    "gamma4.gutman": 10577,
    "gamma4.r1": None,
    "gamma4.r2": None,
    "gamma4.r3": None,
    "gamma5.r2": None,
    "gamma5.r3": None,
    "gamma5.mostar": 1740,
}


def test_registry_is_built_once_per_process():
    """run_all shares one registry between calls, and the reports it grades
    print the recorded bytes of `claims --format json|markdown`."""
    first, second = run_all(), run_all()
    assert len(first) == len(second) == 33
    assert all(a.claim is b.claim for a, b in zip(first, second))
    digests = {tuple(argv): digest for argv, _, digest in
               json.loads(Path(__file__).with_name("cli_digests.json").read_text())}
    for fmt in ("json", "markdown"):
        text = render_report(second, fmt)
        assert text == render_report(first, fmt)
        assert hashlib.sha256(text.encode()).hexdigest() == digests["claims", "--format", fmt]


def test_registry_shape():
    reg = builtin_claims()
    assert len(reg) == 33
    ids = [c.id for c in reg]
    assert len(set(ids)) == 33
    assert sum(1 for c in reg if c.k == 3) == 13
    assert sum(1 for c in reg if c.k == 4) == 10
    assert sum(1 for c in reg if c.k == 5) == 10
    for c in reg:
        assert c.source
        assert c.id == f"gamma{c.k}.{c.index}"


def test_golden_matches():
    verdicts = {r.claim.id: r for r in run_all()}
    for cid in GOLDEN_MATCHES:
        assert verdicts[cid].verdict == MATCH, cid


def test_expected_mismatches():
    verdicts = {r.claim.id: r for r in run_all()}
    for cid, oracle in EXPECTED_MISMATCHES.items():
        assert verdicts[cid].verdict == MISMATCH, cid
        if oracle is not None:
            assert verdicts[cid].oracle == oracle, cid


def test_summary_counts():
    reports = run_all()
    assert summary_counts(reports) == {"total": 33, "match": 22, "mismatch": 11}
    assert summary_counts(run_all(k=3)) == {"total": 13, "match": 11, "mismatch": 2}


def test_every_claim_gets_a_verdict():
    for r in run_all():
        assert r.verdict in (MATCH, MISMATCH)
        assert r.oracle is not None


def test_determinism_across_runs_and_threads():
    sequential = run_all()
    assert run_all() == sequential
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = list(pool.map(evaluate_claim, builtin_claims()))
    assert concurrent == sequential


def test_gamma5_zagreb2_filed_with_note():
    r = {x.claim.id: x for x in run_all(k=5)}["gamma5.zagreb2"]
    assert r.verdict == MATCH
    assert r.claim.claimed == 47401
    assert "Gamma_4 label" in r.note


def test_gutman_gamma4_cites_both_printed_values():
    claim = {c.id: c for c in builtin_claims()}["gamma4.gutman"]
    assert claim.claimed == 10557
    assert "10 557" in claim.source
    assert "3712" in claim.source


def test_r_claims_store_symbolic_form():
    by_id = {c.id: c for c in builtin_claims()}
    assert by_id["gamma3.r1"].symbolic == "2s^2+6t^2"
    assert by_id["gamma3.r1"].claimed == 2 * 28703**2 + 6 * 50210**2
    assert by_id["gamma5.r3"].symbolic == "52s+160t+190w"
    assert "no w is printed" in by_id["gamma4.r1"].note


def test_unevaluable_path():
    report = evaluate_claim(Claim("x.y", 3, "wiener", None, "unparsable source"))
    assert report.verdict == UNEVALUABLE
    assert report.oracle is None


def test_json_round_trip():
    """The JSON report reads back and writes again byte for byte.  Its oracle
    texts equal the ones the shape memo keeps for an index report,
    re-indented two levels deeper."""
    reports = run_all()
    doc = render_report(reports, "json")
    assert parse_report(doc) == reports
    assert render_report(reports, "json") == doc
    kept = [(indices.shape_profile((1,) * r.claim.k).member(r.claim.index)[len(r.claim.index) + 4:],
             r.oracle) for r in reports if r.oracle is not None]
    assert kept and all(text == value_text(v).replace("\n", "\n    ") for text, v in kept)
    assert all(text.replace("\n    ", claims._ENTRY_PAD) in doc for text, _ in kept)
    assert render_report(parse_report(doc), "json") == doc


def test_parse_report_refuses_malformed_radicals():
    """A report read back from outside: a zero den, a radicand that is not an
    integer, or one radicand in two terms raises ValueError naming the field."""
    doc = json.loads(render_report(run_all(3), "json"))
    entry = next(e for e in doc["reports"] if e["id"] == "gamma3.randic")
    term = entry["oracle"]["terms"][-1]
    for bad, field in (({**term, "den": "0"}, "den"), ({**term, "radicand": "7"}, "radicand"),
                       ({**term, "radicand": True}, "radicand"), (dict(term), "radicand")):
        entry["oracle"]["terms"] = [term, bad] if bad == term else [bad]
        with pytest.raises(ValueError, match=field):
            parse_report(json.dumps(doc))


def test_parse_report_refuses_missing_fields():
    """A document without reports, a non-object document, reports that are
    not a list, an entry that is not an object, and an entry missing any
    required field raise ValueError naming the field."""
    doc = json.loads(render_report(run_all(3), "json"))
    for bad, field in (({"summary": doc["summary"]}, "reports"), ([], "reports"),
                       ({"reports": {}}, "reports"), ({"reports": [7]}, "id")):
        with pytest.raises(ValueError, match=f"'{field}'"):
            parse_report(json.dumps(bad))
    for field in ("id", "k", "index", "source", "claimed", "oracle", "verdict"):
        entry = dict(doc["reports"][0])
        del entry[field]
        with pytest.raises(ValueError, match=f"'{field}'"):
            parse_report(json.dumps({**doc, "reports": [entry]}))
    assert len(parse_report(json.dumps(doc))) == len(doc["reports"])


def test_parse_report_refuses_wrong_shaped_fields():
    """A field of the wrong shape raises ValueError naming it: id, index,
    source, verdict, symbolic and note hold strings, k an int (not a bool
    or a float), and verdict is match, mismatch or unevaluable."""
    doc = json.loads(render_report(run_all(3), "json"))
    entry = next(e for e in doc["reports"] if "symbolic" in e)
    bad_fields = [("id", 1), ("index", None), ("source", [1]), ("verdict", 7),
                  ("symbolic", 5), ("note", {}), ("k", "x"), ("k", True), ("k", 3.0),
                  ("verdict", "maybe"), ("verdict", "MATCH")]
    for field, bad in bad_fields:
        with pytest.raises(ValueError, match=f"'{field}'"):
            parse_report(json.dumps({**doc, "reports": [{**entry, field: bad}]}))
    assert parse_report(json.dumps({**doc, "reports": [{**entry, "note": "n"}]}))[0].note == "n"


def test_json_summary_fields():
    import json

    data = json.loads(render_report(run_all(), "json"))
    assert data["summary"] == {"total": 33, "match": 22, "mismatch": 11}
    entry = next(e for e in data["reports"] if e["id"] == "gamma3.harary")
    assert entry["claimed"] == {"kind": "rational", "num": "47", "den": "2"}
    assert entry["verdict"] == "match"
    assert entry["source"]


def test_markdown_rendering():
    md = render_report(run_all(k=3), "markdown")
    lines = md.splitlines()
    assert "13 claims: 11 match, 2 mismatch." in lines
    rows = [l for l in lines if l.startswith("| gamma3.")]
    assert len(rows) == 13
    assert any("| mismatch |" in r for r in rows)


def test_markdown_cells_escape_pipes_and_newlines():
    """A claim read back with '|' or a newline in its id, index or source is
    still one markdown row of six cells: '|' is written as '\\|' and a
    newline as a space."""
    r = run_all(k=3)[0]
    odd = ClaimReport(replace(r.claim, id="a|b", index="c\nd", source="a | b\nc"), r.oracle,
                      r.verdict, r.note)
    md = render_report(parse_report(render_report([odd], "json")), "markdown")
    claimed, oracle = format_value(r.claim.claimed), format_value(r.oracle)
    row = f"| a\\|b | c d | {claimed} | {oracle} | {r.verdict} | a \\| b c |"
    assert md.splitlines()[-1] == row and md.endswith(row + "\n")
    assert len(re.split(r"(?<!\\)\|", row)) == 8  # seven unescaped pipes around six cells


def test_filter_by_k():
    for k in (3, 4, 5):
        reports = run_all(k=k)
        assert all(r.claim.k == k for r in reports)
