"""The JSON documents the CLI prints, each written from a template: index
reports, graph exports and claim reports are byte-identical to
json.dumps(doc, indent=2) + "\\n" of a reference document built from the
tests' value_to_json, under the lowest int/str digit limit too.  The tests
use plain asserts and no fixtures: they also run without pytest, by
importing this module and calling each test function.
"""

import json
import random
import sys
from fractions import Fraction

from graphlab import claims, indices
from graphlab.graphs import DivisorGraph, build_gamma, build_general
from index_definitions import graph_dict, report_dict, value_to_json

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

#: Characters json quotes specially, escapes as \uXXXX, or passes through.
ALPHABET = 'aZ09 "\\/\x00\x01\x1f\x7f\n\t\r\b\féß☃ \U0001f600'


def random_text(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def test_index_reports():
    """indices.report_text is json.dumps of the reference document; also
    with no values, one value, and names that need quoting."""
    graphs = [build_gamma(k) for k in range(9)]
    graphs.append(build_gamma(3, (101, 103, 107)))
    graphs.extend(build_general(n) for n in range(1, 601))
    # r1 and r2 of 735134400 have more than 4300 digits
    graphs.extend(build_general(n) for n in (21621600, 735134400))
    for g in graphs:
        values = indices.compute_indices(g)
        doc = report_dict(g, values)  # big ints sit in strings, which no digit limit refuses
        assert indices.report_text(g, values) == json.dumps(doc, indent=2) + "\n"
    g = build_gamma(2, (2, 3))
    v = indices.compute_indices(g, ["randic", "harary"])
    for values in ({}, {"randic": v["randic"]}, {'"%s"\n☃': 7, "": v["harary"]}):
        assert indices.report_text(g, values) == json.dumps(report_dict(g, values), indent=2) + "\n"


def test_graph_exports():
    """The export, streamed row by row, is json.dumps of the reference dict."""
    graphs = [build_gamma(k) for k in range(11)]
    graphs.extend(build_gamma(k, PRIMES[:k]) for k in range(11))
    graphs.extend(build_general(n) for n in (*range(1, 301), 5040, 720720, 735134400))
    for g in graphs:
        assert "".join(g.json_rows()) == json.dumps(graph_dict(g), indent=2) + "\n", g


#: A Mersenne prime of 664 digits (2203 bits, past exact._REPR_BITS): above
#: the lowest int/str digit limit, and above what build_gamma proves prime.
BIG_PRIME = 2**2203 - 1


def writer_cases():
    """(graph, values) pairs for the report and export writers: Gamma_0
    symbolic and on an empty basis, symbolic Gamma_5, Gamma_3 with a prime of
    664 digits, n = 1 and n = 9973**161 (644 digits), each with all its
    indices (not on 9973**161, whose r-indices are refused), values the memo
    does not hold and no values."""
    graphs = [build_gamma(0), build_gamma(0, ()), build_gamma(5),
              DivisorGraph((1, 1, 1), (2, 3, BIG_PRIME), gamma=True),
              build_general(1), build_general(9973**161)]
    other = {"wiener": 10**700, "harary": Fraction(-47, 10**650), "mostar": 3}
    for g in graphs:
        if g.order < 100:
            yield g, indices.compute_indices(g)
        yield g, other
        yield g, {}


def test_report_and_export_heads_are_written_directly():
    """report_text and the JSON export write the graph descriptor from one
    template: every report is json.dumps of {"graph": g.descriptor(),
    "indices": the reference documents}, every export json.dumps of its
    reference dict, and descriptor_text at any pad is json.dumps of the
    descriptor there, with and without its family; under the lowest int/str
    digit limit too."""
    cases = list(writer_cases())
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # from Python 3.11
    old = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(0)
    try:
        reports = [json.dumps(report_dict(g, values), indent=2) + "\n" for g, values in cases]
        exports = {g: json.dumps(graph_dict(g), indent=2) + "\n" for g, _ in cases}
        heads = {}
        for g in exports:
            doc = g.descriptor()
            bare = {key: v for key, v in doc.items() if key != "family"}
            heads[g] = [(pad, json.dumps(d, indent=2).replace("\n", pad), d is doc)
                        for pad in ("\n", "\n  ", "\n      ") for d in (doc, bare)]

        for limit in (640, 0):
            if set_limit:
                set_limit(limit)
            assert [indices.report_text(g, values) for g, values in cases] == reports
            for g, want in exports.items():
                assert "".join(g.json_rows()) == want, g
                for pad, text, family in heads[g]:
                    assert g.descriptor_text(pad, family) == text, (g, pad)
    finally:
        if set_limit:
            set_limit(old)


def claim_entry(r):
    """The reference for one entry of a claim report."""
    entry = {"id": r.claim.id, "k": r.claim.k, "index": r.claim.index,
             "claimed": value_to_json(r.claim.claimed), "oracle": value_to_json(r.oracle),
             "verdict": r.verdict, "source": r.claim.source}
    if r.claim.symbolic:
        entry["symbolic"] = r.claim.symbolic
    if r.note:
        entry["note"] = r.note
    return entry


def claim_report_dict(reports):
    """The reference for a claim report."""
    return {"summary": claims.summary_counts(reports), "reports": [claim_entry(r) for r in reports]}


def hand_built_reports(rng):
    """Claim reports built by hand, as a caller of render_report may: id,
    index, source, symbolic and note drawn from ALPHABET (symbolic and note
    left out when empty), any verdict, k up to 10**700 (past every digit
    limit), and claimed and oracle values of each shape, or null."""
    values = (None, 0, -7, 10**700, Fraction(-47, 10**650),
              indices.compute_index(build_gamma(4), "randic"),
              indices.compute_index(build_general(72), "balaban"))
    verdicts = (claims.MATCH, claims.MISMATCH, claims.UNEVALUABLE)
    reports = []
    for _ in range(rng.randrange(5)):
        note = random_text(rng)
        claim = claims.Claim(random_text(rng), rng.choice((0, 3, 5, 10**700)), random_text(rng),
                             rng.choice(values), random_text(rng), random_text(rng), note)
        reports.append(claims.ClaimReport(claim, rng.choice(values), rng.choice(verdicts), note))
    return reports


def test_claim_reports():
    """render_report is json.dumps of the reference document: the registry's
    reports (all, and per k, and for a k with none), no reports, an
    unevaluable claim with null values, hand-built reports of any strings,
    values and k, and reports read back by parse_report; under the lowest
    int/str digit limit too, with the references built with no limit.  Each
    report reads back by parse_report to the reports it was written from."""
    rng = random.Random(32)
    unparsed = claims.Claim("x.randic", 3, "randic", None, "src", note="n")
    cases = [claims.run_all(k) for k in (None, 3, 4, 5, 9)]
    cases += [[], [claims.ClaimReport(unparsed, None, claims.UNEVALUABLE, "n"),
                   claims.evaluate_claim(claims.builtin_claims()[0], build_gamma(3))]]
    cases += [hand_built_reports(rng) for _ in range(300)]
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # from Python 3.11
    old = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(0)
    try:
        want = [json.dumps(claim_report_dict(reports), indent=2) + "\n" for reports in cases]
        for limit in (640, 0):
            if set_limit:
                set_limit(limit)
            assert [claims.render_report(reports, "json") for reports in cases] == want
            assert claims.render_report(claims.parse_report(want[0]), "json") == want[0]
        # json.loads reads an int past the digit limit only with no limit
        assert all(claims.parse_report(text) == reports for text, reports in zip(want, cases))
    finally:
        if set_limit:
            set_limit(old)
