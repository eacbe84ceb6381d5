"""The JSON writer: exact.json_text is byte-identical to
json.dumps(doc, indent=2) + "\\n", with each exact._Text leaf written as the
JSON text it holds; index and claim reports are checked against reference
documents built from the tests' value_to_json.  The tests use plain asserts
and no fixtures: they also run without pytest, by importing this module and
calling each test function.
"""

import json
import random
import sys
from fractions import Fraction

from graphlab import claims, exact, indices
from graphlab.graphs import DivisorGraph, build_gamma, build_general
from index_definitions import graph_dict, report_dict, value_to_json

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

#: Characters json quotes specially, escapes as \uXXXX, or passes through.
ALPHABET = 'aZ09 "\\/\x00\x01\x1f\x7f\n\t\r\b\féß☃ \U0001f600'


def assert_identical(doc):
    assert exact.json_text(doc) == json.dumps(doc, indent=2) + "\n"


def random_text(rng):
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def random_scalar(rng):
    return rng.choice((
        random_text(rng),
        rng.choice((0, -1, 1, rng.randrange(-10**30, 10**30))),
        True,
        False,
        None,
        rng.choice((0.0, -0.0, 1.5, -2.5e-300, 1e300, rng.random(), float("inf"), float("nan"))),
    ))


def random_tree(rng, depth):
    """A document of nesting depth at most `depth`, empty containers included."""
    if depth == 0 or rng.random() < 0.3:
        return random_scalar(rng)
    children = [random_tree(rng, depth - 1) for _ in range(rng.randrange(5))]
    shape = rng.randrange(3)
    if shape == 0:
        return {random_text(rng): c for c in children}
    return children if shape == 1 else tuple(children)


def test_random_trees():
    rng = random.Random(20211)
    for _ in range(3000):
        assert_identical(random_tree(rng, 5))
    for doc in ({}, [], (), "", 0, -7, True, False, None, 0.5, {"": [{}, [], ()]}):
        assert_identical(doc)


def random_int(rng):
    return rng.choice((0, 1, -1, 7, 10**30, -10**30, rng.randrange(-10**30, 10**30)))


def random_int_block(rng):
    """Flat int lists, which the writer prints in one map, and equal-length
    int rows, next to near misses (bools, empty or ragged rows)."""
    width = rng.randrange(4)
    rows = [[random_int(rng) for _ in range(width)] for _ in range(rng.randrange(4))]
    shape = rng.randrange(6)
    if shape == 0:
        return [random_int(rng) for _ in range(rng.randrange(6))]
    if shape == 1:
        return rows
    if shape == 2:
        return tuple(map(tuple, rows)) if rng.random() < 0.5 else list(map(tuple, rows))
    if shape == 3:  # a bool among the ints
        flat = [random_int(rng) for _ in range(rng.randrange(1, 5))]
        flat[rng.randrange(len(flat))] = rng.choice((True, False))
        return [flat, flat] if rng.random() < 0.5 else flat
    if shape == 4:  # ragged rows
        return rows + [[random_int(rng) for _ in range(width + 1)]]
    return {random_text(rng): rows, "edges": [[0, 1], [0, 2]], "empty": [[], []]}


def test_int_lists_and_matrices():
    rng = random.Random(9)
    for _ in range(3000):
        assert_identical(random_int_block(rng))
        assert_identical({"doc": [random_int_block(rng), {"m": random_int_block(rng)}]})
    for doc in ([[]], [[], []], [()], [[1], []], [[1, 2], [3]], [[True, 1], [0, 1]],
                [1, True], [[1, 2], (3, 4)], [[1], [2.0]]):
        assert_identical(doc)


def test_index_reports():
    """indices.report_text is json.dumps of the reference document, and so
    is the writer on that document; also with no values, one value, and
    names that need quoting."""
    graphs = [build_gamma(k) for k in range(9)]
    graphs.append(build_gamma(3, (101, 103, 107)))
    graphs.extend(build_general(n) for n in range(1, 601))
    # r1 and r2 of 735134400 have more than 4300 digits
    graphs.extend(build_general(n) for n in (21621600, 735134400))
    for g in graphs:
        values = indices.compute_indices(g)
        doc = report_dict(g, values)  # big ints sit in strings, which no digit limit refuses
        assert_identical(doc)
        assert indices.report_text(g, values) == json.dumps(doc, indent=2) + "\n"
    g = build_gamma(2, (2, 3))
    v = indices.compute_indices(g, ["randic", "harary"])
    for values in ({}, {"randic": v["randic"]}, {'"%s"\n☃': 7, "": v["harary"]}):
        assert indices.report_text(g, values) == json.dumps(report_dict(g, values), indent=2) + "\n"


def test_graph_exports():
    """The export, streamed row by row, is json.dumps of the reference dict,
    and so is the writer on that dict."""
    graphs = [build_gamma(k) for k in range(11)]
    graphs.extend(build_gamma(k, PRIMES[:k]) for k in range(11))
    graphs.extend(build_general(n) for n in (*range(1, 301), 5040, 720720, 735134400))
    for g in graphs:
        doc = graph_dict(g)
        assert_identical(doc)
        assert "".join(g.json_rows()) == json.dumps(doc, indent=2) + "\n", g


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
    digit limit too, and with exact.json_text and its recursion (_encoded)
    refusing every call."""
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
        writers = exact.json_text, exact._encoded

        def refuse(*args):
            raise AssertionError("the general JSON writer was called")

        for limit in (640, 0):
            if set_limit:
                set_limit(limit)
            assert [indices.report_text(g, values) for g, values in cases] == reports
            for g, want in exports.items():
                assert "".join(g.json_rows()) == want, g
                for pad, text, family in heads[g]:
                    assert g.descriptor_text(pad, family) == text, (g, pad)
            exact.json_text = exact._encoded = refuse
            try:
                assert [indices.report_text(g, values) for g, values in cases] == reports
                assert ["".join(g.json_rows()) for g in exports] == list(exports.values())
            finally:
                exact.json_text, exact._encoded = writers
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


def test_claim_reports():
    """render_report is json.dumps of the reference document, and so is the
    writer on that document; unparsed and unevaluable values print null."""
    for k in (None, 3, 4, 5):
        reports = claims.run_all(k)
        doc = {"summary": claims.summary_counts(reports), "reports": [claim_entry(r) for r in reports]}
        assert_identical(doc)
        assert claims.render_report(reports, "json") == json.dumps(doc, indent=2) + "\n"
    claim = claims.Claim("x.randic", 3, "randic", None, "src")
    reports = [claims.ClaimReport(claim, None, claims.UNEVALUABLE, "n"),
               claims.evaluate_claim(claims.builtin_claims()[0], build_gamma(3))]
    doc = {"summary": claims.summary_counts(reports), "reports": [claim_entry(r) for r in reports]}
    assert claims.render_report(reports, "json") == json.dumps(doc, indent=2) + "\n"


def with_text_leaves(rng, doc):
    """doc with some subtrees, at any depth, replaced by exact._Text leaves
    holding their json.dumps text."""
    if rng.random() < 0.3:
        return exact._Text(json.dumps(doc, indent=2))
    if isinstance(doc, dict):
        return {k: with_text_leaves(rng, v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(with_text_leaves(rng, v) for v in doc)
    return doc


def test_text_leaves():
    """exact._Text leaves in a dict, in a list, in a record column and at
    depth >= 3 are written as json.dumps writes the documents they hold:
    value_text leaves as their value_to_json, and random subtrees' text."""
    values = (0, -7, 10**700, Fraction(-47, 2), indices.compute_index(build_gamma(4), "randic"),
              indices.compute_index(build_general(72), "balaban"))
    texts = [exact._Text(exact.value_text(v)) for v in values]
    refs = [value_to_json(v) for v in values]
    shapes = (lambda x: {"first": x[0], "last": x[-1]}, list, tuple,
              lambda x: [{"name": "v", "value": t} for t in x],
              lambda x: [{"value": t, "none": None} for t in x] + [{"value": None, "none": x[0]}],
              lambda x: {"a": [{"b": {"c": x}}]}, lambda x: [[x[0], [x[-1]]], {"d": (x[1],)}])
    for shape in shapes:
        assert exact.json_text(shape(texts)) == json.dumps(shape(refs), indent=2) + "\n"
    rng = random.Random(19)
    for _ in range(1000):
        for doc in (random_tree(rng, 5), random_records(rng), {"r": [random_records(rng)]}):
            assert exact.json_text(with_text_leaves(rng, doc)) == json.dumps(doc, indent=2) + "\n"


def at_any_pad(rng, doc):
    """doc with each exact._Text leaf made again by _Text.at, at a pad that is
    sometimes the one where it sits and sometimes not."""
    if type(doc) is exact._Text:
        return exact._Text.at(doc, rng.choice(("\n", "\n  ", "\n    ", "\n      ")))
    if isinstance(doc, dict):
        return {k: at_any_pad(rng, v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(at_any_pad(rng, v) for v in doc)
    return doc


def test_text_leaves_at_any_pad():
    """A _Text made at the pad where it sits is written as it is, one made at
    another pad is re-indented to where it sits: either way the bytes are
    json.dumps of the documents the leaves hold."""
    v = indices.compute_index(build_gamma(4), "randic")
    leaf = exact._Text.at(exact.value_text(v), "\n    ")
    assert exact._encoded([leaf], "\n    ")[0] is leaf
    for shape in (lambda x: {"a": {"b": x}}, lambda x: {"a": {"b": {"c": x}}},
                  lambda x: [x, [x]], lambda x: x):
        assert exact.json_text(shape(leaf)) == json.dumps(shape(value_to_json(v)), indent=2) + "\n"
    rng = random.Random(29)
    for _ in range(1000):
        for doc in (random_tree(rng, 5), random_records(rng), {"r": [random_records(rng)]}):
            leaves = at_any_pad(rng, with_text_leaves(rng, doc))
            assert exact.json_text(leaves) == json.dumps(doc, indent=2) + "\n"


#: Record keys: format directives and quotes, which a writer that formats
#: keys into a template would have to escape, next to plain and non-ASCII names.
RECORD_KEYS = ("num", "%", "%%", "%s", "%d%", '"q"', "ß☃", "", "a\\b", "\U0001f600")


def random_records(rng):
    """A list or tuple of dicts with one key order, or a near miss: one dict
    reordered, one with an extra key, a non-dict item or an empty dict."""
    keys = rng.sample(RECORD_KEYS, rng.randrange(1, 5))
    records = [{k: random_tree(rng, 2) for k in keys} for _ in range(rng.randrange(1, 6))]
    shape = rng.randrange(7)
    i = rng.randrange(len(records))
    if shape == 1 and len(keys) > 1:  # keys reordered
        records[i] = dict(reversed(records[i].items()))
    elif shape == 2:  # an extra key
        records[i]["extra"] = random_scalar(rng)
    elif shape == 3:  # a non-dict item
        records[i] = rng.choice((random_scalar(rng), [1, 2], list(records[i].items())))
    elif shape == 4:  # an empty dict
        records[i] = {}
    elif shape == 5:
        records = tuple(records)
    return records


def test_records():
    rng = random.Random(31)
    for _ in range(1000):
        assert_identical(random_records(rng))
        assert_identical({"vertices": random_records(rng), "edges": [[0, 1]]})
        assert_identical([random_records(rng), [random_records(rng)]])
    for doc in ([{}], [{}, {}], [{"a": 1}, {}], [{}, {"a": 1}], [{"a": 1}, {"b": 1}],
                [{"a": 1, "b": 2}, {"b": 2, "a": 1}], [{"a": 1}, {"a": 1, "b": 2}],
                [{"a": 1}, [1]], ({"%": "%s"}, {"%": "%%"}), [{"a": {"b": [{"c": 1}]}}] * 3,
                [{"subset": [], "omega": 0}, {"subset": [1, 2], "omega": 2}]):
        assert_identical(doc)


def test_ints_past_the_str_digit_limit():
    """Ints above exact._REPR_BITS bits print wherever an int can sit (alone,
    in an int list, in int rows, in a record column, among other values),
    under the lowest int/str digit limit (640)."""
    big = (10**700, -(2**2001), 2**2000 - 1)
    doc = {"n": big[0], "list": [*big, 1], "rows": [[1, big[1]], [big[2], 0]],
           "records": [{"v": b, "s": "x"} for b in big], "mixed": [big[0], "x", None]}
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # from Python 3.11
    old = sys.get_int_max_str_digits() if set_limit else None
    try:
        if set_limit:
            set_limit(0)
        want = json.dumps(doc, indent=2) + "\n"
        if set_limit:
            set_limit(640)
        assert exact.json_text(doc) == want
    finally:
        if set_limit:
            set_limit(old)
