"""Graph construction: canonical order, adjacency, degrees, exports."""

import json
import re
import sys
import time
from collections import Counter
from math import isqrt

import pytest

from graphlab import formulas, graphs, indices, metric
from graphlab.exact import _int_str
from graphlab.formulas import verification_lines
from graphlab.graphs import build_gamma, build_general
from index_definitions import (
    adjacent,
    degrees_reference,
    dot_reference,
    edges,
    edges_and_degrees,
    graph_dict,
    labels_reference,
    masks,
    neighbors,
    omegas_reference,
    subsets_reference,
    vectors,
)

# 2^4*3^2*5, 2^5*3*5*7, 2^4*3^2*5*7, 2^3*3^3*5^2, 2^5*3^3*5^2*7*11*13,
# 2^2*5^2*19^2*47*83^2
MIXED_SHAPES = (720, 3360, 5040, 5400, 21621600, 11688566300)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def test_gamma3_canonical_order():
    g = build_gamma(3)
    assert g.order == 8
    assert g.labels() == ["1", "p1", "p2", "p3", "p1p2", "p1p3", "p2p3", "p1p2p3"]
    assert g.omegas == (0, 1, 1, 1, 2, 2, 2, 3)


def test_gamma3_with_basis():
    g = build_gamma(3, (2, 3, 5))
    assert g.labels() == ["1", "2", "3", "5", "6", "10", "15", "30"]
    assert list(g.divisors) == [1, 2, 3, 5, 6, 10, 15, 30]


def test_gamma0_and_gamma1():
    g0 = build_gamma(0)
    assert g0.order == 1
    assert edges(g0) == []
    assert g0.labels() == ["1"]
    g1 = build_gamma(1)
    assert g1.order == 2
    assert edges(g1) == [(0, 1)]


def test_adjacency_rule():
    g = build_gamma(3)
    one, n = 0, 7
    p1 = masks(g).index(0b001)
    p2 = masks(g).index(0b010)
    p1p2 = masks(g).index(0b011)
    assert adjacent(g, one, n)
    assert adjacent(g, p1, p1p2)
    assert not adjacent(g, p1, p2)
    assert not adjacent(g, p1p2, masks(g).index(0b101))
    assert not adjacent(g, p1, p1)


def test_edge_counts():
    # |E| = 3^k - 2^k by enumeration
    for k, size in [(0, 0), (1, 1), (2, 5), (3, 19), (4, 65), (5, 211)]:
        assert len(edges(build_gamma(k))) == size


def test_edges_canonical_order():
    g = build_gamma(3)
    e = edges(g)
    assert e == sorted(e)
    assert all(i < j for i, j in e)


def lattice_graphs():
    graphs = [build_gamma(k) for k in range(10)] + [build_gamma(4, (2, 3, 5, 7))]
    graphs += [build_general(n) for n in range(1, 1201)]
    graphs += [build_general(n) for n in MIXED_SHAPES]
    # a chain, (4, 4, 4) and (8, 1, 1, 1, 1): several digits per prime in the per-prime pass;
    # (3, 1, 1, 1, 1, 1), (1, 1, 1, 4) and (2, 2, 2, 2): strided and contiguous slices
    graphs += [build_general(n) for n in (2**11, 810000, 2**8 * 3 * 5 * 7 * 11,
                                          2**3 * 3 * 5 * 7 * 11 * 13, 2 * 3 * 5 * 7**4, 44100)]
    return graphs


def slice_branches(g) -> list[str]:
    """Per prime, the slices _lists extends by: strided (one slice per
    low part) when the weight w is at most order // block, else contiguous."""
    branches, w = [], 1
    for e in g.exponents:
        block = w * (e + 1)
        branches.append("strided" if w <= g.order // block else "contiguous")
        w = block
    return branches


def test_lattice_edges_and_degrees_equal_pair_scan():
    for g in lattice_graphs():
        pairs, deg = edges_and_degrees(g)
        assert edges(g) == list(pairs), g
        assert g.degrees() == deg, g
        assert g.size() == len(pairs), g


def test_multiples_and_neighbors_equal_pair_scan():
    """The listing's up and down lists hold each vertex with its multiples
    and its divisors, once each; the sorted rows and neighbours follow."""
    graphs = lattice_graphs()
    both = [g for g in graphs if {*slice_branches(g)} == {"strided", "contiguous"}]
    assert len(both) > 100 and (1, 1, 1, 4) in {g.exponents for g in both}
    for g in graphs:
        edges, _ = edges_and_degrees(g)
        rows = [[] for _ in range(g.order)]
        above = [[i] for i in range(g.order)]
        below = [[i] for i in range(g.order)]
        adjacent = [[] for _ in range(g.order)]
        for i, j in edges:
            rows[i].append(j)
            above[i].append(j)
            below[j].append(i)
            adjacent[i].append(j)
            adjacent[j].append(i)
        up, down = g.listing()
        assert list(map(sorted, up)) == list(map(sorted, above)), g
        assert list(map(sorted, down)) == list(map(sorted, below)), g
        assert g.multiples() == tuple(map(tuple, rows)), g
        assert all(neighbors(g, i) == tuple(sorted(adjacent[i])) for i in range(g.order)), g


def test_columns_equal_the_vector_references():
    """Degrees, omegas, labels and JSON subsets, read off per-code columns,
    equal the same columns read off the exponent vectors."""
    graphs = lattice_graphs() + [build_gamma(k, PRIMES[:k]) for k in range(13)]
    graphs += [build_gamma(k) for k in (10, 11, 12)]
    for g in graphs:
        assert g.degrees() == degrees_reference(g), g
        assert g.omegas == omegas_reference(g), g
        assert g.labels() == labels_reference(g), g
        if g.gamma:
            text = "".join(g.json_rows())
            assert re.findall(r'"subset": (\[.*?\]),', text, re.S) == subsets_reference(g), g


def test_degree_sequences_match_printed_tables():
    assert build_gamma(3).degrees() == (7, 4, 4, 4, 4, 4, 4, 7)
    assert build_gamma(4).degrees() == (
        15, 8, 8, 8, 8, 6, 6, 6, 6, 6, 6, 8, 8, 8, 8, 15)
    g5 = build_gamma(5)
    assert g5.degrees() == (31,) + (16,) * 5 + (10,) * 10 + (10,) * 10 + (16,) * 5 + (31,)


def test_degree_sum_is_twice_size():
    for k in range(9):
        g = build_gamma(k)
        assert sum(g.degrees()) == 2 * len(edges(g))


def test_label_invariance_of_adjacency():
    a = build_gamma(4, (2, 3, 5, 7))
    b = build_gamma(4, (101, 103, 107, 109))
    c = build_gamma(4)
    for g in (b, c):
        assert g.multiples() == a.multiples()
        assert g.degrees() == a.degrees()


def test_basis_validation():
    with pytest.raises(ValueError):
        build_gamma(2, (4, 6))
    with pytest.raises(ValueError):
        build_gamma(2, (3, 3))
    with pytest.raises(ValueError):
        build_gamma(3, (2, 3))
    with pytest.raises(ValueError):
        build_gamma(-1)
    for p in (1, 0, -7):
        with pytest.raises(ValueError, match=f"basis entry {p} is not prime"):
            build_gamma(1, (p,))
    # Carmichael 561, strong pseudoprimes 2047 (base 2) and 3215031751
    # (bases 2, 3, 5, 7), and twice a 61-bit prime
    for p in (561, 2047, 3215031751, 2 * (2**61 - 1)):
        with pytest.raises(ValueError, match=f"basis entry {p} is not prime"):
            build_gamma(1, (p,))
    assert build_gamma(1, (2**31 - 1,)).divisors == (1, 2**31 - 1)


def test_basis_check_is_fast_and_bounded():
    start = time.perf_counter()
    assert build_gamma(1, (2**61 - 1,)).divisors == (1, 2**61 - 1)
    assert build_gamma(2, (2**31 - 1, 2**61 - 1)).order == 4
    assert time.perf_counter() - start < 1
    # 2**89 - 1 is prime but above the bound the test is proven for
    with pytest.raises(ValueError, match="too large to prove prime"):
        build_gamma(1, (2**89 - 1,))


def test_build_general_small():
    g = build_general(6)
    assert g.divisors == (1, 2, 3, 6)
    assert len(edges(g)) == 5
    g1 = build_general(1)
    assert g1.order == 1
    assert edges(g1) == []


def test_build_general_12():
    g = build_general(12)
    assert g.divisors == (1, 2, 3, 4, 6, 12)
    assert g.order == 6
    assert len(edges(g)) == 12
    assert g.omegas == (0, 1, 1, 1, 2, 2)


def test_build_general_validation():
    with pytest.raises(ValueError):
        build_general(0)
    with pytest.raises(ValueError, match="has 4097 divisors, above the cap of 4096"):
        build_general(2**4096)


def test_build_general_factorisation_budget():
    """Trial division stops at 10**6: a cofactor left above that is accepted
    when is_prime proves it prime, and refused at once otherwise."""
    start = time.perf_counter()
    assert build_general(2**61 - 1).divisors == (1, 2**61 - 1)
    assert build_general(2**20 * (2**61 - 1)).exponents == (20, 1)
    assert time.perf_counter() - start < 1
    for n in (1000000007 * 1000000009, 1000003**2):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="trial division up to 1000000"):
            build_general(n)
        assert time.perf_counter() - start < 1
    with pytest.raises(ValueError, match="too large to prove prime"):
        build_general(2**89 - 1)


def test_build_general_factors_as_a_sieve_says():
    limit = 10**5
    spf = list(range(limit + 1))  # smallest prime factor
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                spf[m] = min(spf[m], p)
    for n in range(1, limit + 1):
        factors = Counter()
        m = n
        while m > 1:
            factors[spf[m]] += 1
            m //= spf[m]
        g = build_general(n)
        assert g.primes == tuple(sorted(factors))
        assert g.exponents == tuple(factors[p] for p in g.primes)


def test_general_squarefree_matches_gamma_small():
    # for k <= 3 the (omega, value) order coincides with the canonical order
    for n, k in [(6, 2), (30, 3)]:
        gd = build_general(n)
        order = sorted(range(gd.order), key=lambda i: (gd.omegas[i], gd.divisors[i]))
        gg = build_gamma(k)
        for a in range(gd.order):
            for b in range(gd.order):
                if a != b:
                    assert adjacent(gd, order[a], order[b]) == adjacent(gg, a, b)


def test_general_squarefree_matches_gamma_by_subset_map():
    for n, k in [(6, 2), (30, 3), (210, 4), (2310, 5)]:
        gd = build_general(n)
        gg = build_gamma(k)
        m = masks(gd)
        order = sorted(range(gd.order), key=lambda i: (gd.omegas[i], m[i]))
        assert [m[i] for i in order] == list(masks(gg))
        for a in range(gd.order):
            for b in range(a + 1, gd.order):
                assert adjacent(gd, order[a], order[b]) == adjacent(gg, a, b)


def export(g) -> str:
    """The JSON export, checked against json.dumps of the reference dict."""
    text = "".join(g.json_rows())
    assert text == json.dumps(graph_dict(g), indent=2) + "\n"
    return text


def test_gamma_json_shape():
    g = build_gamma(2, (2, 3))
    want = {
        "k": 2,
        "primes": [2, 3],
        "vertices": [
            {"subset": [], "omega": 0, "value": 1},
            {"subset": [1], "omega": 1, "value": 2},
            {"subset": [2], "omega": 1, "value": 3},
            {"subset": [1, 2], "omega": 2, "value": 6},
        ],
        "edges": [[0, 1], [0, 2], [0, 3], [1, 3], [2, 3]],
    }
    assert json.loads(export(g)) == graph_dict(g) == want
    # One piece for the head and vertices, one per non-empty row of edges, one to close.
    assert len(list(g.json_rows())) == 2 + sum(map(bool, g.multiples())) == 5
    symbolic = json.loads(export(build_gamma(2)))
    assert "primes" not in symbolic
    assert symbolic["vertices"][3] == {"subset": [1, 2], "omega": 2}
    assert json.loads(export(build_gamma(0))) == {
        "k": 0, "vertices": [{"subset": [], "omega": 0}], "edges": []}


def test_general_json_shape():
    doc = json.loads(export(build_general(12)))
    assert doc["n"] == 12
    assert doc["vertices"][0] == {"value": 1, "omega": 0}
    assert len(doc["edges"]) == 12
    assert json.loads(export(build_general(1))) == {
        "n": 1, "vertices": [{"value": 1, "omega": 0}], "edges": []}


def test_dot_output_deterministic():
    g = build_gamma(1, (2,))
    expected = (
        "graph gamma_1 {\n"
        '  v0 [label="1"];\n'
        '  v1 [label="2"];\n'
        "  v0 -- v1;\n"
        "}\n"
    )
    assert "".join(g.dot_rows()) == expected
    assert "".join(g.dot_rows()) == "".join(g.dot_rows())
    assert "".join(build_general(4).dot_rows()).startswith("graph divisors_4 {")


def test_dot_matches_the_pair_scan():
    """The DOT export, streamed from the rows of multiples, is the DOT of the
    adjacent() pair scan with the labels read off the vectors."""
    for k in range(11):
        for g in (build_gamma(k), build_gamma(k, PRIMES[:k])):
            assert "".join(g.dot_rows()) == dot_reference(g), g
    for n in (*range(1, 301), 5040, 720720, 735134400):
        g = build_general(n)
        assert "".join(g.dot_rows()) == dot_reference(g), g


def test_labels_match_the_vectors():
    for k in (0, 1, 2, 5, 9, 10, 12):
        for g in (build_gamma(k), build_gamma(k, PRIMES[:k])):
            assert g.labels() == labels_reference(g), g
    g = build_gamma(12)
    labels = g.labels()
    assert labels[:14] == ["1", *(f"p{p}" for p in range(1, 13)), "p1p2"]
    assert labels[vectors(g).index((1,) + (0,) * 8 + (1, 0, 1))] == "p1p10p12"
    assert labels[-1] == "p1p2p3p4p5p6p7p8p9p10p11p12"
    for n in (*range(1, 301), *MIXED_SHAPES):
        g = build_general(n)
        assert g.labels() == labels_reference(g) == list(map(_int_str, g.divisors)), g


def test_divisor_vertex_data():
    g = build_gamma(3, (2, 3, 5))
    i = masks(g).index(0b101)
    assert json.loads(export(g))["vertices"][i]["subset"] == [1, 3]
    assert g.omegas[i] == 2
    assert g.divisors[i] == 10
    assert g.labels()[i] == "10"


def test_construction_lists_no_vertex():
    """Only the exponents, primes and order are set at construction, so
    Gamma_40 is built without its 2**40 vertices."""
    g = build_gamma(40)
    assert g.order == 2**40
    assert g.descriptor() == {"family": "gamma", "k": 40}
    assert repr(g) == "DivisorGraph(k=40)"
    assert "_codes" not in vars(g)
    assert repr(build_gamma(2, (3, 2))) == "DivisorGraph(k=2, primes=[3, 2])"
    assert build_general(12).descriptor() == {"family": "divisor", "n": 12}
    assert repr(build_general(12)) == "DivisorGraph(n=12)"


def test_build_gamma_refuses_k_above_the_bound():
    """k above graphs._MAX_GAMMA_K is refused before any tuple of k exponents
    is made; the bound itself is still built."""
    bound = graphs._MAX_GAMMA_K
    assert build_gamma(bound).order == 2**bound
    for k in (bound + 1, 10**20, 10**700):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"is above the bound of {bound} on k for Gamma_k"):
            build_gamma(k)
        assert time.perf_counter() - start < 0.5, k


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the int/str digit limit exists from Python 3.11")
def test_repr_prints_any_size_under_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        n = 9973**161  # 644 digits
        assert repr(build_general(n)) == f"DivisorGraph(n={_int_str(n)})"
        assert repr(build_gamma(2, (3, 2))) == "DivisorGraph(k=2, primes=[3, 2])"
    finally:
        sys.set_int_max_str_digits(limit)


def test_size_is_closed_form():
    """|E| = prod C(e+2, 2) - prod (e+1), read from the exponents alone."""
    g = build_gamma(12)
    assert g.size() == 3**12 - 2**12 == 527345
    big = build_general(2**4095)
    assert big.size() == 4096 * 4095 // 2
    assert build_gamma(40).size() == 3**40 - 2**40
    for h in (g, big):
        assert not {"_codes", "_degrees", "_up", "_down"} & vars(h).keys()


def test_json_and_dot_exports_build_only_the_up_lists():
    """The JSON and DOT exports and multiples() read the multiples alone, so
    no list of divisors is built for them; listing() builds both."""
    for g in (build_gamma(6), build_gamma(4, PRIMES[:4]), build_general(5040), build_general(1)):
        assert "".join(g.json_rows()) and "".join(g.dot_rows()) and g.multiples() is not None
        assert "_up" in vars(g) and "_down" not in vars(g), g
        up, down = g.listing()
        assert up is vars(g)["_up"] and down is vars(g)["_down"], g


def test_exports_and_verify_read_no_vectors(monkeypatch):
    """The graph keeps no exponent vector, pair scan, neighbour list or edge
    tuple: the exports and verify read the codes and the listing.  The CSV
    export and verify also sort no row: they mark and count the unsorted
    listing."""
    def refuse(*args):
        raise AssertionError("sorted rows read")

    for name in ("vectors", "adjacent", "omega", "edges", "neighbors", "to_dot", "_multiples"):
        assert not hasattr(graphs.DivisorGraph, name), name
    indices.shape_profile.cache_clear()  # verify's index values are computed here
    formulas._oracle.cache_clear()  # and so is its listing
    for name in ("multiples", "_rows"):
        monkeypatch.setattr(graphs.DivisorGraph, name, refuse)
    for g in (build_gamma(8), build_gamma(6, PRIMES[:6]), build_general(5040), build_general(1)):
        assert "".join(metric.csv_rows(g))
    assert verification_lines(0, 8)[1]
