"""Index engine: frozen expected values and cross-checks against the
enumeration definitions in index_definitions.

Expected values for Gamma_3 come from the printed tables; the Gamma_4 and
Gamma_5 expectations were derived independently from the degree multisets
and edge classes (an edge joins omega classes a < b in C(k,b)*C(b,a) ways)
before the engine existed, and are frozen here.
"""

import random
from collections import Counter
from fractions import Fraction
from math import comb, prod

import pytest

from graphlab import graphs, metric
from graphlab.exact import RadicalSum, inv_sqrt, value_to_json
from graphlab.formulas import (
    degree_formula,
    harary_formula,
    hyper_wiener_formula,
    wiener_formula,
    zagreb1_formula,
)
from graphlab.graphs import build_gamma, build_general
from graphlab.indices import (
    INDEX_NAMES,
    _inv_sqrt_sum,
    balaban,
    compute_index,
    compute_indices,
    degree_distance,
    gutman,
    harary,
    harmonic,
    hyper_wiener,
    lattice_counts,
    mostar,
    profile,
    r1,
    r2,
    r3,
    randic,
    report_dict,
    wiener,
    zagreb1,
    zagreb2,
)
from index_definitions import Path3, distance_matrix_bfs, edges_and_degrees, reference_indices

F = Fraction

G3 = build_gamma(3)
G4 = build_gamma(4)
G5 = build_gamma(5)


def edge_class_counts(k):
    """Independent oracle: edges between omega classes a <= b of Gamma_k."""
    counts = {}
    for b in range(1, k + 1):
        for a in range(b):
            counts[(a, b)] = comb(k, b) * comb(b, a)
    return counts


def test_edge_class_oracle_matches_enumeration():
    for k in range(1, 7):
        g = build_gamma(k)
        seen = {}
        for i, j in g.edges():
            key = tuple(sorted((g.omega(i), g.omega(j))))
            seen[key] = seen.get(key, 0) + 1
        assert seen == edge_class_counts(k)


def test_wiener():
    assert wiener(G3) == 37
    assert wiener(build_gamma(0)) == 0
    assert wiener(build_gamma(1)) == 1
    assert wiener(G5) == 781
    # against the breadth-first oracle
    rows = distance_matrix_bfs(G5).rows
    assert sum(sum(r) for r in rows) == 2 * 781


def test_hyper_wiener():
    assert hyper_wiener(G3) == 46
    assert hyper_wiener(build_gamma(1)) == 1
    assert hyper_wiener(build_gamma(2)) == 8


def test_harary():
    assert harary(G3) == F(47, 2)
    assert harary(build_gamma(2)) == F(11, 2)
    assert harary(build_gamma(0)) == 0


def test_zagreb():
    assert zagreb1(G3) == 194
    assert zagreb2(G3) == 481
    assert zagreb1(G4) == 1178
    assert zagreb1(G5) == 6482
    assert zagreb1(build_gamma(0)) == 0


def test_zagreb2_gamma45_derived():
    # sum over edge classes of deg_a * deg_b
    assert zagreb2(G4) == 1 * 15 * 15 + 16 * 15 * 8 + 12 * 15 * 6 + 24 * 8 * 6 + 12 * 8 * 8
    assert zagreb2(G4) == 5145
    assert zagreb2(G5) == 47401


def test_degree_distance():
    assert degree_distance(G3) == 338
    assert degree_distance(G4) == 2722
    assert degree_distance(G5) == 19682
    assert degree_distance(build_gamma(0)) == 0


def test_gutman():
    assert gutman(G3) == 769
    assert gutman(G4) == 10577
    assert gutman(G5) == 124201


def test_diameter_two_identities():
    # with all distances in {1, 2}: Gut = 2*sum_pairs(du*dv) - M2,
    # DD = 2*sum_pairs(du+dv) - M1
    for k in range(2, 8):
        g = build_gamma(k)
        deg = g.degrees()
        total = sum(deg)
        pair_prod = (total * total - zagreb1(g)) // 2
        pair_sum = (g.order - 1) * total
        assert gutman(g) == 2 * pair_prod - zagreb2(g)
        assert degree_distance(g) == 2 * pair_sum - zagreb1(g)


def test_edge_degree_sum_identity():
    for k in range(7):
        g = build_gamma(k)
        assert sum(g.degrees()[i] + g.degrees()[j] for i, j in g.edges()) == zagreb1(g)


def test_balaban():
    assert balaban(build_gamma(0)) == 0
    assert balaban(build_gamma(1)) == 1
    claimed = F(19, 26) * RadicalSum({1: F(52, 35), 70: F(12, 35)})
    assert balaban(G3) == claimed
    assert balaban(G3) == RadicalSum({1: F(38, 35), 70: F(114, 455)})


def test_balaban_gamma45_printed_products():
    c4 = F(65, 102) * RadicalSum(
        {1: F(202, 165), 330: F(16, 165), 10: F(66, 165), 33: F(60, 165)})
    assert balaban(G4) == c4
    c5 = F(211, 362) * RadicalSum(
        {1: F(19353, 9269), 1426: F(260, 9269), 403: F(920, 9269), 598: F(1550, 9269)})
    assert balaban(G5) == c5


def test_harmonic():
    assert harmonic(G3) == F(589, 154)
    assert harmonic(G4) == F(36367, 4830)
    assert harmonic(G5) == F(45901681, 3106324)
    assert harmonic(build_gamma(1)) == 1
    assert harmonic(build_gamma(0)) == 0


def test_randic():
    assert randic(G3) == RadicalSum({1: F(23, 14), 7: F(6, 7)})
    assert randic(G4) == RadicalSum(
        {1: F(47, 30), 3: 2, 10: F(2, 5), 30: F(4, 15)})
    assert randic(G5) == RadicalSum(
        {1: F(531, 124), 31: F(5, 31), 310: F(4, 31), 10: F(5, 2)})
    assert randic(build_gamma(1)) == 1


def test_randic_definition_cross_check():
    for k in range(7):
        g = build_gamma(k)
        acc = RadicalSum()
        for i, j in g.edges():
            acc = acc + inv_sqrt(g.degrees()[i] * g.degrees()[j])
        assert randic(g) == acc


def test_r_degree_gamma3():
    # degree product 7^2 * 4^6; printed constants s, t
    s = 7 * 4**6 + 31
    t = 7**2 * 4**5 + 34
    p = profile(G3)
    assert G3.degrees()[0] == 7 and p.degree_sum - 7 == 31 and p.degree_product // 7 == 7 * 4**6
    assert p.r(G3.degrees()[0]) == s
    assert p.r(G3.degrees()[1]) == t
    assert p.r(G3.degrees()[7]) == s


def test_r_indices_gamma3():
    s = 7 * 4**6 + 31
    t = 7**2 * 4**5 + 34
    assert r1(G3) == 2 * s**2 + 6 * t**2
    # edge classes: one (s,s), twelve (s,t), six (t,t)
    assert r2(G3) == s * s + 12 * s * t + 6 * t * t
    assert r3(G3) == 14 * s + 24 * t


def test_r_indices_gamma4_derived():
    prod = 15**2 * 8**8 * 6**6
    total = 2 * 15 + 8 * 8 + 6 * 6
    a = total - 15 + prod // 15  # omega 0 or 4
    b = total - 8 + prod // 8    # omega 1 or 3
    c = total - 6 + prod // 6    # omega 2
    assert [profile(G4).r(d) for d in G4.degrees()] == [a] + [b] * 4 + [c] * 6 + [b] * 4 + [a]
    assert r1(G4) == 2 * a**2 + 8 * b**2 + 6 * c**2
    assert r2(G4) == a * a + 16 * a * b + 12 * a * c + 12 * b * b + 24 * b * c
    assert r3(G4) == 30 * a + 64 * b + 36 * c


def test_r_indices_gamma5_derived():
    prod = 31**2 * 16**10 * 10**20
    total = 2 * 31 + 10 * 16 + 20 * 10
    s = total - 31 + prod // 31
    t = total - 16 + prod // 16
    w = total - 10 + prod // 10
    # printed constants equal the true r-degrees for Gamma_5
    assert s == 31 * 16**10 * 10**20 + 391
    assert t == 31**2 * 16**9 * 10**20 + 406
    assert w == 31**2 * 16**10 * 10**19 + 412
    assert r1(G5) == 2 * s**2 + 10 * t**2 + 20 * w**2
    assert r2(G5) == s * s + 20 * s * t + 40 * s * w + 20 * t * t + 100 * t * w + 30 * w * w
    assert r3(G5) == 62 * s + 160 * t + 200 * w


def test_r_indices_tiny():
    g0 = build_gamma(0)
    assert r1(g0) == 1 and r2(g0) == 0 and r3(g0) == 0
    g1 = build_gamma(1)
    assert [profile(g1).r(d) for d in g1.degrees()] == [2, 2]
    assert r1(g1) == 8 and r2(g1) == 4 and r3(g1) == 4


def test_mostar():
    assert mostar(G3) == 36
    assert mostar(G4) == 268
    assert mostar(G5) == 1740
    assert mostar(build_gamma(1)) == 0
    assert mostar(build_gamma(0)) == 0


def test_general_graph_matches_gamma():
    gd = build_general(6)
    gg = build_gamma(2)
    for name in INDEX_NAMES:
        assert compute_index(gd, name) == compute_index(gg, name)


def test_general_graph_non_squarefree():
    g12 = build_general(12)
    assert wiener(g12) == 18  # 12 edges at distance 1, 3 pairs at distance 2
    assert zagreb1(g12) == sum(d * d for d in g12.degrees())
    assert mostar(build_general(1)) == 0


def test_compute_indices_selection_and_order():
    vals = compute_indices(G3, ["randic", "wiener"])
    assert list(vals) == ["wiener", "randic"]
    assert vals["wiener"] == 37
    all_vals = compute_indices(G3)
    assert list(all_vals) == list(INDEX_NAMES)


def test_compute_index_unknown_name():
    with pytest.raises(ValueError, match="unknown index"):
        compute_index(G3, "szeged")
    with pytest.raises(ValueError, match="wiener"):
        compute_indices(G3, ["szeged"])


def test_report_dict_shape():
    doc = report_dict(G3, compute_indices(G3, ["wiener", "harary"]))
    assert doc == {
        "graph": {"family": "gamma", "k": 3},
        "indices": {
            "wiener": {"kind": "integer", "value": "37"},
            "harary": {"kind": "rational", "num": "47", "den": "2"},
        },
    }
    doc2 = report_dict(build_general(12), {"wiener": 18})
    assert doc2["graph"] == {"family": "divisor", "n": 12}
    doc3 = report_dict(build_gamma(2, (2, 3)), {})
    assert doc3["graph"] == {"family": "gamma", "k": 2, "primes": [2, 3]}


MIXED_SHAPES = (720, 3360, 5040, 5400)  # 2^4*3^2*5, 2^5*3*5*7, 2^4*3^2*5*7, 2^3*3^3*5^2


def test_profile_engine_equals_definitions():
    graphs = [build_gamma(k) for k in range(8)]
    graphs += [build_gamma(3, (2, 3, 5)), build_gamma(3, (101, 103, 107))]
    graphs += [build_general(n) for n in range(1, 601)]
    graphs += [build_general(n) for n in MIXED_SHAPES]
    for g in graphs:
        got = {name: value_to_json(v) for name, v in compute_indices(g).items()}
        expected = {name: value_to_json(v) for name, v in reference_indices(g).items()}
        assert got == expected, g


def test_profile_equals_pair_scan_counts():
    sample = [build_gamma(k) for k in range(10)] + [build_gamma(4, (2, 3, 5, 7))]
    sample += [build_general(n) for n in range(1, 1201)]
    sample += [build_general(n) for n in MIXED_SHAPES + (21621600, 11688566300)]
    for g in sample:
        edges, deg = edges_and_degrees(g)
        pair_counts = Counter(tuple(sorted((deg[i], deg[j]))) for i, j in edges)
        p = profile(g)
        assert (p.order, p.size, p.far_pairs) == (g.order, len(edges), comb(g.order, 2) - len(edges)), g
        assert p.degree_counts == Counter(deg), g
        assert p.pair_counts == pair_counts, g
        assert (p.degree_sum, p.degree_product) == (sum(deg), prod(deg)), g
        assert p.zagreb1 == sum(d * d for d in deg), g
        assert p.zagreb2 == sum(deg[i] * deg[j] for i, j in edges), g


def test_lattice_counts_gamma40_closed_forms():
    k = 40
    degree_counts, pair_counts = lattice_counts((1,) * k)
    assert sum(degree_counts.values()) == 2**k
    assert sum(pair_counts.values()) == 3**k - 2**k
    expected_degrees = Counter()
    for j in range(k + 1):
        expected_degrees[degree_formula(k, j)] += comb(k, j)
    assert degree_counts == expected_degrees
    expected_pairs = Counter()
    for (a, b), c in edge_class_counts(k).items():
        du, dv = degree_formula(k, a), degree_formula(k, b)
        expected_pairs[min(du, dv), max(du, dv)] += c
    assert pair_counts == expected_pairs


def test_indices_list_no_edges(monkeypatch):
    def refuse(*args):
        raise AssertionError("edges, degrees or vectors listed at run time")

    monkeypatch.setattr(graphs.DivisorGraph, "edges", refuse)
    monkeypatch.setattr(graphs.DivisorGraph, "adjacent", refuse)
    monkeypatch.setattr(graphs.DivisorGraph, "degrees", refuse)
    monkeypatch.setattr(graphs.DivisorGraph, "vectors", property(refuse))
    for g in (build_gamma(6), build_gamma(3, (2, 3, 5)), build_general(5040), build_general(1)):
        assert list(compute_indices(g)) == list(INDEX_NAMES)


def test_gamma20_indices_read_only_the_exponents():
    g = build_gamma(20)
    names = [n for n in INDEX_NAMES if n not in ("r1", "r2", "r3")]
    values = compute_indices(g, names)
    assert len(values) == 11
    assert values["wiener"] == wiener_formula(20) == 4**20 - 3**20
    assert values["hyper_wiener"] == hyper_wiener_formula(20)
    assert values["harary"] == harary_formula(20)
    assert values["zagreb1"] == zagreb1_formula(20)
    assert "vectors" not in vars(g)
    assert "degree_product" not in vars(profile(g))


def test_profile_refuses_graph_without_universal_vertex():
    for name in INDEX_NAMES:
        with pytest.raises(ValueError, match="needs the prime exponents of a divisor lattice"):
            compute_index(Path3(), name)


def test_indices_run_no_breadth_first_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("distance rows requested at run time")

    monkeypatch.setattr(metric, "distance_rows", refuse)
    for g in (build_gamma(5), build_general(5040)):
        assert list(compute_indices(g)) == list(INDEX_NAMES)


def test_inv_sqrt_sum_equals_term_by_term_sum():
    """The per-factor fold equals adding c * inv_sqrt(x*y) one term at a
    time, scaled, down to the canonical term order."""
    rng = random.Random(20241018)
    for _ in range(100):
        pairs = Counter({
            (rng.randint(1, 400), rng.randint(1, 400)): rng.randint(1, 30)
            for _ in range(rng.randint(1, 40))
        })
        num, den = rng.randint(1, 500), rng.randint(1, 500)
        want = RadicalSum()
        for (x, y), c in pairs.items():
            want = want + c * inv_sqrt(x * y)
        want = want * Fraction(num, den)
        got = _inv_sqrt_sum(pairs, num, den)
        assert RadicalSum.from_value(got).terms == want.terms
        assert got == want
