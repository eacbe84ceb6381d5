"""Index engine: frozen expected values and cross-checks against the
enumeration definitions in index_definitions.

Expected values for Gamma_3 come from the printed tables; the Gamma_4 and
Gamma_5 expectations were derived independently from the degree multisets
and edge classes (an edge joins omega classes a < b in C(k,b)*C(b,a) ways)
before the engine existed, and are frozen here.
"""

import gc
import json
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from collections import Counter
from fractions import Fraction
from math import comb, gcd, isqrt, prod

import pytest

from graphlab import graphs, indices, metric
from graphlab.exact import RadicalSum, inv_sqrt_sum, normalize, value_text
from graphlab.formulas import (
    degree_formula,
    harary_formula,
    hyper_wiener_formula,
    wiener_formula,
    zagreb1_formula,
)
from graphlab.graphs import build_gamma, build_general
from graphlab.indices import (
    INDEX_NAMES, compute_index, compute_indices, lattice_counts, profile, report_text, table_text,
)
from index_definitions import (
    Path3,
    comparable,
    distance_matrix_bfs,
    edges,
    edges_and_degrees,
    reference_indices,
    report_dict,
    value_to_json,
)
from radical_reference import reference_terms, scale, terms_of

F = Fraction

G3 = build_gamma(3)
G4 = build_gamma(4)
G5 = build_gamma(5)


def _by_name(name):
    return lambda g: compute_index(g, name)


(wiener, hyper_wiener, harary, zagreb1, zagreb2, degree_distance, gutman, balaban, harmonic,
 randic, r1, r2, r3, mostar) = map(_by_name, INDEX_NAMES)


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
        for i, j in edges(g):
            key = tuple(sorted((g.omegas[i], g.omegas[j])))
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
        assert sum(g.degrees()[i] + g.degrees()[j] for i, j in edges(g)) == zagreb1(g)


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
    """Randic equals the reference sum of sqrt(x*y)/(x*y) taken edge by edge."""
    for k in range(7):
        g = build_gamma(k)
        deg = g.degrees()
        want = reference_terms((deg[i] * deg[j], F(1, deg[i] * deg[j])) for i, j in edges(g))
        assert terms_of(randic(g)) == want, k


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
    message = f"unknown index 'szeged'; valid names: {', '.join(INDEX_NAMES)}"
    for call in (lambda: compute_index(G3, "szeged"), lambda: compute_indices(G3, ["szeged"])):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message


def test_one_registry_reads_the_profile():
    """_DISPATCH holds one formula per index name, and compute_index returns
    the value the shape's Profile keeps."""
    assert set(indices._DISPATCH) == set(INDEX_NAMES)
    for g in (G3, build_general(720)):
        for name in INDEX_NAMES:
            assert compute_index(g, name) is profile(g).value(name), (g, name)


def test_harmonic_beyond_enumeration():
    """harmonic equals the sum of 2c/(a + b) over the edge-pair classes on
    Gamma_20, Gamma_50 and Gamma_100 and on mixed shapes."""
    for k in (20, 50, 100):
        p = profile(build_gamma(k))
        want = sum(Fraction(2 * c, a + b) for (a, b), c in p.pair_counts.items())
        assert compute_index(build_gamma(k), "harmonic") == want, k
    for shape in ((1, 2, 3, 5), (1, 1, 1, 1, 4, 7), (2,) * 8, (1, 1, 1, 2, 2, 3)):
        p = indices.shape_profile(shape)
        assert p.value("harmonic") == sum(Fraction(2 * c, a + b)
                                          for (a, b), c in p.pair_counts.items()), shape


def test_report_dict_shape():
    """The report's document shape, read back from report_text; the reference
    report_dict gives the same document."""
    values = compute_indices(G3, ["wiener", "harary"])
    doc = json.loads(report_text(G3, values))
    assert doc == report_dict(G3, values) == {
        "graph": {"family": "gamma", "k": 3},
        "indices": {
            "wiener": {"kind": "integer", "value": "37"},
            "harary": {"kind": "rational", "num": "47", "den": "2"},
        },
    }
    doc2 = json.loads(report_text(build_general(12), {"wiener": 18}))
    assert doc2["graph"] == {"family": "divisor", "n": 12}
    doc3 = json.loads(report_text(build_gamma(2, (2, 3)), {}))
    assert doc3 == {"graph": {"family": "gamma", "k": 2, "primes": [2, 3]}, "indices": {}}


MIXED_SHAPES = (720, 3360, 5040, 5400)  # 2^4*3^2*5, 2^5*3*5*7, 2^4*3^2*5*7, 2^3*3^3*5^2
#: The nine divisor-indices benchmark shapes on the smallest primes: (2,2,1,1,1,1),
#: (2,2,2,2,1), (1,)*7, (4,4,4), (8,1,1,1,1), (5,3,1,1), (4,2,2,1), (3,2,1,1,1),
#: (5,2,1,1).  Shapes like (4,4,4) and (8,1,1,1,1), whose self-mirror states
#: of the last fold keep weight c, lie beyond the n <= 1200 sweep.
BENCHMARK_SHAPES = (180180, 485100, 510510, 810000, 295680, 30240, 25200, 27720, 10080)


def test_profile_engine_equals_definitions():
    graphs = [build_gamma(k) for k in range(8)]
    graphs += [build_gamma(3, (2, 3, 5)), build_gamma(3, (101, 103, 107))]
    graphs += [build_general(n) for n in range(1, 601)]
    graphs += [build_general(n) for n in MIXED_SHAPES]
    for g in graphs:
        assert comparable(compute_indices(g)) == comparable(reference_indices(g)), g


#: The primes below 1000, for random divisor graphs.
SMALL_PRIMES = [p for p in range(2, 1000) if all(p % f for f in range(2, isqrt(p) + 1))]


def random_exponents(rng, max_divisors=150):
    """A seeded exponent vector of up to 7 entries, each 1..9, with at most
    max_divisors divisors: each drawn entry is kept while it fits."""
    exponents = []
    for _ in range(rng.randint(0, 7)):
        e = rng.randint(1, rng.choice((1, 3, 9)))
        if prod(x + 1 for x in exponents) * (e + 1) <= max_divisors:
            exponents.append(e)
    return exponents


def shape_forms(exponents) -> dict:
    """W, WW, H and M1 of the divisor graph of any n with these exponents,
    from the exponents alone.  With V = prod(e+1) divisors, T = prod C(e+2, 2)
    divisor pairs d | d' (d = d' included), m = T - V edges and F = C(V, 2) - m
    pairs at distance 2: W = m + 2F, WW = m + 3F and H = m + F/2.  The degree
    of d is tau(d) + tau(n/d) - 2, so M1 = 2A + 2B + 4V - 8T with
    A = prod sum_a (a+1)^2 and B = prod sum_a (a+1)(e-a+1)."""
    v = prod(e + 1 for e in exponents)
    t = prod(comb(e + 2, 2) for e in exponents)
    a = prod(sum((x + 1) ** 2 for x in range(e + 1)) for e in exponents)
    b = prod(sum((x + 1) * (e - x + 1) for x in range(e + 1)) for e in exponents)
    m = t - v
    far = comb(v, 2) - m
    return {"wiener": m + 2 * far, "hyper_wiener": m + 3 * far,
            "harary": normalize(m + F(far, 2)), "zagreb1": 2 * a + 2 * b + 4 * v - 8 * t}


def test_seeded_shapes_equal_the_definitions_and_the_shape_forms():
    """Random exponent vectors on random primes below 1000, and Gamma_k for
    k <= 6 on random prime bases, through the engine and the enumeration
    oracle: all fourteen indices agree (Randic and Balaban by their terms in
    the reference arithmetic), and W, WW, H and M1 equal their closed forms."""
    rng = random.Random(20261020)
    cases = []
    for _ in range(24):
        exponents = random_exponents(rng)
        primes = rng.sample(SMALL_PRIMES, len(exponents))
        cases.append((build_general(prod(p**e for p, e in zip(primes, exponents))), exponents))
    for _ in range(6):
        k = rng.randint(0, 6)
        cases.append((build_gamma(k, rng.sample(SMALL_PRIMES + [999983, 2**61 - 1], k)), [1] * k))
    for g, exponents in cases:
        got, want = compute_indices(g), reference_indices(g)
        assert comparable(got) == comparable(want), exponents
        forms = shape_forms(exponents)
        assert {name: got[name] for name in forms} == forms, exponents


def _fractions_made(monkeypatch, call):
    """call() and the number of Fractions constructed during it (the
    constructor, and from Python 3.12 the coprime-pair shortcut that
    Fraction arithmetic uses)."""
    made = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    if "_from_coprime_ints" in vars(Fraction):
        coprime = Fraction._from_coprime_ints.__func__

        def counted_coprime(cls, *args):
            made.append(cls)
            return coprime(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    try:
        return call(), len(made)
    finally:
        monkeypatch.undo()


def test_randic_balaban_store_reduced_int_pairs(monkeypatch):
    """randic and balaban hold each coefficient as an int pair in lowest terms
    (den > 0, num != 0), equal to the enumeration oracle, and make no Fraction
    on the way to an irrational value."""
    indices.shape_profile.cache_clear()  # each shape's values computed here, under the count
    graphs = [build_gamma(k) for k in range(8)] + [build_general(n) for n in range(1, 601)]
    for g in graphs:
        want = reference_indices(g)
        profile(g)
        for index in ("randic", "balaban"):
            got, made = _fractions_made(monkeypatch, lambda: compute_index(g, index))
            assert terms_of(got) == want[index], (g, index)
            if isinstance(got, RadicalSum):
                for pair in got._terms.values():
                    assert type(pair) is tuple and len(pair) == 2, (g, index, pair)
                    num, den = pair
                    assert type(num) is int and type(den) is int, (g, index, pair)
                    assert num != 0 and den > 0 and gcd(num, den) == 1, (g, index, pair)
                assert made == 0, (g, index)


def test_profile_equals_pair_scan_counts():
    sample = [build_gamma(k) for k in range(10)] + [build_gamma(4, (2, 3, 5, 7))]
    sample += [build_general(n) for n in range(1, 1201)]
    sample += [build_general(n) for n in MIXED_SHAPES + BENCHMARK_SHAPES + (21621600, 11688566300)]
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


def test_lattice_counts_on_random_shapes():
    """Seeded random exponent tuples with at most 200 divisors, realised on
    the smallest primes, against a scan of every vertex pair."""
    rng = random.Random(14)
    primes = (2, 3, 5, 7, 11, 13, 17)
    shapes = set()
    while len(shapes) < 40:
        shape = tuple(sorted((rng.randint(1, 12) for _ in range(rng.randint(1, 7))), reverse=True))
        if prod(e + 1 for e in shape) <= 200:
            shapes.add(shape)
    for shape in sorted(shapes):
        g = build_general(prod(p**e for p, e in zip(primes, shape)))
        edges, deg = edges_and_degrees(g)
        pair_counts = Counter(tuple(sorted((deg[i], deg[j]))) for i, j in edges)
        assert lattice_counts(rng.sample(shape, len(shape))) == (Counter(deg), pair_counts), shape


def test_degree_product_budget():
    """P is formed up to Gamma_16 and refused before it is formed from
    Gamma_17 on; the indices that do not read P are never refused."""
    assert profile(build_gamma(16)).degree_product.bit_length() == 648869
    for k in (17, 20, 100):
        g = build_gamma(k)
        with pytest.raises(ValueError, match="above the budget of 1048576 bits"):
            r3(g)
        assert "degree_product" not in vars(profile(g))
        assert wiener(g) == wiener_formula(k)


def gamma_counts(k):
    """Degree and sorted degree-pair counts of Gamma_k from the omega classes."""
    degrees = Counter()
    for j in range(k + 1):
        degrees[degree_formula(k, j)] += comb(k, j)
    pairs = Counter()
    for (a, b), c in edge_class_counts(k).items():
        du, dv = degree_formula(k, a), degree_formula(k, b)
        pairs[min(du, dv), max(du, dv)] += c
    return degrees, pairs


def test_lattice_counts_gamma40_closed_forms():
    """Gamma_0..Gamma_12, Gamma_40 and Gamma_100 against the omega classes."""
    for k in (*range(13), 40, 100):
        degree_counts, pair_counts = lattice_counts((1,) * k)
        assert sum(degree_counts.values()) == 2**k, k
        assert sum(pair_counts.values()) == 3**k - 2**k, k
        assert (degree_counts, pair_counts) == gamma_counts(k), k


def pair_scan_counts(exponents):
    """Degree and sorted degree-pair counts of the divisor graph with these
    exponents, realised on the smallest primes, by testing every vertex pair."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    g = build_general(prod(p**e for p, e in zip(primes, exponents)))
    edges, deg = edges_and_degrees(g)
    return Counter(deg), Counter(tuple(sorted((deg[i], deg[j]))) for i, j in edges)


def test_lattice_counts_places_exponent_one_primes_in_closed_form(monkeypatch):
    """No exponent-1 prime is folded one at a time: with _exponent_pairs
    refusing e == 1, Gamma_100 and mixed shapes still give their counts."""
    exponent_pairs = indices._exponent_pairs

    def refuse_one(e):
        assert e != 1, "an exponent-1 prime was folded on its own"
        return exponent_pairs(e)

    want = {shape: pair_scan_counts(shape) for shape in ((3, 1, 2, 1, 1), (1, 1, 4, 1), (2, 2, 1))}
    want[(1,) * 100] = gamma_counts(100)
    indices.shape_profile.cache_clear()
    monkeypatch.setattr(indices, "_exponent_pairs", refuse_one)
    for shape, counts in want.items():
        assert lattice_counts(shape) == counts, shape


def test_lattice_counts_on_mixed_squarefree_shapes():
    """Seeded shapes of 3 to 9 exponent-1 primes plus 0 to 2 larger
    exponents, at most 300 divisors, against a scan of every vertex pair."""
    rng = random.Random(15)
    shapes = set()
    while len(shapes) < 30:
        shape = [1] * rng.randint(3, 9) + [rng.randint(2, 6) for _ in range(rng.randint(0, 2))]
        if prod(e + 1 for e in shape) <= 300:
            rng.shuffle(shape)
            shapes.add(tuple(shape))
    for shape in sorted(shapes):
        assert lattice_counts(shape) == pair_scan_counts(shape), shape


def test_r_indices_equal_sums_of_r():
    """r1, r2 and r3, quadratics in Q = P/L, equal the sums over Profile.r
    of r(v)**2, r(u)*r(v) and deg v * r(v)."""
    graphs = [build_gamma(k) for k in range(13)]
    graphs += [build_general(n) for n in (*BENCHMARK_SHAPES, *range(1, 601))]
    for g in graphs:
        p = profile(g)
        assert r1(g) == sum(c * p.r(d) ** 2 for d, c in p.degree_counts.items()), g
        assert r2(g) == sum(c * p.r(x) * p.r(y) for (x, y), c in p.pair_counts.items()), g
        assert r3(g) == sum(c * d * p.r(d) for d, c in p.degree_counts.items()), g


def test_indices_list_no_edges(monkeypatch):
    def refuse(*args):
        raise AssertionError("edges, degrees or codes listed at run time")

    indices.shape_profile.cache_clear()  # so every profile is built under the refusals
    monkeypatch.setattr(graphs.DivisorGraph, "listing", refuse)
    monkeypatch.setattr(graphs.DivisorGraph, "multiples", refuse)
    monkeypatch.setattr(graphs.DivisorGraph, "degrees", refuse)
    monkeypatch.setattr(graphs.DivisorGraph, "_codes", property(refuse))
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
    assert "_codes" not in vars(g)
    assert "degree_product" not in vars(profile(g))


def test_profile_refuses_graph_without_universal_vertex():
    for name in INDEX_NAMES:
        with pytest.raises(ValueError, match="needs the prime exponents of a divisor lattice"):
            compute_index(Path3(), name)


def test_indices_run_no_breadth_first_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("distance rows requested at run time")

    indices.shape_profile.cache_clear()
    monkeypatch.setattr(metric, "digit_rows", refuse)
    for g in (build_gamma(5), build_general(5040)):
        assert list(compute_indices(g)) == list(INDEX_NAMES)


def test_inv_sqrt_sum_equals_term_by_term_sum():
    """The engine's sum equals num/den times c/sqrt(x*y) = (c/(x*y))*sqrt(x*y)
    added term by term by the reference arithmetic, down to the canonical
    term order."""
    rng = random.Random(20241018)
    for _ in range(100):
        pairs = Counter({
            (rng.randint(1, 400), rng.randint(1, 400)): rng.randint(1, 30)
            for _ in range(rng.randint(1, 40))
        })
        num, den = rng.randint(1, 500), rng.randint(1, 500)
        want = scale(reference_terms((x * y, Fraction(c, x * y)) for (x, y), c in pairs.items()),
                     Fraction(num, den))
        got = inv_sqrt_sum(pairs, num, den)
        assert terms_of(got) == want
        assert got == normalize(RadicalSum(dict(want)))


def test_one_profile_per_exponent_shape():
    """Graphs of one exponent multiset share one Profile, whatever their primes
    or the order of their exponents; other shapes get another."""
    gamma3 = profile(build_gamma(3))
    for g in (build_gamma(3, (2, 3, 5)), build_general(30), build_general(1001)):
        assert profile(g) is gamma3, g
    assert profile(build_general(12)) is profile(build_general(18)) is not gamma3
    assert indices.shape_profile((1, 1, 1)) is gamma3


def test_cold_and_warm_values_equal_the_definitions():
    """Each value computed on an empty memo, and read again from it, equals
    the enumeration oracle; so do the texts report_text writes."""
    for g in [build_gamma(k) for k in range(11)] + [build_general(n) for n in range(1, 400)]:
        want = comparable(reference_indices(g))
        indices.shape_profile.cache_clear()
        cold = compute_indices(g)
        warm = compute_indices(g)
        assert all(warm[name] is cold[name] for name in INDEX_NAMES), g
        assert comparable(cold) == want, g
        docs = {name: value_to_json(v) for name, v in cold.items()}
        for values in (cold, warm):
            assert json.loads(report_text(g, values))["indices"] == docs, g
    # A value the memo does not hold is written from itself, under any name.
    compute_indices(G3)
    other = {"wiener": -1, "randic": compute_index(G4, "randic")}
    assert json.loads(report_text(G3, other))["indices"] == {
        name: value_to_json(v) for name, v in other.items()}


def test_repeated_reports_splice_the_kept_texts(monkeypatch):
    """Once a shape's report has been written, the next report of that shape
    of values read from the memo is one join of the kept members: no value is
    written again, no text is re-indented and indices._member is not called.
    A report with a value the memo does not hold still goes through _member.
    Every report is json.dumps of its reference document."""
    sample = [build_gamma(k) for k in range(7)] + [build_gamma(3, (101, 103, 107))]
    sample += [build_general(n) for n in (1, 12, 360, 5040, 21621600)]
    requests = [(g, compute_indices(g, names)) for g in sample
                for names in (None, ["randic", "balaban", "mostar"], ["r1"])]
    want = [report_text(g, values) for g, values in requests]
    g12 = build_general(12)  # a kept value beside two the memo does not hold
    other = {"wiener": 10**30, "zagreb1": compute_index(g12, "zagreb1"), "harary": F(7, 2)}
    other_text = report_text(g12, other)

    def refuse(*args):
        raise AssertionError("a kept text was written or re-indented again")

    monkeypatch.setattr(indices, "value_text", refuse)
    monkeypatch.setattr(indices, "_member", refuse)
    assert [report_text(g, values) for g, values in requests] == want
    with pytest.raises(AssertionError, match="written or re-indented again"):
        report_text(g12, other)
    monkeypatch.undo()
    for (g, values), text in zip(requests, want):
        assert text == json.dumps(report_dict(g, values), indent=2) + "\n", g
    assert other_text == json.dumps(report_dict(g12, other), indent=2) + "\n"


def test_an_equal_copy_of_a_kept_value_is_written_again(monkeypatch):
    """A value equal to the kept one but another object, Fraction(47, 2) for
    harary of Gamma_3 or -(-v) for its R1 v, is not held by the Profile, so
    report_text and table_text write every value again, to the same bytes."""
    g = build_gamma(3)
    kept = compute_indices(g, ["harary", "r1"])
    copies = {"harary": Fraction(47, 2), "r1": -(-kept["r1"])}
    assert copies == kept and all(copies[name] is not kept[name] for name in kept)
    want = report_text(g, kept), table_text(g, kept)
    written = Counter()
    for writer in ("value_text", "format_value"):
        def count(v, writer=writer, write=getattr(indices, writer)):
            written[writer] += 1
            return write(v)
        monkeypatch.setattr(indices, writer, count)
    assert (report_text(g, kept), table_text(g, kept)) == want and not written
    for name in kept:
        one_copy = {**kept, name: copies[name]}
        assert (report_text(g, one_copy), table_text(g, one_copy)) == want, name
    assert written == {"value_text": 4, "format_value": 4}


def test_threads_share_the_memo():
    """Eight threads on two cores, switching every microsecond, compute and
    write the indices of graphs of shared shapes, each in its own order, on an
    empty memo: every report equals the one written on one thread, and every
    member kept is the member of the value kept beside it."""
    sample = [build_gamma(k) for k in range(7)] + [build_general(n) for n in range(1, 200)]
    want = [report_text(g, compute_indices(g)) for g in sample]

    def work(seed):
        order = random.Random(seed).sample(range(len(sample)), len(sample))
        return {i: report_text(sample[i], compute_indices(sample[i])) for i in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        indices.shape_profile.cache_clear()
        with ThreadPoolExecutor(8) as pool:
            runs = [f.result(timeout=120) for f in [pool.submit(work, seed) for seed in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    for run in runs:
        assert [run[i] for i in range(len(sample))] == want
    for g in sample:
        p = profile(g)
        assert p._members.keys() == set(INDEX_NAMES), g
        for name, member in p._members.items():
            text = value_text(p.value(name)).replace("\n", "\n    ")
            assert member == f'"{name}": {text}', (g, name)


def test_the_memo_keeps_one_copy_of_each_text():
    """Writing every index report of Gamma_1..Gamma_12, on values already
    kept, leaves the memo holding each value's text once: the bytes retained
    exceed the bare texts only by the member prefixes '"name": ', the dicts
    that hold the members and 1 kB for the interpreter's own bookkeeping.  A
    second copy of the texts would add over 100 kB."""
    indices.shape_profile.cache_clear()
    requests = [(g, compute_indices(g)) for g in map(build_gamma, range(1, 13))]
    profiles = [profile(g) for g, _ in requests]
    gc.collect()
    tracemalloc.start()
    try:
        for g, values in requests:
            report_text(g, values)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    bare = sum(sys.getsizeof(value_text(v).replace("\n", "\n    "))
               for _, values in requests for v in values.values())
    prefixes = sum(len(f'"{name}": ') for _, values in requests for name in values)
    holders = sum(map(sys.getsizeof, (p._members for p in profiles)))
    assert bare > 10 * holders
    assert bare < retained <= bare + prefixes + holders + 1024


def test_refused_r_values_are_refused_on_every_call_and_not_kept():
    g = build_gamma(17)
    p = profile(g)
    for _ in range(2):
        for name in ("r1", "r2", "r3"):
            with pytest.raises(ValueError, match="above the budget of 1048576 bits"):
                compute_index(g, name)
            with pytest.raises(ValueError, match="above the budget of 1048576 bits"):
                p.member(name)
    assert not {"r1", "r2", "r3"} & (p._values.keys() | p._members.keys())
    assert not {"degree_product", "r_quadratic"} & vars(p).keys()
    assert compute_index(g, "wiener") == wiener_formula(17)


def test_profile_without_exponents_is_refused_by_name():
    with pytest.raises(ValueError) as refused:
        profile(Path3())
    assert str(refused.value) == ("the index profile needs the prime exponents of a divisor "
                                  "lattice; Path3 has none")


def test_the_memo_keeps_a_fixed_number_of_shapes():
    """shape_profile keeps _MAX_PROFILES shapes and drops the least recently
    used one first."""
    assert indices._MAX_PROFILES == 32
    assert indices.shape_profile.cache_info().maxsize == indices._MAX_PROFILES
    indices.shape_profile.cache_clear()
    first = profile(build_general(2))
    for e in range(2, indices._MAX_PROFILES + 1):
        profile(build_general(2**e))
    assert indices.shape_profile.cache_info().currsize == indices._MAX_PROFILES
    assert profile(build_general(3)) is first  # kept, and now the most recent
    profile(build_general(2**(indices._MAX_PROFILES + 1)))  # drops (2,), the least recently used
    assert indices.shape_profile.cache_info().currsize == indices._MAX_PROFILES
    assert profile(build_general(3)) is first
    misses = indices.shape_profile.cache_info().misses
    profile(build_general(4))
    assert indices.shape_profile.cache_info().misses == misses + 1
