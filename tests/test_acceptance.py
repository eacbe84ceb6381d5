"""Acceptance suite: the binding checks, one printed pass/fail line each.

Each criterion is a test; its verdict line is written with capture disabled
so it shows up in the terminal no matter how pytest was invoked.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from graphlab import claims
from graphlab import formulas
from graphlab import indices
from graphlab.exact import RadicalSum, to_decimal
from graphlab.graphs import build_gamma, build_general
from index_definitions import adjacent, distance_matrix, distance_matrix_bfs, edges, masks

F = Fraction


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def announce(n, desc):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"FAIL criterion {n}: {desc}", flush=True)
            raise
        with capfd.disabled():
            print(f"PASS criterion {n}: {desc}", flush=True)

    return announce


def test_criterion_1_structural_sweep(criterion):
    with criterion(1, "order 2^k and size 3^k-2^k by enumeration, k=0..10, under 10s"):
        start = time.perf_counter()
        for k in range(11):
            g = build_gamma(k)
            assert g.order == 2**k
            assert len(edges(g)) == 3**k - 2**k
        assert time.perf_counter() - start < 10.0


def test_criterion_2_degree_theorem(criterion):
    with criterion(2, "degree formula matches adjacency counts for every vertex, k=0..10"):
        for k in range(11):
            g = build_gamma(k)
            for i in range(g.order):
                omega = g.omegas[i]
                assert g.degrees()[i] == formulas.degree_formula(k, omega)
            # the two formula branches coincide where they meet
            for omega in (0, k):
                assert 2**omega + 2 ** (k - omega) - 2 == 2**k - 1


def test_criterion_3_size_recursion(criterion):
    with criterion(3, "size recurrence equals 3^k-2^k for k=1..12"):
        for k in range(1, 13):
            assert formulas.size_recursive(k) == 3**k - 2**k


GAMMA3_MATRIX = [
    [0, 1, 1, 1, 1, 1, 1, 1],
    [1, 0, 2, 2, 1, 1, 2, 1],
    [1, 2, 0, 2, 1, 2, 1, 1],
    [1, 2, 2, 0, 2, 1, 1, 1],
    [1, 1, 1, 2, 0, 2, 2, 1],
    [1, 1, 2, 1, 2, 0, 2, 1],
    [1, 2, 1, 1, 2, 2, 0, 1],
    [1, 1, 1, 1, 1, 1, 1, 0],
]


def test_criterion_4_distances(criterion):
    with criterion(4, "fast distance rule == BFS for k=0..8; diameters; Gamma_3 matrix"):
        for k in range(9):
            g = build_gamma(k)
            rows = distance_matrix(g).rows
            assert rows == distance_matrix_bfs(g).rows
            assert max(map(max, rows)) == min(k, 2)  # the diameter
        assert distance_matrix(build_gamma(3)).rows == GAMMA3_MATRIX


def test_criterion_5_distance_index_formulas(criterion):
    with criterion(5, "wiener/hyper-wiener/harary/zagreb1 closed forms == definitions, k=0..10"):
        for k in range(11):
            g = build_gamma(k)
            assert formulas.wiener_formula(k) == indices.compute_index(g, "wiener")
            assert formulas.hyper_wiener_formula(k) == indices.compute_index(g, "hyper_wiener")
            assert formulas.harary_formula(k) == indices.compute_index(g, "harary")
            assert formulas.zagreb1_formula(k) == indices.compute_index(g, "zagreb1")
        assert formulas.wiener_formula(3) == 37
        assert formulas.hyper_wiener_formula(3) == 46
        assert formulas.harary_formula(3) == F(47, 2)
        assert formulas.zagreb1_formula(3) == 194


# printed values that must verify exactly
GOLDEN = {
    "gamma3.wiener": 37,
    "gamma3.hyper_wiener": 46,
    "gamma3.harary": F(47, 2),
    "gamma3.zagreb2": 481,
    "gamma3.degree_distance": 338,
    "gamma3.gutman": 769,
    "gamma3.harmonic": F(589, 154),
    "gamma3.mostar": 36,
    "gamma3.randic": RadicalSum({1: F(23, 14), 7: F(6, 7)}),
    "gamma3.balaban": F(19, 26) * RadicalSum({1: F(52, 35), 70: F(12, 35)}),
    "gamma3.r1": 2 * (7 * 4**6 + 31) ** 2 + 6 * (7**2 * 4**5 + 34) ** 2,
    "gamma4.harmonic": F(36367, 4830),
    "gamma4.randic": RadicalSum({1: F(47, 30), 3: 2, 10: F(2, 5), 30: F(4, 15)}),
    "gamma4.mostar": 268,
}


def test_criterion_6_golden_claims(criterion):
    with criterion(6, "golden claim subset verifies exactly"):
        reports = {r.claim.id: r for r in claims.run_all()}
        for cid, expected in GOLDEN.items():
            r = reports[cid]
            assert r.claim.claimed == expected, cid
            assert r.verdict == claims.MATCH, cid


def test_criterion_7_claims_completeness(criterion):
    with criterion(7, "every registered claim gets a deterministic cited verdict (>= 33)"):
        first = claims.run_all()
        assert len(first) >= 33
        assert claims.run_all() == first
        by_id = {r.claim.id: r for r in first}
        for cid in first:
            assert cid.verdict in (claims.MATCH, claims.MISMATCH)
            assert cid.claim.source
        # the documented inconsistent prints still get verdicts and anchors
        gut4 = by_id["gamma4.gutman"]
        assert "10 557" in gut4.claim.source and "3712" in gut4.claim.source
        assert gut4.verdict in (claims.MATCH, claims.MISMATCH)
        for cid in ("gamma4.r1", "gamma4.r2", "gamma4.r3",
                    "gamma3.r2", "gamma3.r3", "gamma5.r2", "gamma5.r3"):
            assert by_id[cid].claim.symbolic
            assert by_id[cid].verdict in (claims.MATCH, claims.MISMATCH)


BASES = {
    "small": (2, 3, 5, 7, 11, 13),
    "large": (101, 103, 107, 109, 113, 127),
}


def test_criterion_8_property_suites(criterion):
    with criterion(8, "label invariance, transmission/degree identities, canonical forms, decimals"):
        # all fourteen indices are label invariant, k <= 6
        for k in range(7):
            symbolic = indices.compute_indices(build_gamma(k))
            for basis in BASES.values():
                relabeled = indices.compute_indices(build_gamma(k, basis[:k]))
                for name in indices.INDEX_NAMES:
                    assert symbolic[name] == relabeled[name], (k, name)

        for k in range(9):
            g, v = build_gamma(k), indices.compute_indices(build_gamma(k))
            # transmissions sum to twice the Wiener index
            assert sum(map(indices.profile(g).transmission, g.degrees())) == 2 * v["wiener"]
            # edge sum of endpoint degrees is the first Zagreb index
            assert sum(g.degrees()[i] + g.degrees()[j] for i, j in edges(g)) == v["zagreb1"]

        # diameter-2 identities, k = 2..8
        for k in range(2, 9):
            g, v = build_gamma(k), indices.compute_indices(build_gamma(k))
            deg = g.degrees()
            total = sum(deg)
            pair_prod = (total * total - v["zagreb1"]) // 2
            pair_sum = (g.order - 1) * total
            assert v["gutman"] == 2 * pair_prod - v["zagreb2"]
            assert v["degree_distance"] == 2 * pair_sum - v["zagreb1"]

        # canonicalization is idempotent on engine-produced radicals
        produced = [indices.compute_index(build_gamma(k), "randic") for k in range(3, 7)]
        produced += [indices.compute_index(build_gamma(k), "balaban") for k in range(3, 7)]
        for v in produced:
            assert isinstance(v, RadicalSum) and RadicalSum(dict(v.terms)) == v

        # 50-digit decimals agree with an independent floating recomputation
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 70
        for k in range(2, 7):
            g = build_gamma(k)
            deg = g.degrees()
            tr = list(map(indices.profile(g).transmission, deg))
            m = len(edges(g))
            mu = m - g.order + 1
            float_randic = sum(
                1 / mpmath.sqrt(deg[i] * deg[j]) for i, j in edges(g))
            float_balaban = mpmath.mpf(m) / (mu + 1) * sum(
                1 / mpmath.sqrt(tr[i] * tr[j]) for i, j in edges(g))
            for exact, approx in ((indices.compute_index(g, "randic"), float_randic),
                                  (indices.compute_index(g, "balaban"), float_balaban)):
                got = mpmath.mpf(to_decimal(exact, 50))
                assert abs(got - approx) < mpmath.mpf(10) ** -40 * max(1, abs(approx))


def test_criterion_9_general_divisor_graphs(criterion):
    with criterion(9, "divisor graphs: squarefree n reproduce Gamma_k; G_D(1); G_D(12)"):
        for n, k in ((6, 2), (30, 3), (210, 4), (2310, 5)):
            gd = build_general(n)
            gg = build_gamma(k)
            assert gd.order == gg.order
            m = masks(gd)
            order = sorted(range(gd.order), key=lambda i: (gd.omegas[i], m[i]))
            assert [m[i] for i in order] == list(masks(gg))
            for a in range(gd.order):
                for b in range(a + 1, gd.order):
                    assert adjacent(gd, order[a], order[b]) == adjacent(gg, a, b)
        g1 = build_general(1)
        assert g1.order == 1 and edges(g1) == []
        g12 = build_general(12)
        assert g12.order == 6 and len(edges(g12)) == 12
