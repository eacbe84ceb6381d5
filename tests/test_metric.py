"""Distance layer: fast rule vs breadth-first oracle, transmissions, Mostar."""

import random

import pytest

from graphlab import graphs
from graphlab.cli import main
from graphlab.graphs import build_gamma, build_general
from graphlab.metric import (
    DistanceMatrix, diameter, digit_rows, distance_matrix, distance_rows, transmissions,
)
from index_definitions import (
    DisconnectedGraphError,
    Path3,
    bfs_row,
    distance_fast,
    distance_matrix_bfs,
    masks,
    mostar_counts,
)

MIXED_SHAPES = (720, 3360, 5040, 5400)

# the 8x8 matrix for Gamma_3 in canonical order 1, p1, p2, p3, p1p2, p1p3, p2p3, n
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


def test_gamma3_matrix_row_for_row():
    assert distance_matrix(build_gamma(3)).rows == GAMMA3_MATRIX


def test_distance_fast_examples():
    g = build_gamma(3)
    p1 = masks(g).index(0b001)
    p1p2 = masks(g).index(0b011)
    p1p3 = masks(g).index(0b101)
    assert distance_fast(g, p1, p1p2) == 1
    assert distance_fast(g, p1p2, p1p3) == 2
    assert distance_fast(g, p1, p1) == 0
    assert distance_fast(g, 0, 7) == 1


def test_gamma0_matrix():
    assert distance_matrix(build_gamma(0)).rows == [[0]]


def test_fast_rule_equals_bfs():
    graphs = [build_gamma(k) for k in range(7)]
    graphs += [build_general(n) for n in range(1, 301)]
    graphs += [build_general(n) for n in MIXED_SHAPES]
    for g in graphs:
        assert distance_matrix(g).rows == distance_matrix_bfs(g).rows, g
        assert transmissions(g) == [sum(row) for row in distance_matrix_bfs(g).rows], g


def test_distance_rule_refuses_graph_without_universal_vertex():
    g = Path3()
    assert max(bfs_row(g, 0)) == 2  # diameter 2, yet vertex 0 is not universal
    for query in (digit_rows, distance_rows, transmissions, diameter,
                  lambda g: mostar_counts(g, (0, 1))):
        with pytest.raises(ValueError, match="vertex 0 adjacent to every other vertex"):
            query(g)


def test_matrix_structure():
    for g in [build_gamma(4), build_general(60)]:
        rows = distance_matrix(g).rows
        n = len(rows)
        for i in range(n):
            assert rows[i][i] == 0
            for j in range(n):
                assert rows[i][j] == rows[j][i]
                for w in range(n):
                    assert rows[i][j] <= rows[i][w] + rows[w][j]


def test_distance_value_counts():
    # off-diagonal entries: 2*(3^k - 2^k) ones, the rest twos
    for k in range(1, 8):
        g = build_gamma(k)
        flat = [d for row in distance_matrix(g).rows for d in row]
        ones = flat.count(1)
        twos = flat.count(2)
        assert ones == 2 * (3**k - 2**k)
        assert ones + twos == g.order**2 - g.order


def test_general_divisor_graph_diameter_two():
    rows = distance_matrix(build_general(12)).rows
    assert max(max(r) for r in rows) == 2


def test_transmissions_gamma3():
    g = build_gamma(3)
    assert transmissions(g)[0] == 7
    assert transmissions(g)[1] == 10
    assert transmissions(g) == [7, 10, 10, 10, 10, 10, 10, 7]


def test_transmissions_gamma45():
    assert sorted(set(transmissions(build_gamma(4)))) == [15, 22, 24]
    assert sorted(set(transmissions(build_gamma(5)))) == [31, 46, 52]


def test_transmission_sum_is_twice_wiener():
    from graphlab.indices import wiener

    for k in range(7):
        g = build_gamma(k)
        assert sum(transmissions(g)) == 2 * wiener(g)


def test_diameter():
    assert diameter(build_gamma(0)) == 0
    assert diameter(build_gamma(1)) == 1
    for k in range(2, 8):
        assert diameter(build_gamma(k)) == 2
    assert diameter(build_general(12)) == 2


def test_diameter_lists_no_edges(monkeypatch):
    def refuse(*args):
        raise AssertionError("edges listed to count them")

    monkeypatch.setattr(graphs.DivisorGraph, "edges", refuse)
    assert diameter(build_gamma(0)) == 0
    assert diameter(build_gamma(1)) == 1
    assert diameter(build_gamma(6)) == 2
    assert diameter(build_general(5040)) == 2


def test_mostar_counts_examples():
    g3 = build_gamma(3)
    both_ends = mostar_counts(g3, (0, 7))
    assert (both_ends.n_u, both_ends.n_v) == (1, 1)
    one_p1 = mostar_counts(g3, (0, 1))
    assert (one_p1.n_u, one_p1.n_v) == (4, 1)
    g1 = build_gamma(1)
    c = mostar_counts(g1, (0, 1))
    assert (c.n_u, c.n_v) == (1, 1)


def test_mostar_counts_requires_edge():
    g = build_gamma(3)
    with pytest.raises(ValueError):
        mostar_counts(g, (1, 2))


def test_mostar_counts_subset_formula():
    # for the edge u < v with omega a < b: counts from subset enumeration
    for k in range(1, 7):
        g = build_gamma(k)
        m = masks(g)
        for i, j in g.edges():
            a, b = g.omega(i), g.omega(j)
            if m[i] & m[j] != m[i]:
                i, j = j, i
                a, b = b, a
            c = mostar_counts(g, (i, j))
            assert c.n_u == 2 ** (k - a) - 2 ** (b - a) - 2 ** (k - b) + 2
            assert c.n_v == 2**b - 2**a - 2 ** (b - a) + 2
            assert c.n_u >= 1 and c.n_v >= 1
            assert c.n_u + c.n_v <= g.order


class _TwoComponents:
    """Stub: vertices 0-1 joined, vertex 2 isolated."""

    order = 3

    def neighbors(self, i):
        return {0: (1,), 1: (0,), 2: ()}[i]

    def labels(self):
        return ["a", "b", "c"]


def test_bfs_reports_unreachable_pair():
    with pytest.raises(DisconnectedGraphError) as err:
        bfs_row(_TwoComponents(), 0)
    assert "'a'" in str(err.value) and "'c'" in str(err.value)


def test_csv_matrix():
    csv = distance_matrix(build_gamma(2, (2, 3))).to_csv()
    assert csv == "1,2,3,6\n0,1,1,1\n1,0,2,1\n1,2,0,1\n1,1,1,0\n"
    g = build_gamma(3)
    assert distance_matrix(g).to_csv() == distance_matrix(g).to_csv()


def test_csv_export_equals_distance_matrix_csv(capsys):
    exports = [(["gamma", "--k", str(k)], build_gamma(k)) for k in range(9)]
    exports += [(["divisor-graph", "--n", str(n)], build_general(n))
                for n in (*range(1, 601), *MIXED_SHAPES)]
    for argv, g in exports:
        assert main([*argv, "--emit", "csv"]) == 0
        want = DistanceMatrix(g.labels(), list(distance_rows(g))).to_csv()
        assert capsys.readouterr().out == want, argv


def test_csv_entries_beyond_one_digit():
    # not distances of any graph here: entries outside 0..9 print with str()
    for value in (-1, 0, 9, 10, 255, 256, 10**20):
        rows = [[0, value], [value, 0], [1, 2]]
        expected = "a,b\n" + "".join(",".join(str(d) for d in row) + "\n" for row in rows)
        assert DistanceMatrix(["a", "b"], rows).to_csv() == expected, value


def test_csv_equals_str_join_definition():
    def definition(m):
        return "".join(",".join(map(str, row)) + "\n" for row in [m.labels, *m.rows])

    rng = random.Random(10)
    for width in (0, 1, 2, 7, 64):
        for height in (0, 1, width, 5):
            labels = [f"v{i}" for i in range(width)]
            rows = [[rng.randrange(10) for _ in range(width)] for _ in range(height)]
            m = DistanceMatrix(labels, rows)
            assert m.to_csv() == definition(m), (width, height)
            if rows:  # one row of another length, then one entry beyond a digit
                for bad in (rows[0] + [rng.randrange(10)], rows[0][1:], [10] * width):
                    m = DistanceMatrix(labels, [bad] + rows)
                    assert m.to_csv() == definition(m), (width, height, bad)
    assert DistanceMatrix([], []).to_csv() == "\n"
