"""Closed forms: frozen examples and equality with the index engine."""

from fractions import Fraction

import pytest

from graphlab.formulas import (
    count_by_omega,
    degree_formula,
    harary_formula,
    hyper_wiener_formula,
    order_formula,
    size_formula,
    size_recursive,
    wiener_formula,
    zagreb1_formula,
)
from graphlab.graphs import build_gamma
from graphlab import indices


def test_order_and_size_examples():
    assert order_formula(0) == 1
    assert order_formula(3) == 8
    assert size_formula(3) == 19
    assert size_formula(0) == 0
    assert size_formula(1) == 1


def test_count_by_omega():
    assert count_by_omega(5, 2) == 10
    assert count_by_omega(4, 0) == 1
    assert [count_by_omega(3, j) for j in range(4)] == [1, 3, 3, 1]
    with pytest.raises(ValueError):
        count_by_omega(3, 4)
    with pytest.raises(ValueError):
        count_by_omega(3, -1)


def test_degree_formula_examples():
    assert degree_formula(3, 0) == 7
    assert degree_formula(3, 3) == 7
    assert degree_formula(3, 1) == 4
    assert degree_formula(4, 2) == 6
    assert degree_formula(5, 2) == 10
    with pytest.raises(ValueError):
        degree_formula(3, 5)


def test_degree_formula_branches_coincide_at_ends():
    # 2^omega + 2^(k-omega) - 2 evaluates to 2^k - 1 at omega in {0, k}
    for k in range(11):
        for omega in (0, k):
            assert 2**omega + 2 ** (k - omega) - 2 == 2**k - 1
            assert degree_formula(k, omega) == 2**k - 1


def test_size_recursive():
    assert size_recursive(0) == 0
    assert size_recursive(1) == 1
    assert size_recursive(3) == 19
    assert size_recursive(10) == 3**10 - 2**10
    for k in range(13):
        assert size_recursive(k) == size_formula(k)


def test_distance_index_formula_examples():
    assert wiener_formula(3) == 37
    assert hyper_wiener_formula(3) == 46
    assert harary_formula(3) == Fraction(47, 2)
    assert zagreb1_formula(3) == 194
    assert zagreb1_formula(4) == 1178


def test_k0_rational_intermediates_collapse():
    assert wiener_formula(0) == 0
    assert hyper_wiener_formula(0) == 0
    assert isinstance(hyper_wiener_formula(0), int)
    assert harary_formula(0) == 0
    assert harary_formula(1) == 1
    assert harary_formula(2) == Fraction(11, 2)
    assert zagreb1_formula(0) == 0


def test_negative_k_rejected():
    for fn in (order_formula, size_formula, size_recursive, wiener_formula,
               hyper_wiener_formula, harary_formula, zagreb1_formula):
        with pytest.raises(ValueError):
            fn(-1)


def test_formulas_equal_definitions():
    for k in range(9):
        g = build_gamma(k)
        assert order_formula(k) == g.order
        assert size_formula(k) == len(g.edges())
        assert wiener_formula(k) == indices.wiener(g)
        assert hyper_wiener_formula(k) == indices.hyper_wiener(g)
        assert harary_formula(k) == indices.harary(g)
        assert zagreb1_formula(k) == indices.zagreb1(g)
        for i in range(g.order):
            assert degree_formula(k, g.omega(i)) == g.degrees()[i]
