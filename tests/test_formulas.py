"""Closed forms: frozen examples and equality with the index engine."""

import gc
import sys
import tracemalloc
from fractions import Fraction

import pytest

from graphlab import formulas
from graphlab.formulas import (
    count_by_omega,
    degree_formula,
    harary_formula,
    hyper_wiener_formula,
    order_formula,
    size_formula,
    size_recursive,
    verification_lines,
    wiener_formula,
    zagreb1_formula,
)
from graphlab.exact import _int_str
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


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the int/str digit limit exists from Python 3.11")
def test_range_errors_print_integers_of_any_length():
    """Under the lowest int/str digit limit, a k, j or omega of 701 digits is
    refused for being out of range, not for being too long to print."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        big = 10**700
        for call, message in (
            (lambda: order_formula(-big), "k must be >= 0, got -" + _int_str(big)),
            (lambda: count_by_omega(3, big), "omega must be in [0, 3], got " + _int_str(big)),
            (lambda: degree_formula(big, -1), f"omega must be in [0, {_int_str(big)}], got -1"),
        ):
            with pytest.raises(ValueError) as e:
                call()
            assert str(e.value) == message
    finally:
        sys.set_int_max_str_digits(limit)


def test_formulas_equal_definitions():
    for k in range(9):
        g = build_gamma(k)
        assert order_formula(k) == g.order
        assert size_formula(k) == sum(map(len, g.multiples()))
        assert wiener_formula(k) == indices.compute_index(g, "wiener")
        assert hyper_wiener_formula(k) == indices.compute_index(g, "hyper_wiener")
        assert harary_formula(k) == indices.compute_index(g, "harary")
        assert zagreb1_formula(k) == indices.compute_index(g, "zagreb1")
        for i in range(g.order):
            assert degree_formula(k, g.omegas[i]) == g.degrees()[i]


@pytest.mark.parametrize("k_min, k_max", [(5, 2), (-1, 3), (1, 0), (-2, -1)])
def test_verification_lines_refuses_an_empty_or_reversed_range(monkeypatch, k_min, k_max):
    """An empty, reversed or negative range is refused before any graph is
    built, with the message the verify subcommand prints."""
    def refuse(*args):
        raise AssertionError("a graph was built before the range was checked")

    monkeypatch.setattr(formulas, "build_gamma", refuse)
    with pytest.raises(ValueError) as e:
        verification_lines(k_min, k_max)
    assert str(e.value) == f"need 0 <= k-min <= k-max, got {k_min}..{k_max}"


def test_verification_lines_keeps_counts_not_graphs():
    """The per-k record of the oracle side holds counts and values, not the
    graphs or their listings: after verifying Gamma_0..Gamma_12 from cold
    (the index profiles of those shapes included), under 1 MB stays
    allocated."""
    formulas._oracle.cache_clear()
    indices.shape_profile.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert verification_lines(0, 12)[1]
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20, retained
