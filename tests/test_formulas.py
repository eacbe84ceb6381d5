"""Closed forms: frozen examples, a proof of each table for every k, and
equality with the index engine."""

import gc
import sys
import tracemalloc
from fractions import Fraction
from math import comb

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
from graphlab.exact import _int_str, normalize
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


#: Each closed form as the paper prints it, with the bases of that print as an
#: exponential polynomial in k, and the function verify evaluates.
PRINTED = {
    "order": (lambda k: 2**k, {2}, order_formula),
    "size": (lambda k: 3**k - 2**k, {3, 2}, size_formula),
    "wiener": (lambda k: 2 ** (2 * k) - 3**k, {4, 3}, wiener_formula),
    "hyper_wiener": (lambda k: Fraction(2) ** (k - 1) * (2 ** (k + 1) + 2**k + 1) - 2 * 3**k,
                     {4, 3, 2}, hyper_wiener_formula),
    "harary": (lambda k: (Fraction(2) ** (k - 1) * (2**k - 3) + 3**k) / 2, {4, 3, 2},
               harary_formula),
    "zagreb1": (lambda k: 2 * (2**k - 1) ** 2
                + sum(comb(k, j) * (2**j + 2 ** (k - j) - 2) ** 2 for j in range(1, k)),
                {5, 4, 3, 2}, zagreb1_formula),
}


def test_every_form_has_a_table():
    assert set(PRINTED) == set(formulas._TABLES)


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_table_equals_the_printed_form_for_every_k(name):
    """A proof, for every k >= 0, that each table of formulas._TABLES equals
    the paper's printed form.

    Both sides are exponential polynomials f(k) = sum_i c_i * b_i**k with
    rational c_i: the table by construction, the printed form by expanding
    it.  2**(k-1) * (2**(k+1) + 2**k + 1) - 2 * 3**k is 3/2 * 4**k + 1/2 *
    2**k - 2 * 3**k; (2**(k-1) * (2**k - 3) + 3**k) / 2 is 1/4 * 4**k - 3/4 *
    2**k + 1/2 * 3**k.  M1's end terms 2 * (2**k - 1)**2 are the terms
    j = 0 and j = k of its binomial sum (both are 0 at k = 0), so M1 is
    sum_j C(k, j) * (2**j + 2**(k-j) - 2)**2 over 0 <= j <= k; expanding the
    square, the binomial theorem sums each term to a power of 5, 4, 3 or 2.

    Their difference has at most N distinct bases, N the size of the union.
    If it vanishes at k = 0..N-1, the coefficients c solve V c = 0 with the
    Vandermonde matrix V[k][i] = b_i**k of distinct bases, which is
    invertible, so c = 0 and the two agree at every k.  The function verify
    evaluates is checked at the same k, value and type."""
    printed, printed_bases, form = PRINTED[name]
    den, table = formulas._TABLES[name]
    bases = printed_bases | set(table)
    for k in range(len(bases)):
        value = Fraction(sum(c * b**k for b, c in table.items()), den)
        assert value == printed(k), (name, k)
        assert form(k) == value and type(form(k)) is type(normalize(value)), (name, k)


def test_size_recursive_equals_the_size_for_every_k():
    """Over Gamma_j, sum_v (deg v + 1) = sum_omega C(j, omega) * (2**omega +
    2**(j-omega) - 1) (the degree formula's two branches agree at omega in
    {0, j}) = 2 * 3**j - 2**j by the binomial theorem: bases {3, 2}, checked
    at j = 0, 1.  size_recursive(k) sums those steps over j < k, which is
    (3**k - 1) - (2**k - 1): bases {3, 2, 1}, so agreeing with the size's
    table {3, 2} at k = 0, 1, 2 proves it for every k."""
    for j in range(2):
        vertex_sum = sum(comb(j, w) * (degree_formula(j, w) + 1) for w in range(j + 1))
        assert vertex_sum == 2 * 3**j - 2**j
    for k in range(3):
        assert size_recursive(k) == size_formula(k)


def test_tables_equal_the_engine_to_k_100():
    """The tables against the index engine's profile, and order and size
    against the graph, on Gamma_0..Gamma_100: the engine folds divisor
    counts, the tables come from the degree formula alone."""
    for k in range(101):
        g = build_gamma(k)
        assert (order_formula(k), size_formula(k)) == (g.order, g.size()), k
        for name in ("wiener", "hyper_wiener", "harary", "zagreb1"):
            assert PRINTED[name][2](k) == indices.compute_index(g, name), (name, k)


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
