"""Exact arithmetic layer: squarefree decomposition, radical sums, decimals."""

import json
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest

from graphlab import exact, indices
from graphlab.exact import (
    MR_LIMIT,
    RadicalSum,
    factorize,
    format_value,
    inv_sqrt_sum,
    is_prime,
    normalize,
    sqf_decompose,
    to_decimal,
    value_from_json,
    value_text,
)
from graphlab.graphs import build_gamma, build_general
from index_definitions import value_to_json
from radical_reference import brute_sqf, inv_sqrt, reference_terms, scale, terms_of

F = Fraction


def is_squarefree(d):
    f = 2
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 1
    return True


def test_sqf_decompose_examples():
    assert sqf_decompose(1) == (1, 1)
    assert sqf_decompose(4) == (2, 1)
    assert sqf_decompose(12) == (2, 3)
    assert sqf_decompose(49) == (7, 1)
    assert sqf_decompose(120) == (2, 30)
    assert sqf_decompose(101) == (1, 101)


def test_sqf_decompose_rejects_nonpositive():
    with pytest.raises(ValueError):
        sqf_decompose(0)
    with pytest.raises(ValueError):
        sqf_decompose(-4)


def test_sqf_decompose_small_sweep():
    for m in range(1, 20001):
        c, d = sqf_decompose(m)
        assert c * c * d == m
        assert (c, d) == brute_sqf(m)


def test_sqf_decompose_sampled_to_a_million():
    rng = random.Random(20240814)
    for m in rng.sample(range(20001, 1000001), 400):
        c, d = sqf_decompose(m)
        assert c * c * d == m
        assert is_squarefree(d)
        assert (c, d) == brute_sqf(m)


def test_sqf_decompose_budget():
    """Trial division stops at exact._TRIAL_BOUND = B.  The cofactor left has
    no prime factor up to B: below (B+1)**3 it is a prime, a product of two
    primes or a prime squared; above that it is accepted only when proven
    prime or the square of a proven prime, and refused otherwise."""
    p, q, r = 1000003, 1000033, 1000037  # the first primes after 10**6 + 1
    assert exact._TRIAL_BOUND == 10**6 and is_prime(p) and is_prime(q) and is_prime(r)
    start = time.perf_counter()
    for m in (p * q * r, 12 * p * q * r, p**3 * q, p * p * q, (p * q) ** 2 * r):
        with pytest.raises(ValueError, match="trial division up to 1000000, the factorisation budget"):
            sqf_decompose(m)
    assert time.perf_counter() - start < 2.0
    assert sqf_decompose(p * p) == (p, 1)
    assert sqf_decompose(12 * p * p) == (2 * p, 3)
    assert sqf_decompose(p * q) == (1, p * q)
    assert sqf_decompose(50 * p * q) == (5, 2 * p * q)
    for prime in (999999999989, 1000002000007):  # either side of (B+1)**2
        assert sqf_decompose(18 * prime) == (3, 2 * prime)
    m61 = 2**61 - 1  # above (B+1)**3
    assert sqf_decompose(20 * m61) == (2, 5 * m61)
    assert sqf_decompose(m61 * m61) == (m61, 1)
    with pytest.raises(ValueError, match="the factorisation budget"):
        sqf_decompose(m61 * (2**89 - 1))  # above MR_LIMIT


def test_radical_arithmetic_splits_no_radicand():
    """_fold and scalar * keep squarefree radicands without splitting them
    again, so a radicand beyond the sqf_decompose budget still adds, scales
    and cancels."""
    p, q, r = 1000003, 1000033, 1000037
    root = RadicalSum._fold([(p * q * r, 1, 1)])
    with pytest.raises(ValueError, match="factorisation budget"):
        RadicalSum({p * q * r: 1})
    assert RadicalSum._fold([(p * q * r, 1, 1)] * 2).terms == ((p * q * r, F(2)),)
    assert (root * F(1, 3)).terms == (F(-2, 3) * root * F(-1, 2)).terms == ((p * q * r, F(1, 3)),)
    assert RadicalSum._fold([(p * q * r, 1, 3), (p * q * r, -1, 1)]).terms == ((p * q * r, F(-2, 3)),)
    assert not RadicalSum._fold([(p * q * r, 1, 1), (p * q * r, -1, 1)])
    assert not root * 0 and (0 * root).terms == ()
    # Randic writes 1/sqrt(x*y) with such a radicand p*q for degrees x = p, y = q,
    # and a report holding it reads back.
    pair = inv_sqrt_sum({(p, q): 1})
    assert pair.terms == ((p * q, F(1, p * q)),)
    assert value_from_json(value_to_json(pair)) == pair


def test_inv_sqrt_examples():
    """One term of inv_sqrt_sum, 1/sqrt(q) = b/sqrt(a*b) for q = a/b, equals
    the reference's sqrt(a*b)/a and the rationalised value."""
    for q, want in ((1, {1: 1}), (49, {1: F(1, 7)}), (28, {7: F(1, 14)}), (F(1, 4), {1: 2}),
                    (F(3, 8), {6: F(2, 3)})):
        q = F(q)
        engine = inv_sqrt_sum({(q.numerator, q.denominator): q.denominator})
        assert terms_of(engine) == inv_sqrt(q) == RadicalSum(want).terms, q


def test_radical_canonicalization():
    # non-squarefree radicands fold into the coefficient
    assert RadicalSum({8: 1}) == RadicalSum({2: 2})
    assert RadicalSum({4: F(3, 2)}) == RadicalSum({1: 3})
    assert RadicalSum({8: 1, 18: -1, 50: F(1, 5)}).terms == reference_terms(
        [(8, 1), (18, -1), (50, F(1, 5))]) == ()
    # zero coefficients vanish
    assert RadicalSum({7: 0}) == RadicalSum()
    assert not RadicalSum({7: 1, 28: F(-1, 2)})
    assert not RadicalSum({7: 1}) * 0


def test_radical_canonicalization_idempotent():
    rng = random.Random(99)
    for _ in range(100):
        terms = {rng.randint(1, 400): F(rng.randint(-30, 30), rng.randint(1, 30))
                 for _ in range(rng.randint(0, 5))}
        once = RadicalSum(terms)
        again = RadicalSum(dict(once.terms))
        assert once == again
        assert once.terms == again.terms
        for d, q in once.terms:
            assert is_squarefree(d)
            assert q != 0


def merged(*sums):
    """The constructor's input for the sum of these values: dict(v.terms)
    added per radicand, as the README's migration note for + says."""
    terms = {}
    for v in sums:
        for d, q in terms_of(v):
            terms[d] = terms.get(d, 0) + q
    return terms


def stored_as(terms):
    """The stored items of a RadicalSum with these canonical terms."""
    return [(d, q.as_integer_ratio()) for d, q in terms]


def test_radical_arithmetic_matches_a_fraction_reference():
    """The constructor, _fold, scalar * on either side and the constructor
    over merged terms give the reference arithmetic's terms.  The stored
    items are compared, so zero sums, reduced pairs and the radicand order
    are checked too."""
    rng = random.Random(20261019)
    radicands = [*range(1, 80), *rng.sample(range(80, 10**6), 40)]

    def rand_terms():
        return {rng.choice(radicands): F(rng.randint(-12, 12), rng.randint(1, 12))
                for _ in range(rng.randint(0, 5))}

    def stored(v):
        return list(v._terms.items())

    for _ in range(300):
        ta, tb = rand_terms(), rand_terms()
        a, b = RadicalSum(ta), RadicalSum(tb)
        s = F(rng.randint(-20, 20), rng.randint(1, 20))
        ra, rb = reference_terms(ta.items()), reference_terms(tb.items())
        assert stored(a) == stored_as(ra) and a.terms == ra
        assert stored(RadicalSum._fold(exact._triples(a) + exact._triples(b))) == stored_as(
            reference_terms([*ta.items(), *tb.items()]))
        assert stored(RadicalSum(merged(a, b, s))) == stored_as(reference_terms([*ra, *rb, (1, s)]))
        assert stored(a * s) == stored(s * a) == stored_as(scale(ra, s))
        assert stored(RadicalSum._fold(exact._triples(a), *s.as_integer_ratio())) == stored_as(scale(ra, s))
        assert stored(RadicalSum(merged(a, a * -1))) == []


def test_radical_scale():
    v = RadicalSum({1: F(23, 14), 7: F(6, 7)})
    assert v * 0 == RadicalSum()
    assert v * 2 == 2 * v == RadicalSum({1: F(23, 7), 7: F(12, 7)})
    assert v * F(1, 2) * 2 == v
    assert F(19, 26) * RadicalSum({1: F(52, 35), 70: F(12, 35)}) == RadicalSum({1: F(38, 35), 70: F(114, 455)})
    assert v.__mul__(v) is NotImplemented and v.__mul__(1.5) is NotImplemented
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "from_value"):
        assert not hasattr(v, op), op


def test_randic_style_accumulation():
    # edge sum for Gamma_3: one (7,7) edge, twelve (7,4), six (4,4)
    want = RadicalSum({1: F(23, 14), 7: F(6, 7)})
    assert inv_sqrt_sum({(7, 7): 1, (7, 4): 12, (4, 4): 6}) == want
    assert reference_terms([*inv_sqrt(49), *scale(inv_sqrt(28), 12), *scale(inv_sqrt(16), 6)]) == want.terms


def test_coefficients_stored_as_reduced_int_pairs():
    """Every stored coefficient is an int pair (num, den) in lowest terms with
    den > 0 and num != 0, through the constructor, _fold and scalar *; terms
    gives the same coefficients as Fractions."""
    rng = random.Random(1301)

    def rand_sum():
        return RadicalSum({rng.randint(1, 200): F(rng.randint(-40, 40), rng.randint(1, 40))
                           for _ in range(rng.randint(0, 6))})

    for _ in range(200):
        a, b = rand_sum(), rand_sum()
        q = F(rng.randint(-9, 9), rng.randint(1, 9))
        for v in (a, RadicalSum(merged(a, b)), RadicalSum(merged(a, b * -1)), a * -1, a * q, q * a,
                  RadicalSum._fold(exact._triples(a) + exact._triples(b), *q.as_integer_ratio()),
                  RadicalSum(merged(a, rng.randint(-5, 5)))):
            for d, pair in v._terms.items():
                assert type(pair) is tuple and len(pair) == 2, (d, pair)
                num, den = pair
                assert type(num) is int and type(den) is int, (d, pair)
                assert num != 0 and den > 0 and gcd(num, den) == 1, (d, pair)
            assert [type(c) for _, c in v.terms] == [Fraction] * len(v._terms)
            assert v.terms == tuple((d, F(n, q)) for d, (n, q) in v._terms.items())
            assert RadicalSum(dict(v.terms)) == v


def test_radical_text_and_hash():
    """str, repr, hash and as_fraction read the pairs as the Fractions they stand for."""
    v = RadicalSum({1: F(23, 14), 7: F(6, 7)})
    assert v._terms == {1: (23, 14), 7: (6, 7)}
    assert str(v) == "23/14 + 6/7*sqrt(7)"
    assert str(v * -1) == "-23/14 - 6/7*sqrt(7)"
    assert repr(v) == "RadicalSum({1: Fraction(23, 14), 7: Fraction(6, 7)})"
    assert repr(RadicalSum({7: F(3, 2)})) == "RadicalSum({7: Fraction(3, 2)})"
    assert str(RadicalSum({7: 1, 3: -2})) == "-2*sqrt(3) + sqrt(7)"
    assert str(RadicalSum({2: F(-1, 3)})) == "-1/3*sqrt(2)"
    assert (str(RadicalSum()), repr(RadicalSum())) == ("0", "RadicalSum({})")
    assert hash(v) == hash(((1, F(23, 14)), (7, F(6, 7))))
    rational = RadicalSum({4: F(3, 2)})
    assert repr(rational.as_fraction()) == "Fraction(3, 1)"
    assert RadicalSum().as_fraction() == 0 and type(RadicalSum().as_fraction()) is Fraction
    assert hash(rational) == hash(3)


def test_terms_sorted_by_radicand():
    v = RadicalSum({70: F(1, 3), 1: F(2, 5), 7: F(1, 2)})
    assert [d for d, _ in v.terms] == [1, 7, 70]


def test_normalize_most_constrained():
    assert normalize(F(4, 1)) == 4 and isinstance(normalize(F(4, 1)), int)
    assert normalize(F(47, 2)) == F(47, 2)
    assert isinstance(normalize(RadicalSum({1: F(3, 1)})), int)
    assert normalize(RadicalSum({1: F(1, 2)})) == F(1, 2)
    v = RadicalSum({7: F(1, 2)})
    assert normalize(v) is v


def test_values_equal_across_shapes():
    assert 4 == F(4, 1)
    assert F(3, 2) == RadicalSum({1: F(3, 2)})
    assert RadicalSum({4: 1}) == 2
    assert not RadicalSum({7: 1}) == RadicalSum({7: F(6, 7)})
    assert not 37 == 38
    # == agrees with comparing canonical terms on every ordered pair of shapes
    values = [0, 2, 37, F(3, 2), F(-1, 3), RadicalSum(), RadicalSum({4: 1}),
              RadicalSum({1: F(3, 2)}), RadicalSum({1: F(-1, 3)}), RadicalSum({7: 1}),
              RadicalSum({7: F(6, 7)}), RadicalSum({1: 1, 7: 1}), RadicalSum({3: 2, 5: -1})]
    for a in values:
        for b in values:
            same = terms_of(a) == terms_of(b)
            assert (a == b) is same, (a, b)


def test_to_decimal_integers_print_bare():
    assert to_decimal(37) == "37"
    assert to_decimal(F(8, 2), 4) == "4"
    assert to_decimal(-12) == "-12"


def test_to_decimal_rationals_fixed_point():
    assert to_decimal(F(47, 2), 3) == "23.500"
    assert to_decimal(F(589, 154), 6) == "3.824675"
    assert to_decimal(F(-47, 2), 2) == "-23.50"


def test_to_decimal_round_half_even():
    assert to_decimal(F(1, 8), 2) == "0.12"
    assert to_decimal(F(3, 8), 2) == "0.38"
    assert to_decimal(F(-1, 8), 2) == "-0.12"
    assert to_decimal(F(25, 1000), 2) == "0.02"
    assert to_decimal(F(35, 1000), 2) == "0.04"


def test_to_decimal_requires_digits():
    with pytest.raises(ValueError):
        to_decimal(F(1, 2), 0)


def test_to_decimal_radical():
    randic3 = RadicalSum({1: F(23, 14), 7: F(6, 7)})
    assert to_decimal(randic3, 6) == "3.910644"
    assert to_decimal(RadicalSum({2: 1}), 5) == "1.41421"


def sqrt_convergents(d, count):
    """The first `count` continued-fraction convergents p/q of sqrt(d), d not
    a square; they alternate below and above sqrt(d)."""
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    out = [F(p, q)]
    while len(out) < count:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
        out.append(F(p, q))
    return out


def close_convergents(d):
    """Two consecutive convergents of sqrt(d) within 10**-36 of it, one on
    each side."""
    cs = sqrt_convergents(d, 200)
    i = next(i for i in range(len(cs)) if 1 / cs[i].denominator ** 2 < F(1, 10**36))
    return cs[i], cs[i + 1]


def boundary_cases():
    """Radical sums within 10**-30 of a 6-digit rounding boundary (a tie
    k + 1/2 * 10**-6), on both sides of it, negated, and with heavy
    cancellation between large terms."""
    cases = []
    ties = [F(3141592, 10**6), F(0), F(27, 10**6), F(-1414213, 10**6), F(10**9 + 2, 10**6)]
    for d, tie in zip((2, 3, 5, 7, 10, 11), ties + [F(1, 10**6)]):
        for c in close_convergents(d):
            b = tie + F(1, 2 * 10**6)
            v = RadicalSum({1: b - c, d: 1})
            cases += [v, v * -1]
    (p2, _), (_, p3), (p5, _) = (close_convergents(d) for d in (2, 3, 5))
    big = 10**12
    b = F(2718281, 10**6) + F(1, 2 * 10**6)
    v = RadicalSum({1: b - big * p2 + big * p3 - 7 * big * p5, 2: big, 3: -big, 5: 7 * big})
    cases += [v, v * -1]
    return cases


def mpmath_rounded(v, digits, mpmath):
    """v rounded to `digits` places from an 80-digit evaluation, checked to
    be clear of the tie by far more than the evaluation error."""
    x = sum(mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(d) for d, q in v.terms)
    y = x * 10**digits
    scaled = int(mpmath.nint(y))
    assert abs(abs(y - scaled) - mpmath.mpf(1) / 2) > mpmath.mpf(10) ** -60
    sign = "-" if scaled < 0 else ""
    ip, fp = divmod(abs(scaled), 10**digits)
    return f"{sign}{ip}.{str(fp).zfill(digits)}"


def test_to_decimal_radical_agrees_with_mpmath(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    cases = [
        RadicalSum({1: F(23, 14), 7: F(6, 7)}),
        RadicalSum({1: F(38, 35), 70: F(114, 455)}),
        RadicalSum({2: F(-3, 7), 3: F(5, 11), 1: F(1, 3)}),
    ]
    for v in cases:
        got = mpmath.mpf(to_decimal(v, 50))
        want = sum(
            mpmath.mpf(q.numerator) / q.denominator * mpmath.sqrt(d)
            for d, q in v.terms
        )
        assert abs(got - want) < mpmath.mpf(10) ** -49

    # Values within 10**-30 of a rounding boundary: the interval bounds must
    # be refined (more than one round) before both ends round alike.
    calls = []

    def counting_isqrt(n):
        calls.append(n)
        return isqrt(n)

    monkeypatch.setattr(exact, "isqrt", counting_isqrt)
    rounds = []
    for v in boundary_cases():
        calls.clear()
        assert to_decimal(v, 6) == mpmath_rounded(v, 6, mpmath), v
        irrational = sum(1 for d, _ in v.terms if d != 1)
        rounds.append(len(calls) // irrational)
        assert to_decimal(v, 40) == mpmath_rounded(v, 40, mpmath), v
    assert max(rounds) > 1
    assert sorted(to_decimal(v, 6)[-1] for v in boundary_cases()[:4]) == ["2", "2", "3", "3"]


def random_sums(rng, count):
    """Seeded irrational radical sums of 1-6 terms: radicands up to 10**6,
    split to squarefree, and signed coefficients of 1 to 4 digits over 1 to
    7 digits, so that terms often cancel."""
    sums = []
    while len(sums) < count:
        terms = {}
        for _ in range(rng.randrange(1, 7)):
            d = rng.choice((1, rng.randrange(2, 50), rng.randrange(2, 10**6)))
            top = 10 ** rng.randrange(1, 5)
            terms[d] = F(rng.randrange(-top, top), rng.randrange(1, 10 ** rng.randrange(1, 8)))
        v = RadicalSum(terms)
        if not v.is_rational():
            sums.append(v)
    return sums


def test_float_pass_agrees_with_the_exact_loop_and_mpmath(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 80
    sums = random_sums(random.Random(1806), 2000)
    floated = {(i, digits): exact._float_scaled(exact._triples(v), digits)
               for i, v in enumerate(sums) for digits in (1, 6, 12)}
    # At 12 places a sum of |parts| above 2**47 / 10**12 (about 141) is left to the loop.
    assert sum(floated[i, digits] is None for i in range(len(sums)) for digits in (1, 6)) < 20
    for v in boundary_cases():  # within 10**-30 of a tie: only the loop decides
        assert exact._float_scaled(exact._triples(v), 6) is None
    for (i, digits), r in list(floated.items())[:900]:
        if r is not None:
            assert exact._format_scaled(r, digits) == mpmath_rounded(sums[i], digits, mpmath)
    monkeypatch.setattr(exact, "_float_scaled", lambda terms, digits: None)
    for (i, digits), r in floated.items():
        if r is not None:
            assert r == exact._radical_scaled(exact._triples(sums[i]), digits), sums[i]


def test_float_pass_at_the_ends_of_the_float_range(monkeypatch):
    """Quotients below the normal range are still decided; a quotient,
    radicand, product or sum past the float range, or a value too large for
    six places in a float, goes to the loop.  Every value prints the same
    both ways and agrees with mpmath."""
    mpmath = pytest.importorskip("mpmath")
    fold = RadicalSum._fold
    decided = [fold([(2, 1, 10**400), (3, 1, 1)]), fold([(2, -7, 10**315), (5, 1, 3)]),
               fold([(2, 10**300, 10**301), (3, -1, 7)])]
    refused = [fold([(2, 10**400, 1), (3, 1, 1)]), fold([(2, 17 * 10**307, 1)]),
               fold([(2, 17 * 10**307, 1), (3, -17 * 10**307, 1)]), fold([(2**1100 + 1, 1, 2**600)]),
               fold([(2, 1, 1), (3, 10**20, 1), (5, -(10**20), 1)])]
    got = [to_decimal(v, 6) for v in decided + refused]
    assert [exact._float_scaled(exact._triples(v), 6) is None for v in decided + refused] == (
        [False] * len(decided) + [True] * len(refused))
    with mpmath.workdps(900):
        assert got == [mpmath_rounded(v, 6, mpmath) for v in decided + refused]
    monkeypatch.setattr(exact, "_float_scaled", lambda terms, digits: None)
    assert [to_decimal(v, 6) for v in decided + refused] == got


def test_float_pass_prints_randic_without_isqrt(monkeypatch):
    """Randic of Gamma_5 prints at six places from the float interval alone:
    with isqrt refused, to_decimal and value_text still give what the exact
    loop gives."""
    v = indices.compute_index(build_gamma(5), "randic")
    with monkeypatch.context() as m:
        m.setattr(exact, "_float_scaled", lambda terms, digits: None)
        want = to_decimal(v, 6)

    def refuse(n):
        raise AssertionError("isqrt called")

    monkeypatch.setattr(exact, "isqrt", refuse)
    assert to_decimal(v, 6) == want
    assert json.loads(value_text(v))["approx"] == want


def test_value_text_is_json_dumps_of_value_to_json():
    """Byte for byte, for every value shape, ints past _REPR_BITS bits in each
    column (num, den and radicand) included."""
    big = 3**1500  # 2,378 bits
    values = [0, 37, -5, 10**700, -(2**2001), F(47, 2), F(-big, 7), F(3, big),
              RadicalSum({1: F(23, 14), 7: F(6, 7)}), RadicalSum({2: F(-3, 7), 3: F(5, 11), 1: F(1, 3)}),
              RadicalSum({2: F(big, 3), 3: 1}), RadicalSum({5: F(1, big)}),
              RadicalSum._fold([(2, 1, 1), (2**2100 + 1, 1, 1)]),
              indices.compute_index(build_gamma(6), "randic"),
              indices.compute_index(build_general(720), "balaban")]
    for v in values:
        assert value_text(v) == json.dumps(value_to_json(v), indent=2), v
    for v in values[:12]:
        assert value_from_json(json.loads(value_text(v))) == normalize(v)


def test_value_from_json_refuses_malformed_values():
    """A missing field, a value, term or terms of the wrong JSON shape, a zero
    den, a non-integer radicand and a repeated radicand raise ValueError
    naming the field."""
    term = {"num": "1", "den": "2", "radicand": 7}
    cases = [
        ({"kind": "radical"}, "terms"),
        ({"kind": "rational", "num": "1"}, "den"),
        ({"kind": "rational", "den": "1"}, "num"),
        ({"kind": "integer"}, "value"),
        ({"value": "3"}, "kind"),
        ([1], "kind"),
        ("integer", "kind"),
        ({"kind": "radical", "terms": [5]}, "radicand"),
        ({"kind": "radical", "terms": {"num": "1"}}, "terms"),
        ({"kind": "radical", "terms": [{"num": "1", "den": "2"}]}, "radicand"),
        ({"kind": "radical", "terms": [{"den": "2", "radicand": 7}]}, "num"),
        ({"kind": "radical", "terms": [{"num": "1", "radicand": 7}]}, "den"),
        ({"kind": "rational", "num": "1", "den": "0"}, "den"),
        ({"kind": "rational", "num": "1", "den": "-0"}, "den"),
        ({"kind": "radical", "terms": [{**term, "den": "0"}]}, "den"),
        ({"kind": "radical", "terms": [{**term, "radicand": "7"}]}, "radicand"),
        ({"kind": "radical", "terms": [{**term, "radicand": 7.0}]}, "radicand"),
        ({"kind": "radical", "terms": [{**term, "radicand": True}]}, "radicand"),
        ({"kind": "radical", "terms": [{**term, "radicand": None}]}, "radicand"),
        ({"kind": "radical", "terms": [term, {**term, "num": "3"}]}, "radicand 7 appears in two terms"),
    ]
    for obj, field in cases:
        with pytest.raises(ValueError, match=field):
            value_from_json(obj)
    assert value_from_json({"kind": "radical", "terms": [term, {**term, "radicand": 28}]}) == (
        RadicalSum({7: F(3, 2)}))


def test_value_json_round_trip():
    values = [
        37,
        F(47, 2),
        RadicalSum({1: F(23, 14), 7: F(6, 7)}),
        0,
        F(-3, 7),
    ]
    for v in values:
        assert value_from_json(value_to_json(v)) == normalize(v)


def test_value_json_shapes():
    assert value_to_json(37) == {"kind": "integer", "value": "37"}
    assert value_to_json(F(47, 2)) == {"kind": "rational", "num": "47", "den": "2"}
    doc = value_to_json(RadicalSum({1: F(23, 14), 7: F(6, 7)}))
    assert doc == {
        "kind": "radical",
        "terms": [
            {"num": "23", "den": "14", "radicand": 1},
            {"num": "6", "den": "7", "radicand": 7},
        ],
        "approx": "3.910644",
    }


def test_radical_hash_consistent_with_eq():
    a = RadicalSum({8: 1})
    b = RadicalSum({2: 2})
    assert a == b and hash(a) == hash(b)
    assert hash(RadicalSum({1: F(3, 1)})) == hash(F(3, 1))


def test_radical_is_immutable():
    v = RadicalSum({7: 1})
    with pytest.raises(AttributeError):
        v._terms = {}


def test_sqf_product_from_factor_parts():
    """sqrt(x*y) from the parts of x and y: with x = s*s*d, y = t*t*e and
    g = gcd(d, e), x*y = (s*t*g)**2 * (d/g)*(e/g), the second factor squarefree."""
    parts = {m: sqf_decompose(m) for m in range(1, 301)}
    for x in range(1, 301):
        s, d = parts[x]
        for y in range(x, 301):
            t, e = parts[y]
            g = gcd(d, e)
            assert (s * t * g, (d // g) * (e // g)) == sqf_decompose(x * y), (x, y)


def test_to_decimal_large_integers_and_ratios():
    big = 7**9000
    assert to_decimal(big) == str(Decimal(big))
    assert to_decimal(F(big, 2), 3).endswith(".500")
    doc = value_to_json(F(-big, 3))
    assert len(doc["num"]) > 7000
    assert value_from_json(doc) == F(-big, 3)


def test_value_from_json_parses_what_int_parses():
    """Integer fields accept exactly the strings int() accepts, at any length;
    anything else, including a non-string, is a ValueError."""
    for text in ("7", "-7", "+5", " 5", "5\n", "1_000", "-0", "\u0661\u0662"):
        assert value_from_json({"kind": "integer", "value": text}) == int(text), text
        assert value_from_json({"kind": "rational", "num": text, "den": "4"}) == normalize(F(int(text), 4))
    for bad in ("1.5", "5.0", "1e3", "NaN", "Infinity", "1__0", "_1", "1_", "", " ", "-", "+-1", "0x10", 5, None, 2.0):
        if isinstance(bad, str):
            with pytest.raises(ValueError):
                int(bad)
        with pytest.raises(ValueError):
            value_from_json({"kind": "integer", "value": bad})


def test_integers_print_under_the_lowest_str_digit_limit():
    """Python 3.11+ lets the int/str digit limit go down to 640 digits; the
    codec and the renderers still print and parse past it."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        pytest.skip("no int/str digit limit before Python 3.11")
    old = sys.get_int_max_str_digits()
    set_limit(640)
    try:
        for n in (10**640, 10**640 + 1, 11**700, -(10**700) - 1):
            text = str(Decimal(n))
            assert to_decimal(n) == format_value(n) == value_to_json(n)["value"] == text
            assert value_from_json(value_to_json(n)) == n
            assert format_value(F(n, 3)) == f"{text}/3"
            assert format_value(RadicalSum({2: F(n, 7)})) == f"{text}/7*sqrt(2)"
    finally:
        set_limit(old)


def test_int_str_across_the_repr_threshold():
    """_int_str switches from int.__repr__ to Decimal at 2000 bits (603
    digits); both sides print what Decimal prints."""
    cases = [10**602, 10**603, 10**604]
    for k in range(1990, 2011):
        cases += [2**k, 2**k - 1]
    for n in cases:
        assert exact._int_str(n) == str(Decimal(n)), n
        assert exact._int_str(-n) == str(Decimal(-n)), n


def test_int_str_prints_what_str_prints():
    """The binary split against str with no digit limit, around the leaf
    size _REPR_BITS and its multiples, at powers of 2 and of 10, at 10**k - 1
    and on random sizes, each also negated."""
    w = exact._REPR_BITS
    cases = []
    for bits in (w, w + 1, 2 * w, 2 * w + 1, 4 * w, 5 * w + 3):
        cases += [2 ** (bits - 1), 2**bits - 1, 2**bits, 2**bits + 1]
    for k in (602, 603, 604, 1205, 2410, 4821, 10**4):
        cases += [10**k - 1, 10**k, 10**k + 1]
    rng = random.Random(12)
    cases += [rng.getrandbits(rng.randrange(w, 40 * w)) for _ in range(40)]
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # from Python 3.11
    old = sys.get_int_max_str_digits() if set_limit else None
    try:
        if set_limit:
            set_limit(0)
        for n in cases:
            assert exact._int_str(n) == str(n), n.bit_length()
            assert exact._int_str(-n) == str(-n), n.bit_length()
    finally:
        if set_limit:
            set_limit(old)


def test_int_str_is_subquadratic():
    """7**10**6 (2.8 million bits, 845,099 digits) prints in well under a
    second; str(Decimal(n)) takes about 15 s on Python 3.11."""
    n = 7**10**6
    start = time.perf_counter()
    text = exact._int_str(n)
    assert time.perf_counter() - start < 5
    assert len(text) == 845099 and text.startswith("1096")
    assert int(text[-40:]) == n % 10**40


def test_int_from_str_reads_what_int_str_prints():
    """The binary split reads back _int_str's text around the leaf size
    _LEAF_DIGITS and its multiples and on random sizes, each negated, with a
    plus sign, surrounding spaces and underscores between digits, under the
    lowest int/str digit limit (640) where Python has one."""
    leaf = exact._LEAF_DIGITS
    cases = []
    for digits in (1, leaf - 1, leaf, leaf + 1, 2 * leaf - 1, 2 * leaf, 2 * leaf + 1, 4 * leaf + 3):
        cases += [10 ** (digits - 1), 10**digits - 1]
    rng = random.Random(21)
    cases += [rng.randrange(10 ** rng.randrange(1, 30 * leaf)) for _ in range(40)]
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # from Python 3.11
    old = sys.get_int_max_str_digits() if set_limit else None
    try:
        if set_limit:
            set_limit(640)
        for n in cases:
            text = exact._int_str(n)
            cuts = sorted(rng.sample(range(1, len(text)), min(5, len(text) - 1)))
            spaced = "_".join(text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)]))
            for form, value in ((text, n), ("-" + text, -n), (f" +{text}\n", n),
                                (spaced, n), (f"\t-{spaced} ", -n)):
                assert exact._int_from_str(form) == value, (len(text), form[:20])
    finally:
        if set_limit:
            set_limit(old)


def test_int_from_str_accepts_what_int_accepts():
    """Every character str.isspace() accepts and every Nd digit, placed
    before, after and inside a 3-character and a 700-character text of
    digits: _int_from_str returns what int() returns, read with no digit
    limit, or raises this module's ValueError where int() refuses.  int()
    strips every such space but U+001C..U+001F, which both paths refuse."""
    chars = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() or c.isdecimal()]
    assert "\x1c" in chars and "\u0663" in chars  # a separator, ARABIC-INDIC DIGIT THREE
    set_limit = getattr(sys, "set_int_max_str_digits", None)  # from Python 3.11
    old = sys.get_int_max_str_digits() if set_limit else None
    refused = 0
    for c in chars:
        for size in (3, 700):
            half = size // 2
            for text in (c + "7" * (size - 1), "7" * (size - 1) + c,
                         "7" * half + c + "7" * (size - 1 - half)):
                try:
                    if set_limit:
                        set_limit(0)
                    want = int(text)
                except ValueError:
                    want = None
                finally:
                    if set_limit:
                        set_limit(old)
                if want is None:
                    refused += 1
                    with pytest.raises(ValueError, match="expected an integer string"):
                        exact._int_from_str(text)
                else:
                    assert exact._int_from_str(text) == want, (hex(ord(c)), size)
    assert refused == 2 * (4 * 3 + 25)  # U+001C..U+001F anywhere, other spaces inside
    for text in (7, 7.0, b"7", None, ["7"]):
        with pytest.raises(ValueError, match="expected an integer string"):
            exact._int_from_str(text)


def test_int_from_str_is_subquadratic():
    """7**10**6 (845,099 digits) reads back in well under a second;
    int(Decimal(text)) took about 25 s on Python 3.11."""
    n = 7**10**6
    text = exact._int_str(n)
    start = time.perf_counter()
    assert exact._int_from_str(text) == n
    assert time.perf_counter() - start < 5


def bounded_factorization(n, bound):
    """factorize's definition: trial division by every f from 2 while
    f <= bound and f * f <= the cofactor, then the cofactor left above 1."""
    pairs, f = [], 2
    while f <= bound and f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            pairs.append((f, e))
        f += 1
    return pairs + [(n, 1)] * (n > 1)


def test_factorize_equals_trial_division(monkeypatch):
    """The block gcds and the divisor-by-divisor scan yield what trial
    division by every integer yields, for bounds, widths and block sizes
    that put prime factors and the bound at and across block ends, switch
    from blocks to single divisors as the cofactor narrows, or use only one
    of the two; and for large cofactors under the real bound."""
    rng = random.Random(23)
    for bound, wide, block in ((10, 0, 1), (50, 0, 2), (97, 8, 3), (1000, 0, 7), (1000, 20, 7),
                               (5000, 40, 512), (5000, 10**4, 512)):
        monkeypatch.setattr(exact, "_TRIAL_BOUND", bound)
        monkeypatch.setattr(exact, "_WIDE_BITS", wide)
        monkeypatch.setattr(exact, "_TRIAL_BLOCK", block)
        ns = [*range(1, 3000), *(rng.randrange(1, 10**rng.randrange(2, 30)) for _ in range(300))]
        ns += [p * q for p in (bound - 2, bound - 1, bound, bound + 1, bound + 2)
               for q in (1, 3, bound - 1, bound + 1, 2**61 - 1)]
        for n in ns:
            assert list(factorize(n)) == bounded_factorization(n, bound), (bound, wide, block, n)
    monkeypatch.undo()
    big = [2**61 - 1, 999983 * 999979, 1000003**2, 999983**3 * 2**5, 3**40 * 1000003 * 999983,
           (2**61 - 1) * (2**89 - 1), 997 * 1019**2 * 1000003]
    for n in big:
        assert list(factorize(n)) == bounded_factorization(n, exact._TRIAL_BOUND), n


def test_factorize_divides_a_large_cofactor_by_blocks():
    """999983**1026 (20,450 bits) has its only prime in the last block below
    the bound; trial division by each divisor took about 2.4 s.  The block
    products are formed first, by the prime 2**1279 - 1, so that only the
    gcd scan is timed."""
    assert list(factorize(2**1279 - 1)) == [(2**1279 - 1, 1)]
    start = time.perf_counter()
    assert list(factorize(999983**1026)) == [(999983, 1026)]
    assert time.perf_counter() - start < 1.5


def test_factorize_forms_no_block_product_for_a_narrow_cofactor():
    """A cofactor of at most _WIDE_BITS bits is tried divisor by divisor,
    which for one scan costs less than forming the block products."""
    exact._trial_product.cache_clear()
    for n in (2**61 - 1, (2**61 - 1) * (2**89 - 1), 999983**3 * 2**5, 2**1021 - 1):
        assert list(factorize(n)) == bounded_factorization(n, exact._TRIAL_BOUND), n
    assert exact._trial_product.cache_info().currsize == 0


def full_factorization(n):
    """Independent oracle: the prime factorization of n by trial division
    with no bound."""
    pairs, f = [], 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            pairs.append((f, e))
        f += 1
    return pairs + [(n, 1)] * (n > 1)


def test_factorize_with_a_bound(monkeypatch):
    """Trial division stops after exact._TRIAL_BOUND; with it at 10 the
    pairs still multiply to n, those up to the bound are the prime factors
    up to it, and a last pair above it is the cofactor."""
    monkeypatch.setattr(exact, "_TRIAL_BOUND", 10)
    for n in range(1, 5000):
        pairs = list(factorize(n))
        assert prod(p**e for p, e in pairs) == n
        full = full_factorization(n)
        small = [(p, e) for p, e in full if p <= 10]
        assert pairs[:len(small)] == small
        rest = pairs[len(small):]
        assert len(rest) <= 1 and all(p > 10 and e == 1 for p, e in rest)
        if rest and rest[0][0] < 121:
            assert is_prime(rest[0][0])


def test_is_prime_agrees_with_factorize():
    for p in range(-10, 10**5):
        assert is_prime(p) == (p >= 2 and next(factorize(p)) == (p, 1)), p


def test_is_prime_below_43_squared_is_trial_division():
    """The table below 43**2 agrees with the definition; above, Miller-Rabin
    agrees with it too on a window past the table."""
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))

    assert exact._SMALL_LIMIT == 1849
    assert [is_prime(n) for n in range(-5, 1849)] == [trial(n) for n in range(-5, 1849)]
    assert [is_prime(n) for n in range(1849, 5000)] == [trial(n) for n in range(1849, 5000)]


def test_is_prime_refuses_pseudoprimes_and_large_entries():
    # Carmichael 561; strong pseudoprimes to base 2 (2047), to bases 2..7
    # (3215031751) and to every prime base up to 37 (318665857834031151167461)
    for n in (561, 2047, 3215031751, 318665857834031151167461, 2 * (2**61 - 1), 1, 0, -7):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1)
    assert not is_prime(MR_LIMIT - 1)  # even, and still below the bound
    with pytest.raises(ValueError, match="too large to prove prime"):
        is_prime(MR_LIMIT)
