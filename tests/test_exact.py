"""Exact arithmetic layer: squarefree decomposition, radical sums, decimals."""

import random
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, isqrt, prod

import pytest

from graphlab import exact
from graphlab.exact import (
    MR_LIMIT,
    RadicalSum,
    factorize,
    format_value,
    inv_sqrt,
    is_prime,
    normalize,
    sqf_decompose,
    to_decimal,
    value_from_json,
    value_to_json,
)

F = Fraction


def brute_sqf(m):
    """Independent oracle: largest square divisor by descending search."""
    for f in range(isqrt(m), 0, -1):
        if m % (f * f) == 0:
            return f, m // (f * f)
    raise AssertionError


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


def test_inv_sqrt_examples():
    assert inv_sqrt(1) == RadicalSum({1: 1})
    assert inv_sqrt(49) == RadicalSum({1: F(1, 7)})
    assert inv_sqrt(28) == RadicalSum({7: F(1, 14)})
    assert inv_sqrt(F(1, 4)) == RadicalSum({1: 2})


def test_inv_sqrt_rejects_nonpositive():
    with pytest.raises(ValueError):
        inv_sqrt(0)
    with pytest.raises(ValueError):
        inv_sqrt(F(-3, 7))


def test_inv_sqrt_square_is_reciprocal():
    rng = random.Random(7)
    for _ in range(50):
        q = F(rng.randint(1, 500), rng.randint(1, 500))
        s = inv_sqrt(q)
        assert s * s == RadicalSum({1: 1 / q})


def test_radical_canonicalization():
    # non-squarefree radicands fold into the coefficient
    assert RadicalSum({8: 1}) == RadicalSum({2: 2})
    assert RadicalSum({4: F(3, 2)}) == RadicalSum({1: 3})
    # zero coefficients vanish
    assert RadicalSum({7: 0}) == RadicalSum()
    assert not RadicalSum({7: 1}) - RadicalSum({7: 1})


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


def test_radical_sum_ops_commute():
    rng = random.Random(4)

    def rand_sum():
        return RadicalSum({rng.randint(1, 60): F(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(rng.randint(0, 4))})

    for _ in range(60):
        a, b, c = rand_sum(), rand_sum(), rand_sum()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_radical_scale():
    v = RadicalSum({1: F(23, 14), 7: F(6, 7)})
    assert v * 0 == RadicalSum()
    assert v * 2 == RadicalSum({1: F(23, 7), 7: F(12, 7)})
    assert v * F(1, 2) * 2 == v


def test_randic_style_accumulation():
    # edge sum for Gamma_3: one (7,7) edge, twelve (7,4), six (4,4)
    acc = inv_sqrt(49) + 12 * inv_sqrt(28) + 6 * inv_sqrt(16)
    assert acc == RadicalSum({1: F(23, 14), 7: F(6, 7)})


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
            same = RadicalSum.from_value(a).terms == RadicalSum.from_value(b).terms
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
            cases += [v, -v]
    (p2, _), (_, p3), (p5, _) = (close_convergents(d) for d in (2, 3, 5))
    big = 10**12
    b = F(2718281, 10**6) + F(1, 2 * 10**6)
    v = RadicalSum({1: b - big * p2 + big * p3 - 7 * big * p5, 2: big, 3: -big, 5: 7 * big})
    cases += [v, -v]
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


def test_factorize_with_a_bound():
    """With a bound the pairs still multiply to n; those up to the bound are
    the prime factors up to it, and a last pair above it is the cofactor."""
    for n in range(1, 5000):
        pairs = list(factorize(n, 10))
        assert prod(p**e for p, e in pairs) == n
        full = list(factorize(n))
        small = [(p, e) for p, e in full if p <= 10]
        assert pairs[:len(small)] == small
        rest = pairs[len(small):]
        assert len(rest) <= 1 and all(p > 10 and e == 1 for p, e in rest)
        if rest and rest[0][0] < 121:
            assert is_prime(rest[0][0])


def test_is_prime_agrees_with_factorize():
    for p in range(-10, 10**5):
        assert is_prime(p) == (p >= 2 and next(factorize(p)) == (p, 1)), p


def test_is_prime_refuses_pseudoprimes_and_large_entries():
    # Carmichael 561; strong pseudoprimes to base 2 (2047), to bases 2..7
    # (3215031751) and to every prime base up to 37 (318665857834031151167461)
    for n in (561, 2047, 3215031751, 318665857834031151167461, 2 * (2**61 - 1), 1, 0, -7):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1)
    assert not is_prime(MR_LIMIT - 1)  # even, and still below the bound
    with pytest.raises(ValueError, match="too large to prove prime"):
        is_prime(MR_LIMIT)
