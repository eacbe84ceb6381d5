"""Exact arithmetic for index values: rationals, sums of square roots, decimals.

Index computations stay in exact arithmetic end to end.  Three value shapes
occur: plain integers, rationals, and finite sums of rational multiples of
square roots of squarefree integers (as produced by Randic- and Balaban-type
edge sums).  All of them are kept canonical so that equality is literal
structural equality.  A radical sum stores each coefficient as a reduced int
pair (num, den), den > 0, and is built by RadicalSum._fold with integer lcms
and gcds (from the constructor, a rational multiple, or the Randic and
Balaban sums of inv_sqrt_sum), so no Fraction is made per term
(RadicalSum.terms gives Fractions to other callers).  Decimal strings are
derived on demand and are correctly rounded (round half to even): a float
interval with a proven error bound settles almost every radical at up to 15
places, and integer square-root bounds refined until they decide the
rounding settle the rest.
Integers print and parse at any size, in JSON documents too: up to 2000
bits (603 digits, below every digit limit Python allows) they print with
int.__repr__, above that by a binary split into exact Decimal arithmetic,
and they are parsed by int() up to 600 characters, above by the reverse
split into leaves of at most 600 digits read by int(); both are
subquadratic.  value_text writes each value's JSON text, at indent 0.  The
reports and graph exports are written from templates (in indices, claims
and graphs), and a report splices each value's text in, re-indented by one
replace to the line it sits on.  factorize trial-divides a wide cofactor by
blocks of odd divisors, one gcd per block.  is_prime reads a number below
43**2 from a sieved table and runs Miller-Rabin above.
"""

from __future__ import annotations

import functools
import json
import re
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact
from fractions import Fraction
from itertools import chain
from math import fsum, gcd, isqrt, lcm, prod, sqrt
from typing import Iterable, Iterator, Mapping, Union

#: Anything the index engine may return.
Value = Union[int, Fraction, "RadicalSum"]


#: Trial division stops after this bound in factorize, so in
#: graphs.build_general and sqf_decompose: about 0.03 s for a prime near
#: 2**61.
_TRIAL_BOUND = 10**6

#: factorize tries a cofactor wider than _WIDE_BITS by blocks of odd
#: divisors, 32 doubling up to _TRIAL_BLOCK, and a narrower one divisor by
#: divisor.  A full scan costs about the same either way near 800 bits
#: when the block products are not yet formed (about 0.12 s); below, one
#: remainder per divisor is cheaper than forming the products.
_WIDE_BITS = 1024
_TRIAL_BLOCK = 512


@functools.cache
def _trial_product(start: int, end: int) -> int:
    """The product of the odd numbers in range(start, end), kept for the
    process: one per block below _TRIAL_BOUND, about 1.2 MB for them all."""
    return prod(range(start, end, 2))


def factorize(n: int) -> Iterator[tuple[int, int]]:
    """Yield the prime factorization of n >= 1 as (p, e) pairs, p ascending,
    by trial division up to min(sqrt(n), _TRIAL_BOUND); the package's one
    factoriser.  The first pair comes as soon as the smallest prime factor
    is found.  The cofactor left above 1 comes last as (cofactor, 1): it has
    no prime factor up to the bound, so it is prime below
    (_TRIAL_BOUND + 1)**2 and unproven above.

    The power of 2 is read off the low bits.  While the cofactor is wider
    than _WIDE_BITS, each block of odd divisors is tried by one gcd g of the
    cofactor with the block's product, then scanned, up to the last divisor
    to try, only while g > 1: a wide cofactor costs one remainder per block,
    not one per divisor.  A divisor of g has no smaller prime factor left,
    so it is prime; it is divided out of the cofactor at once, and out of g
    by one gcd with what is left.  A narrow cofactor is tried by each odd
    divisor in turn."""
    e = (n & -n).bit_length() - 1  # 2**e divides n exactly
    if e:
        yield 2, e
    rem = n >> e
    stop = min(isqrt(rem), _TRIAL_BOUND)  # the last divisor to try
    f, size = 3, min(32, _TRIAL_BLOCK)
    while f <= stop and rem.bit_length() > _WIDE_BITS:
        end = min(f + 2 * size, _TRIAL_BOUND + 1)
        g = gcd(rem, _trial_product(f, end))
        while g > 1 and f <= stop and f < end:
            if g % f == 0:
                e = 0
                q, r = divmod(rem, f)
                while not r:
                    rem, e = q, e + 1
                    q, r = divmod(rem, f)
                yield f, e
                g = gcd(g, rem)
                stop = min(stop, isqrt(rem))
            f += 2
        f, size = end, min(2 * size, _TRIAL_BLOCK)
    while f <= stop:
        if rem % f == 0:
            e = 0
            while rem % f == 0:
                rem //= f
                e += 1
            yield f, e
            stop = min(stop, isqrt(rem))
        f += 2
    if rem > 1:
        yield rem, 1


#: Miller-Rabin over the primes 2..41 is exact below MR_LIMIT, the least
#: strong pseudoprime to all of them (Sorenson and Webster, 2015).
MR_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: Below 43**2 a number with no prime factor up to 41 is prime.
_SMALL_LIMIT = 43 * 43


def _sieve() -> bytes:
    """Byte n is 1 exactly for the primes n below _SMALL_LIMIT: the multiples
    of the bases struck out, about 10 microseconds (a set of the same primes
    takes about 50 more to build)."""
    marks = bytearray([0, 0]) + bytearray([1]) * (_SMALL_LIMIT - 2)
    for p in _MR_BASES:
        marks[p * p::p] = bytes(len(range(p * p, _SMALL_LIMIT, p)))
    return bytes(marks)


_SMALL_PRIMES = _sieve()


def is_prime(n: int) -> bool:
    """Whether n is prime: below 43**2 read from the table _SMALL_PRIMES,
    above by deterministic Miller-Rabin over the primes 2..41; n >= MR_LIMIT,
    where that is not proven, raises ValueError."""
    if n < _SMALL_LIMIT:
        return n > 1 and _SMALL_PRIMES[n] == 1
    if n >= MR_LIMIT:
        raise ValueError(f"{_int_str(n)} is too large to prove prime: Miller-Rabin over "
                         f"the primes 2..41 is exact only below {MR_LIMIT}")
    if 0 in map(n.__mod__, _MR_BASES):
        return False
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def sqf_decompose(m: int) -> tuple[int, int]:
    """Split m >= 1 into (c, d) with m = c*c*d and d squarefree.

    Trial division stops after _TRIAL_BOUND = B, so the cofactor r left
    above 1 has no prime factor up to B.  Below (B+1)**3 it has at most two
    prime factors, so it is squarefree unless it is the square of a prime.
    Above that, r must be a prime or the square of a prime, proven by
    is_prime; any other cofactor raises ValueError naming the budget.
    """
    if m < 1:
        raise ValueError(f"expected a positive integer, got {m!r}")
    c = d = 1
    for p, e in factorize(m):
        if p > _TRIAL_BOUND:  # the cofactor
            q = isqrt(p)
            if q * q == p and (q < (_TRIAL_BOUND + 1) ** 2 or (q < MR_LIMIT and is_prime(q))):
                c *= q
                continue
            if p >= (_TRIAL_BOUND + 1) ** 3 and (p >= MR_LIMIT or not is_prime(p)):
                raise ValueError(f"the squarefree split of {_int_str(m)} leaves the cofactor "
                                 f"{_int_str(p)} after trial division up to {_TRIAL_BOUND}, "
                                 f"the factorisation budget")
        c *= p ** (e // 2)
        if e % 2:
            d *= p
    return c, d


def _triples(v: "RadicalSum") -> list[tuple[int, int, int]]:
    """v's terms as (radicand, num, den), read once from the stored pairs."""
    return [(d, num, den) for d, (num, den) in v._terms.items()]


class RadicalSum:
    """Canonical finite sum  sum_d q_d * sqrt(d)  with squarefree d and q_d != 0.

    The radicand 1 carries the rational part.  Squarefree radicands are
    linearly independent over the rationals, so two sums are equal exactly
    when their canonical term maps are identical; __eq__ relies on that.
    Each coefficient is stored as a reduced int pair (num, den), den > 0,
    and folded by _fold; terms gives them as Fractions.  Instances are
    immutable and scale by a rational on either side; every sum is one _fold.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Fraction | int] | None = None):
        triples = []
        for rad, coef in (terms or {}).items():
            coef = Fraction(coef)
            if coef:
                c, d = sqf_decompose(rad)
                triples.append((d, coef.numerator * c, coef.denominator))
        object.__setattr__(self, "_terms", RadicalSum._fold(triples)._terms)

    @classmethod
    def _fold(cls, triples: Iterable[tuple[int, int, int]], num=1, den=1) -> "RadicalSum":
        """num/den (den > 0) times the sum of (n/q) * sqrt(d) over (d, n, q)
        with squarefree d, not split again, and q > 0; the one place that
        adds radical coefficients.  Terms sharing a d are added as integers
        over the lcm of their q; each sum is scaled once, reduced by one gcd,
        and dropped if zero."""
        sums: dict[int, tuple[int, int]] = {}  # d -> (numerator, denominator)
        for d, n, q in triples:
            if d in sums:
                n0, q0 = sums[d]
                both = lcm(q0, q)
                sums[d] = (n0 * (both // q0) + n * (both // q), both)
            else:
                sums[d] = (n, q)
        terms = {}
        for d, (n, q) in sorted(sums.items()):
            n, q = n * num, q * den
            if n:
                g = gcd(n, q)
                terms[d] = (n // g, q // g)
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RadicalSum is immutable")

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """Canonical (radicand, coefficient) pairs, radicand ascending."""
        return tuple((d, Fraction(num, den)) for d, (num, den) in self._terms.items())

    def is_rational(self) -> bool:
        return all(d == 1 for d in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return Fraction(*self._terms.get(1, (0, 1)))

    def __mul__(self, other: "Fraction | int") -> "RadicalSum":
        """The sum scaled by a rational, on either side."""
        if isinstance(other, (int, Fraction)):
            return RadicalSum._fold(_triples(self), *other.as_integer_ratio())
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RadicalSum):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == ({1: other.as_integer_ratio()} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(self.terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for d, (num, den) in self._terms.items():
            mag = _ratio_str(abs(num), den)
            body = mag if d == 1 else (
                f"sqrt({d})" if mag == "1" else f"{mag}*sqrt({d})"
            )
            if not parts:
                parts.append(f"-{body}" if num < 0 else body)
            else:
                parts.append(f"- {body}" if num < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{d}: {q!r}" for d, q in self.terms)
        return f"RadicalSum({{{inner}}})"


#: Integers of at most this many bits have at most 603 digits, below the
#: lowest digit limit sys.set_int_max_str_digits accepts (640).
_REPR_BITS = 2000


#: Exact Decimal arithmetic for _int_str: unbounded precision, and a
#: rounded result raises.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact])


def _int_str(n: int) -> str:
    """str(n) at any size: int.__repr__ up to _REPR_BITS bits, which no digit
    limit refuses.  Above, the method of CPython 3.12's
    _pylong.int_to_decimal_string, in subquadratic time where str(Decimal(n))
    is quadratic (Python 3.10 and 3.11): |n| is split in binary halves down to
    leaves of at most _REPR_BITS bits, each read by Decimal(int), and each
    split hi * 2**h + lo is recombined by exact Decimal arithmetic with
    Decimal(2)**h formed once per h (at most two h per level)."""
    if n.bit_length() <= _REPR_BITS:
        return int.__repr__(n)
    powers: dict[int, Decimal] = {}

    def split(m: int, w: int) -> Decimal:  # m >= 0 of at most w bits
        if w <= _REPR_BITS:
            return Decimal(m)
        h = w >> 1
        if h not in powers:
            powers[h] = _EXACT.power(2, h)
        return _EXACT.add(_EXACT.multiply(split(m >> h, w - h), powers[h]),
                          split(m & ((1 << h) - 1), h))

    text = str(split(abs(n), n.bit_length()))
    return "-" + text if n < 0 else text


#: What int() accepts as a base-10 string: surrounding whitespace, a sign,
#: digits with single underscores between them.  int() strips every
#: character str.isspace() accepts but the separators U+001C..U+001F.  The
#: pattern is compiled on its first use, through re's cache, so an import
#: does not pay for it.
_INT_TEXT = r"[^\S\x1c-\x1f]*[+-]?\d+(?:_\d+)*[^\S\x1c-\x1f]*"


#: _int_from_str reads at most this many digits at a time with int(), below
#: the lowest digit limit sys.set_int_max_str_digits accepts (640).
_LEAF_DIGITS = 600


def _int_from_str(text: str) -> int:
    """int(text) for the strings int() accepts, at any length, in
    subquadratic time: the reverse of _int_str.  Any other text, or a
    non-str, raises this module's ValueError.  A text of at most
    _LEAF_DIGITS characters is read by int() itself, with no regex.  A
    longer one is checked by _INT_TEXT, which accepts what int() does; its
    digits, with the sign, spaces and underscores stripped, are split in
    halves down to leaves of at most _LEAF_DIGITS digits, each read by int(),
    and each split into hi and the last h digits lo is recombined as
    hi * 10**h + lo, with 10**h formed once per h (at most two h per level)."""
    short = isinstance(text, str) and len(text) <= _LEAF_DIGITS
    if short:
        try:
            return int(text)
        except ValueError:
            pass
    if short or not isinstance(text, str) or not re.fullmatch(_INT_TEXT, text):
        raise ValueError(f"expected an integer string, got {text!r:.40}")
    digits = text.strip().replace("_", "")
    negative = digits[0] == "-"
    digits = digits.lstrip("+-")
    powers: dict[int, int] = {}

    def read(lo: int, hi: int) -> int:  # int(digits[lo:hi])
        if hi - lo <= _LEAF_DIGITS:
            return int(digits[lo:hi])
        h = (hi - lo) >> 1
        if h not in powers:
            powers[h] = 10**h
        return read(lo, hi - h) * powers[h] + read(hi - h, hi)

    n = read(0, len(digits))
    return -n if negative else n


def _ratio_str(num: int, den: int) -> str:
    """str(Fraction(num, den)) ("5", "-47/2") at any size, for a reduced
    pair with den > 0."""
    return _int_str(num) if den == 1 else f"{_int_str(num)}/{_int_str(den)}"


def inv_sqrt_sum(pairs: Mapping[tuple[int, int], int], num: int = 1, den: int = 1) -> Value:
    """num/den (ints, den > 0) times the sum of c/sqrt(x*y) over pairs
    {(x, y): c}: the edge sums of Randic and Balaban.  Each distinct factor
    is split once: with x = s*s*d, y = t*t*e (d, e squarefree) and
    g = gcd(d, e), x*y = (s*t*g)**2 * r for the squarefree r = (d/g)*(e/g),
    so c/sqrt(x*y) = c/(s*t*g*r) * sqrt(r), a term for RadicalSum._fold."""
    split = {f: sqf_decompose(f) for f in {*chain.from_iterable(pairs)}}
    triples = []
    for (x, y), c in pairs.items():
        (s, d), (t, e) = split[x], split[y]
        g = gcd(d, e)
        r = (d // g) * (e // g)
        triples.append((r, c, s * t * g * r))
    return normalize(RadicalSum._fold(triples, num, den))


def normalize(v: Value) -> Value:
    """Collapse a value to its most constrained shape (radical -> rational -> int)."""
    if isinstance(v, RadicalSum) and v.is_rational():
        v = v.as_fraction()
    if isinstance(v, Fraction) and v.denominator == 1:
        return int(v)
    return v


def _round_half_even(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties to even."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    return q


def _format_scaled(scaled: int, digits: int) -> str:
    sign = "-" if scaled < 0 else ""
    ip, fp = divmod(abs(scaled), 10**digits)
    return f"{sign}{_int_str(ip)}.{_int_str(fp).zfill(digits)}"


def _float_scaled(terms: list[tuple[int, int, int]], digits: int) -> int | None:
    """round_half_even(v * 10**digits) for the v with these n (radicand, num,
    den) terms when a float interval decides it, else None.

    Let u = 2**-53.  Each part p = fl(fl(num/den) * sqrt(fl(d))) of a term
    t = (num/den)*sqrt(d) takes four correctly rounded steps: int true
    division, float(d) (whose error the root halves), sqrt and the product.
    So |p - t| <= 3.5u*|t| + 2**-562, the last for a quotient below the
    normal range, whose absolute error 2**-1075 the root (< 2**512) scales.
    fsum rounds the exact sum of the parts once, and the product by
    10.0**digits (exact for digits <= 22) once more, giving X.  With
    S = 10**digits * sum |p|, that makes |X - v*10**digits| at most
    2**-49 * (S + |X|) + n * 2**-511.  The computed B = (S + |X|) * 2**-48
    exceeds the first term after its own rounding.  A float below 1/2 is at
    most 1/2 - 2**-54, so when the float sum |X - r| + B is below 1/2, with
    r the nearest integer to X, the exact sum was below 1/2 - 2**-55, which
    leaves room for the second term (and for any underflow in B): then
    v*10**digits lies strictly within 1/2 of r, and r is its rounding.  B
    alone reaches 1/2 when S >= 2**47, so such an S returns None at once;
    that keeps |X| below 2**48, where r and X - r are exact, and turns away
    a part that overflowed to infinity (an overflowing quotient, radicand or
    sum raises OverflowError)."""
    scale = 10.0**digits
    try:
        parts = [num / den * sqrt(d) for d, num, den in terms]
        size = fsum(map(abs, parts)) * scale
    except OverflowError:
        return None
    if size >= 2**47:
        return None
    x = fsum(parts) * scale
    near = round(x)
    return near if abs(x - near) + (size + abs(x)) * 2.0**-48 < 0.5 else None


def _radical_scaled(terms: list[tuple[int, int, int]], digits: int) -> int:
    """round_half_even(v * 10**digits) for the irrational v with these
    (radicand, num, den) terms, proven exact.

    For digits <= 15 a float interval (_float_scaled) settles almost every
    value.  Otherwise, and where that interval straddles a rounding boundary,
    with P = digits + G for a guard G, each term (num/den)*sqrt(d) of v has
    |num/den|*sqrt(d)*10**P in [f, f + 1), where f = isqrt(d * (|num| *
    10**P)**2) // den, so summing the signed ends gives integers
    lo <= v*10**P <= hi.  Rounding half to even is monotone, so when lo and
    hi round to the same integer at unit 10**G, that integer is the correctly
    rounded result; otherwise G doubles and the bounds are recomputed.  The
    loop ends for every irrational v: v * 10**digits is then never a tie, so
    it sits a positive distance from every rounding boundary, and the
    interval width, at most len(terms)/10**G, falls below that distance.
    """
    if digits <= 15 and (scaled := _float_scaled(terms, digits)) is not None:
        return scaled
    guard = 4
    while True:
        power = 10 ** (digits + guard)
        lo = hi = 0
        for d, num, den in terms:
            f = isqrt(d * (num * power) ** 2) // den
            if num > 0:
                lo, hi = lo + f, hi + f + 1
            else:
                lo, hi = lo - f - 1, hi - f
        unit = 10**guard
        low = _round_half_even(lo, unit)
        if low == _round_half_even(hi, unit):
            return low
        guard *= 2


def to_decimal(v: Value, digits: int = 6) -> str:
    """Decimal string of v with `digits` fractional digits, round half to even.

    Integers print bare ("37"); rationals and radicals print fixed point
    ("23.500").  Every result is the correctly rounded value: rationals are
    rounded exactly, and radicals by a float interval or by integer
    square-root bounds tightened until both ends round alike (see
    _radical_scaled).
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    v = normalize(v)
    if isinstance(v, int):
        return _int_str(v)
    if isinstance(v, Fraction):
        scaled = _round_half_even(v.numerator * 10**digits, v.denominator)
        return _format_scaled(scaled, digits)
    return _format_scaled(_radical_scaled(_triples(v), digits), digits)


#: value_text's templates, json.dumps(..., indent=2) of each value shape with
#: every string's content and every int left as %s.
_INTEGER_TEXT = '{\n  "kind": "integer",\n  "value": "%s"\n}'
_RATIONAL_TEXT = '{\n  "kind": "rational",\n  "num": "%s",\n  "den": "%s"\n}'
_RADICAL_TEXT = '{\n  "kind": "radical",\n  "terms": [\n    %s\n  ],\n  "approx": "%s"\n}'
_TERM_TEXT = '{\n      "num": "%s",\n      "den": "%s",\n      "radicand": %s\n    }'


def value_text(v: Value) -> str:
    """v's JSON text, as json.dumps(..., indent=2) writes it, from one of the
    templates above: every int but a radicand as a decimal string, terms
    radicand ascending, approx correctly rounded to six places.  A radical's
    terms fill one row template, so no dict is built per term."""
    v = normalize(v)
    if isinstance(v, int):
        return _INTEGER_TEXT % _int_str(v)
    if isinstance(v, Fraction):
        return _RATIONAL_TEXT % (_int_str(v.numerator), _int_str(v.denominator))
    terms = _triples(v)
    cells = tuple(chain.from_iterable((num, den, d) for d, num, den in terms))
    if not _fits_repr(cells):
        cells = tuple(map(_int_str, cells))
    rows = ",\n    ".join([_TERM_TEXT] * len(terms)) % cells
    return _RADICAL_TEXT % (rows, _format_scaled(_radical_scaled(terms, 6), 6))


def _field(obj, name: str, shape: type = object):
    """obj[name] for a JSON object obj holding a `shape` there, else
    ValueError.  The type must be shape itself, so a bool is not an int."""
    if not (isinstance(obj, dict) and name in obj
            and (shape is object or type(obj[name]) is shape)):
        raise ValueError(f"expected a JSON object with the field {name!r}"
                         + ("" if shape is object else f" of type {shape.__name__}"))
    return obj[name]


def _den_from_str(text: str) -> int:
    den = _int_from_str(text)
    if not den:
        raise ValueError(f"den must be nonzero, got {text!r:.40}")
    return den


def value_from_json(obj: dict | None) -> Value | None:
    """Inverse of value_text, read by json.loads (the derived approx field is
    ignored).  A missing or wrong-shaped field, a den of 0, or a radicand in
    two terms raises ValueError naming the field."""
    if obj is None:
        return None
    kind = _field(obj, "kind")
    if kind == "integer":
        return _int_from_str(_field(obj, "value"))
    if kind == "rational":
        return normalize(Fraction(_int_from_str(_field(obj, "num")),
                                  _den_from_str(_field(obj, "den"))))
    if kind == "radical":
        terms: dict[int, Fraction] = {}
        for t in _field(obj, "terms", list):
            d = _field(t, "radicand", int)
            if d in terms:
                raise ValueError(f"radicand {_int_str(d)} appears in two terms")
            terms[d] = Fraction(_int_from_str(_field(t, "num")), _den_from_str(_field(t, "den")))
        return normalize(RadicalSum(terms))
    raise ValueError(f"unknown value kind {kind!r}")


def format_value(v: Value | None) -> str:
    """Compact exact rendering for tables: 37, 47/2, 23/14 + 6/7*sqrt(7)."""
    if v is None:
        return "unparsed"
    v = normalize(v)
    if isinstance(v, int):
        return _int_str(v)
    if isinstance(v, Fraction):
        return _ratio_str(v.numerator, v.denominator)
    return str(v)


_quote = json.encoder.encode_basestring_ascii  # the stdlib's C string quoting


def _fits_repr(ints) -> bool:
    """Whether int.__repr__ prints every int of a non-empty sequence under any digit limit."""
    return max(max(ints).bit_length(), min(ints).bit_length()) <= _REPR_BITS

