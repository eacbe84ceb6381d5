"""Exact arithmetic for index values: rationals, sums of square roots, decimals.

Index computations stay in exact arithmetic end to end.  Three value shapes
occur: plain integers, rationals, and finite sums of rational multiples of
square roots of squarefree integers (as produced by Randic- and Balaban-type
edge sums).  All of them are kept canonical so that equality is literal
structural equality; decimal strings are derived on demand and are correctly
rounded (round half to even), by integer square-root bounds refined until
they decide the rounding.  Integers print and parse at any size: up to 2000
bits (603 digits, below every digit limit Python allows) they print with
int.__repr__, and above that, and when parsed, they go through Decimal, which
has no digit limit.  json_text writes every JSON document the package prints
(index reports, graph exports, claim reports).
"""

from __future__ import annotations

import json
import re
import sys
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from math import isqrt
from typing import Iterator, Mapping, Union

#: Anything the index engine may return.
Value = Union[int, Fraction, "RadicalSum"]


def factorize(n: int, bound: int | None = None) -> Iterator[tuple[int, int]]:
    """Yield the prime factorization of n >= 1 as (p, e) pairs, p ascending,
    by trial division up to sqrt(n); the package's one factoriser.  The first
    pair comes as soon as the smallest prime factor is found.  With a bound,
    trial division stops after it, and the cofactor left above 1 comes last
    as (cofactor, 1), unproven: it has no prime factor up to the bound, so it
    is prime below (bound + 1)**2."""
    rem = n
    f = 2
    stop = isqrt(n) if bound is None else min(isqrt(n), bound)  # the last f to try
    while f <= stop:
        if rem % f == 0:
            e = 0
            while rem % f == 0:
                rem //= f
                e += 1
            yield f, e
            stop = min(stop, isqrt(rem))
        f += 1 if f == 2 else 2
    if rem > 1:
        yield rem, 1


#: Miller-Rabin over the primes 2..41 is exact below MR_LIMIT, the least
#: strong pseudoprime to all of them (Sorenson and Webster, 2015).
MR_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin over the primes
    2..41; n >= MR_LIMIT, where that is not proven, raises ValueError."""
    if n >= MR_LIMIT:
        raise ValueError(f"{_int_str(n)} is too large to prove prime: Miller-Rabin over "
                         f"the primes 2..41 is exact only below {MR_LIMIT}")
    if n < 2 or 0 in map(n.__mod__, _MR_BASES):
        return n in _MR_BASES
    if n < 43 * 43:  # no prime factor up to 41, so none at all
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in _MR_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x != 1 and all(pow(x, 1 << r, n) != n - 1 for r in range(s)):
            return False
    return True


def sqf_decompose(m: int) -> tuple[int, int]:
    """Split m >= 1 into (c, d) with m = c*c*d and d squarefree.

    The index engine calls it on single vertex degrees and transmissions
    (each distinct one once per sum), never on their products, so the trial
    division in factorize stays small.
    """
    if m < 1:
        raise ValueError(f"expected a positive integer, got {m!r}")
    c = d = 1
    for p, e in factorize(m):
        c *= p ** (e // 2)
        if e % 2:
            d *= p
    return c, d


class RadicalSum:
    """Canonical finite sum  sum_d q_d * sqrt(d)  with squarefree d and q_d != 0.

    The radicand 1 carries the rational part.  Squarefree radicands are
    linearly independent over the rationals, so two sums are equal exactly
    when their canonical term maps are identical; __eq__ relies on that.
    Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Fraction | int] | None = None):
        folded: dict[int, Fraction] = {}
        if terms:
            for rad, coef in terms.items():
                coef = Fraction(coef)
                if coef == 0:
                    continue
                c, d = sqf_decompose(rad)
                folded[d] = folded.get(d, Fraction(0)) + coef * c
        object.__setattr__(
            self, "_terms", {d: q for d, q in sorted(folded.items()) if q != 0}
        )

    @classmethod
    def _canonical(cls, terms: Mapping[int, Fraction]) -> "RadicalSum":
        """Wrap terms that are canonical already (squarefree radicands, nonzero
        Fraction coefficients) without decomposing the radicands again."""
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", dict(sorted(terms.items())))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RadicalSum is immutable")

    @classmethod
    def from_value(cls, v: Value) -> "RadicalSum":
        """Promote an int, Fraction, or RadicalSum to a RadicalSum."""
        if isinstance(v, RadicalSum):
            return v
        return cls({1: Fraction(v)})

    @property
    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """Canonical (radicand, coefficient) pairs, radicand ascending."""
        return tuple(self._terms.items())

    def is_rational(self) -> bool:
        return all(d == 1 for d in self._terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self._terms.get(1, Fraction(0))

    def __add__(self, other: "RadicalSum | Fraction | int") -> "RadicalSum":
        if isinstance(other, RadicalSum):
            merged = dict(self._terms)
            for d, q in other._terms.items():
                merged[d] = merged.get(d, Fraction(0)) + q
            return RadicalSum(merged)
        if isinstance(other, (int, Fraction)):
            return self + RadicalSum.from_value(other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "RadicalSum":
        return RadicalSum({d: -q for d, q in self._terms.items()})

    def __sub__(self, other: "RadicalSum | Fraction | int") -> "RadicalSum":
        if isinstance(other, (RadicalSum, int, Fraction)):
            return self + (-RadicalSum.from_value(other))
        return NotImplemented

    def __rsub__(self, other: "Fraction | int") -> "RadicalSum":
        return RadicalSum.from_value(other) + (-self)

    def __mul__(self, other: "RadicalSum | Fraction | int") -> "RadicalSum":
        """Product; sqrt(a)*sqrt(b) folds through squarefree decomposition."""
        if isinstance(other, (int, Fraction)):
            return RadicalSum({d: q * other for d, q in self._terms.items()})
        if isinstance(other, RadicalSum):
            out: dict[int, Fraction] = {}
            for da, qa in self._terms.items():
                for db, qb in other._terms.items():
                    c, d = sqf_decompose(da * db)
                    out[d] = out.get(d, Fraction(0)) + qa * qb * c
            return RadicalSum(out)
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RadicalSum):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == RadicalSum.from_value(other)._terms
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(self.terms)

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for d, q in self._terms.items():
            mag = _fraction_str(-q if q < 0 else q)
            body = mag if d == 1 else (
                f"sqrt({d})" if mag == "1" else f"{mag}*sqrt({d})"
            )
            if not parts:
                parts.append(f"-{body}" if q < 0 else body)
            else:
                parts.append(f"- {body}" if q < 0 else f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        inner = ", ".join(f"{d}: {q!r}" for d, q in self._terms.items())
        return f"RadicalSum({{{inner}}})"


#: Integers of at most this many bits have at most 603 digits, below the
#: lowest digit limit sys.set_int_max_str_digits accepts (640).
_REPR_BITS = 2000


def _int_str(n: int) -> str:
    """str(n) at any size: int.__repr__ up to _REPR_BITS bits, which no digit
    limit refuses; above, Decimal, which has no limit."""
    return int.__repr__(n) if n.bit_length() <= _REPR_BITS else str(Decimal(n))


#: What int() accepts as a base-10 string: surrounding whitespace, a sign,
#: digits with single underscores between them.
_INT_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _int_from_str(text: str) -> int:
    """int(text) for the strings int() accepts, at any length."""
    if not isinstance(text, str) or not _INT_TEXT.fullmatch(text):
        raise ValueError(f"expected an integer string, got {text!r:.40}")
    return int(Decimal(text))


def _fraction_str(q: Fraction) -> str:
    """str(q) ("5", "-47/2") at any size."""
    num = _int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{_int_str(q.denominator)}"


def inv_sqrt(q: Fraction | int) -> RadicalSum:
    """1/sqrt(q) for rational q > 0, rationalized: sqrt(ab)/a for q = a/b."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"expected a positive rational, got {q}")
    a, b = q.numerator, q.denominator
    return RadicalSum({a * b: Fraction(1, a)})


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


def _radical_scaled(v: RadicalSum, digits: int) -> int:
    """round_half_even(v * 10**digits) for an irrational v, proven exact.

    With P = digits + G for a guard G, each term q*sqrt(d) of v has
    |q|*sqrt(d)*10**P in [f, f + 1), where f = isqrt(d * (|num| * 10**P)**2)
    // den for q = num/den, so summing the signed ends gives integers
    lo <= v*10**P <= hi.  Rounding half to even is monotone, so when lo and
    hi round to the same integer at unit 10**G, that integer is the correctly
    rounded result; otherwise G doubles and the bounds are recomputed.  The
    loop ends for every irrational v: v * 10**digits is then never a tie, so
    it sits a positive distance from every rounding boundary, and the
    interval width, at most len(terms)/10**G, falls below that distance.
    """
    guard = 4
    while True:
        power = 10 ** (digits + guard)
        lo = hi = 0
        for d, q in v.terms:
            num = q.numerator
            f = isqrt(d * (num * power) ** 2) // q.denominator
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
    rounded exactly, and radicals by integer square-root bounds that are
    tightened until both ends round alike (see _radical_scaled).
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    v = normalize(v)
    if isinstance(v, int):
        return _int_str(v)
    if isinstance(v, Fraction):
        scaled = _round_half_even(v.numerator * 10**digits, v.denominator)
        return _format_scaled(scaled, digits)
    return _format_scaled(_radical_scaled(v, digits), digits)


def value_to_json(v: Value) -> dict | None:
    """Canonical JSON form of a value; None passes through (unparsed claims)."""
    if v is None:
        return None
    v = normalize(v)
    if isinstance(v, int):
        return {"kind": "integer", "value": _int_str(v)}
    if isinstance(v, Fraction):
        return {"kind": "rational", "num": _int_str(v.numerator), "den": _int_str(v.denominator)}
    return {
        "kind": "radical",
        "terms": [
            {"num": _int_str(num), "den": _int_str(den), "radicand": d}
            for d, (num, den) in ((d, q.as_integer_ratio()) for d, q in v.terms)
        ],
        "approx": to_decimal(v, 6),
    }


def value_from_json(obj: dict | None) -> Value | None:
    """Inverse of value_to_json (the derived approx field is ignored)."""
    if obj is None:
        return None
    kind = obj["kind"]
    if kind == "integer":
        return _int_from_str(obj["value"])
    if kind == "rational":
        return normalize(Fraction(_int_from_str(obj["num"]), _int_from_str(obj["den"])))
    if kind == "radical":
        return normalize(
            RadicalSum(
                {
                    t["radicand"]: Fraction(_int_from_str(t["num"]), _int_from_str(t["den"]))
                    for t in obj["terms"]
                }
            )
        )
    raise ValueError(f"unknown value kind {kind!r}")


def format_value(v: Value | None) -> str:
    """Compact exact rendering for tables: 37, 47/2, 23/14 + 6/7*sqrt(7)."""
    if v is None:
        return "unparsed"
    v = normalize(v)
    if isinstance(v, int):
        return _int_str(v)
    if isinstance(v, Fraction):
        return _fraction_str(v)
    return str(v)


_quote = json.encoder.encode_basestring_ascii  # the stdlib's C string quoting


def _encoded(values, pad: str) -> list[str]:
    """json.dumps(v, indent=2) of each v in values, nested at pad (a newline
    and the indent of the enclosing line).  Strings and ints, the bulk of
    every document, are written inline, and each container is one join.  A
    list whose items are all str or all int is one map (_column).  Two list
    shapes are one template formatted with one % over all their entries:
    equal-length int rows (graph edges), and records, dicts sharing one key
    order (radical terms, graph vertices), whose keys are quoted once into
    the template and whose columns are each encoded by one _column call."""
    inner = pad + "  "
    out = []
    for v in values:
        if isinstance(v, str):
            out.append(_quote(v))
        elif isinstance(v, int) and not isinstance(v, bool):
            out.append(int.__repr__(v))
        elif isinstance(v, dict):
            if v:
                items = zip(v, _encoded(v.values(), inner))
                body = ("," + inner).join([_quote(k) + ": " + t for k, t in items])
                out.append("{" + inner + body + pad + "}")
            else:
                out.append("{}")
        elif isinstance(v, (list, tuple)):
            if not v:
                out.append("[]")
                continue
            deep = inner + "  "
            if (type(v[0]) in (list, tuple) and {*map(type, v)} <= {list, tuple}
                    and len({*map(len, v)}) == 1 and v[0]
                    and {*map(type, flat := tuple(chain.from_iterable(v)))} == {int}):
                row = "[" + deep + ("," + deep).join(["%d"] * len(v[0])) + inner + "]"
                items = [("," + inner).join([row] * len(v)) % flat]  # one % for all rows
            elif (type(v[0]) is dict and v[0] and {*map(type, v)} == {dict}
                  and len(keys := {*map(tuple, v)}) == 1):
                (names,) = keys
                row = "{" + deep + ("," + deep).join(
                    [_quote(k).replace("%", "%%") + ": %s" for k in names]) + inner + "}"
                columns = [_column(c, deep) for c in zip(*map(dict.values, v))]
                cells = tuple(chain.from_iterable(zip(*columns)))
                items = [("," + inner).join([row] * len(v)) % cells]  # one % for all records
            else:
                items = _column(v, inner)
            out.append("[" + inner + ("," + inner).join(items) + pad + "]")
        else:
            out.append(json.dumps(v))  # bool, None, float; TypeError like json
    return out


def _column(values, pad: str):
    """_encoded(values, pad), as one map when the values are all str or all
    int (exact types, so bool and other subclasses go to _encoded)."""
    kinds = {*map(type, values)}
    if kinds == {str}:
        return map(_quote, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    return _encoded(values, pad)


def _indented_json(doc) -> str:
    """json.dumps(doc, indent=2) plus a newline, byte for byte, for documents
    of dicts with str keys, lists, tuples, str, int, bool, None and float.
    Below Python 3.13 json.dumps runs its pure-Python encoder whenever
    indent is set; this writer takes about half its time on index reports."""
    return _encoded((doc,), "\n")[0] + "\n"


if sys.version_info >= (3, 13):
    # json.dumps uses its C encoder with indent from 3.13 on and beats the
    # writer there; delete _indented_json once requires-python reaches 3.13.
    def json_text(doc) -> str:
        """json.dumps(doc, indent=2) plus a newline."""
        return json.dumps(doc, indent=2) + "\n"
else:
    json_text = _indented_json
