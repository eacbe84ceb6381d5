"""Reference arithmetic for sums of rational multiples of square roots.

A sum  sum_d q_d * sqrt(d)  is written as its canonical terms: a tuple of
(radicand, Fraction) pairs with squarefree radicands in ascending order and
no zero coefficient.  That is the shape of graphlab's RadicalSum.terms, so
the tests compare an engine value with these by .terms (terms_of).

Every operation is the definition, done term by term: a radicand m is split
as c*c*d by a descending search for its largest square divisor (brute_sqf),
c*q is added to the Fraction kept for d, and zero sums are dropped
(reference_terms).  A product multiplies every term of one sum by every term
of the other and writes sqrt(a)*sqrt(b) as sqrt(a*b), split again, not by
the gcd rule the engine uses.  This module imports nothing from graphlab, so
the engine's sqf_decompose and RadicalSum._fold are checked here, not reused;
tests/test_radical_reference.py holds that with ast.
"""

from fractions import Fraction
from functools import cache
from math import isqrt


@cache
def brute_sqf(m: int) -> tuple[int, int]:
    """(c, d) with m = c*c*d and d squarefree, for m >= 1: the largest square
    divisor by descending search.  Fine up to about 10**10."""
    for f in range(isqrt(m), 0, -1):
        if m % (f * f) == 0:
            return f, m // (f * f)
    raise ValueError(f"expected a positive integer, got {m!r}")


def reference_terms(pairs) -> tuple[tuple[int, Fraction], ...]:
    """The canonical terms of the sum of q * sqrt(m) over (m, q) pairs, m >= 1
    and q rational, added as Fractions per squarefree radicand."""
    sums: dict[int, Fraction] = {}
    for m, q in pairs:
        c, d = brute_sqf(m)
        sums[d] = sums.get(d, Fraction(0)) + Fraction(q) * c
    return tuple((d, sums[d]) for d in sorted(sums) if sums[d])


def add(*sums) -> tuple[tuple[int, Fraction], ...]:
    """The terms of the sum of these canonical sums."""
    return reference_terms(t for terms in sums for t in terms)


def scale(terms, s) -> tuple[tuple[int, Fraction], ...]:
    """The terms of s * (the sum), s rational."""
    return reference_terms((d, q * s) for d, q in terms)


def multiply(a, b) -> tuple[tuple[int, Fraction], ...]:
    """The terms of the product of two sums: sqrt(da)*sqrt(db) = sqrt(da*db)."""
    return reference_terms((da * db, qa * qb) for da, qa in a for db, qb in b)


def inv_sqrt(q) -> tuple[tuple[int, Fraction], ...]:
    """The terms of 1/sqrt(q) for rational q > 0: sqrt(a*b)/a for q = a/b."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError(f"expected a positive rational, got {q}")
    return reference_terms([(q.numerator * q.denominator, Fraction(1, q.numerator))])


def terms_of(v) -> tuple[tuple[int, Fraction], ...]:
    """Canonical terms of a value: a terms tuple as it is, the .terms of a
    radical sum (read by attribute, so nothing here names graphlab), and
    ((1, v),) for a nonzero rational, () for 0."""
    if isinstance(v, tuple):
        return v
    if hasattr(v, "terms"):
        return v.terms
    q = Fraction(v)
    return ((1, q),) if q else ()
