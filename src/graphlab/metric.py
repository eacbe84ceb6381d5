"""The distance matrix of a divisor graph, for the CSV export.

Every graph the package builds follows one distance rule: 0 on the diagonal,
1 between neighbours, 2 otherwise, because vertex 0 (the divisor 1) is
adjacent to every other vertex.  The rule is written once, by digit_rows, as
ASCII digits marked from the graph's unsorted two-way listing (each vertex's
multiples and divisors), so no row is sorted or inverted: the CSV export,
csv_rows, streams them line by line as they are.  Transmissions
(Profile.transmission) and every distance index read the same rule from the
degree profile.  require_universal_vertex is the one check of its condition,
on the degree column the graph reads off its codes; digit_rows calls it and
raises ValueError on a graph it fails.  The index profile does not: it reads
only the exponent lattice, where the condition holds by construction.
Breadth-first search, and the matrix as lists of ints, are the tests'
oracles, in tests/index_definitions.py.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, repeat
from typing import Iterator


def require_universal_vertex(g) -> None:
    """Refuse a graph on which the 0/1/2 distance rule may be wrong: vertex 0
    must be adjacent to every other vertex."""
    if g.order and g.degrees()[0] != g.order - 1:
        raise ValueError(
            f"the 0/1/2 distance rule needs vertex 0 adjacent to every other vertex; "
            f"it is adjacent to {g.degrees()[0]} of {g.order - 1}"
        )


def digit_rows(g) -> Iterator[bytearray]:
    """The 0/1/2 rule, row by row, as ASCII digits: vertex i's row is
    b"2" * V with b"1" at each vertex of g.listing()'s up[i] and down[i]
    (its multiples and divisors, unsorted) and b"0" at i."""
    require_universal_vertex(g)
    twos = b"2" * g.order
    up, down = g.listing()

    def row(i: int) -> bytearray:
        digits = bytearray(twos)
        deque(map(digits.__setitem__, chain(up[i], down[i]), repeat(ord("1"))), 0)
        digits[i] = ord("0")
        return digits

    return map(row, range(g.order))


def csv_rows(g) -> Iterator[str]:
    """The CSV export of the distance matrix in lines: the labels, then each
    row of digit_rows written into the gaps of one comma buffer."""
    rows = digit_rows(g)
    line = bytearray(b"," * (2 * g.order - 1) + b"\n")
    yield ",".join(g.labels()) + "\n"
    for digits in rows:
        line[:-1:2] = digits
        yield line.decode()
