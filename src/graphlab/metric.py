"""Distances, transmissions and diameter.

Every graph the package builds follows one distance rule: 0 on the diagonal,
1 between neighbours, 2 otherwise, because vertex 0 (the divisor 1) is
adjacent to every other vertex.  So the transmission of v is 2(V-1) - deg v.
The rule is written once, by digit_rows, as ASCII digits: the CSV export
writes them as they are, and distance_rows reads them as ints.
require_universal_vertex is the one check of that condition; every function
here calls it, and raises ValueError on a graph it fails.  The index profile
does not: it reads only the exponent lattice, where the condition holds by
construction.
Breadth-first search is not used: it is the tests' oracle, in
tests/index_definitions.py.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator


@dataclass
class DistanceMatrix:
    """Symmetric all-pairs distance matrix in canonical vertex order."""

    labels: list[str]
    rows: list[list[int]]

    def to_csv(self) -> str:
        """Header row of vertex labels, then one row of entries per vertex."""
        return "".join(",".join(map(str, row)) + "\n" for row in [self.labels, *self.rows])


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
    b"2" * V with b"1" at neighbors(i) and b"0" at i."""
    require_universal_vertex(g)
    twos = b"2" * g.order

    def row(i: int) -> bytearray:
        digits = bytearray(twos)
        deque(map(digits.__setitem__, g.neighbors(i), repeat(ord("1"))), 0)
        digits[i] = ord("0")
        return digits

    return map(row, range(g.order))


_DISTANCES = bytes.maketrans(b"012", bytes((0, 1, 2)))


def distance_rows(g) -> Iterator[list[int]]:
    """Stream the distance matrix row by row: digit_rows as ints."""
    return (list(row.translate(_DISTANCES)) for row in digit_rows(g))


def distance_matrix(g) -> DistanceMatrix:
    """Full matrix via distance_rows."""
    return DistanceMatrix(g.labels(), list(distance_rows(g)))


def transmissions(g) -> list[int]:
    require_universal_vertex(g)
    return [2 * (g.order - 1) - d for d in g.degrees()]


def diameter(g) -> int:
    """Largest distance over all pairs: 2 unless the graph is complete."""
    require_universal_vertex(g)
    if g.order < 2:
        return 0
    return 1 if 2 * g.size() == g.order * (g.order - 1) else 2
