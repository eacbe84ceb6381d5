"""Distances, transmissions and diameter.

Every graph the package builds follows one distance rule: 0 on the diagonal,
1 between neighbours, 2 otherwise, because vertex 0 (the divisor 1) is
adjacent to every other vertex.  So the transmission of v is 2(V-1) - deg v.
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
        """Header row of vertex labels, then one numeric row per vertex.  A row
        of single digits as long as the header is translated to ASCII digits and
        written between the commas of one buffer; any other row prints by str()."""
        line = bytearray(b"," * (2 * len(self.labels) - 1) + b"\n")
        body = []
        for row in self.rows:
            try:
                digits = bytes(row).translate(_DIGITS)
            except (TypeError, ValueError):  # an entry that is not an int in 0..255
                digits = b""
            if digits.isdigit() and len(digits) == len(self.labels):
                line[:-1:2] = digits
                body.append(line.decode())
            else:
                body.append(",".join(map(str, row)) + "\n")
        return ",".join(self.labels) + "\n" + "".join(body)


_DIGITS = b"0123456789".ljust(256)  # bytes 10..255 become spaces, which fail isdigit()


def require_universal_vertex(g) -> None:
    """Refuse a graph on which the 0/1/2 distance rule may be wrong: vertex 0
    must be adjacent to every other vertex."""
    if g.order and g.degrees()[0] != g.order - 1:
        raise ValueError(
            f"the 0/1/2 distance rule needs vertex 0 adjacent to every other vertex; "
            f"it is adjacent to {g.degrees()[0]} of {g.order - 1}"
        )


def _rule_row(g, i: int) -> list[int]:
    row = [2] * g.order
    deque(map(row.__setitem__, g.neighbors(i), repeat(1)), 0)
    row[i] = 0
    return row


def distance_rows(g) -> Iterator[list[int]]:
    """Stream the distance matrix row by row by the 0/1/2 rule."""
    require_universal_vertex(g)
    return (_rule_row(g, i) for i in range(g.order))


def distance_matrix(g) -> DistanceMatrix:
    """Full matrix via distance_rows."""
    return DistanceMatrix(g.labels(), list(distance_rows(g)))


def transmission(g, i: int) -> int:
    """Sum of distances from vertex i to every vertex: 2(V-1) - deg i."""
    require_universal_vertex(g)
    return 2 * (g.order - 1) - g.degrees()[i]


def transmissions(g) -> list[int]:
    require_universal_vertex(g)
    return [2 * (g.order - 1) - d for d in g.degrees()]


def diameter(g) -> int:
    """Largest distance over all pairs: 2 unless the graph is complete."""
    require_universal_vertex(g)
    if g.order < 2:
        return 0
    return 1 if 2 * g.size() == g.order * (g.order - 1) else 2
