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

from dataclasses import dataclass
from typing import Iterator


@dataclass
class DistanceMatrix:
    """Symmetric all-pairs distance matrix in canonical vertex order."""

    labels: list[str]
    rows: list[list[int]]

    def to_csv(self) -> str:
        """Header row of vertex labels, then one numeric row per vertex.  Digits
        come from a table; any entry outside 0..9 prints every row by str()."""
        try:
            body = [",".join(map(_DIGITS.__getitem__, row)) for row in self.rows]
        except KeyError:
            body = [",".join(map(str, row)) for row in self.rows]
        return "\n".join([",".join(self.labels), *body]) + "\n"


_DIGITS = {d: str(d) for d in range(10)}


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
    for j in g.neighbors(i):
        row[j] = 1
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
