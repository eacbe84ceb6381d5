"""Distances, transmissions, diameter, and Mostar edge counts.

Every graph the package builds follows one distance rule: 0 on the diagonal,
1 between neighbours, 2 otherwise, because vertex 0 (the divisor 1) is
adjacent to every other vertex.  So the transmission of v is 2(V-1) - deg v.
require_universal_vertex is the one check of that condition; everything here
and the index profile call it, and raise ValueError on a graph it fails.
Breadth-first search is not used at run time: it is the tests' oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator


class DisconnectedGraphError(ValueError):
    """Raised when a distance query meets an unreachable vertex pair."""


@dataclass
class DistanceMatrix:
    """Symmetric all-pairs distance matrix in canonical vertex order."""

    labels: list[str]
    rows: list[list[int]]

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def __getitem__(self, i: int) -> list[int]:
        return self.rows[i]

    def to_csv(self) -> str:
        """Header row of vertex labels, then one numeric row per vertex."""
        lines = [",".join(self.labels)]
        lines.extend(",".join(str(d) for d in row) for row in self.rows)
        return "\n".join(lines) + "\n"


def require_universal_vertex(g) -> None:
    """Refuse a graph on which the 0/1/2 distance rule may be wrong: vertex 0
    must be adjacent to every other vertex."""
    if g.order and g.degrees()[0] != g.order - 1:
        raise ValueError(
            f"the 0/1/2 distance rule needs vertex 0 adjacent to every other vertex; "
            f"it is adjacent to {g.degrees()[0]} of {g.order - 1}"
        )


def distance_fast(g, i: int, j: int) -> int:
    """Distance by the rule: 0, 1 if adjacent, else 2."""
    require_universal_vertex(g)
    if i == j:
        return 0
    return 1 if g.adjacent(i, j) else 2


def _rule_row(g, i: int) -> list[int]:
    row = [2] * g.order
    for j in g.neighbors(i):
        row[j] = 1
    row[i] = 0
    return row


def _label_of(g, i: int) -> str:
    try:
        return g.labels()[i]
    except (AttributeError, IndexError):
        return str(i)


def bfs_row(g, source: int) -> list[int]:
    """Distances from one vertex by breadth-first search (any graph shape
    exposing order and neighbors); raises if some vertex is unreachable."""
    dist = [-1] * g.order
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    for w, d in enumerate(dist):
        if d < 0:
            raise DisconnectedGraphError(
                f"no path from {_label_of(g, source)!r} to {_label_of(g, w)!r}"
            )
    return dist


def distance_rows(g) -> Iterator[list[int]]:
    """Stream the distance matrix row by row by the 0/1/2 rule."""
    require_universal_vertex(g)
    return (_rule_row(g, i) for i in range(g.order))


def distance_matrix(g) -> DistanceMatrix:
    """Full matrix via distance_rows."""
    return DistanceMatrix(g.labels(), list(distance_rows(g)))


def distance_matrix_bfs(g) -> DistanceMatrix:
    """Full matrix via the breadth-first oracle only (cross-check path)."""
    return DistanceMatrix(g.labels(), [bfs_row(g, i) for i in range(g.order)])


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


@dataclass
class EdgeCloserCounts:
    """For an edge (u, v): how many vertices sit strictly closer to each end.

    Each endpoint counts itself, so n_u >= 1, n_v >= 1; equidistant vertices
    count for neither side.
    """

    n_u: int
    n_v: int


def mostar_counts(g, edge: tuple[int, int]) -> EdgeCloserCounts:
    """Closer-vertex counts for one edge, from two distance rows."""
    i, j = edge
    if not g.adjacent(i, j):
        raise ValueError(f"({i}, {j}) is not an edge")
    require_universal_vertex(g)
    ri, rj = _rule_row(g, i), _rule_row(g, j)
    n_u = sum(1 for a, b in zip(ri, rj) if a < b)
    n_v = sum(1 for a, b in zip(ri, rj) if b < a)
    return EdgeCloserCounts(n_u, n_v)
