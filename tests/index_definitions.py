"""Definition-level reference for the fourteen indices, for the tests.

Every value is enumerated from its definition: edges and degrees by testing
every vertex pair (adjacent: one exponent vector is coordinatewise <= the
other), pair sums over breadth-first distance rows, Balaban from
breadth-first transmissions, Mostar from closer-vertex counts read off two
rows per edge (by popcounts of each row's level sets), and r-values from the product of the other degrees of each
vertex.  No index value here uses the lattice edge listing, the closed-form
degrees, the diameter-2 identities or the degree profile of graphlab, so the
two can be compared on any connected graph.  Randic and Balaban are the
canonical terms of the reference arithmetic in radical_reference, which
imports nothing from graphlab; comparable puts engine values and these side
by side, radical indices by their terms and the rest by their JSON.

The breadth-first distance engine (bfs_row, distance_matrix_bfs: level by
level over int bitmasks of the frontier and of each vertex's neighbours),
the one-pair distance rule (distance_fast) and per-edge Mostar counts
(mostar_counts) live here as well: graphlab computes none of them at run
time, and the tests check its 0/1/2 rule and profile against them.
value_to_json builds a value's JSON document as a dict and report_dict the
index report from it: the references for the text that exact.value_text and
indices.report_text write.  graph_dict is the graph export as a dict, with
the edges as lists, the reference for the text "".join(g.json_rows())
writes; labels_reference and dot_reference write the labels from the
exponent vectors and the DOT export from the pair scan.  degrees_reference,
omegas_reference and subsets_reference read the degrees, the omega of each
vertex and the JSON subset texts off the exponent vectors, as graphlab did
before it read them off per-code columns.

What graphlab keeps one path for, these keep as references beside it:
vectors (the codes decoded over the exponents), adjacent (the one-pair
test), neighbors (sorted from the listing), edges (pairs from multiples())
and DistanceMatrix with distance_matrix (the 0/1/2 rows of metric.digit_rows
as ints).
"""

from collections import Counter
from dataclasses import dataclass
from itertools import combinations, compress, count
from fractions import Fraction
from math import prod
from typing import NamedTuple
from weakref import WeakKeyDictionary

from graphlab.exact import _int_str, normalize, to_decimal
from graphlab.metric import digit_rows, require_universal_vertex
from radical_reference import reference_terms, scale, terms_of

#: The indices whose values are sums of square roots.
RADICAL_INDICES = ("balaban", "randic")


class DisconnectedGraphError(ValueError):
    """Raised when a distance query meets an unreachable vertex pair."""


def _label_of(g, i: int) -> str:
    try:
        return g.labels()[i]
    except (AttributeError, IndexError):
        return str(i)


class DistanceMatrix(NamedTuple):
    """Symmetric all-pairs distance matrix in canonical vertex order."""

    labels: list[str]
    rows: list[list[int]]

    def to_csv(self) -> str:
        """Header row of vertex labels, then one row of entries per vertex."""
        return "".join(",".join(map(str, row)) + "\n" for row in [self.labels, *self.rows])


def distance_matrix(g) -> DistanceMatrix:
    """The matrix of graphlab's 0/1/2 rule: metric.digit_rows read as ints."""
    return DistanceMatrix(g.labels(), [list(map(int, row.decode())) for row in digit_rows(g)])


def _vector(g, code: int) -> tuple[int, ...]:
    digits = []
    for e in g.exponents:
        code, a = divmod(code, e + 1)
        digits.append(a)
    return tuple(digits)


def vectors(g) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors in canonical order: each code decoded over the
    exponents, first prime the lowest digit."""
    return tuple(_vector(g, c) for c in g._codes)


def _comparable(a, b) -> bool:
    return a != b and (all(map(int.__le__, a, b)) or all(map(int.__le__, b, a)))


def adjacent(g, i: int, j: int) -> bool:
    """Edge exactly when one divisor strictly divides the other."""
    return _comparable(_vector(g, g._codes[i]), _vector(g, g._codes[j]))


def neighbors(g, i: int) -> tuple[int, ...]:
    """Vertex i's proper divisors, then its proper multiples, in ascending
    order, from g.listing() (i sorts last in down and first in up)."""
    up, down = g.listing()
    return tuple(sorted(down[i])[:-1] + sorted(up[i])[1:])


def edges(g) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, in lexicographic order: pairs from g.multiples()."""
    return [(i, j) for i, row in enumerate(g.multiples()) for j in row]


def masks(g) -> tuple[int, ...]:
    """Per vertex of g, the bitmask of the prime positions dividing it (bit i
    for the (i+1)-th prime), in canonical order."""
    return tuple(sum(1 << p for p, a in enumerate(v) if a) for v in vectors(g))


#: Per graph, the bitmask of each vertex's neighbours, built on the first
#: breadth-first row and dropped with the graph.
_NEIGHBOUR_MASKS: WeakKeyDictionary = WeakKeyDictionary()


def _neighbour_masks(g) -> list[int]:
    """Per vertex of g, the bitmask of its neighbours (bit w for vertex w),
    from g.neighbors when g has it (a stub or _ScannedGraph), else from
    neighbors(g, u); built once per graph."""
    adj = _NEIGHBOUR_MASKS.get(g)
    if adj is None:
        step = g.neighbors if hasattr(g, "neighbors") else lambda u: neighbors(g, u)
        adj = _NEIGHBOUR_MASKS[g] = [sum(1 << w for w in step(u)) for u in range(g.order)]
    return adj


def _bits(mask: int):
    """The positions of the set bits of mask, ascending."""
    return compress(count(), map("1".__eq__, bin(mask)[:1:-1]))


def bfs_row(g, source: int) -> list[int]:
    """Distances from one vertex by breadth-first search (a divisor graph, or a
    stub exposing order and neighbors), level by level: the frontier is the
    bitmask of the vertices first reached at the current distance, and the
    next one is the union of their neighbour masks less every vertex seen.
    Raises if some vertex is unreachable."""
    adj = _neighbour_masks(g)
    dist = [-1] * g.order
    frontier = seen = 1 << source
    d = 0
    while frontier:
        reached = 0
        for u in _bits(frontier):
            dist[u] = d
            reached |= adj[u]
        frontier = reached & ~seen
        seen |= frontier
        d += 1
    for w, d in enumerate(dist):
        if d < 0:
            raise DisconnectedGraphError(
                f"no path from {_label_of(g, source)!r} to {_label_of(g, w)!r}"
            )
    return dist


def distance_matrix_bfs(g) -> DistanceMatrix:
    """Full matrix by breadth-first search from every vertex."""
    return DistanceMatrix(g.labels(), [bfs_row(g, i) for i in range(g.order)])


def distance_fast(g, i: int, j: int) -> int:
    """Distance by the rule: 0, 1 if adjacent, else 2."""
    require_universal_vertex(g)
    if i == j:
        return 0
    return 1 if adjacent(g, i, j) else 2


@dataclass
class EdgeCloserCounts:
    """For an edge (u, v): how many vertices sit strictly closer to each end.

    Each endpoint counts itself, so n_u >= 1, n_v >= 1; equidistant vertices
    count for neither side.
    """

    n_u: int
    n_v: int


def mostar_counts(g, edge: tuple[int, int]) -> EdgeCloserCounts:
    """Closer-vertex counts for one edge, from two breadth-first rows; refuses
    a graph that the 0/1/2 rule refuses."""
    i, j = edge
    require_universal_vertex(g)
    if not adjacent(g, i, j):
        raise ValueError(f"({i}, {j}) is not an edge")
    ri, rj = bfs_row(g, i), bfs_row(g, j)
    n_u = sum(1 for a, b in zip(ri, rj) if a < b)
    n_v = sum(1 for a, b in zip(ri, rj) if b < a)
    return EdgeCloserCounts(n_u, n_v)


def _level_sets(row: list[int]) -> list[int]:
    """Per distance d, the bitmask of the vertices at distance d in a
    breadth-first row."""
    sets = [0] * (max(row) + 1)
    for w, d in enumerate(row):
        sets[d] |= 1 << w
    return sets


def _closer(near: list[int], far: list[int]) -> int:
    """How many vertices are closer to the source of the row with level sets
    near than to that of far: the vertices at distance d from the first and
    e > d from the second, counted by popcounts of level-set intersections."""
    count = below = 0  # below: the vertices within distance e - 1 of near's source
    for e, mask in enumerate(far):
        count += (mask & below).bit_count()
        if e < len(near):
            below |= near[e]
    return count


def _inv_sqrt_sum(counts):
    """The terms of the sum of c/sqrt(q) = (c/q)*sqrt(q) over {q: c}."""
    return reference_terms((q, Fraction(c, q)) for q, c in counts.items())


def edges_and_degrees(g):
    """Edges (i < j, lexicographic) and degrees by testing every vertex pair."""
    deg = [0] * g.order
    edges = []
    v = vectors(g)
    for i, j in combinations(range(g.order), 2):
        if _comparable(v[i], v[j]):
            edges.append((i, j))
            deg[i] += 1
            deg[j] += 1
    return tuple(edges), tuple(deg)


class _ScannedGraph:
    """Order and neighbour lists from edges_and_degrees, for bfs_row."""

    def __init__(self, order, edges):
        self.order = order
        self._adj = [[] for _ in range(order)]
        for i, j in edges:
            self._adj[i].append(j)
            self._adj[j].append(i)

    def neighbors(self, i):
        return self._adj[i]


def reference_indices(g) -> dict:
    """All fourteen indices of g by enumeration, keyed by index name: Randic
    and Balaban as canonical terms (radical_reference), the others as ints
    and Fractions.  Harary and harmonic count pairs per distance and edges
    per degree sum as integers, then add one Fraction per class."""
    edges, deg = edges_and_degrees(g)
    scanned = _ScannedGraph(g.order, edges)
    rows = [bfs_row(scanned, i) for i in range(g.order)]
    pairs = [(i, j, rows[i][j]) for i in range(g.order) for j in range(i + 1, g.order)]
    m = len(edges)
    tr = [sum(row) for row in rows]
    r = [sum(deg) - deg[i] + prod(deg[j] for j in range(g.order) if j != i)
         for i in range(g.order)]
    balaban = ()
    if m:
        mu = m - g.order + 1
        balaban = scale(_inv_sqrt_sum(Counter(tr[i] * tr[j] for i, j in edges)), Fraction(m, mu + 1))
    mostar = 0
    levels = [_level_sets(row) for row in rows]
    for i, j in edges:
        mostar += abs(_closer(levels[i], levels[j]) - _closer(levels[j], levels[i]))
    by_distance = Counter(d for _, _, d in pairs)
    by_degree_sum = Counter(deg[i] + deg[j] for i, j in edges)
    values = {
        "wiener": sum(d for _, _, d in pairs),
        "hyper_wiener": Fraction(sum(d + d * d for _, _, d in pairs), 2),
        "harary": sum((Fraction(c, d) for d, c in by_distance.items()), Fraction(0)),
        "zagreb1": sum(d * d for d in deg),
        "zagreb2": sum(deg[i] * deg[j] for i, j in edges),
        "degree_distance": sum((deg[i] + deg[j]) * d for i, j, d in pairs),
        "gutman": sum(deg[i] * deg[j] * d for i, j, d in pairs),
        "balaban": balaban,
        "harmonic": sum((Fraction(2 * c, s) for s, c in by_degree_sum.items()), Fraction(0)),
        "randic": _inv_sqrt_sum(Counter(deg[i] * deg[j] for i, j in edges)),
        "r1": sum(x * x for x in r),
        "r2": sum(r[i] * r[j] for i, j in edges),
        "r3": sum(r[i] + r[j] for i, j in edges),
        "mostar": mostar,
    }
    return {name: v if name in RADICAL_INDICES else normalize(v) for name, v in values.items()}


def comparable(values: dict) -> dict:
    """Index values keyed by name, engine or reference alike, as the tests
    compare them: Randic and Balaban by their canonical terms, every other
    index by its JSON document."""
    return {name: terms_of(v) if name in RADICAL_INDICES else value_to_json(v)
            for name, v in values.items()}


def value_to_json(v) -> dict | None:
    """A value's JSON document; None passes through (unparsed claims).  Ints
    are decimal strings, except each radicand, and a radical's approx is
    to_decimal at six places."""
    if v is None:
        return None
    v = normalize(v)
    if isinstance(v, int):
        return {"kind": "integer", "value": _int_str(v)}
    if isinstance(v, Fraction):
        return {"kind": "rational", "num": _int_str(v.numerator), "den": _int_str(v.denominator)}
    return {
        "kind": "radical",
        "terms": [{"num": _int_str(q.numerator), "den": _int_str(q.denominator), "radicand": d}
                  for d, q in v.terms],
        "approx": to_decimal(v, 6),
    }


def report_dict(g, values: dict) -> dict:
    """The IndexReport JSON document of these values, as a dict."""
    return {
        "graph": g.descriptor(),
        "indices": {name: value_to_json(v) for name, v in values.items()},
    }


class Path3:
    """Stub graph: the path 0-1-2.  It has diameter 2, but vertex 0 is not
    adjacent to vertex 2, so the 0/1/2 distance rule must refuse it."""

    order = 3

    def degrees(self):
        return (1, 2, 1)

    def neighbors(self, i):
        return {0: (1,), 1: (0, 2), 2: (1,)}[i]

    def labels(self):
        return ["a", "b", "c"]


def graph_dict(g) -> dict:
    """The JSON export of g as a plain dict: the descriptor less its family,
    one record per vertex, and the edges as [i, j] lists from edges(g)."""
    doc = g.descriptor()
    del doc["family"]
    if g.gamma:
        doc["vertices"] = [{"subset": [p + 1 for p, a in enumerate(v) if a], "omega": sum(v)}
                           for v in vectors(g)]
        if g.primes is not None:
            for vertex, d in zip(doc["vertices"], g.divisors):
                vertex["value"] = d
    else:
        doc["vertices"] = [{"value": d, "omega": sum(map(bool, v))}
                           for d, v in zip(g.divisors, vectors(g))]
    doc["edges"] = [[i, j] for i, j in edges(g)]
    return doc


def labels_reference(g) -> list[str]:
    """Per vertex, the product of its prime powers, or of the names p1..pk of
    its primes on a symbolic Gamma_k ("1" for the empty product)."""
    if g.primes is None:
        return ["".join(f"p{p + 1}" for p, a in enumerate(v) if a) or "1" for v in vectors(g)]
    return [_int_str(prod(p**a for p, a in zip(g.primes, v))) for v in vectors(g)]


def dot_reference(g) -> str:
    """The DOT export: a line per vertex with its label, then a line per edge
    of the pair scan (edges_and_degrees), in lexicographic order."""
    doc = g.descriptor()
    name = f"gamma_{doc['k']}" if g.gamma else f"divisors_{_int_str(doc['n'])}"
    lines = [f"graph {name} {{"]
    lines += [f'  v{i} [label="{label}"];' for i, label in enumerate(labels_reference(g))]
    lines += [f"  v{i} -- v{j};" for i, j in edges_and_degrees(g)[0]]
    return "\n".join(lines + ["}"]) + "\n"


def degrees_reference(g) -> tuple[int, ...]:
    """tau(d) + tau(n/d) - 2 per vertex, from its exponent vector."""
    degrees = []
    for v in vectors(g):
        tau = cotau = 1
        for a, e in zip(v, g.exponents):
            tau *= a + 1
            cotau *= e - a + 1
        degrees.append(tau + cotau - 2)
    return tuple(degrees)


def omegas_reference(g) -> tuple[int, ...]:
    """The number of nonzero entries of each exponent vector."""
    return tuple(len(g.exponents) - v.count(0) for v in vectors(g))


def subsets_reference(g) -> list[str]:
    """The "subset" text of each vertex record of a Gamma_k JSON export: the
    numbers of the primes in its exponent vector, one per line at the
    record's indent, or [] for the divisor 1."""
    numbers = [f"\n        {p}" for p in range(1, len(g.exponents) + 1)]
    return [f"[{','.join(compress(numbers, v))}\n      ]" if any(v) else "[]" for v in vectors(g)]
