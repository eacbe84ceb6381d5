"""Topological indices in exact arithmetic, from one degree profile per graph.

The profile reads only the prime exponents of n: on their lattice vertex 0
(the divisor 1) divides every other vertex, so distinct vertices are at
distance 1 or 2 by construction.  With V vertices, m edges, degrees d_v
summing to S, and F = C(V, 2) - m pairs at distance 2:

* W = m + 2F, WW = m + 3F, H = m + F/2;
* the transmission D_v = 2(V-1) - d_v, so DD = sum d_v * D_v and
  Gut = S**2 - M1 - M2, and Balaban reads D from the edge degree pairs;
* n_u - n_v = d_u - d_v on an edge uv, so Mo = edge sum of |d_u - d_v|;
* r(v) = S - d_v + P/d_v, P the product of all degrees (computed lazily).

Every index is thus exact arithmetic over a Profile, computed once per graph
and cached on it.  The profile lists no vertex or edge: lattice_counts folds
the prime exponents of n one at a time, counting divisor pairs a | b by
(tau(a), tau(n/a), tau(b), tau(n/b)), which fixes both degrees.  On Gamma_k
that is O(k**2) states instead of 3**k edges.  The enumeration definitions
these identities replace are kept as the oracle in tests/index_definitions.py.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, lcm, prod
from typing import Mapping

from .exact import RadicalSum, Value, normalize, sqf_decompose, value_to_json

#: Canonical index names, in report order.
INDEX_NAMES = (
    "wiener",
    "hyper_wiener",
    "harary",
    "zagreb1",
    "zagreb2",
    "degree_distance",
    "gutman",
    "balaban",
    "harmonic",
    "randic",
    "r1",
    "r2",
    "r3",
    "mostar",
)


def _exponent_pairs(e: int) -> list[tuple[int, int, int, int]]:
    """(a+1, e-a+1, b+1, e-b+1) for every 0 <= a <= b <= e: the factors one
    prime adds to (tau(a), tau(n/a), tau(b), tau(n/b))."""
    return [(a + 1, e - a + 1, b + 1, e - b + 1) for b in range(e + 1) for a in range(b + 1)]


def lattice_counts(exponents: tuple[int, ...]) -> tuple[Counter, Counter]:
    """Degree counts {d: vertices} and sorted edge-pair counts
    {(deg u, deg v): edges} of the divisor graph of any n with these prime
    exponents, with no vertex or edge listed.

    Pairs of exponent vectors a <= b are folded one prime at a time, keyed by
    (tau(a), tau(n/a), tau(b), tau(n/b)).  The last (largest) exponent is
    folded straight into the degrees: a divisor has degree
    tau(a) + tau(n/a) - 2, and tau(a) = tau(b) with a | b only when a = b.
    """
    *head, last = sorted(exponents) or [0]
    states = {(1, 1, 1, 1): 1}
    for e in head:
        steps = _exponent_pairs(e)
        folded: dict[tuple[int, int, int, int], int] = {}
        for (x, y, z, w), c in states.items():
            for p, q, r, s in steps:
                key = (x * p, y * q, z * r, w * s)
                folded[key] = folded.get(key, 0) + c
        states = folded
    steps = _exponent_pairs(last)
    degree_counts: Counter = Counter()
    pair_counts: Counter = Counter()
    for (x, y, z, w), c in states.items():
        for p, q, r, s in steps:
            ta, tb = x * p, z * r
            du, dv = ta + y * q - 2, tb + w * s - 2
            if ta == tb:
                degree_counts[du] = degree_counts.get(du, 0) + c
            else:
                key = (du, dv) if du < dv else (dv, du)
                pair_counts[key] = pair_counts.get(key, 0) + c
    return degree_counts, pair_counts


class Profile:
    """Order, size, degree counts, (deg u, deg v) edge-pair counts and the
    degree sum and product of one exponent lattice; every index reads only these."""

    def __init__(self, exponents: tuple[int, ...]):
        self.degree_counts, self.pair_counts = lattice_counts(exponents)
        self.order = sum(self.degree_counts.values())
        self.size = sum(self.pair_counts.values())
        self.far_pairs = comb(self.order, 2) - self.size  # F
        self.degree_sum = sum(d * c for d, c in self.degree_counts.items())
        self.zagreb1 = sum(d * d * c for d, c in self.degree_counts.items())
        self.zagreb2 = sum(a * b * c for (a, b), c in self.pair_counts.items())

    @cached_property
    def degree_product(self) -> int:
        """P; only the R-indices read it."""
        return prod(d**c for d, c in self.degree_counts.items())

    def transmission(self, d: int) -> int:
        """D_v of a vertex of degree d."""
        return 2 * (self.order - 1) - d

    def r(self, d: int) -> int:
        """r(v) = S - d + P/d of a vertex of degree d; d = 0 only on a single
        vertex, where the product of the other degrees is empty."""
        return self.degree_sum - d + (self.degree_product // d if d else 1)


def profile(g) -> Profile:
    """The graph's Profile, computed from g.exponents on first use and cached
    on the graph; a graph without exponents is refused."""
    p = vars(g).get("_profile")
    if p is None:
        if getattr(g, "exponents", None) is None:
            raise ValueError(f"the index profile needs the prime exponents of a divisor "
                             f"lattice; {type(g).__name__} has none")
        p = vars(g)["_profile"] = Profile(g.exponents)
    return p


def _inv_sqrt_sum(pairs: Mapping[tuple[int, int], int], num: int = 1, den: int = 1) -> Value:
    """num/den times the sum of c/sqrt(x*y) over pairs {(x, y): c}.

    Each distinct factor is split once: with x = s*s*d, y = t*t*e (d, e
    squarefree) and g = gcd(d, e), x*y = (s*t*g)**2 * r for the squarefree
    r = (d/g)*(e/g), so c/sqrt(x*y) = c/(s*t*g*r) * sqrt(r).  Terms sharing
    an r are added as integers over the lcm of their denominators, and each
    r gets one Fraction.
    """
    split: dict[int, tuple[int, int]] = {}
    sums: dict[int, tuple[int, int]] = {}  # r -> (numerator, denominator)
    for (x, y), c in pairs.items():
        for f in (x, y):
            if f not in split:
                split[f] = sqf_decompose(f)
        (s, d), (t, e) = split[x], split[y]
        g = gcd(d, e)
        r = (d // g) * (e // g)
        q = s * t * g * r
        if r in sums:
            n0, q0 = sums[r]
            both = lcm(q0, q)
            sums[r] = (n0 * (both // q0) + c * (both // q), both)
        else:
            sums[r] = (c, q)
    return normalize(RadicalSum._canonical(
        {r: Fraction(n * num, q * den) for r, (n, q) in sums.items()}))


def wiener(g) -> Value:
    """Sum of distances over unordered pairs: m + 2F."""
    p = profile(g)
    return p.size + 2 * p.far_pairs


def hyper_wiener(g) -> Value:
    """Half the sum of d + d**2 over unordered pairs: m + 3F."""
    p = profile(g)
    return p.size + 3 * p.far_pairs


def harary(g) -> Value:
    """Sum of reciprocal distances over unordered pairs: m + F/2."""
    p = profile(g)
    return normalize(Fraction(2 * p.size + p.far_pairs, 2))


def zagreb1(g) -> Value:
    """Sum of squared vertex degrees."""
    return profile(g).zagreb1


def zagreb2(g) -> Value:
    """Sum of degree products over edges."""
    return profile(g).zagreb2


def degree_distance(g) -> Value:
    """Sum over unordered pairs of (deg u + deg v) * d(u, v) = sum d_v * D_v."""
    p = profile(g)
    return sum(d * p.transmission(d) * c for d, c in p.degree_counts.items())


def gutman(g) -> Value:
    """Sum over unordered pairs of deg u * deg v * d(u, v) = S**2 - M1 - M2."""
    p = profile(g)
    return p.degree_sum**2 - p.zagreb1 - p.zagreb2


def balaban(g) -> Value:
    """m/(mu+1) times the edge sum of 1/sqrt(D_u * D_v), D = transmission."""
    p = profile(g)
    if p.size == 0:
        return 0
    transmissions = {
        (p.transmission(a), p.transmission(b)): c for (a, b), c in p.pair_counts.items()
    }
    mu = p.size - p.order + 1
    return _inv_sqrt_sum(transmissions, p.size, mu + 1)


def harmonic(g) -> Value:
    """Edge sum of 2/(deg u + deg v), added as integers over the lcm L of the
    distinct degree sums."""
    by_sum: Counter = Counter()
    for (a, b), c in profile(g).pair_counts.items():
        by_sum[a + b] += c
    L = lcm(*by_sum)
    return normalize(Fraction(2 * sum(c * (L // s) for s, c in by_sum.items()), L))


def randic(g) -> Value:
    """Edge sum of 1/sqrt(deg u * deg v)."""
    return _inv_sqrt_sum(profile(g).pair_counts)


def r1(g) -> Value:
    """Vertex sum of r(v)**2."""
    p = profile(g)
    return sum(p.r(d) ** 2 * c for d, c in p.degree_counts.items())


def r2(g) -> Value:
    """Edge sum of r(u) * r(v), with c * r(v) summed per degree of u first so
    there is one large product per distinct degree."""
    p = profile(g)
    r = {d: p.r(d) for d in p.degree_counts}
    partner: Counter = Counter()
    for (a, b), c in p.pair_counts.items():
        partner[a] += c * r[b]
    return sum(r[a] * s for a, s in partner.items())


def r3(g) -> Value:
    """Edge sum of r(u) + r(v) = vertex sum of deg v * r(v)."""
    p = profile(g)
    return sum(d * p.r(d) * c for d, c in p.degree_counts.items())


def mostar(g) -> Value:
    """Edge sum of |n_u - n_v| (closer-vertex counts) = edge sum of |d_u - d_v|."""
    return sum((b - a) * c for (a, b), c in profile(g).pair_counts.items())


_DISPATCH = {name: globals()[name] for name in INDEX_NAMES}


def _index_function(name: str):
    try:
        return _DISPATCH[name]
    except KeyError:
        raise ValueError(
            f"unknown index {name!r}; valid names: {', '.join(INDEX_NAMES)}"
        ) from None


def compute_index(g, name: str) -> Value:
    """One index by name; unknown names raise ValueError listing valid ones."""
    return _index_function(name)(g)


def compute_indices(g, names=None) -> dict[str, Value]:
    """Selected indices (default all) in canonical report order."""
    if names is None:
        names = INDEX_NAMES
    else:
        for n in names:
            _index_function(n)
        names = [n for n in INDEX_NAMES if n in set(names)]
    return {n: _DISPATCH[n](g) for n in names}


def report_dict(g, values: dict[str, Value]) -> dict:
    """IndexReport JSON document."""
    return {
        "graph": g.descriptor(),
        "indices": {name: value_to_json(v) for name, v in values.items()},
    }
