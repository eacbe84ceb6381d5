"""Divisor graphs on squarefree products of k distinct primes, and general ones.

Gamma_k is the graph on all 2**k divisors of n = p_1 * ... * p_k (distinct
primes) with an edge between two divisors exactly when one divides the other.
Divisors are encoded as bitmasks over the prime positions (bit i stands for
p_{i+1}), so divisibility is strict subset containment and nothing about the
structure depends on the actual primes.  The canonical vertex order sorts by
omega (number of prime factors) ascending, then by bitmask ascending.

GeneralDivisorGraph is the same construction on *all* divisors of an
arbitrary n >= 1, in ascending order.  For squarefree n it reproduces
Gamma_{omega(n)} under the map sending a divisor to the set of prime
positions dividing it.

Both graphs carry the exponents of n (all 1 for Gamma_k) and one exponent
vector per vertex, and everything else is read off that lattice: the degree
of a divisor d is tau(d) + tau(n/d) - 2, and the edges are listed as each
vertex's proper multiples, found by adding mixed-radix offsets to its code.
In both canonical orders a divisor comes before its multiples, so listing
the rows in vertex order gives the edges in lexicographic order in O(|E|).

Graphs are immutable after construction; derived data (edges, degrees,
neighbor lists) is computed once and cached, which also keeps them safe to
share across threads.
"""

from __future__ import annotations

from functools import cached_property
from itertools import repeat
from operator import mul

_DEFAULT_MAX_DIVISORS = 4096


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def _comparable(a: int, b: int) -> bool:
    """True when one mask is a strict subset of the other."""
    c = a & b
    return a != b and (c == a or c == b)


class Divisor:
    """One vertex: a subset of prime positions, with its value when a basis is set."""

    __slots__ = ("mask", "k", "value")

    def __init__(self, mask: int, k: int, value: int | None = None):
        self.mask = mask
        self.k = k
        self.value = value

    @property
    def omega(self) -> int:
        """Number of distinct prime factors."""
        return bin(self.mask).count("1")

    @property
    def prime_positions(self) -> tuple[int, ...]:
        """1-based positions of the primes dividing this divisor."""
        return tuple(i + 1 for i in range(self.k) if self.mask >> i & 1)

    @property
    def label(self) -> str:
        """Concrete value if known, else a symbolic product like p1p2."""
        if self.value is not None:
            return str(self.value)
        if self.mask == 0:
            return "1"
        return "".join(f"p{i}" for i in self.prime_positions)

    def __repr__(self) -> str:
        return f"Divisor({self.label})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Divisor):
            return (self.mask, self.k, self.value) == (other.mask, other.k, other.value)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.mask, self.k, self.value))


class _GraphBase:
    """Shared lattice data and caching for the undirected graphs below;
    subclasses set exponents (of n) and vectors (one exponent vector per
    vertex, in canonical order) and define adjacent(i, j) and labels()."""

    exponents: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.vectors)

    def adjacent(self, i: int, j: int) -> bool:
        raise NotImplementedError

    def labels(self) -> list[str]:
        raise NotImplementedError

    @cached_property
    def _edges(self) -> tuple[tuple[int, int], ...]:
        radix, r = [], 1
        for e in self.exponents:
            radix.append(r)
            r *= e + 1
        codes = [sum(map(mul, v, radix)) for v in self.vectors]
        index = [0] * self.order
        for i, c in enumerate(codes):
            index[c] = i
        edges: list[tuple[int, int]] = []
        for i, v in enumerate(self.vectors):
            multiples = [codes[i]]
            for a, e, w in zip(v, self.exponents, radix):
                if a < e:
                    multiples = [c + t * w for t in range(e - a + 1) for c in multiples]
            # multiples[0] is vertex i itself; its proper multiples all come
            # later in the canonical order, so i sorts first and is dropped.
            row = sorted([index[c] for c in multiples])
            edges.extend(zip(repeat(i), row[1:]))
        return tuple(edges)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (i, j) with i < j, in canonical (lexicographic) order:
        row i lists the proper multiples of vertex i."""
        return self._edges

    def size(self) -> int:
        return sum(self.degrees()) // 2

    def degree(self, i: int) -> int:
        return self.degrees()[i]

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        degrees = []
        for v in self.vectors:
            tau = cotau = 1
            for a, e in zip(v, self.exponents):
                tau *= a + 1
                cotau *= e - a + 1
            degrees.append(tau + cotau - 2)
        return tuple(degrees)

    def degrees(self) -> tuple[int, ...]:
        """Degrees in canonical vertex order: tau(d) + tau(n/d) - 2."""
        return self._degrees

    @cached_property
    def _neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.order)]
        for i, j in self.edges():
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(a) for a in adj)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors[i]


class DprimeGraph(_GraphBase):
    """Gamma_k on the divisors of a product of k distinct primes."""

    def __init__(self, k: int, basis: tuple[int, ...] | None = None):
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        if basis is not None:
            basis = tuple(basis)
            if len(basis) != k:
                raise ValueError(f"basis has {len(basis)} entries, expected {k}")
            if len(set(basis)) != len(basis):
                raise ValueError(f"basis primes must be distinct: {basis}")
            for p in basis:
                if not _is_prime(p):
                    raise ValueError(f"basis entry {p} is not prime")
        self.k = k
        self.basis = basis
        masks = sorted(range(1 << k), key=lambda m: (bin(m).count("1"), m))
        self._masks = tuple(masks)
        if basis is None:
            self.vertices = tuple(Divisor(m, k) for m in masks)
        else:
            self.vertices = tuple(
                Divisor(m, k, _mask_value(m, basis)) for m in masks
            )
        self._index_of_mask = {m: i for i, m in enumerate(masks)}
        self.exponents = (1,) * k
        by_mask = [()]
        for _ in range(k):
            by_mask = [v + (0,) for v in by_mask] + [v + (1,) for v in by_mask]
        self.vectors = tuple(by_mask[m] for m in masks)

    def mask(self, i: int) -> int:
        return self._masks[i]

    def masks(self) -> tuple[int, ...]:
        """Vertex bitmasks in canonical order."""
        return self._masks

    def index_of_mask(self, mask: int) -> int:
        return self._index_of_mask[mask]

    def omega(self, i: int) -> int:
        return bin(self._masks[i]).count("1")

    def adjacent(self, i: int, j: int) -> bool:
        """Edge exactly when one divisor strictly divides the other."""
        return _comparable(self._masks[i], self._masks[j])

    def labels(self) -> list[str]:
        return [v.label for v in self.vertices]

    def to_json_dict(self) -> dict:
        doc: dict = {"k": self.k}
        if self.basis is not None:
            doc["primes"] = list(self.basis)
        doc["vertices"] = [
            {"subset": list(v.prime_positions), "omega": v.omega}
            | ({"value": v.value} if v.value is not None else {})
            for v in self.vertices
        ]
        doc["edges"] = [list(e) for e in self.edges()]
        return doc

    def to_dot(self) -> str:
        return _dot(f"gamma_{self.k}", self.labels(), self.edges())

    def __repr__(self) -> str:
        basis = f", basis={self.basis}" if self.basis else ""
        return f"DprimeGraph(k={self.k}{basis})"


def _mask_value(mask: int, basis: tuple[int, ...]) -> int:
    v = 1
    for i, p in enumerate(basis):
        if mask >> i & 1:
            v *= p
    return v


class GeneralDivisorGraph(_GraphBase):
    """Divisor graph of an arbitrary n >= 1: all divisors, edges by divisibility."""

    def __init__(self, n: int, max_divisors: int = _DEFAULT_MAX_DIVISORS):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.factorization = _factorize(n)
        count = 1
        for _, e in self.factorization:
            count *= e + 1
        if count > max_divisors:
            raise ValueError(
                f"n={n} has {count} divisors, above the cap of {max_divisors}"
            )
        self.exponents = tuple(e for _, e in self.factorization)
        by_value = sorted(_divisors_of(self.factorization))
        self.divisors = tuple(d for d, _ in by_value)
        self.vectors = tuple(v for _, v in by_value)
        self._index = {d: i for i, d in enumerate(self.divisors)}

    def adjacent(self, i: int, j: int) -> bool:
        a, b = self.divisors[i], self.divisors[j]
        return a != b and (b % a == 0 or a % b == 0)

    def omega(self, i: int) -> int:
        d = self.divisors[i]
        return sum(1 for p, _ in self.factorization if d % p == 0)

    def prime_index_mask(self, i: int) -> int:
        """Bitmask over the distinct primes of n that divide divisor i."""
        d = self.divisors[i]
        mask = 0
        for pos, (p, _) in enumerate(self.factorization):
            if d % p == 0:
                mask |= 1 << pos
        return mask

    def index_of(self, divisor: int) -> int:
        return self._index[divisor]

    def labels(self) -> list[str]:
        return [str(d) for d in self.divisors]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "vertices": [
                {"value": d, "omega": self.omega(i)} for i, d in enumerate(self.divisors)
            ],
            "edges": [list(e) for e in self.edges()],
        }

    def to_dot(self) -> str:
        return _dot(f"divisors_{self.n}", self.labels(), self.edges())

    def __repr__(self) -> str:
        return f"GeneralDivisorGraph(n={self.n})"


def _factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    out = []
    rem = n
    f = 2
    while f * f <= rem:
        if rem % f == 0:
            e = 0
            while rem % f == 0:
                rem //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if rem > 1:
        out.append((rem, 1))
    return tuple(out)


def _divisors_of(factorization: tuple[tuple[int, int], ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Every divisor with its exponent vector, as (d, (a_1, ...))."""
    divs = [(1, ())]
    for p, e in factorization:
        divs = [(d * p**i, v + (i,)) for d, v in divs for i in range(e + 1)]
    return divs


def _dot(name: str, labels: list[str], edges: tuple[tuple[int, int], ...]) -> str:
    lines = [f"graph {name} {{"]
    for i, label in enumerate(labels):
        lines.append(f'  v{i} [label="{label}"];')
    for i, j in edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def build_gamma(k: int, basis: tuple[int, ...] | None = None) -> DprimeGraph:
    """Gamma_k, optionally realized on k explicit distinct primes."""
    return DprimeGraph(k, basis)


def build_general(n: int, max_divisors: int = _DEFAULT_MAX_DIVISORS) -> GeneralDivisorGraph:
    """Divisor graph of n; refuses n with more than max_divisors divisors."""
    return GeneralDivisorGraph(n, max_divisors)
