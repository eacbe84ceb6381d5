"""Divisor graphs: the divisibility order on the exponent lattice of n.

The divisor graph of n >= 1 has every divisor of n as a vertex and an edge
between two divisors exactly when one strictly divides the other.  A divisor
is its exponent vector over the primes of n, so divisibility is coordinatewise
<= and nothing about the structure depends on the primes themselves.

Gamma_k, the graph on the 2**k divisors of n = p_1 * ... * p_k (distinct
primes), is the divisor graph of a squarefree n with k prime factors.  Its
primes may stay symbolic (labels like p1p2), and its canonical vertex order
sorts by omega (number of prime factors), then by bitmask, bit i standing for
p_{i+1}.  Any other divisor graph lists its divisors in ascending order.

Everything is read off the lattice: the degree of a divisor d is
tau(d) + tau(n/d) - 2, |E| is prod C(e+2, 2) - prod (e+1), and the edges are
listed once, as multiples(): per mixed-radix code, a list of vertex indices is
extended prime by prime by the list one digit above it, so it ends holding
every multiple, and each row is that list sorted.  A divisor precedes its
multiples in both orders, so the rows list the edges in lexicographic order.

A graph is immutable.  Only its exponents, primes and order are set at
construction; vectors, rows of multiples, degrees and neighbor lists are
computed on first use and cached, which keeps them safe to share across threads.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import comb, prod
from operator import mul

from .exact import _int_str, factorize, is_prime

_DEFAULT_MAX_DIVISORS = 4096
#: build_general trial-divides n only up to this bound (about 0.1 s).
_TRIAL_BOUND = 10**6


class DivisorGraph:
    """Divisor graph of the n with these prime exponents; gamma marks Gamma_k,
    whose primes may be None (symbolic)."""

    def __init__(self, exponents: tuple[int, ...], primes: tuple[int, ...] | None,
                 gamma: bool = False):
        self.exponents = exponents
        self.primes = primes
        self.gamma = gamma
        self.order = prod(e + 1 for e in exponents)

    @cached_property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """Exponent vectors in canonical order.  They are generated in
        mixed-radix code order, which on Gamma_k is mask order, then sorted
        stably by omega on Gamma_k and by divisor value otherwise."""
        vectors = [()]
        for e in self.exponents:
            vectors = [v + (a,) for a in range(e + 1) for v in vectors]
        if self.gamma:
            return tuple(sorted(vectors, key=sum))
        return tuple(sorted(vectors, key=self._value))

    def _value(self, v: tuple[int, ...]) -> int:
        return prod(map(pow, self.primes, v))

    @cached_property
    def divisors(self) -> tuple[int, ...]:
        """Divisor values in canonical order (needs the primes)."""
        return tuple(map(self._value, self.vectors))

    def adjacent(self, i: int, j: int) -> bool:
        """Edge exactly when one divisor strictly divides the other."""
        a, b = self.vectors[i], self.vectors[j]
        return a != b and (all(map(int.__le__, a, b)) or all(map(int.__le__, b, a)))

    def omega(self, i: int) -> int:
        """Number of distinct prime factors of vertex i."""
        return len(self.exponents) - self.vectors[i].count(0)

    def labels(self) -> list[str]:
        """Divisor values when the primes are known, else products like p1p2."""
        if self.primes is not None:
            return list(map(_int_str, self.divisors))
        return ["".join(f"p{p + 1}" for p, a in enumerate(v) if a) or "1"
                for v in self.vectors]

    def descriptor(self) -> dict:
        """Stable JSON identification: the family, then k and any primes of
        Gamma_k, or n."""
        if not self.gamma:
            return {"family": "divisor", "n": self._value(self.exponents)}
        doc: dict = {"family": "gamma", "k": len(self.exponents)}
        if self.primes is not None:
            doc["primes"] = list(self.primes)
        return doc

    @cached_property
    def _multiples(self) -> tuple[tuple[int, ...], ...]:
        radix = list(accumulate((e + 1 for e in self.exponents[:-1]), mul, initial=1))
        codes = [sum(map(mul, v, radix)) for v in self.vectors]
        # up[c]: the vertices whose codes are multiples of code c, built prime
        # by prime.  Codes go downwards, so up[c + w] already holds this prime.
        up = [[] for _ in codes]
        for i, c in enumerate(codes):
            up[c].append(i)
        for e, w in zip(self.exponents, radix):
            for c in range(self.order - 1 - w, -1, -1):
                if c // w % (e + 1) < e:
                    up[c] += up[c + w]
        # A vertex precedes its multiples in the canonical order: drop it.
        return tuple(tuple(sorted(up[c])[1:]) for c in codes)

    def multiples(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, its proper multiples in ascending order: row i holds the edges (i, j > i)."""
        return self._multiples

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (i, j) with i < j, in canonical (lexicographic) order:
        the rows of multiples(), one pair per entry."""
        return tuple(chain.from_iterable(map(zip, map(repeat, range(self.order)), self.multiples())))

    def size(self) -> int:
        """Comparable pairs a <= b per prime, less the pairs a == b: no edge is listed."""
        return prod(comb(e + 2, 2) for e in self.exponents) - self.order

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
        # Vertex j's proper divisors are the rows holding j, met in ascending order.
        rows = self.multiples()
        below: list[list[int]] = [[] for _ in rows]
        deque(map(list.append, map(below.__getitem__, chain.from_iterable(rows)),
                  chain.from_iterable(map(repeat, range(self.order), map(len, rows)))), 0)
        return tuple(tuple(b) + row for b, row in zip(below, rows))

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self._neighbors[i]

    def to_json_dict(self) -> dict:
        doc = self.descriptor()
        del doc["family"]
        if self.gamma:
            doc["vertices"] = [{"subset": [p + 1 for p, a in enumerate(v) if a], "omega": sum(v)}
                               for v in self.vectors]
            if self.primes is not None:
                for vertex, d in zip(doc["vertices"], self.divisors):
                    vertex["value"] = d
        else:
            doc["vertices"] = [{"value": d, "omega": self.omega(i)}
                               for i, d in enumerate(self.divisors)]
        doc["edges"] = list(map(list, self.edges()))
        return doc

    def to_dot(self) -> str:
        doc = self.descriptor()
        name = f"gamma_{doc['k']}" if self.gamma else f"divisors_{_int_str(doc['n'])}"
        lines = [f"graph {name} {{"]
        lines.extend(f'  v{i} [label="{label}"];' for i, label in enumerate(self.labels()))
        lines.extend(f"  v{i} -- v" + f";\n  v{i} -- v".join(map(str, row)) + ";"
                     for i, row in enumerate(self.multiples()) if row)
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        fields = [f"{key}={value}" for key, value in self.descriptor().items() if key != "family"]
        return f"DivisorGraph({', '.join(fields)})"


def build_gamma(k: int, basis: tuple[int, ...] | None = None) -> DivisorGraph:
    """Gamma_k, optionally realized on k explicit distinct primes."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {_int_str(k)}")
    if basis is not None:
        basis = tuple(basis)
        if len(basis) != k:
            raise ValueError(f"basis has {len(basis)} entries, expected {_int_str(k)}")
        if len(set(basis)) != len(basis):
            raise ValueError(f"basis primes must be distinct: ({', '.join(map(_int_str, basis))})")
        for p in basis:
            if not is_prime(p):
                raise ValueError(f"basis entry {p} is not prime")
    return DivisorGraph((1,) * k, basis, gamma=True)


def build_general(n: int, max_divisors: int = _DEFAULT_MAX_DIVISORS) -> DivisorGraph:
    """Divisor graph of n; refuses n with more than max_divisors divisors, and
    n whose cofactor after trial division up to _TRIAL_BOUND is not proven
    prime by is_prime."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {_int_str(n)}")
    factorization = tuple(factorize(n, _TRIAL_BOUND))
    cofactor = factorization[-1][0] if factorization else 1
    if cofactor >= _TRIAL_BOUND**2 and not is_prime(cofactor):
        raise ValueError(f"n={_int_str(n)} leaves the composite cofactor {cofactor} after "
                         f"trial division up to {_TRIAL_BOUND}, the factorisation budget")
    g = DivisorGraph(tuple(e for _, e in factorization), tuple(p for p, _ in factorization))
    if g.order > max_divisors:
        raise ValueError(f"n={_int_str(n)} has {g.order} divisors, "
                         f"above the cap of {max_divisors}")
    return g
