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

Everything is read off the lattice, listed once as each vertex's mixed-radix
code in canonical order (_codes; on Gamma_k the code is the bitmask).  The
per-vertex columns are per-code lists built prime by prime, as the divisor
values are, then permuted by the codes: the degree of a divisor d is
tau(d) + tau(n/d) - 2 (the code V - 1 - c is that of n/d), omega counts the
nonzero digits, and the symbolic labels (p1p3) and JSON subsets join the
names of the primes present.  |E| is prod C(e+2, 2) - prod (e+1).  The
comparable pairs are listed once, by listing(): per code, a list of vertex
indices starts with its own vertex and is extended prime by prime, digit by
digit, by the list one digit above it (up: its multiples) and by the one
below it (down: its divisors), every code of a digit at once by whole-slice
extends.  Each direction is built on first use, so the JSON and DOT exports
and multiples(), which read only up, build no down list.  Both lists stay
unsorted: the CSV export marks them and verify counts them.  multiples() is
each up list sorted, less the vertex itself, which sorts first, listed anew
on each call; a divisor precedes its multiples in both orders, so the rows
list the edges in lexicographic order.  The JSON and DOT exports stream
their text row by row (json_rows, dot_rows), sorting each row as they write
it, one piece per non-empty row written at the indent where it sits, with
one string per vertex index and one join per row, and build no object per
edge.  descriptor_text writes the descriptor's JSON from one template, at
the indent where it sits: the head of the JSON export, and the "graph"
member of an index report.  No exponent vector, pair scan or neighbour list
is kept here: the tests' references (tests/index_definitions.py) decode
them from the codes and the listing.

Limits are constants no caller overrides: the builders refuse k above
_MAX_GAMMA_K and n with more than _MAX_DIVISORS divisors, and the exports and
verify call require_edge_budget before listing more than _MAX_LISTED_EDGES edges.

A graph is immutable.  Only its exponents, primes and order are set at
construction; codes, omegas, the up and down lists and degrees are
computed on first use and cached, which keeps them safe to share across
threads.  So is the index profile, which is kept per exponent shape by
indices.shape_profile, not on the graph: each value and text is stored
once and only read after.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import accumulate, chain, repeat
from math import comb, prod
from operator import mul
from typing import Iterator

from .exact import _TRIAL_BOUND, _fits_repr, _int_str, factorize, is_prime

_MAX_DIVISORS = 4096
#: Exports and verify list every edge; |E(Gamma_12)| = 527,345.  As whole
#: processes (Python 3.11, 2-core host; medians of three runs), the streamed
#: exports of Gamma_12 take 0.2 s and 26 MB with --emit json, 0.27 s and
#: 25 MB with csv (34 MB of text), 0.2 s and 25 MB with dot, and
#: `verify --k-max 12` 0.12 s and 25 MB.  Gamma_13 (1,586,131 edges) would
#: take 0.38 s and 47 MB, 0.55 s and 44 MB (134 MB of csv text), 0.35 s and
#: 44 MB, and 0.17 s and 43 MB: each step of k triples the edges and
#: quadruples the matrix, so the budget stops at Gamma_12.
_MAX_LISTED_EDGES = 3**12 - 2**12
#: build_gamma refuses larger k: `indices --k 100 --index wiener` takes about
#: 0.07 s as a whole process (Python 3.11, 2-core host; mostly start-up), and
#: the nine indices other than Balaban, Randic and R1-R3 about 0.18 s.  Past
#: k = 100 harmonic grows fastest: its exact sum over the distinct degree
#: sums takes 0.03 s in-process at k = 100, 0.23 s at k = 150 and 1.2 s at
#: k = 200.
_MAX_GAMMA_K = 100


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
    def _codes(self) -> tuple[int, ...]:
        """Each vertex's mixed-radix code (first prime the lowest digit), in
        canonical order: on Gamma_k the code is the bitmask, sorted stably by
        omega; otherwise codes are sorted by divisor value."""
        if self.gamma:
            return tuple(sorted(range(self.order), key=int.bit_count))
        return tuple(sorted(range(self.order), key=self._code_values.__getitem__))

    @cached_property
    def _code_values(self) -> list[int]:
        """Divisor values in code order."""
        values = [1]
        for p, e in zip(self.primes, self.exponents):
            values = [v * q for q in accumulate(repeat(p, e), mul, initial=1) for v in values]
        return values

    @cached_property
    def divisors(self) -> tuple[int, ...]:
        """Divisor values in canonical order (needs the primes)."""
        return tuple(map(self._code_values.__getitem__, self._codes))

    @cached_property
    def omegas(self) -> tuple[int, ...]:
        """Number of distinct prime factors of each vertex, in canonical
        order: a per-code column built prime by prime as _code_values is
        (digit 0 adds none, any other digit one; on Gamma_k the bits of the code)."""
        column = [0]
        for e in self.exponents:
            column += [o + 1 for o in column] * e
        return tuple(map(column.__getitem__, self._codes))

    def _prime_names(self, names: list[str], sep: str) -> list[str]:
        """Per vertex in canonical order, sep.join of the names of the primes
        dividing it: a per-code column built prime by prime as _code_values
        is, then permuted by the codes."""
        column = [""]
        for name, e in zip(names, self.exponents):
            column += [f"{x}{sep}{name}" for x in column] * e
        return [column[c][len(sep):] for c in self._codes]

    def labels(self) -> list[str]:
        """Divisor values when the primes are known, else products like p1p2."""
        if self.primes is not None:
            return list(map(_int_str, self.divisors))
        names = [f"p{p}" for p in range(1, len(self.exponents) + 1)]
        return [label or "1" for label in self._prime_names(names, "")]

    def descriptor(self) -> dict:
        """Stable JSON identification: the family, then k and any primes of
        Gamma_k, or n."""
        if not self.gamma:
            return {"family": "divisor", "n": prod(map(pow, self.primes, self.exponents))}
        doc: dict = {"family": "gamma", "k": len(self.exponents)}
        if self.primes is not None:
            doc["primes"] = list(self.primes)
        return doc

    def descriptor_text(self, pad: str = "\n", family: bool = True) -> str:
        """json.dumps(self.descriptor(), indent=2) nested at pad (a newline and
        the indent of the line it sits on), less "family" when family is
        false, written from one template: n and the primes by _int_str (the
        primes by int.__repr__ when _fits_repr admits them all), so none meets
        the int/str digit limit."""
        inner = pad + "  "
        if not self.gamma:
            n = _int_str(prod(map(pow, self.primes, self.exponents)))
            head = f'{inner}"family": "divisor",' if family else ""
            return f'{{{head}{inner}"n": {n}{pad}}}'
        head = f'{inner}"family": "gamma",' if family else ""
        body = f'{inner}"k": {len(self.exponents)}'
        if self.primes:
            row = "," + inner + "  "
            digits = map(int.__repr__ if _fits_repr(self.primes) else _int_str, self.primes)
            body += f',{inner}"primes": [{row[1:]}{row.join(digits)}{inner}]'
        elif self.primes is not None:
            body += f',{inner}"primes": []'
        return f"{{{head}{body}{pad}}}"

    def _lists(self, up: bool) -> tuple[list[int], ...]:
        """Per vertex in canonical order, the list of the vertices of its
        multiples (up) or of its divisors, starting with its own vertex."""
        codes, order = self._codes, self.order
        # Built per code, prime by prime (weight w): up digit by digit from the
        # top, so lists[c + w] already holds this prime when lists[c] is
        # extended by it, and down from the bottom by lists[c - w].  The codes
        # whose digit is c // w are w strided slices s :: block or
        # order // block runs s : s + w; whichever are fewer, each slice is
        # extended by the one w away in one map.
        lists = [None] * order
        for i, c in enumerate(codes):
            lists[c] = [i]
        w = 1
        for e in self.exponents:
            block, step = w * (e + 1), w if up else -w
            for d in range(e):
                c = w * (e - 1 - d) if up else w * (d + 1)
                if w <= order // block:
                    for s in range(c, c + w):
                        deque(map(list.__iadd__, lists[s::block], lists[s + step::block]), 0)
                else:
                    for s in range(c, order, block):
                        deque(map(list.__iadd__, lists[s:s + w], lists[s + step:s + step + w]), 0)
            w = block
        return tuple(map(lists.__getitem__, codes))

    @cached_property
    def _up(self) -> tuple[list[int], ...]:
        return self._lists(up=True)

    @cached_property
    def _down(self) -> tuple[list[int], ...]:
        return self._lists(up=False)

    def listing(self) -> tuple[tuple[list[int], ...], tuple[list[int], ...]]:
        """(up, down): per vertex in canonical order, the unsorted list of the
        vertices of its multiples (up) and of its divisors (down), each
        including the vertex itself.  Read them; do not change them."""
        return self._up, self._down

    def _rows(self) -> Iterator[list[int]]:
        """The rows of multiples(), each sorted from the up lists as it is
        read, so the streamed exports keep no tuple of rows beside them and
        build no down list."""
        # A vertex precedes its multiples in the canonical order: drop it.
        return (sorted(row)[1:] for row in self._up)

    def multiples(self) -> tuple[tuple[int, ...], ...]:
        """Per vertex, its proper multiples in ascending order: row i holds the edges (i, j > i)."""
        return tuple(map(tuple, self._rows()))

    def size(self) -> int:
        """Comparable pairs a <= b per prime, less the pairs a == b: no edge is listed."""
        return prod(comb(e + 2, 2) for e in self.exponents) - self.order

    @cached_property
    def _degrees(self) -> tuple[int, ...]:
        # tau per code, built prime by prime as _code_values is; the code
        # V - 1 - c has the digits e - a of code c, so it is the code of n/d.
        tau = [1]
        for e in self.exponents:
            tau = [t * a for a in range(1, e + 2) for t in tau]
        return tuple([tau[c] + tau[~c] - 2 for c in self._codes])

    def degrees(self) -> tuple[int, ...]:
        """Degrees in canonical vertex order: tau(d) + tau(n/d) - 2."""
        return self._degrees

    def json_rows(self) -> Iterator[str]:
        """The JSON export, json.dumps(doc, indent=2) plus a newline, in
        pieces: the descriptor less its family (descriptor_text, less its
        closing brace), the vertex records ({"subset", "omega"[, "value"]}
        on Gamma_k, {"value", "omega"} otherwise) from one template, then one
        piece per non-empty row of multiples holding its edges [i, j], each
        written at the indent where it sits."""
        if self.gamma:
            numbers = [f"\n        {p}" for p in range(1, len(self.exponents) + 1)]
            subsets = [f"[{subset}\n      ]" if subset else "[]"
                       for subset in self._prime_names(numbers, ",")]
            columns = [subsets, self.omegas]
            record = '{\n      "subset": %s,\n      "omega": %s'
            if self.primes is not None:
                columns.append(map(_int_str, self.divisors))
                record += ',\n      "value": %s'
        else:
            columns = [map(_int_str, self.divisors), self.omegas]
            record = '{\n      "value": %s,\n      "omega": %s'
        records = ",\n    ".join([record + "\n    }"] * self.order) % tuple(
            chain.from_iterable(zip(*columns)))
        top = self.descriptor_text(family=False)[:-2]  # less its closing "\n}"
        yield f'{top},\n  "vertices": [\n    {records}\n  ],\n  "edges": ['
        table = list(map(int.__repr__, range(self.order)))
        head = "\n    "
        for i, row in zip(table, self._rows()):
            if row:
                yield (f"{head}[\n      {i},\n      "
                       + f"\n    ],\n    [\n      {i},\n      ".join(map(table.__getitem__, row))
                       + "\n    ]")
                head = ",\n    "
        # Vertex 0, the divisor 1, divides every other vertex.
        yield "\n  ]\n}\n" if self.order > 1 else "]\n}\n"

    def dot_rows(self) -> Iterator[str]:
        """The DOT export in lines: the graph's head and vertex labels, then
        one piece per non-empty row of multiples holding its edges."""
        doc = self.descriptor()
        name = f"gamma_{doc['k']}" if self.gamma else f"divisors_{_int_str(doc['n'])}"
        names = [f"v{i}" for i in range(self.order)]
        yield f"graph {name} {{\n" + "".join(
            [f'  {v} [label="{label}"];\n' for v, label in zip(names, self.labels())])
        for v, row in zip(names, self._rows()):
            if row:
                yield f"  {v} -- " + f";\n  {v} -- ".join(map(names.__getitem__, row)) + ";\n"
        yield "}\n"

    def __repr__(self) -> str:
        fields = [f"{key}=[{', '.join(map(_int_str, value))}]" if isinstance(value, list)
                  else f"{key}={_int_str(value)}"
                  for key, value in self.descriptor().items() if key != "family"]
        return f"DivisorGraph({', '.join(fields)})"


def require_gamma_k_bound(k: int) -> None:
    """Refuse k above _MAX_GAMMA_K, before anything of size k is built."""
    if k > _MAX_GAMMA_K:
        raise ValueError(f"k={_int_str(k)} is above the bound of {_MAX_GAMMA_K} on k for Gamma_k")


def require_edge_budget(m: int) -> None:
    """Refuse to list m edges above _MAX_LISTED_EDGES, before any is listed."""
    if m > _MAX_LISTED_EDGES:
        raise ValueError(f"the graph has {_int_str(m)} edges, "
                         f"above the budget of {_MAX_LISTED_EDGES} listed edges")


def build_gamma(k: int, basis: tuple[int, ...] | None = None) -> DivisorGraph:
    """Gamma_k, optionally realized on k explicit distinct primes."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {_int_str(k)}")
    require_gamma_k_bound(k)
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


def build_general(n: int) -> DivisorGraph:
    """Divisor graph of n; refuses n with more than _MAX_DIVISORS divisors, and
    n whose cofactor after trial division up to _TRIAL_BOUND is not proven
    prime by is_prime."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {_int_str(n)}")
    factorization = tuple(factorize(n))
    cofactor = factorization[-1][0] if factorization else 1
    if cofactor >= _TRIAL_BOUND**2 and not is_prime(cofactor):
        raise ValueError(f"n={_int_str(n)} leaves the composite cofactor {cofactor} after "
                         f"trial division up to {_TRIAL_BOUND}, the factorisation budget")
    g = DivisorGraph(tuple(e for _, e in factorization), tuple(p for p, _ in factorization))
    if g.order > _MAX_DIVISORS:
        raise ValueError(f"n={_int_str(n)} has {g.order} divisors, "
                         f"above the cap of {_MAX_DIVISORS}")
    return g
