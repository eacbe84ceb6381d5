"""Seeded request generators for the three benchmark workloads.

A request is the argv one client hands to ``graphlab.cli.main`` plus the
parameters the output check needs.  The program sees only the argv.

Index values and graph structure depend only on the exponent multiset of a
divisor graph (Gamma_k is the multiset of k ones), never on which primes
realize it.  Each workload therefore fixes its multiset of request templates
(graph shapes, subcommands, formats) and lets the seed choose the primes,
the request order and whether a prime basis is passed.  That keeps the work
per run the same from seed to seed, so runs with different seeds can be
compared, while the argv, the vertex labels and the order differ.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cache
from itertools import permutations

#: Primes the generators realize shapes with.
PRIME_POOL = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
)

#: gamma-indices: the heavy Gamma_k path, K = 8 twice (two prime bases).
#: K = 9 (about 1.3 s per request on a 2-core host, Python 3.11) and K = 10
#: (about 8 s) are left out: the shared host changes speed every second or
#: two, and the speed reference (calibrate.py) is only sampled between
#: requests, so it cannot follow a request that long.  An odd number of
#: requests puts the median request (K = 7) inside one K's samples.
GAMMA_KS = (5, 6, 7, 8, 8)

#: divisor-indices: exponent multisets with 72..162 divisors.  Run time
#: depends on the shape (the spread of distinct degrees and transmissions),
#: not only on the divisor count, so the shapes vary; half of them mix
#: exponents, which makes many distinct degree pairs for RadicalSum.  Each
#: request takes at most about 0.5 s (2-core host, Python 3.11), short
#: enough for the speed reference to follow (see GAMMA_KS).  An odd number
#: of shapes puts the median request inside one shape's samples.
DIVISOR_SHAPES = (
    (2, 2, 1, 1, 1, 1),
    (2, 2, 2, 2, 1),
    (1, 1, 1, 1, 1, 1, 1),
    (4, 4, 4),
    (8, 1, 1, 1, 1),
    (5, 3, 1, 1),
    (4, 2, 2, 1),
    (3, 2, 1, 1, 1),
    (5, 2, 1, 1),
)
DIVISOR_BAND = (72, 162)

#: cli-mix: shapes for `indices --n` (realized with n <= MIX_N_LIMIT) and
#: for `divisor-graph` exports.
MIX_N_LIMIT = 5040
MIX_INDEX_SHAPES = ((1,), (2, 1), (1, 1, 1), (3, 2), (2, 1, 1), (4, 2, 1), (2, 2, 1, 1), (4, 2, 1, 1))
MIX_EXPORT_SHAPES = ((2, 1, 1), (3, 2, 1), (2, 2, 1, 1), (1, 1, 1, 1, 1), (3, 1, 1, 1), (2, 2, 2, 1))
MIX_INDEX_SUBSETS = ("all", "randic,balaban,mostar", "wiener,harary,zagreb1,r1")

WORKLOADS = ("gamma-indices", "divisor-indices", "cli-mix")


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what the output check needs to know about it."""

    argv: tuple[str, ...]
    kind: str  # indices | claims | verify | gamma | divisor-graph
    params: dict = field(default_factory=dict, compare=False)


def shape_of(factors) -> tuple[int, ...]:
    """Exponent multiset, descending, of a factorization ((p, e), ...)."""
    return tuple(sorted((e for _, e in factors), reverse=True))


def _realize(primes, shape) -> tuple[int, tuple[tuple[int, int], ...]]:
    factors = tuple(sorted(zip(primes, shape)))
    n = 1
    for p, e in factors:
        n *= p**e
    return n, factors


def _random_n(rng: random.Random, shape) -> tuple[int, tuple]:
    return _realize(rng.sample(PRIME_POOL, len(shape)), shape)


@cache
def _realizations(shape, limit: int) -> tuple:
    """Every realization (n, factors) of `shape` over PRIME_POOL with n <= limit."""
    found = set()

    def extend(chosen, start, value):
        if len(chosen) == len(shape):
            for order in set(permutations(shape)):
                n, factors = _realize(chosen, order)
                if n <= limit:
                    found.add((n, factors))
            return
        for i in range(start, len(PRIME_POOL)):
            p = PRIME_POOL[i]
            if value * p > limit:
                break
            extend(chosen + (p,), i + 1, value * p)

    extend((), 0, 1)
    if not found:
        raise ValueError(f"shape {shape} has no realization <= {limit}")
    return tuple(sorted(found))


def _indices_n(n, factors, index="all", fmt="json") -> Request:
    return Request(
        ("indices", "--n", str(n), "--index", index, "--format", fmt),
        "indices",
        {"n": n, "shape": shape_of(factors), "index": index, "format": fmt},
    )


def _indices_k(k, primes, index="all", fmt="json") -> Request:
    argv = ["indices", "--k", str(k)]
    if primes:
        argv += ["--primes", ",".join(map(str, primes))]
    argv += ["--index", index, "--format", fmt]
    return Request(
        tuple(argv), "indices",
        {"k": k, "primes": primes, "shape": (1,) * k, "index": index, "format": fmt},
    )


def gamma_indices(seed: int) -> list[Request]:
    rng = random.Random(f"gamma-indices/{seed}")
    ks = list(GAMMA_KS)
    rng.shuffle(ks)
    return [_indices_k(k, tuple(rng.sample(PRIME_POOL, k))) for k in ks]


def divisor_indices(seed: int) -> list[Request]:
    rng = random.Random(f"divisor-indices/{seed}")
    shapes = list(DIVISOR_SHAPES)
    rng.shuffle(shapes)
    return [_indices_n(*_random_n(rng, s)) for s in shapes]


def cli_mix(seed: int) -> list[Request]:
    rng = random.Random(f"cli-mix/{seed}")
    out: list[Request] = []

    def claims(k, fmt, count):
        argv = ["claims"] + (["--k", str(k)] if k else []) + ["--format", fmt]
        out.extend(Request(tuple(argv), "claims", {"k": k, "format": fmt}) for _ in range(count))

    claims(None, "json", 12)
    claims(None, "markdown", 8)
    for k in (3, 4, 5):
        claims(k, "json", 4)
        claims(k, "markdown", 2)

    for k_max, count in ((4, 10), (5, 8), (6, 8), (7, 6), (8, 6)):
        out.extend(
            Request(("verify", "--k-max", str(k_max)), "verify", {"k_max": k_max})
            for _ in range(count)
        )

    for k in range(2, 8):
        for fmt in ("table", "json"):
            for index in MIX_INDEX_SUBSETS:
                primes = tuple(rng.sample(PRIME_POOL, k)) if rng.random() < 0.5 else None
                out.append(_indices_k(k, primes, index, fmt))

    for shape in MIX_INDEX_SHAPES:
        for fmt in ("table", "json"):
            for _ in range(2):
                out.append(_indices_n(*rng.choice(_realizations(shape, MIX_N_LIMIT)), "all", fmt))

    for k in range(4, 9):
        for emit in ("json", "dot", "csv"):
            for _ in range(2):
                primes = tuple(rng.sample(PRIME_POOL, k)) if rng.random() < 0.5 else None
                argv = ["gamma", "--k", str(k)]
                if primes:
                    argv += ["--primes", ",".join(map(str, primes))]
                argv += ["--emit", emit]
                out.append(Request(tuple(argv), "gamma", {"k": k, "primes": primes, "emit": emit}))

    for shape in MIX_EXPORT_SHAPES:
        for emit in ("json", "dot", "csv"):
            for _ in range(2):
                n, factors = _random_n(rng, shape)
                out.append(Request(
                    ("divisor-graph", "--n", str(n), "--emit", emit), "divisor-graph",
                    {"n": n, "shape": shape_of(factors), "emit": emit},
                ))

    rng.shuffle(out)
    return out


_GENERATORS = {
    "gamma-indices": gamma_indices,
    "divisor-indices": divisor_indices,
    "cli-mix": cli_mix,
}


def generate(workload: str, seed: int) -> list[Request]:
    """The request list of one workload for one seed."""
    return _GENERATORS[workload](seed)
