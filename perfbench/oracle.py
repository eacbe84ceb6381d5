"""Output check for every benchmark response.

The checks do not call graphlab.  Graph exports (JSON, DOT, CSV) are
rebuilt byte for byte from a small independent model of the divisor graph:
vertices in canonical order, an edge when one divisor strictly divides the
other, and distance 0/1/2 (every divisor is adjacent to 1, so the diameter
is at most 2).  Index reports are rebuilt from the per-shape values in
reference.json and their Wiener, hyper-Wiener, Harary and first Zagreb
values are checked against closed forms that hold for any exponent shape.
Requests whose output does not depend on the seed (claims, verify) are
compared with digests recorded in reference.json, and claims reports must
carry the registry summary of 33 claims, 22 match, 11 mismatch.  For the
default seed every response is also compared with its recorded digest.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product
from math import comb, prod

#: The fourteen indices in report order (the CLI's JSON and table order).
INDEX_NAMES = (
    "wiener", "hyper_wiener", "harary", "zagreb1", "zagreb2", "degree_distance",
    "gutman", "balaban", "harmonic", "randic", "r1", "r2", "r3", "mostar",
)

CLAIMS_SUMMARY = {"total": 33, "match": 22, "mismatch": 11}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def shape_key(shape) -> str:
    return ".".join(map(str, shape))


def seedless_key(argv) -> str:
    return " ".join(argv)


# --- closed forms on any exponent shape ------------------------------------

def closed_forms(shape) -> dict[str, Fraction]:
    """W, WW, H and M1 of the divisor graph with exponent multiset `shape`.

    d = prod(e+1) vertices; comparable pairs a <= b number prod C(e+2, 2), so
    |E| = that minus d.  All other pairs are at distance 2.  The degree of the
    divisor with exponents a is (#divisors of it) + (#multiples of it) - 2.
    On Gamma_k these are the paper's 2^k, 3^k - 2^k, 4^k - 3^k, and so on.
    """
    d = prod(e + 1 for e in shape)
    m = prod(comb(e + 2, 2) for e in shape) - d
    far = comb(d, 2) - m
    zagreb1 = 0
    for a in product(*(range(e + 1) for e in shape)):
        deg = prod(x + 1 for x in a) + prod(e - x + 1 for e, x in zip(shape, a)) - 2
        zagreb1 += deg * deg
    return {
        "wiener": Fraction(m + 2 * far),
        "hyper_wiener": Fraction(m + 3 * far),
        "harary": m + Fraction(far, 2),
        "zagreb1": Fraction(zagreb1),
    }


def value_of(obj: dict) -> Fraction | None:
    """Rational value of an integer/rational JSON value; None for radicals."""
    if obj["kind"] == "integer":
        return Fraction(int(obj["value"]))
    if obj["kind"] == "rational":
        return Fraction(int(obj["num"]), int(obj["den"]))
    return None


# --- divisor graph model ---------------------------------------------------

def gamma_vertices(k: int) -> list[int]:
    """Subset bitmasks in canonical order: omega ascending, then mask."""
    return sorted(range(1 << k), key=lambda m: (bin(m).count("1"), m))


def _subset(mask: int, k: int) -> list[int]:
    return [i + 1 for i in range(k) if mask >> i & 1]


def _gamma_model(k, primes):
    masks = gamma_vertices(k)
    if primes:
        labels = [str(prod(primes[i - 1] for i in _subset(m, k))) for m in masks]
    else:
        labels = ["".join(f"p{i}" for i in _subset(m, k)) or "1" for m in masks]
    comparable = [[a != b and (a & b in (a, b)) for b in masks] for a in masks]
    return masks, labels, comparable


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division; the workloads use small primes."""
    out, f = [], 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def _divisor_model(n):
    divs = divisors(n)
    comparable = [[a != b and (b % a == 0 or a % b == 0) for b in divs] for a in divs]
    return divs, [str(d) for d in divs], comparable


def _edges(comparable) -> list[list[int]]:
    size = len(comparable)
    return [[i, j] for i in range(size) for j in range(i + 1, size) if comparable[i][j]]


def _dot(name, labels, edges) -> str:
    lines = [f"graph {name} {{"]
    lines += [f'  v{i} [label="{label}"];' for i, label in enumerate(labels)]
    lines += [f"  v{i} -- v{j};" for i, j in edges]
    return "\n".join(lines + ["}"]) + "\n"


def _csv(labels, comparable) -> str:
    rows = [
        ",".join("0" if i == j else ("1" if c else "2") for j, c in enumerate(row))
        for i, row in enumerate(comparable)
    ]
    return "\n".join([",".join(labels)] + rows) + "\n"


def expected_gamma(k: int, primes, emit: str) -> str:
    masks, labels, comparable = _gamma_model(k, primes)
    if emit == "dot":
        return _dot(f"gamma_{k}", labels, _edges(comparable))
    if emit == "csv":
        return _csv(labels, comparable)
    doc: dict = {"k": k}
    if primes:
        doc["primes"] = list(primes)
    doc["vertices"] = [
        {"subset": _subset(m, k), "omega": bin(m).count("1")}
        | ({"value": int(label)} if primes else {})
        for m, label in zip(masks, labels)
    ]
    doc["edges"] = _edges(comparable)
    return json.dumps(doc, indent=2) + "\n"


def expected_divisor_graph(n: int, emit: str) -> str:
    divs, labels, comparable = _divisor_model(n)
    if emit == "dot":
        return _dot(f"divisors_{n}", labels, _edges(comparable))
    if emit == "csv":
        return _csv(labels, comparable)
    primes = [p for p, _ in factorize(n)]
    doc = {
        "n": n,
        "vertices": [{"value": d, "omega": sum(1 for p in primes if d % p == 0)} for d in divs],
        "edges": _edges(comparable),
    }
    return json.dumps(doc, indent=2) + "\n"


# --- index reports ---------------------------------------------------------

def _selected(index: str) -> list[str]:
    if index == "all":
        return list(INDEX_NAMES)
    chosen = {s.strip() for s in index.split(",")}
    return [name for name in INDEX_NAMES if name in chosen]


def expected_indices(params: dict, values: dict) -> str:
    names = _selected(params["index"])
    if params["format"] == "table":
        rows = [(name, values[name]["exact"], values[name]["approx"]) for name in names]
        w_name = max(len("index"), *(len(r[0]) for r in rows))
        w_exact = max(len("exact"), *(len(r[1]) for r in rows))
        lines = [f"{'index'.ljust(w_name)}  {'exact'.ljust(w_exact)}  approx"]
        lines += [f"{a.ljust(w_name)}  {b.ljust(w_exact)}  {c}" for a, b, c in rows]
        return "\n".join(lines) + "\n"
    if "k" in params:
        graph: dict = {"family": "gamma", "k": params["k"]}
        if params["primes"]:
            graph["primes"] = list(params["primes"])
    else:
        graph = {"family": "divisor", "n": params["n"]}
    doc = {"graph": graph, "indices": {name: values[name]["json"] for name in names}}
    return json.dumps(doc, indent=2) + "\n"


class Checker:
    """Checks responses against the reference; verdicts are cached per
    (argv, output digest), so repeated passes are cheap."""

    def __init__(self, reference: dict):
        self.ref = reference
        self._verdicts: dict = {}

    def check(self, request, rc, out: str, expected_digest: str | None = None) -> str | None:
        """None when the response is correct, else the reason it is not."""
        if rc != 0:
            return f"exit code {rc!r}"
        got = digest(out)
        if expected_digest is not None and got != expected_digest:
            return "output differs from the digest recorded for the default seed"
        key = (request.argv, got)
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._check(request, out, got)
            except (ValueError, KeyError, TypeError) as e:
                self._verdicts[key] = f"unreadable output ({type(e).__name__}: {e})"
        return self._verdicts[key]

    def _check(self, request, out: str, got: str) -> str | None:
        p = request.params
        if request.kind in ("claims", "verify"):
            want = self.ref["outputs"].get(seedless_key(request.argv))
            if want is None:
                return "no recorded output for this request"
            if got != want:
                return "output differs from the recorded output"
            if request.kind == "claims" and p["format"] == "json" and p["k"] is None:
                if json.loads(out)["summary"] != CLAIMS_SUMMARY:
                    return "claims summary is not 33 total, 22 match, 11 mismatch"
            if request.kind == "verify":
                checks = 9 * (p["k_max"] + 1)
                if not out.endswith(f"\n{checks} checks passed, 0 failed\n"):
                    return f"verify did not report {checks} passed checks"
            return None
        if request.kind == "gamma":
            expected = expected_gamma(p["k"], p["primes"], p["emit"])
        elif request.kind == "divisor-graph":
            expected = expected_divisor_graph(p["n"], p["emit"])
        else:
            values = self.ref["shapes"].get(shape_key(p["shape"]))
            if values is None:
                return f"no reference values for shape {p['shape']}"
            if p["format"] == "json":
                reported = json.loads(out)["indices"]
                for name, want in closed_forms(p["shape"]).items():
                    if name in reported and value_of(reported[name]) != want:
                        return f"{name} differs from its closed form {want}"
            expected = expected_indices(p, values)
        if out != expected:
            return "output differs from the reference"
        return None
