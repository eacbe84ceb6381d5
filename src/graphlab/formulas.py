"""Closed forms for Gamma_k: order, degrees, size, and four distance indices.

They are verified against edge enumeration and the index engine, whose
values verification_lines (the verify subcommand) reads through
indices.compute_index, and by the test suite.  The
enumeration is the graph's unsorted two-way listing: the size is the sum of
the lengths of the lists of multiples less V, and each degree the lengths of
a vertex's lists of multiples and divisors less 2, so no row is sorted,
inverted or hashed.  That oracle side never changes for a given k, so it is
counted once per process and kept per k (_oracle, the last 16 k): the
order, m, the omega counts and column, the degree tuple, and W, WW, H and M1
with their texts, never the graph or its lists.  The closed forms stay live:
every verify call evaluates and formats them and compares them with the
record.  Everything is exact; k = 0 routes through rationals where an
intermediate 2**(k-1) appears.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import indices
from .exact import Value, _int_str, format_value, normalize
from .graphs import build_gamma, require_edge_budget, require_gamma_k_bound


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {_int_str(k)}")


def order_formula(k: int) -> int:
    """|V(Gamma_k)| = 2**k."""
    _check_k(k)
    return 2**k


def size_formula(k: int) -> int:
    """|E(Gamma_k)| = 3**k - 2**k."""
    _check_k(k)
    return 3**k - 2**k


def count_by_omega(k: int, j: int) -> int:
    """Number of vertices with exactly j prime factors: C(k, j)."""
    _check_k(k)
    if not 0 <= j <= k:
        raise ValueError(f"omega must be in [0, {_int_str(k)}], got {_int_str(j)}")
    return comb(k, j)


def degree_formula(k: int, omega: int) -> int:
    """deg v = 2**k - 1 at omega in {0, k}, else 2**omega + 2**(k-omega) - 2."""
    _check_k(k)
    if not 0 <= omega <= k:
        raise ValueError(f"omega must be in [0, {_int_str(k)}], got {_int_str(omega)}")
    if omega in (0, k):
        return 2**k - 1
    return 2**omega + 2 ** (k - omega) - 2


def size_recursive(k: int) -> int:
    """Edge count by the recurrence |E_k| = |E_{k-1}| + sum_v (deg v + 1)
    over the vertices of Gamma_{k-1}."""
    _check_k(k)
    size = 0
    for step in range(1, k + 1):
        prev = step - 1
        size += sum(
            comb(prev, j) * (degree_formula(prev, j) + 1) for j in range(prev + 1)
        )
    return size


def wiener_formula(k: int) -> int:
    """W(Gamma_k) = 2**(2k) - 3**k."""
    _check_k(k)
    return 2 ** (2 * k) - 3**k


def hyper_wiener_formula(k: int) -> Value:
    """WW(Gamma_k) = 2**(k-1) * (2**(k+1) + 2**k + 1) - 2 * 3**k."""
    _check_k(k)
    acc = Fraction(2) ** (k - 1) * (2 ** (k + 1) + 2**k + 1) - 2 * 3**k
    return normalize(acc)


def harary_formula(k: int) -> Value:
    """H(Gamma_k) = (2**(k-1) * (2**k - 3) + 3**k) / 2."""
    _check_k(k)
    acc = (Fraction(2) ** (k - 1) * (2**k - 3) + 3**k) / 2
    return normalize(acc)


def zagreb1_formula(k: int) -> int:
    """M1(Gamma_k) = 2 * (2**k - 1)**2 + sum_j C(k, j) * (2**j + 2**(k-j) - 2)**2
    over interior omega values 1 <= j <= k-1."""
    _check_k(k)
    interior = sum(
        comb(k, j) * (2**j + 2 ** (k - j) - 2) ** 2 for j in range(1, k)
    )
    return 2 * (2**k - 1) ** 2 + interior


#: The checks of each k, in the order verify prints them; the degree line follows.
_CHECKS = ("order", "size", "size_recursive", "count_by_omega",
           "wiener", "hyper_wiener", "harary", "zagreb1")


def _closed_forms(k: int) -> tuple:
    """The closed form of each of _CHECKS at k, evaluated anew on every call."""
    return (order_formula(k), size_formula(k), size_recursive(k),
            tuple(count_by_omega(k, j) for j in range(k + 1)),
            wiener_formula(k), hyper_wiener_formula(k), harary_formula(k), zagreb1_formula(k))


@lru_cache(maxsize=16)
def _oracle(k: int) -> tuple[tuple, tuple[int, ...], tuple[int, ...]]:
    """((value, format_value text) per check of _CHECKS, omega column, degree
    tuple) of Gamma_k, counted from its listing and read from the index
    engine; the graph and its lists are dropped on return."""
    g = build_gamma(k)
    up, down = g.listing()
    m = sum(map(len, up)) - g.order
    deg = tuple([len(a) + len(b) - 2 for a, b in zip(up, down)])
    values = (g.order, m, m, tuple(map(Counter(g.omegas).__getitem__, range(k + 1))),
              *(indices.compute_index(g, name) for name in _CHECKS[4:]))
    return tuple((v, format_value(v)) for v in values), g.omegas, deg  # tuples print by str()


def verification_lines(k_min: int, k_max: int) -> tuple[list[str], bool]:
    """Per-(formula, k) pass/fail lines comparing closed forms to edge
    enumeration and the index engine, plus a summary line.  The range
    (0 <= k_min <= k_max), then k_max against the bound on k, then the edges
    of Gamma_{k_max} against the budget of listed edges are checked before
    _oracle is read.  The closed forms, verdicts and lines are made on every
    call; a failed degree line builds Gamma_k again to name the vertex."""
    if not 0 <= k_min <= k_max:
        raise ValueError(f"need 0 <= k-min <= k-max, got {_int_str(k_min)}..{_int_str(k_max)}")
    require_gamma_k_bound(k_max)
    require_edge_budget(size_formula(k_max))
    lines: list[str] = []
    for k in range(k_min, k_max + 1):
        oracle, omegas, deg = _oracle(k)
        for name, formula_value, (oracle_value, ov) in zip(_CHECKS, _closed_forms(k), oracle):
            same = formula_value == oracle_value
            lines.append(f"k={k} {name}: formula {format_value(formula_value)} "
                         f"{'==' if same else '!='} oracle {ov} [{'pass' if same else 'FAIL'}]")
        by_omega = [degree_formula(k, j) for j in range(k + 1)]
        formula_deg = tuple(map(by_omega.__getitem__, omegas))
        if formula_deg == deg:
            lines.append(f"k={k} degree: formula == oracle for all {len(deg)} vertices [pass]")
        else:
            bad = next(i for i in range(len(deg)) if formula_deg[i] != deg[i])
            lines.append(
                f"k={k} degree: formula {formula_deg[bad]} != oracle {deg[bad]} "
                f"at vertex {build_gamma(k).labels()[bad]} [FAIL]"
            )
    failed = sum(line.endswith("[FAIL]") for line in lines)
    lines.append(f"{len(lines) - failed} checks passed, {failed} failed")
    return lines, failed == 0
