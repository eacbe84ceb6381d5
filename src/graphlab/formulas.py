"""Closed forms for Gamma_k: order, degrees, size, and four distance indices.

Order, size, W, WW, H and M1 are exponential polynomials in k, evaluated
from _TABLES in O(#bases) integer operations; tests/test_formulas.py proves
each table equal to the paper's printed form for every k >= 0.  The verify
subcommand checks the forms, live through this module's globals, against
edge enumeration and the index engine, kept per k (_oracle, the last 16 k)
with the lines a pass prints; a value is formatted only on a mismatch.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import indices
from .exact import Value, _int_str, format_value
from .graphs import build_gamma, require_edge_budget, require_gamma_k_bound

#: Per closed form, (denominator, {base: coefficient}): its value at k is
#: sum(coefficient * base**k) / denominator.  M1's follows from the binomial
#: theorem, as the degree formula also holds at omega in {0, k}.
_TABLES = {"order": (1, {2: 1}), "size": (1, {3: 1, 2: -1}), "wiener": (1, {4: 1, 3: -1}),
           "hyper_wiener": (2, {4: 3, 3: -4, 2: 1}), "harary": (4, {4: 1, 3: 2, 2: -3}),
           "zagreb1": (1, {5: 2, 4: 2, 3: -8, 2: 4})}


def _check_k(k: int, omega: int = 0) -> None:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {_int_str(k)}")
    if not 0 <= omega <= k:
        raise ValueError(f"omega must be in [0, {_int_str(k)}], got {_int_str(omega)}")


def _evaluate(name: str, k: int) -> Value:
    """The table of name at k, with one exact division: a Fraction only if inexact."""
    _check_k(k)
    den, table = _TABLES[name]
    num = sum([c * b**k for b, c in table.items()])
    return Fraction(num, den) if num % den else num // den


def order_formula(k: int) -> int:
    """|V(Gamma_k)| = 2**k."""
    return _evaluate("order", k)


def size_formula(k: int) -> int:
    """|E(Gamma_k)| = 3**k - 2**k."""
    return _evaluate("size", k)


def count_by_omega(k: int, j: int) -> int:
    """Number of vertices with exactly j prime factors: C(k, j)."""
    _check_k(k, j)
    return comb(k, j)


def degree_formula(k: int, omega: int) -> int:
    """deg v = 2**k - 1 at omega in {0, k}, else 2**omega + 2**(k-omega) - 2."""
    _check_k(k, omega)
    if omega in (0, k):
        return 2**k - 1
    return 2**omega + 2 ** (k - omega) - 2


def size_recursive(k: int) -> int:
    """Edge count by the recurrence |E_k| = |E_{k-1}| + sum_v (deg v + 1)
    over the vertices of Gamma_{k-1}, a sum that is 2 * 3**(k-1) - 2**(k-1)."""
    _check_k(k)
    return sum([2 * 3**j - 2**j for j in range(k)])


def wiener_formula(k: int) -> int:
    """W(Gamma_k) = 2**(2k) - 3**k."""
    return _evaluate("wiener", k)


def hyper_wiener_formula(k: int) -> Value:
    """WW(Gamma_k) = 2**(k-1) * (2**(k+1) + 2**k + 1) - 2 * 3**k."""
    return _evaluate("hyper_wiener", k)


def harary_formula(k: int) -> Value:
    """H(Gamma_k) = (2**(k-1) * (2**k - 3) + 3**k) / 2."""
    return _evaluate("harary", k)


def zagreb1_formula(k: int) -> int:
    """M1(Gamma_k) = 2 * (2**k - 1)**2 + sum_j C(k, j) * (2**j + 2**(k-j) - 2)**2
    over interior omega values 1 <= j <= k-1."""
    return _evaluate("zagreb1", k)


#: The checks of each k, in the order verify prints them.
_CHECKS = ("order", "size", "size_recursive", "count_by_omega",
           "wiener", "hyper_wiener", "harary", "zagreb1", "degree")


def _degrees(g) -> list[int]:
    """Each vertex's degree: its multiples and divisors in the listing, less itself twice."""
    up, down = g.listing()
    return [len(a) + len(b) - 2 for a, b in zip(up, down)]


@lru_cache(maxsize=16)
def _oracle(k: int) -> tuple[tuple, tuple[str, ...]]:
    """(value, line when it passes) per check of Gamma_k, counted from its
    listing and read from the index engine; the degree is that of each omega
    class, None if a class holds two.  The graph is dropped on return."""
    g = build_gamma(k)
    classes = set(zip(g.omegas, _degrees(g)))
    column = tuple([d for _, d in sorted(classes)]) if len(classes) == k + 1 else None
    m = sum(map(len, g.listing()[0])) - g.order
    values = (g.order, m, m, tuple(map(Counter(g.omegas).__getitem__, range(k + 1))),
              *(indices.compute_index(g, name) for name in _CHECKS[4:8]), column)
    lines = [f"k={k} {name}: formula {text} == oracle {text} [pass]"
             for name, text in zip(_CHECKS, map(format_value, values[:8]))]  # tuples print by str()
    return values, (*lines, f"k={k} degree: formula == oracle for all {g.order} vertices [pass]")


def _degree_failure(k: int, form: tuple[int, ...]) -> str:
    """A failed degree line: Gamma_k is built again to name the first bad vertex."""
    g = build_gamma(k)
    deg = _degrees(g)
    bad = next(i for i, o in enumerate(g.omegas) if form[o] != deg[i])
    return (f"k={k} degree: formula {form[g.omegas[bad]]} != oracle {deg[bad]} "
            f"at vertex {g.labels()[bad]} [FAIL]")


def verification_lines(k_min: int, k_max: int) -> tuple[list[str], bool]:
    """Per-(formula, k) pass/fail lines comparing the closed forms, evaluated
    anew on every call, to _oracle, and a summary line.  The range
    (0 <= k_min <= k_max), the bound on k and the budget of listed edges are
    checked before _oracle is read."""
    if not 0 <= k_min <= k_max:
        raise ValueError(f"need 0 <= k-min <= k-max, got {_int_str(k_min)}..{_int_str(k_max)}")
    require_gamma_k_bound(k_max)
    require_edge_budget(size_formula(k_max))
    lines: list[str] = []
    failed = 0
    for k in range(k_min, k_max + 1):
        values, passed = _oracle(k)
        forms = (order_formula(k), size_formula(k), size_recursive(k),  # each of _CHECKS
                 tuple([count_by_omega(k, j) for j in range(k + 1)]), wiener_formula(k),
                 hyper_wiener_formula(k), harary_formula(k), zagreb1_formula(k),
                 tuple([degree_formula(k, j) for j in range(k + 1)]))
        if forms == values:
            lines += passed
            continue
        for name, form, value, line in zip(_CHECKS, forms, values, passed):
            if form != value:
                failed += 1
                line = (_degree_failure(k, form) if name == "degree" else f"k={k} {name}: "
                        f"formula {format_value(form)} != oracle {format_value(value)} [FAIL]")
            lines.append(line)
    lines.append(f"{len(lines) - failed} checks passed, {failed} failed")
    return lines, failed == 0
