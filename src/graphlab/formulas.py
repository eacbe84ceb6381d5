"""Closed forms for Gamma_k: order, degrees, size, and four distance indices.

They are verified against edge enumeration and the index engine in indices
(see the verify subcommand and the test suite).  Everything is exact; the
k = 0 cases route through rationals where an intermediate 2**(k-1) appears.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .exact import Value, normalize


def _check_k(k: int) -> None:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")


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
        raise ValueError(f"omega must be in [0, {k}], got {j}")
    return comb(k, j)


def degree_formula(k: int, omega: int) -> int:
    """deg v = 2**k - 1 at omega in {0, k}, else 2**omega + 2**(k-omega) - 2."""
    _check_k(k)
    if not 0 <= omega <= k:
        raise ValueError(f"omega must be in [0, {k}], got {omega}")
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
