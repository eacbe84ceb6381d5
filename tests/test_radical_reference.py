"""The reference arithmetic of radical_reference: its laws, and that it stands
apart from the engine it checks."""

import ast
import random
import sys
from fractions import Fraction
from math import isclose, sqrt
from pathlib import Path

import pytest

from radical_reference import add, brute_sqf, inv_sqrt, multiply, reference_terms, scale, terms_of

F = Fraction


def rand_sum(rng, top=60):
    """Seeded terms of a sum of up to four q*sqrt(m), m up to top, not yet canonical."""
    return reference_terms((rng.randint(1, top), F(rng.randint(-9, 9), rng.randint(1, 9)))
                           for _ in range(rng.randint(0, 4)))


def approx(terms) -> float:
    return sum(float(q) * sqrt(d) for d, q in terms)


def test_reference_module_imports_nothing_from_graphlab():
    """Every import in radical_reference, at any depth of the module, names
    a standard-library module, and nothing calls __import__, so the oracle
    shares no code with the engine."""
    tree = ast.parse(Path(__file__).with_name("radical_reference.py").read_text())
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Name):
            assert node.id != "__import__"
    assert names and all(name.split(".")[0] in sys.stdlib_module_names for name in names), names


def test_brute_sqf_splits_off_the_largest_square():
    assert [brute_sqf(m) for m in (1, 4, 12, 49, 120, 101, 72)] == [
        (1, 1), (2, 1), (2, 3), (7, 1), (2, 30), (1, 101), (6, 2)]
    with pytest.raises(ValueError):
        brute_sqf(0)


def test_reference_terms_are_canonical():
    """Radicands come out squarefree and ascending, zero sums are dropped,
    and a non-squarefree radicand folds its square into the coefficient."""
    assert reference_terms([(8, 1), (2, -2), (12, F(1, 2)), (1, 0)]) == ((3, F(1)),)
    assert reference_terms([(49, F(1, 7))]) == ((1, F(1)),)
    assert reference_terms([]) == ()
    assert terms_of(0) == () and terms_of(F(-3, 2)) == ((1, F(-3, 2)),) and terms_of(((7, F(1)),)) == ((7, F(1)),)


def test_reference_operations_obey_the_field_laws():
    """Sums commute and associate, products commute, associate and
    distribute over sums, scaling is a product by a rational, and
    sqrt(a)*sqrt(b) = sqrt(a*b) split again."""
    rng = random.Random(4)
    for _ in range(60):
        a, b, c = rand_sum(rng), rand_sum(rng), rand_sum(rng)
        s = F(rng.randint(-9, 9), rng.randint(1, 9))
        assert add(a, b) == add(b, a)
        assert add(add(a, b), c) == add(a, add(b, c))
        assert add(a, scale(a, -1)) == ()
        assert multiply(a, b) == multiply(b, a)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        assert multiply(a, add(b, c)) == add(multiply(a, b), multiply(a, c))
        assert scale(a, s) == multiply(a, terms_of(s))
    for x in range(1, 40):
        for y in range(1, 40):
            assert multiply(((x, F(1)),), ((y, F(1)),)) == reference_terms([(x * y, 1)])
    assert multiply(reference_terms([(2, 1), (3, 1)]), ((6, F(1)),)) == ((2, F(3)), (3, F(2)))


def test_reference_values_agree_with_floats():
    """Each operation's terms evaluate, in floats, to the operation on the
    operands' float values: the arithmetic is right, not only consistent."""
    rng = random.Random(11)
    for _ in range(200):
        a, b = rand_sum(rng, 400), rand_sum(rng, 400)
        s = F(rng.randint(-50, 50), rng.randint(1, 50))
        scale_ab = abs(approx(a)) + abs(approx(b)) + 1
        assert isclose(approx(add(a, b)), approx(a) + approx(b), rel_tol=0, abs_tol=1e-9 * scale_ab)
        assert isclose(approx(scale(a, s)), approx(a) * s, rel_tol=0, abs_tol=1e-9 * scale_ab * (abs(s) + 1))
        assert isclose(approx(multiply(a, b)), approx(a) * approx(b), rel_tol=0,
                       abs_tol=1e-9 * scale_ab * scale_ab)


def test_inv_sqrt_square_is_reciprocal():
    rng = random.Random(7)
    for _ in range(50):
        q = F(rng.randint(1, 500), rng.randint(1, 500))
        s = inv_sqrt(q)
        assert multiply(s, s) == ((1, 1 / q),)
        assert isclose(approx(s), 1 / sqrt(q))


def test_inv_sqrt_rejects_nonpositive():
    with pytest.raises(ValueError):
        inv_sqrt(0)
    with pytest.raises(ValueError):
        inv_sqrt(F(-3, 7))
