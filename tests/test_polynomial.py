from fractions import Fraction

import pytest

from dehnsom.errors import InternalError
from dehnsom.polynomial import ExactPolynomial, binom, sign


def _at(p, value):
    """p(value) by Horner's rule."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * value + c
    return acc


def test_binomial_convention():
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(5, 6) == 0
    assert binom(0, 0) == 1
    with pytest.raises(InternalError):
        binom(-1, 0)


def test_sign_handles_negative_exponents():
    assert sign(-1) == -1
    assert sign(0) == 1
    assert sign(-2) == 1
    assert all(isinstance(sign(n), int) for n in range(-5, 5))


def test_trimming_and_degree():
    p = ExactPolynomial([1, 2, 0, 0])
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert ExactPolynomial.zero().degree == -1
    assert ExactPolynomial.zero().coeffs == ()


def test_arithmetic():
    x = ExactPolynomial((0, 1))
    p = (x - ExactPolynomial.one()) * (x + ExactPolynomial.one())
    assert p == ExactPolynomial((-1, 0, 1))
    assert p + ExactPolynomial.one() == x * x
    assert p - p == ExactPolynomial.zero()
    assert p.scale(3).coeffs == (-3, 0, 3)
    with pytest.raises(InternalError):
        p.scale(Fraction(1, 2))


def test_x_minus_one_power():
    assert ExactPolynomial.x_minus_one_power(0) == ExactPolynomial.one()
    assert ExactPolynomial.x_minus_one_power(3).coeffs == (-1, 3, -3, 1)
    p = ExactPolynomial.x_minus_one_power(7)
    assert _at(p, 1) == 0 and _at(p, 2) == 1 and _at(p, 0) == -1


def test_reversal():
    p = ExactPolynomial((1, 2, 3))
    assert p.reversed_at(2).coeffs == (3, 2, 1)
    assert p.reversed_at(4).coeffs == (0, 0, 3, 2, 1)
    with pytest.raises(InternalError):
        p.reversed_at(1)


def test_truncate_and_eval():
    p = ExactPolynomial((1, 2, 3, 4))
    assert p.truncate(1).coeffs == (1, 2)
    assert _at(p, 2) == 1 + 4 + 12 + 32


def test_integrality_tripwire():
    # coefficients are ints; even an integral Fraction is refused
    for bad in (Fraction(1, 2), Fraction(2), 1.0, "1"):
        with pytest.raises(InternalError):
            ExactPolynomial((1, bad))
    assert ExactPolynomial((2, 3)).coeffs == (2, 3)


def test_serialize():
    out = ExactPolynomial((1, -3, 1, 0)).serialize()
    assert out == [1, -3, 1]
    assert all(type(c) is int for c in out)
