"""Dense exact integer polynomials in one variable.

All identity verifications in this package reduce to equality of such
polynomials. Every one they build has integer coefficients (face counts, their
f→h transform, the toric ĥ and ĝ of Stanley 1987), so coefficients are Python
ints and nothing is rounded or divided; a non-integer coefficient is a bug and
raises InternalError. Trailing zero coefficients are trimmed, the zero
polynomial has an empty coefficient tuple and degree -1.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable

from .errors import InternalError


def binom(n: int, k: int) -> int:
    """C(n, k) with C(n, k) = 0 for k < 0 or k > n. Requires n >= 0."""
    if n < 0:
        raise InternalError(f"binomial with negative upper argument: C({n},{k})")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def sign(n: int) -> int:
    """(-1)^n as an exact integer, valid for negative n as well."""
    return -1 if n & 1 else 1


class ExactPolynomial:
    """Immutable polynomial with integer coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        try:
            cs = list(map(operator.index, coeffs))
        except TypeError as exc:
            raise InternalError(f"polynomial coefficients must be integers: {exc}") from None
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("ExactPolynomial is immutable")

    # --- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "ExactPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "ExactPolynomial":
        return cls((1,))

    @classmethod
    def x_minus_one_power(cls, n: int) -> "ExactPolynomial":
        """(x - 1)^n expanded exactly."""
        if n < 0:
            raise InternalError(f"(x-1)^{n} requested")
        return cls([binom(n, k) * (-1) ** (n - k) for k in range(n + 1)])

    # --- inspection ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    # --- arithmetic ---------------------------------------------------------

    def __add__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return ExactPolynomial(out)

    def __sub__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        return self + (-other)

    def __neg__(self) -> "ExactPolynomial":
        return ExactPolynomial([-c for c in self.coeffs])

    def __mul__(self, other: "ExactPolynomial") -> "ExactPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ExactPolynomial(out)

    def scale(self, c: int) -> "ExactPolynomial":
        return ExactPolynomial([a * c for a in self.coeffs])

    def reversed_at(self, n: int) -> "ExactPolynomial":
        """x^n * p(1/x); requires n >= deg p so the result is a polynomial."""
        if n < self.degree:
            raise InternalError(f"reversal degree {n} below polynomial degree {self.degree}")
        out = [0] * (n + 1)
        for k, c in enumerate(self.coeffs):
            out[n - k] = c
        return ExactPolynomial(out)

    def truncate(self, max_degree: int) -> "ExactPolynomial":
        return ExactPolynomial(self.coeffs[: max_degree + 1])

    # --- equality / serialization -------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, ExactPolynomial) and self.coeffs == other.coeffs

    def serialize(self) -> list[int]:
        """Coefficient array, lowest degree first."""
        return list(self.coeffs)
