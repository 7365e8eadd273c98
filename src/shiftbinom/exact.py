"""Exact scalars: big rationals and rational multiples of powers of
beta(s) = sin(pi*s)/pi.

A binomial coefficient whose entry is shifted off the integers by a rational
s in (0, 1) equals an exact rational times one power of beta(s).  Writing
Gamma(l+1-x) = Gamma(1-x) prod_{i=1..l} (i-x), the reflection identity
Gamma(1+x)Gamma(1-x) = pi x/sin(pi x) collapses both Gamma factors, and
C(l, x) = (-1)^(k+1) l! / prod_{i=0..l} (i-x) * beta(s) at x = k + s: one
closed product, `beta_coeff(l, k, s)`, of integers l and k and the shift s.
`shifted_binomial` reads k and s from the entry and returns that rational, or
the classical binomial when s = 0: `sums` reads every binomial entry of its
sums here, and only the term loop of the `sequences` binomial kinds calls
`beta_coeff` directly.  Every value is a plain Fraction: the power of
beta that it carries is fixed by the shift of the entry or by the coefficient
family, and `as_float` takes it where the float is formed.  Gamma is never
evaluated in floating point on this path.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "ParameterError",
    "as_float",
    "newton_binomial",
    "beta_coeff",
    "shifted_binomial",
]


class ParameterError(ValueError):
    """A parameter outside the domain of the library function that checks it.

    The CLI reports this, and only this, ValueError as a usage error (exit
    2); any other ValueError from the library is a bug.
    """


class Value:
    """Base of the package's immutable value types.  A subclass names its
    fields, in order, in __slots__, and Value.__init__ sets them from its
    arguments, one each, in that order; a subclass that checks its fields
    calls it first and checks the fields it set.  Equality, hash, repr, copy
    and pickle go by the fields; an instance equals only an instance of its
    own class, and any later assignment or deletion raises AttributeError."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._values())
        return f"{type(self).__name__}({', '.join(f'{name}={v!r}' for name, v in fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def newton_binomial(l: int, entry: int) -> int:
    """C(l, entry) with the usual convention: 0 outside 0 <= entry <= l."""
    if l < 0:
        raise ParameterError("l must be non-negative")
    if entry < 0 or entry > l:
        return 0
    return math.comb(l, entry)


def as_float(x: Fraction | int, pi_exp: int = 0) -> float:
    """x / pi^pi_exp as a float, or inf/-inf with the sign of x when it lies
    outside double range.  The float is float(x) * beta^pi_exp with the float
    beta = beta(1/2) = 1/pi; when float(x) alone overflows, the product is
    formed exactly first, from the Fraction of that float beta."""
    beta = 1 / math.pi
    try:
        return float(x) * beta**pi_exp
    except OverflowError:
        try:
            return float(x * Fraction(beta) ** pi_exp)
        except OverflowError:
            return math.inf if x > 0 else -math.inf


def beta_coeff(l: int, k: int, s: Fraction) -> Fraction:
    """The rational r with C(l, k + s) = r * beta(s), for l >= 0, an integer k
    and 0 < s < 1.  With s = a/b the closed product reads

        r = (-1)^(k+1) l! / prod_{i=0..l} (i-k-s)
          = (-1)^(k+1) l! b^(l+1) / prod_{i=0..l} (b(i-k) - a),

    one integer product whose factors never vanish.
    """
    a, b = s.numerator, s.denominator
    sign = 1 if k % 2 else -1
    denom = math.prod(b * (i - k) - a for i in range(l + 1))
    return Fraction(sign * math.factorial(l) * b ** (l + 1), denom)


def shifted_binomial(l: int, entry) -> Fraction:
    """C(l, entry) = l! / (Gamma(entry+1) Gamma(l-entry+1)), as the rational
    factor of its power of beta(s) at entry = k + s, k = floor(entry).

    With s = 0 this is newton_binomial, the poles giving an exact 0.  With
    0 < s < 1, Gamma(l+1-x) = Gamma(1-x) prod_{i=1..l} (i-x) and the
    reflection identity give the closed product beta_coeff(l, k, s), which
    times beta(s) is the binomial.
    """
    if l < 0:
        raise ParameterError("l must be non-negative")
    x = Fraction(entry)
    k = math.floor(x)
    s = x - k
    return Fraction(newton_binomial(l, k)) if s == 0 else beta_coeff(l, k, s)
