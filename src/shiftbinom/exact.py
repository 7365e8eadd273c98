"""Exact scalars: big rationals and rational multiples of powers of
beta(s) = sin(pi*s)/pi.

A binomial coefficient whose entry is shifted off the integers by a rational
s in (0, 1) equals an exact rational times one power of beta(s).  Writing
Gamma(l+1-x) = Gamma(1-x) prod_{i=1..l} (i-x), the reflection identity
Gamma(1+x)Gamma(1-x) = pi x/sin(pi x) collapses both Gamma factors, and
C(l, x) = (-1)^(k+1) l! / prod_{i=0..l} (i-x) * beta(s) at x = k + s: one
closed product, `beta_coeff(l, k, s)`, of integers l and k and the shift s.
`shifted_binomial` wraps it, with its checks, in a `ScaledValue`; the hot
loops of `sums` and `sequences` call it directly.  Gamma is never evaluated
in floating point on this path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "ParameterError",
    "Shift",
    "ScaledValue",
    "as_float",
    "SHIFT_ZERO",
    "SHIFT_HALF",
    "factorial",
    "newton_binomial",
    "beta_coeff",
    "shifted_binomial",
]


class ParameterError(ValueError):
    """A parameter outside the domain of the library function that checks it.

    The CLI reports this, and only this, ValueError as a usage error (exit
    2); any other ValueError from the library is a bug.
    """


@lru_cache(maxsize=1024)
def factorial(n: int) -> int:
    """n!, memoized; coefficient sweeps revisit the same few n thousands of
    times.  The cache is bounded, so a long-lived process cannot grow it
    without limit."""
    return math.factorial(n)


def newton_binomial(l: int, entry: int) -> int:
    """C(l, entry) with the usual convention: 0 outside 0 <= entry <= l."""
    if l < 0:
        raise ParameterError("l must be non-negative")
    if entry < 0 or entry > l:
        return 0
    return math.comb(l, entry)


@dataclass(frozen=True)
class Shift:
    """Rational shift of the binomial entry off the integers, 0 <= s < 1.

    s = 0 is the classical case; s = 1/2 is the distinguished one where
    beta(s) = 1/pi.
    """

    s: Fraction

    def __post_init__(self):
        if not isinstance(self.s, Fraction):
            object.__setattr__(self, "s", Fraction(self.s))
        if not 0 <= self.s < 1:
            raise ParameterError("shift must satisfy 0 <= s < 1")

    @classmethod
    def parse(cls, text: str) -> "Shift":
        return cls(Fraction(text))

    @property
    def is_zero(self) -> bool:
        return self.s == 0

    @property
    def beta(self) -> float:
        """float image of sin(pi*s)/pi, the transcendental scale of this shift."""
        return math.sin(math.pi * float(self.s)) / math.pi

    def __str__(self) -> str:
        return str(self.s)


SHIFT_ZERO = Shift(Fraction(0))
SHIFT_HALF = Shift(Fraction(1, 2))


@dataclass(frozen=True, eq=False)
class ScaledValue:
    """coeff * beta(s)^scale_exp, with beta(s) = sin(pi*s)/pi.

    scale_exp == 0 means the value is exactly rational; a zero coeff always
    has scale_exp 0, so every zero is one value.  The value records an exact
    result and does no arithmetic: callers compute with coeff.
    """

    coeff: Fraction
    scale_exp: int
    shift: Shift

    def __post_init__(self):
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))
        if self.scale_exp < 0:
            raise ValueError("scale_exp must be non-negative")
        if self.coeff == 0 and self.scale_exp != 0:
            object.__setattr__(self, "scale_exp", 0)

    def __float__(self) -> float:
        return float(self.coeff) * self.shift.beta ** self.scale_exp

    def __eq__(self, other):
        if not isinstance(other, ScaledValue):
            return NotImplemented
        if self.coeff != other.coeff or self.scale_exp != other.scale_exp:
            return False
        return self.scale_exp == 0 or self.shift == other.shift

    def __hash__(self):
        return hash((self.coeff, self.scale_exp, self.shift if self.scale_exp else None))

    def __repr__(self) -> str:
        if self.scale_exp == 0:
            return f"ScaledValue({self.coeff})"
        return f"ScaledValue({self.coeff} * beta({self.shift.s})^{self.scale_exp})"


def as_float(x: ScaledValue | Fraction | int) -> float:
    """float(x), or inf/-inf with the sign of x when x lies outside double range."""
    try:
        return float(x)
    except OverflowError:
        pass
    if isinstance(x, ScaledValue):
        try:
            # the rational factor alone overflowed; its product with beta^scale_exp may not
            return float(x.coeff * Fraction(x.shift.beta) ** x.scale_exp)
        except OverflowError:
            x = x.coeff
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
    return Fraction(sign * factorial(l) * b ** (l + 1), denom)


def shifted_binomial(l: int, entry, shift: Shift) -> ScaledValue:
    """C(l, entry) = l! / (Gamma(entry+1) Gamma(l-entry+1)) for entry = k + s.

    With s = 0 this is newton_binomial (scale_exp 0, poles giving exact 0).
    With 0 < s < 1, Gamma(l+1-x) = Gamma(1-x) prod_{i=1..l} (i-x) and the
    reflection identity give the closed product beta_coeff(l, k, s) times
    beta(s) (scale_exp 1).
    """
    if l < 0:
        raise ParameterError("l must be non-negative")
    x = Fraction(entry)
    k = x - shift.s
    if k.denominator != 1:
        raise ParameterError(f"entry {x} is not an integer offset from shift {shift.s}")
    k = int(k)
    if shift.is_zero:
        return ScaledValue(Fraction(newton_binomial(l, k)), 0, shift)
    return ScaledValue(beta_coeff(l, k, shift.s), 1, shift)
