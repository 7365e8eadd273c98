"""Exact scalars: big rationals, half-integers, and rational multiples of
powers of beta(s) = sin(pi*s)/pi.

A binomial coefficient whose entry is shifted off the integers by a rational
s in (0, 1) equals an exact rational times one power of beta(s).  Both Gamma
factors are reduced to finite Pochhammer ladders anchored at Gamma(1+s) and
Gamma(1-s), and the leftover Gamma(1+s)Gamma(1-s) collapses through the
reflection identity Gamma(z)Gamma(1-z) = pi/sin(pi*z).  Gamma is never
evaluated in floating point on this path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "Rational",
    "HalfInt",
    "Shift",
    "ScaledValue",
    "as_float",
    "SHIFT_ZERO",
    "SHIFT_HALF",
    "factorial",
    "newton_binomial",
    "shifted_binomial",
    "pi_times_half_binomial_check",
    "sinc_at",
]

# The universal exact scalar.  fractions.Fraction already guarantees the
# invariants (reduced form, positive denominator, exact field operations).
Rational = Fraction


@lru_cache(maxsize=None)
def factorial(n: int) -> int:
    """n!, memoized; coefficient sweeps revisit the same n thousands of times."""
    return math.factorial(n)


def newton_binomial(l: int, entry: int) -> int:
    """C(l, entry) with the usual convention: 0 outside 0 <= entry <= l."""
    if l < 0:
        raise ValueError("l must be non-negative")
    if entry < 0 or entry > l:
        return 0
    return math.comb(l, entry)


@dataclass(frozen=True, order=True)
class HalfInt:
    """An integer or half-integer stored as its doubled value.

    Keeping the doubled integer makes parity and range logic plain integer
    comparisons; nothing fractional leaks into index bookkeeping.
    """

    doubled: int

    @staticmethod
    def of(value) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return HalfInt(2 * value)
        f = Fraction(value)
        if f.denominator == 1:
            return HalfInt(2 * f.numerator)
        if f.denominator == 2:
            return HalfInt(f.numerator)
        raise ValueError(f"not an integer or half-integer: {value!r}")

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def as_fraction(self) -> Fraction:
        return Fraction(self.doubled, 2)

    def as_int(self) -> int:
        if self.doubled % 2:
            raise ValueError(f"{self} is not an integer")
        return self.doubled // 2

    def __add__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.doubled + other.doubled)
        if isinstance(other, int):
            return HalfInt(self.doubled + 2 * other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HalfInt):
            return HalfInt(self.doubled - other.doubled)
        if isinstance(other, int):
            return HalfInt(self.doubled - 2 * other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return HalfInt(2 * other - self.doubled)
        return NotImplemented

    def __neg__(self):
        return HalfInt(-self.doubled)

    def __mul__(self, other):
        if isinstance(other, int):
            return HalfInt(self.doubled * other)
        return NotImplemented

    __rmul__ = __mul__

    def __float__(self) -> float:
        return self.doubled / 2.0

    def __str__(self) -> str:
        if self.doubled % 2 == 0:
            return str(self.doubled // 2)
        return f"{self.doubled}/2"


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
            raise ValueError("shift must satisfy 0 <= s < 1")

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

    scale_exp == 0 means the value is exactly rational; the canonical zero is
    coeff 0 with scale_exp 0 and absorbs into sums regardless of scale.
    Addition otherwise requires matching (shift, scale_exp); multiplication
    requires matching shifts once both sides carry beta factors.
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

    @staticmethod
    def zero(shift: Shift = SHIFT_HALF) -> "ScaledValue":
        return ScaledValue(Fraction(0), 0, shift)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def rational(self) -> Fraction:
        if self.scale_exp:
            raise ValueError("value carries beta factors; not a plain rational")
        return self.coeff

    def __float__(self) -> float:
        return float(self.coeff) * self.shift.beta ** self.scale_exp

    def __add__(self, other):
        if not isinstance(other, ScaledValue):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.scale_exp != other.scale_exp or (
            self.scale_exp and self.shift != other.shift
        ):
            raise ValueError("cannot add values with different beta scales")
        return ScaledValue(self.coeff + other.coeff, self.scale_exp, self.shift)

    def __sub__(self, other):
        if not isinstance(other, ScaledValue):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return ScaledValue(-self.coeff, self.scale_exp, self.shift)

    def __mul__(self, other):
        if isinstance(other, ScaledValue):
            if self.scale_exp and other.scale_exp and self.shift != other.shift:
                raise ValueError("cannot multiply values with different shifts")
            shift = self.shift if self.scale_exp else other.shift
            return ScaledValue(
                self.coeff * other.coeff, self.scale_exp + other.scale_exp, shift
            )
        if isinstance(other, (int, Fraction)):
            return ScaledValue(self.coeff * other, self.scale_exp, self.shift)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return ScaledValue(self.coeff / other, self.scale_exp, self.shift)
        return NotImplemented

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


class _GammaLadders:
    """Monotone-growing Pochhammer prefix products for one shift s.

    up[k]   = (1+s)(2+s)...(k+s)      Gamma(k+s+1)  = Gamma(1+s) * up[k]
    down[m] = s(s-1)...(s-m+1)        Gamma(1-m+s)  = Gamma(1+s) / down[m]
    rise[m] = (1-s)(2-s)...(m-s)      Gamma(m+1-s)  = Gamma(1-s) * rise[m]
    fall[m] = (-s)(-1-s)...(1-m-s)    Gamma(1-m-s)  = Gamma(1-s) / fall[m]

    A zero factor (possible only at s = 0) poisons the tail of its ladder,
    which is exactly right: those Gamma arguments sit on poles and the
    reciprocal Gamma, hence the binomial, vanishes.
    """

    __slots__ = ("s", "_lock", "_up", "_down", "_rise", "_fall")

    def __init__(self, s: Fraction):
        self.s = s
        self._lock = threading.Lock()
        one = Fraction(1)
        self._up = [one]
        self._down = [one]
        self._rise = [one]
        self._fall = [one]

    def _entry(self, cache: list, n: int, factor) -> Fraction:
        if n >= len(cache):
            with self._lock:
                while len(cache) <= n:
                    i = len(cache)
                    cache.append(cache[-1] * factor(i))
        return cache[n]

    def up_ratio(self, k: int) -> Fraction:
        """Gamma(k+s+1) / Gamma(1+s); raises ZeroDivisionError on a pole."""
        s = self.s
        if k >= 0:
            return self._entry(self._up, k, lambda i: i + s)
        return 1 / self._entry(self._down, -k, lambda i: s - (i - 1))

    def rise_ratio(self, m: int) -> Fraction:
        """Gamma(m+1-s) / Gamma(1-s); raises ZeroDivisionError on a pole."""
        s = self.s
        if m >= 0:
            return self._entry(self._rise, m, lambda i: i - s)
        return 1 / self._entry(self._fall, -m, lambda i: 1 - s - i)


_LADDERS: dict[Fraction, _GammaLadders] = {}
_LADDERS_LOCK = threading.Lock()


def _ladders(s: Fraction) -> _GammaLadders:
    lad = _LADDERS.get(s)
    if lad is None:
        with _LADDERS_LOCK:
            lad = _LADDERS.setdefault(s, _GammaLadders(s))
    return lad


def shifted_binomial(l: int, entry, shift: Shift) -> ScaledValue:
    """C(l, entry) = l! / (Gamma(entry+1) Gamma(l-entry+1)) for entry = k + s.

    With s = 0 this is newton_binomial (scale_exp 0, poles giving exact 0).
    With 0 < s < 1 the two Gamma factors reduce to exact ladder products and
    one beta(s) survives:  coeff = l! / (s * up_ratio(k) * rise_ratio(l-k)).
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    x = entry.as_fraction() if isinstance(entry, HalfInt) else Fraction(entry)
    k = x - shift.s
    if k.denominator != 1:
        raise ValueError(f"entry {x} is not an integer offset from shift {shift.s}")
    k = int(k)
    if shift.is_zero:
        return ScaledValue(Fraction(newton_binomial(l, k)), 0, shift)
    lad = _ladders(shift.s)
    try:
        u = lad.up_ratio(k)
        v = lad.rise_ratio(l - k)
        coeff = factorial(l) / (shift.s * u * v)
    except ZeroDivisionError:
        return ScaledValue(Fraction(0), 0, shift)
    return ScaledValue(coeff, 1, shift)


def pi_times_half_binomial_check(l: int, entry) -> Fraction:
    """pi * C(l, entry) for a genuine half-integer entry, via the closed
    product (-1)^(entry+1/2) * l! * prod_{k=entry}^{l+entry} 1/(l-k).

    Redundant with shifted_binomial at s = 1/2; exists as a cross-check path.
    """
    if l < 0:
        raise ValueError("l must be non-negative")
    h = HalfInt.of(entry)
    if h.is_integer:
        raise ValueError("entry must be a genuine half-integer")
    sign = -1 if ((h.doubled + 1) // 2) % 2 else 1
    denom = Fraction(1)
    for i in range(l + 1):
        denom *= Fraction(2 * l - h.doubled - 2 * i, 2)
    return sign * factorial(l) / denom


def sinc_at(x, shift: Shift = SHIFT_HALF) -> ScaledValue:
    """sin(pi*x) / (pi*x), exactly.

    1 at x = 0 (removable limit), 0 at nonzero integers, and for x = k + s
    with integer k: (-1)^k / (k+s) times one power of beta(s).
    """
    f = x.as_fraction() if isinstance(x, HalfInt) else Fraction(x)
    if f == 0:
        return ScaledValue(Fraction(1), 0, shift)
    if f.denominator == 1:
        return ScaledValue(Fraction(0), 0, shift)
    k = f - shift.s
    if k.denominator != 1:
        raise ValueError(f"{f} is neither an integer nor offset by shift {shift.s}")
    sign = -1 if int(k) % 2 else 1
    return ScaledValue(Fraction(sign) / f, 1, shift)
