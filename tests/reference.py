"""Cross-check helpers that only the tests use: independent routes to values
the library computes, kept out of the package.  Not collected by pytest;
test modules import it by name.

    Scaled                   coeff * beta(s)^scale_exp, with the exact algebra of the sums below
    scaled_binomial          a shifted binomial as a Scaled, with its power of beta(s)
    sinc_at                  exact sin(pi x)/(pi x) as a Scaled
    chu_vandermonde_partial  exact partial sums of the shifted Chu-Vandermonde sum
    support_bound            the stated |A| bound of the even-A summation range
    float_binomial           C(l, x) in doubles through libm's lgamma
    shifted_series_eval      the truncated shifted binomial expansion in doubles
    cg_weight_factorial_form the composition weight c_g as a ratio of factorials
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from shiftbinom.exact import SHIFT_HALF, Shift, shifted_binomial
from shiftbinom.sequences import GComposition
from shiftbinom.sums import SumSpec


@dataclass(frozen=True, eq=False)
class Scaled:
    """coeff * beta(s)^scale_exp, with beta(s) = sin(pi*s)/pi, that adds and
    multiplies exactly.  A zero coeff always has scale_exp 0, so every zero
    is one value; the zero absorbs into a sum whatever its scale.  Addition
    otherwise requires matching (shift, scale_exp), and multiplication
    matching shifts once both sides carry beta factors."""

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

    @classmethod
    def zero(cls, shift: Shift = SHIFT_HALF) -> "Scaled":
        return cls(Fraction(0), 0, shift)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0

    def rational(self) -> Fraction:
        if self.scale_exp:
            raise ValueError("value carries beta factors; not a plain rational")
        return self.coeff

    def __float__(self) -> float:
        beta = math.sin(math.pi * float(self.shift.s)) / math.pi
        return float(self.coeff) * beta**self.scale_exp

    def __eq__(self, other):
        if not isinstance(other, Scaled):
            return NotImplemented
        if self.coeff != other.coeff or self.scale_exp != other.scale_exp:
            return False
        return self.scale_exp == 0 or self.shift == other.shift

    def __hash__(self):
        return hash((self.coeff, self.scale_exp, self.shift if self.scale_exp else None))

    def __add__(self, other):
        if not isinstance(other, Scaled):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.scale_exp != other.scale_exp or (
            self.scale_exp and self.shift != other.shift
        ):
            raise ValueError("cannot add values with different beta scales")
        return Scaled(self.coeff + other.coeff, self.scale_exp, self.shift)

    def __sub__(self, other):
        if not isinstance(other, Scaled):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Scaled(-self.coeff, self.scale_exp, self.shift)

    def __mul__(self, other):
        if isinstance(other, Scaled):
            if self.scale_exp and other.scale_exp and self.shift != other.shift:
                raise ValueError("cannot multiply values with different shifts")
            shift = self.shift if self.scale_exp else other.shift
            return Scaled(self.coeff * other.coeff, self.scale_exp + other.scale_exp, shift)
        if isinstance(other, (int, Fraction)):
            return Scaled(self.coeff * other, self.scale_exp, self.shift)
        return NotImplemented

    __rmul__ = __mul__


def scaled_binomial(l: int, entry) -> Scaled:
    """C(l, entry) at entry = k + s as a Scaled: the library's rational
    factor with the power beta(s)^[s > 0] that the shift of the entry fixes."""
    x = Fraction(entry)
    s = x - math.floor(x)
    return Scaled(shifted_binomial(l, x), 1 if s else 0, Shift(s))


def sinc_at(x, shift: Shift = SHIFT_HALF) -> Scaled:
    """sin(pi*x) / (pi*x), exactly.

    1 at x = 0 (removable limit), 0 at nonzero integers, and for x = k + s
    with integer k: (-1)^k / (k+s) times one power of beta(s).
    """
    f = Fraction(x)
    if f == 0:
        return Scaled(Fraction(1), 0, shift)
    if f.denominator == 1:
        return Scaled(Fraction(0), 0, shift)
    k = f - shift.s
    if k.denominator != 1:
        raise ValueError(f"{f} is neither an integer nor offset by shift {shift.s}")
    sign = -1 if int(k) % 2 else 1
    return Scaled(Fraction(sign) / f, 1, shift)


def chu_vandermonde_partial(
    l1: int, l2: int, l1p: int, l2p: int, shift: Shift, m: int
) -> Scaled:
    """Partial sum over k in [-m, m] of C(l1, l1p+k+s) C(l2, l2p-k-s).

    Converges to C(l1+l2, l1p+l2p) as m grows; with s = 0 it terminates and
    is exact (scale_exp 0) once m >= l1 + l2.
    """
    if not (0 <= l1p <= l1 and 0 <= l2p <= l2):
        raise ValueError("need 0 <= l1p <= l1 and 0 <= l2p <= l2")
    if m < 0:
        raise ValueError("m must be >= 0")
    total = Scaled.zero(shift)
    for k in range(-m, m + 1):
        a = scaled_binomial(l1, l1p + k + shift.s)
        # C(l2, l2p-k-s) = C(l2, l2-l2p+k+s) by the Gamma-argument exchange
        b = scaled_binomial(l2, l2 - l2p + k + shift.s)
        total += a * b
    return total


def support_bound(spec: SumSpec, g: int | None = None) -> int:
    """|A| bound (g-1) * r * floor(n^2/4) of the stated summation range,
    read with g = j when no composition context is given."""
    if g is None:
        g = spec.j
    return (g - 1) * spec.r * (spec.n**2 // 4)


def _signed_loggamma(x: float) -> tuple[float, int]:
    """(log|Gamma(x)|, sign); sign 0 flags a pole at a non-positive integer."""
    if x > 0:
        return math.lgamma(x), 1
    if x == math.floor(x):
        return math.inf, 0
    sign = -1 if math.floor(x) % 2 else 1
    return math.lgamma(x), sign


def float_binomial(l: int, x: float) -> float:
    """l! / (Gamma(x+1) Gamma(l-x+1)) in doubles, via lgamma with explicit
    sign tracking; 0 at the Gamma poles.  Shares nothing with the exact path."""
    la, sa = _signed_loggamma(x + 1.0)
    lb, sb = _signed_loggamma(l - x + 1.0)
    if sa == 0 or sb == 0:
        return 0.0
    return sa * sb * math.exp(math.lgamma(l + 1.0) - la - lb)


def shifted_series_eval(l: int, s, t: float, K: int) -> complex:
    """Truncated shifted expansion sum_{|k| <= K} C(l, l/2+k+s) e^(2 pi i (k+s) t),
    with k integer for even l and half-integer for odd l.

    Converges to (2 cos(pi t))^l for |t| < 1/2; the binomials are float-Gamma
    evaluations, independent of the exact path.
    """
    if abs(t) >= 0.5:
        raise ValueError("the expansion holds on the open interval |t| < 1/2")
    sf = float(s)
    half_l = l / 2.0
    if l % 2 == 0:
        ks = [float(k) for k in range(-K, K + 1)]
    else:
        ks = [k + 0.5 for k in range(-K - 1, K + 1)]
    re = []
    im = []
    for k in ks:
        c = float_binomial(l, half_l + k + sf)
        phase = 2.0 * math.pi * (k + sf) * t
        re.append(c * math.cos(phase))
        im.append(c * math.sin(phase))
    return complex(math.fsum(re), math.fsum(im))


def cg_weight_factorial_form(comp: GComposition) -> Fraction:
    """The weight that `sequences.cg_weight` computes as a multinomial times
    a binomial product, written as a ratio of window-sum factorials.  Zero
    parts pad a composition of fewer than g parts; each adds a factor 0! = 1."""
    g = comp.g
    l = comp.parts + (0,) * max(0, g - comp.j)
    num = math.prod(math.factorial(sum(l[i : i + g]) - 1) for i in range(len(l) - g + 1))
    den = math.prod(math.factorial(sum(l[i + 1 : i + g]) - 1) for i in range(len(l) - g))
    return Fraction(num, den * math.prod(math.factorial(v) for v in l))
