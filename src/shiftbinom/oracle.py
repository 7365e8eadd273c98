"""Independent floating-point evaluation of the integrals and series.

Every integrand here is the cosine-power product
prod_i (2 cos(pi t - pi (i-1) p/q))^(r l_i): with r even, a real
trigonometric polynomial in 2 pi t of degree r*n/2 and period 1.  One set of
samples serves every integral of it.  The product is sampled once, at
N = 2(r*n + 1) equally spaced points, more than its degree r*n needs.  The
period integral is the mean of those samples.  Discrete orthogonality turns
the same samples into the product's Fourier modes, exactly up to roundoff,
and each mode integrates in closed form over any interval.  The odd and the
antisymmetric expansions both integrate the product against a square wave,
+1 on [-1/2, c] and -1 on [c, 1/2], the odd one at its one sign flip c and
the antisymmetric one at c = 0, since its sine product is the cosine product
half a period on.  The integral side of each expansion is evaluated with
libm cosines and sines alone and reads no value from `exact` or `sums`; only
the coefficient side calls `sums.Coefficients`.  Agreement with the exact
engine is therefore evidence, not circularity.

Every function takes its phase p/q as the Fraction `phase`, 0 for
q -> infinity.  Each angle pi k p/q, a factor's shift at k = i - 1 or a
term's at k = A, is formed by `_angle` from k p mod 2q, reduced exactly in
integers, as the one float pi ((k p mod 2q) / q): cosine and sine have
period 2 pi, so no value changes, and the angle keeps its precision at any
size of p, q or k.

Doubles bound the spec.  |2 cos| <= 2, so a sample is at most 2^(rn) in size,
an fsum over the N samples, or over them times roots of unity, at most
N 2^(rn), and a coefficient at most C(rn, rn/2) <= 2^(rn).  `_samples` takes
a spec only while N 2^(rn) is a finite double, rn <= 1012, and raises
ParameterError otherwise.

Roundoff bounds.  `identity_bound` bounds |lhs - rhs| of `even_expansion`,
and `square_wave_bound` that of `odd_expansion` and `antisym_expansion`, on
correct coefficients, from the operations each side performs.  Write
e = 2^-52 and M = 2^(rn).  A rounded operation errs by at most e/2 relative;
a libm call (cos, sin, the pow behind `**`, and the cos and sin inside
`cmath.exp`) by at most 1 ulp, e relative; `math.fsum` rounds its exact sum
once.  First-order terms are kept, and each
constant is rounded up.

- A sample.  The angle pi t - shift has t = j/N and the shift pi v, where
  v = (k p mod 2q)/q lies in [0, 2): three roundings on pi t < pi, three on
  pi v < 2 pi and one on the difference, |x| < 2 pi, so it errs by at most
  11 pi e/2 < 18 e.  Then b = 2 cos x errs by at most 2(18 + 1) e = 38 e,
  and |b| <= 2; b^n_i by at most
  n_i 2^(n_i - 1) 38 e + 2^(n_i) e = (19 n_i + 1) 2^(n_i) e; and a product
  of at most j such factors, each error scaled by the other factors, at
  most 2^(rn - n_i), plus j roundings of size M e/2, by at most
  S = (19 rn + 2j) M e.
- The identity.  The mean fsum/N adds two roundings: (19 rn + 2j + 1) M e.
  A coefficient term cos(pi A p/q) float(c_A) has the angle pi v, which
  errs by at most 3 pi e < 10 e, cos 1 ulp more, and two roundings: at most
  12 e |c_A|.  The even coefficients are non-negative integers that sum to
  C(rn, rn/2) <= M, so the side with its fsum errs by at most 13 M e.  In
  all (19 rn + 2j + 14) M e <= 19 (rn + j + 1) M e.
- A mode a_k = (2/N) sum_j f_j w^(kj), with |a_k| <= 2M.  A root of unity,
  exp(-2 pi i m/N), has three roundings on an angle below 2 pi and two libm
  calls: it errs by at most 12 e.  A product f_j w errs by at most
  S + 13 M e, the two fsums add M e, and the division by N 2 M e more:
  |da_k| <= 2 S + 30 M e, and half that for a_0.
- An integral over [lo, hi], within [-1/2, 1/2] and of length L, adds
  a_0 (hi - lo) and for k = 1..rn/2 the terms
  Im(a_k (e^(2 pi i k hi) - e^(2 pi i k lo)))/(2 pi k).  Each exponent has
  three roundings on an angle of at most pi k, so the difference errs by
  at most (3 pi k + 7) e, and with the product and the division term k by
  at most |da_k|/(pi k) + 3 M e + 14 M e/(pi k); a_0 (hi - lo) errs by at
  most L |da_0| + 2 M e.  The oracle takes rn <= 1012, so k <= 506 and the
  sum of 1/(pi k) is below 2.2: the integral errs by at most
  (L + 4.4) S + (1.5 rn + 100 + 15 L) M e.
- The square wave at c in [-1/2, 1/2) is the integral over [-1/2, c] minus
  the one over [c, 1/2].  Their lengths sum to 1, and the difference, at
  most M in size, adds M e/2: it errs by at most
  9.8 S + (3 rn + 216) M e = (189.2 rn + 19.6 j + 216) M e.
- The antisymmetric check.  Its lhs is minus the square wave at c = 0,
  which is exact.  Put z = e^(i pi t) and u = e^(i pi p/q); the cosine and
  sine products are Laurent polynomials in z and u whose integer
  coefficients have absolute sums M each, and
  pi c_A = -(1/2) sum over odd j of the differences of their coefficients
  at z^(2j) u^(+-A), over j.  So the antisym-exact coefficients have
  absolute sum at most 2M/pi < M.  A term sin(pi A p/q) c_A errs by at
  most 15 e |c_A|, float(c) times the float 1/pi included, so the side
  errs by at most 16 M e.  In all (189.2 rn + 19.6 j + 232) M e.
- The odd check's lhs is the square wave at c = pq - 1/2 - floor(pq),
  times (-1)^(floor(pq) + 1), where pq, the float of p/q mod 2 < 2, errs
  by at most e/2.  The sign and the cut are read from the same pq, so they
  are those of the phase pq: where pq rounds to an integer, the cut moves
  from 1/2 to -1/2 as the sign flips, and the integral does not change.
  With the two subtractions that form c, the cut errs by at most 2 e, and
  a sign flip moved by d moves the integral by at most 2 M d: 4 M e more,
  (189.2 rn + 19.6 j + 220) M e.
- The odd check's rhs.  With the float of 1 - 2|x| <= 1, the even series
  errs by 14 M e, 13 M e as in the identity.  A pair of poles a1 != a2 of
  `Coefficients.residues`, 2 or more apart, adds at most |b t|/2 to two
  entries, and the |b t| of one spec sum to 4 M: sum_a |rho1_a| <= 4 M.  At
  12 e |rho1_a| a term, the sine series errs by 50 M e, its quotient by
  2 pi, below 0.64 M, by 9 M e, and the difference M e more.  In all
  (189.2 rn + 19.6 j + 244) M e.
- Both checks therefore err by at most 190 (rn + j + 2) M e.

The bounds grow as 2^(rn): at rn = 24 the identity bound is 2.0e-6, and at
rn = 60 it is 3.2e5, so the float check resolves fewer digits as rn grows.
Each is a worst case: the errors measured on specs up to rn = 64 stay
below 2^(rn) 2^-52.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Callable
from fractions import Fraction

from .exact import ParameterError, as_float
from .sums import Coefficients, Family, SumSpec

__all__ = [
    "even_expansion",
    "odd_expansion",
    "antisym_expansion",
    "identity_bound",
    "square_wave_bound",
]


def _angle(k: int, phase: Fraction) -> float:
    """pi k p/q as the float pi ((k p mod 2q) / q), reduced exactly in
    integers first (see the module docstring)."""
    p, q = phase.numerator, phase.denominator
    return math.pi * (k * p % (2 * q) / q)


def _samples(spec: SumSpec, phase: Fraction) -> list[float]:
    """The cosine-power product at t = j/N, j = 0..N-1, with
    N = 2(r*n + 1).  A spec with N 2^(rn) past double range raises
    ParameterError (see the module docstring)."""
    rn = spec.r * spec.n
    n = 2 * (rn + 1)
    # exact int-to-float comparisons, the first reached only while 2^rn is a small int
    if rn > sys.float_info.max_exp or n * 2**rn > sys.float_info.max:
        raise ParameterError(f"the float oracle takes r*n <= 1012, not {rn}")
    factors = [(_angle(i, phase), spec.r * li) for i, li in enumerate(spec.l) if li]
    samples = []
    for j in range(n):
        t, out = j / n, 1.0
        for shift, power in factors:
            out *= (2.0 * math.cos(math.pi * t - shift)) ** power
        samples.append(out)
    return samples


def _modes(spec: SumSpec, f: list[float]) -> list[complex]:
    """The modes a_0..a_{rn/2} of the product sampled as f, which equals
    Re sum_k a_k e^(2 pi i k t).

    By discrete orthogonality a_k is 2/N (1/N for a_0) times the sum of the
    N samples times e^(-2 pi i k j / N), read from a table of the N roots of
    unity; with r even the product has no frequency above r*n/2, so none
    aliases onto another.
    """
    n = len(f)
    roots = [cmath.exp(-2j * math.pi * m / n) for m in range(n)]
    modes = []
    for k in range(spec.r * spec.n // 2 + 1):
        terms = [fj * roots[k * j % n] for j, fj in enumerate(f)]
        c = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
        modes.append(c / n if k == 0 else 2.0 * c / n)
    return modes


def _integrate(modes: list[complex], lo: float, hi: float) -> float:
    """The integral over [lo, hi] of Re sum_k a_k e^(2 pi i k t), in closed form:
    a_0 (hi - lo) plus Im(a_k (e^(2 pi i k hi) - e^(2 pi i k lo))) / (2 pi k)."""
    return math.fsum(
        [modes[0].real * (hi - lo)]
        + [
            (a * (cmath.exp(2j * math.pi * k * hi) - cmath.exp(2j * math.pi * k * lo))).imag
            / (2.0 * math.pi * k)
            for k, a in enumerate(modes[1:], start=1)
        ]
    )


def _square_wave(spec: SumSpec, phase: Fraction, c: float) -> float:
    """The integral over [-1/2, c] minus the one over [c, 1/2] of the
    cosine-power product, from its modes."""
    modes = _modes(spec, _samples(spec, phase))
    return _integrate(modes, -0.5, c) - _integrate(modes, c, 0.5)


def _odd_total_integral(spec: SumSpec, phase: Fraction) -> float:
    """Integral form of the total odd-A cosine expansion.

    Trading the second cosine for its half-integer expansion flips the sign
    of the integrand each time t - p/q crosses a half-odd integer.  These
    points are 1 apart, so the period integral is the square wave at
    c = p/q - 1/2 - floor(p/q), times the sign (-1)^(floor(p/q) + 1) of the
    piece below c.  p/q is reduced exactly mod 2, the expansion's period,
    and c and the sign are both read from its one float (see the module
    docstring).
    """
    pq = float(phase % 2)
    k = math.floor(pq)
    return (1.0 if k % 2 else -1.0) * _square_wave(spec, phase, pq - 0.5 - k)


def _series(coeffs: Coefficients, trig: Callable[[float], float], phase: Fraction) -> float:
    """The coefficient side: the sum over the default A range of coeffs of
    trig(pi A p/q) times the coefficient at A, each angle formed by `_angle`."""
    return math.fsum(trig(_angle(A, phase)) * as_float(coeffs(A), coeffs.family.pi_exp)
                     for A in coeffs.default_A_range())


# Each expansion returns (integral side, coefficient side).


def even_expansion(spec: SumSpec, phase: Fraction) -> tuple[float, float]:
    """The period integral, the mean of the cosine samples, and the sum over
    the even support of cos(pi A p/q) times the even coefficient."""
    f = _samples(spec, phase)
    return math.fsum(f) / len(f), _series(Coefficients(spec, Family.EVEN), math.cos, phase)


def odd_expansion(spec: SumSpec, phase: Fraction) -> tuple[float, float]:
    """The integral of the total odd-A expansion, and its sum over every odd
    A.  With the poles of `Coefficients.residues`, put A = a + d: the
    triangle and square waves, the sums over odd d of
    cos(pi d x)/d^2 = (pi^2/4)(1 - 2|x|) and sin(pi d x)/d = (pi/2) sgn(x)
    on [-1, 1), make it the finite sum, at p/q reduced exactly to x in [-1, 1),

        (1 - 2|x|) sum_a even(a) cos(pi a x) - (sgn(x) / (2 pi)) sum_a rho1_a sin(pi a x)"""
    lhs = _odd_total_integral(spec, phase)
    x = (phase + 1) % 2 - 1
    even = Coefficients(spec, Family.EVEN)
    sine = math.fsum(math.sin(_angle(a, x)) * float(rho) for a, rho in even.residues().items())
    sgn = (x > 0) - (x < 0)
    return lhs, float(1 - 2 * abs(x)) * _series(even, math.cos, x) - sgn * sine / (2.0 * math.pi)


def antisym_expansion(spec: SumSpec, phase: Fraction) -> tuple[float, float]:
    """The cosine minus the sine integral over [0, 1/2], and the sum over the
    default A range of sin(pi A p/q) times the antisym-exact coefficient.
    The sine product is the cosine one at t - 1/2, so the lhs is minus the
    square wave at 0."""
    lhs = -_square_wave(spec, phase, 0.0)
    return lhs, _series(Coefficients(spec, Family.ANTISYM_EXACT), math.sin, phase)


def identity_bound(spec: SumSpec) -> float:
    """The roundoff bound 19 (rn + j + 1) 2^(rn) 2^-52 of even_expansion's
    |lhs - rhs|, derived in the module docstring."""
    rn = spec.r * spec.n
    return math.ldexp(19 * (rn + spec.j + 1), rn - 52)


def square_wave_bound(spec: SumSpec) -> float:
    """The roundoff bound 190 (rn + j + 2) 2^(rn) 2^-52 of |lhs - rhs| of
    odd_expansion and antisym_expansion, derived in the module docstring."""
    rn = spec.r * spec.n
    return math.ldexp(190 * (rn + spec.j + 2), rn - 52)
