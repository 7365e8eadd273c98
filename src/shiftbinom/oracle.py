"""Independent floating-point evaluation of the integrals and series.

Every integrand here is the cosine-power product
prod_i (2 cos(pi t - pi (i-1) p/q))^(r l_i), or its sine form: with r even, a
real trigonometric polynomial in 2 pi t of degree r*n/2 and period 1.  One
set of samples per product serves every integral of it.  The product is
sampled once, at N = 2(r*n + 1) equally spaced points, more than its degree
r*n needs.  The period integral is the mean of those samples.  Discrete
orthogonality turns the same samples into the product's Fourier modes,
exactly up to roundoff, and each mode integrates in closed form over any
interval.  The integral side of each expansion is evaluated with libm
cosines and sines alone and reads nothing from `exact` or `sums`; only the
coefficient side calls the exact families.  Agreement with the exact engine
is therefore evidence, not circularity.

Every function takes its phase p/q as the Fraction `phase`, 0 for
q -> infinity, and forms floats from the reduced p and q, as p / q and
pi A p / q.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .sums import Coefficients, Family, Rows, SumSpec, antisym_A_bound

__all__ = ["even_expansion", "odd_expansion", "antisym_expansion"]


def _samples(spec: SumSpec, phase: Fraction, kind: str) -> list[float]:
    """The cosine- or sine-power product at t = j/N, j = 0..N-1, with
    N = 2(r*n + 1)."""
    fn = math.cos if kind == "cos" else math.sin
    pq = phase.numerator / phase.denominator
    n = 2 * (spec.r * spec.n + 1)
    samples = []
    for j in range(n):
        t, out = j / n, 1.0
        for i, li in enumerate(spec.l, start=1):
            if li:
                out *= (2.0 * fn(math.pi * t - math.pi * (i - 1) * pq)) ** (spec.r * li)
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


def _odd_total_integral(spec: SumSpec, phase: Fraction) -> float:
    """Integral form of the total odd-A cosine expansion.

    Trading the second cosine for its half-integer expansion flips the sign
    of the integrand each time t - p/q crosses a half-odd integer, so the
    period integral splits at those points with alternating signs; every
    piece is integrated from the one set of modes.
    """
    pq = phase.numerator / phase.denominator
    cuts = [-0.5]
    z = math.floor(pq)
    while pq - 0.5 + z < 0.5:
        c = pq - 0.5 + z
        if c > -0.5:
            cuts.append(c)
        z += 1
    cuts.append(0.5)
    modes = _modes(spec, _samples(spec, phase, "cos"))
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        sign = -1.0 if math.floor((a + b) / 2.0 - pq + 0.5) % 2 else 1.0
        total += sign * _integrate(modes, a, b)
    return total


# Each expansion returns (integral side, coefficient side), and evaluates its
# family through one Coefficients object on `rows`: the expansions of one spec
# that share a store build the spec's tail weights once.


def even_expansion(
    spec: SumSpec, phase: Fraction, rows: Rows | None = None
) -> tuple[float, float]:
    """The period integral, the mean of the cosine samples, and the sum over
    the even support of cos(pi A p/q) times the even coefficient."""
    p, q = phase.numerator, phase.denominator
    f = _samples(spec, phase, "cos")
    lhs = math.fsum(f) / len(f)
    even = Coefficients(spec, Family.EVEN, rows=rows)
    rhs = math.fsum(
        math.cos(math.pi * A * p / q) * even(A).coeff.numerator
        for A in even.default_A_range()
    )
    return lhs, rhs


def odd_expansion(
    spec: SumSpec, phase: Fraction, odd_A_cut: int, rows: Rows | None = None
) -> tuple[float, float]:
    """The integral of the total odd-A expansion, and the sum over odd
    |A| <= odd_A_cut of cos(pi A p/q) times the odd coefficient."""
    p, q = phase.numerator, phase.denominator
    lhs = _odd_total_integral(spec, phase)
    odd = Coefficients(spec, Family.ODD, rows=rows)
    rhs = math.fsum(
        2.0 * math.cos(math.pi * A * p / q) * float(odd(A))
        for A in range(1, odd_A_cut + 1, 2)
    )
    return lhs, rhs


def antisym_expansion(
    spec: SumSpec, phase: Fraction, rows: Rows | None = None
) -> tuple[float, float]:
    """The cosine minus the sine integral over [0, 1/2], and the sum over
    |A| <= antisym_A_bound of sin(pi A p/q) times the antisym-exact coefficient."""
    p, q = phase.numerator, phase.denominator
    lhs = (
        _integrate(_modes(spec, _samples(spec, phase, "cos")), 0.0, 0.5)
        - _integrate(_modes(spec, _samples(spec, phase, "sin")), 0.0, 0.5)
    )
    bound = antisym_A_bound(spec)
    antisym = Coefficients(spec, Family.ANTISYM_EXACT, rows=rows)
    rhs = math.fsum(
        math.sin(math.pi * A * p / q) * float(antisym(A))
        for A in range(-bound, bound + 1, 2)
    )
    return lhs, rhs
