"""Cross-check helpers that only the tests use: independent routes to values
the library computes, kept out of the package.  Not collected by pytest;
test modules import it by name.

    sinc_at                  exact sin(pi x)/(pi x), as the rational factor of its power of beta(s)
    chu_vandermonde_partial  exact partial sums of the shifted Chu-Vandermonde sum
    support_bound            the stated |A| bound of the even-A summation range
    float_binomial           C(l, x) in doubles through libm's lgamma
    shifted_series_eval      the truncated shifted binomial expansion in doubles
    cg_weight_factorial_form the composition weight c_g as a ratio of factorials
    per_spec_coefficients    a weighted sum of specs' coefficients, one Coefficients per spec
    odd_A_sums_by_spec       the cum/agg partial sums from per_spec_coefficients
    agg_weighted             the (c_g, spec) terms of agg, one per g-composition
    closed_walks_by_area     closed walks on Z^2 counted by twice their signed area
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable

from shiftbinom.exact import shifted_binomial
from shiftbinom.sequences import GComposition, cg_weight, enumerate_g_compositions
from shiftbinom.sums import Coefficients, Family, SumSpec, Window


def sinc_at(x, s: Fraction = Fraction(1, 2)) -> Fraction:
    """sin(pi*x) / (pi*x), exactly, as the rational r of r * beta(s)^e.

    1 at x = 0 (removable limit) and 0 at nonzero integers, with e = 0; for
    x = k + s with integer k, (-1)^k / (k+s), with e = 1.
    """
    f = Fraction(x)
    if f == 0:
        return Fraction(1)
    if f.denominator == 1:
        return Fraction(0)
    k = f - s
    if k.denominator != 1:
        raise ValueError(f"{f} is neither an integer nor offset by shift {s}")
    sign = -1 if int(k) % 2 else 1
    return Fraction(sign) / f


def chu_vandermonde_partial(
    l1: int, l2: int, l1p: int, l2p: int, s: Fraction, m: int
) -> Fraction:
    """Partial sum over k in [-m, m] of C(l1, l1p+k+s) C(l2, l2p-k-s), as the
    rational r of r * beta(s)^2 for 0 < s < 1, and r itself for s = 0.

    Converges to C(l1+l2, l1p+l2p) as m grows; with s = 0 it terminates and
    is exact once m >= l1 + l2.
    """
    if not (0 <= l1p <= l1 and 0 <= l2p <= l2):
        raise ValueError("need 0 <= l1p <= l1 and 0 <= l2p <= l2")
    if m < 0:
        raise ValueError("m must be >= 0")
    total = Fraction(0)
    for k in range(-m, m + 1):
        a = shifted_binomial(l1, l1p + k + s)
        # C(l2, l2p-k-s) = C(l2, l2-l2p+k+s) by the Gamma-argument exchange
        b = shifted_binomial(l2, l2 - l2p + k + s)
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


def per_spec_coefficients(
    weighted: list[tuple[Fraction | int, SumSpec]],
    family: Family,
    m: int | None = None,
    window: Window = Window.SYMMETRIC,
) -> Callable[[int], Fraction]:
    """A -> the sum over (w, spec) in weighted of w times the coefficient of
    spec's own single-spec Coefficients: one lattice sum per spec, where a
    weighted Coefficients sums one merged tail."""
    coeffs = [(w, Coefficients(spec, family, m, window)) for w, spec in weighted]
    return lambda A: sum((w * c(A) for w, c in coeffs), Fraction(0))


def odd_A_sums_by_spec(
    pref: int, weighted: list[tuple[Fraction | int, SumSpec]], ms: Iterable[int]
) -> list[Fraction]:
    """At each m of ms, ascending, pref times the sum over i = 0..m of the
    per-spec weighted odd coefficient at A = 2i + 1: `cum` with pref 2 and
    one spec of weight 1, `agg` with pref 2 g n and agg_weighted."""
    odd = per_spec_coefficients(weighted, Family.ODD)
    values, total, done = [], Fraction(0), 0
    for m in ms:
        for i in range(done, m + 1):
            total += odd(2 * i + 1)
        done = m + 1
        values.append(pref * total)
    return values


def agg_weighted(
    n: int, g: int, r: int, weight: Callable[[GComposition], Fraction] = cg_weight
) -> list[tuple[Fraction, SumSpec]]:
    """(weight, spec) for each g-composition of n, the weight c_g unless
    another is given: the spec takes r and the composition's parts, with a
    zero part appended to a single part, since a spec needs two."""
    return [
        (weight(c), SumSpec(r=r, l=c.parts + (0,) * (c.j < 2)))
        for c in enumerate_g_compositions(n, g)
    ]


def closed_walks_by_area(steps: int) -> dict[int, int]:
    """The closed walks of the given length on Z^2 with unit steps, counted
    by twice their signed (algebraic) area; areas with no walk are absent.

    A dynamic program over the states (x, y, twice the area so far): a step
    (dx, dy) from (x, y) adds x dy - y dx, twice the signed area of the
    triangle it sweeps about the origin.  A state that cannot return to the
    origin in the steps left is dropped.
    """
    walks = Counter({(0, 0, 0): 1})
    for left in range(steps - 1, -1, -1):
        grown: Counter = Counter()
        for (x, y, a), count in walks.items():
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                if abs(x + dx) + abs(y + dy) <= left:
                    grown[x + dx, y + dy, a + x * dy - y * dx] += count
        walks = grown
    return {a: count for (_, _, a), count in sorted(walks.items())}
