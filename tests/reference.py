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
    pole_residues            the odd family's double and simple poles, one (j1, j2) pair at a time
    laurent_expansion        the cosine or sine product as a Laurent polynomial in z and u
    laurent_even             the even coefficients read from laurent_expansion
    laurent_antisym_exact    the antisym-exact coefficients read from laurent_expansion
"""

from __future__ import annotations

import itertools
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


def pole_residues(coeffs: Coefficients) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """({a: double-pole residue}, {a: rho1_a}) of pi^2 times the odd
    coefficient of the merged tail of coeffs, nonzero entries only: the
    plain loop over every key (n1, e1, n2, e2) of weight c and every pair
    (j1, j2), with poles a1 = 2 j1 - e1 and a2 = e2 - 2 j2 and the factor
    4 (-1)^((e1 + e2)/2 + j1 + j2) C(n1, j1) C(n2, j2) c.  No grouping."""
    double: Counter = Counter()
    simple: Counter = Counter()
    for (n1, e1), group in coeffs.tail.items():
        for (n2, e2), (p, q) in group.items():
            for j1, j2 in itertools.product(range(n1 + 1), range(n2 + 1)):
                a1, a2 = 2 * j1 - e1, e2 - 2 * j2
                sign = -1 if ((e1 + e2) // 2 + j1 + j2) % 2 else 1
                bt = Fraction(4 * sign * math.comb(n1, j1) * math.comb(n2, j2) * p, q)
                if a1 == a2:
                    double[a1] += bt
                else:
                    simple[a1] += bt / (a1 - a2)
                    simple[a2] -= bt / (a1 - a2)
    return ({a: v for a, v in sorted(double.items()) if v},
            {a: v for a, v in sorted(simple.items()) if v})


def laurent_expansion(spec: SumSpec, sine: bool = False) -> dict[tuple[int, int], int]:
    """The cosine product prod_i (2 cos(pi t - pi (i-1) p/q))^(r l_i), or with
    sine its sine form, as {(k, a): c}, the Laurent polynomial sum of
    c z^k u^a in z = e^(i pi t) and u = e^(i pi p/q).  With w_i = z u^-(i-1),
    2 cos = w_i + 1/w_i and (2 sin)^n = (-1)^(n/2) (w_i - 1/w_i)^n for even
    n, so every c is an integer.  Shares only math.comb with the library."""
    poly = {(0, 0): 1}
    for i, li in enumerate(spec.l):  # i is the 1-based index less 1
        n = spec.r * li
        factor = {(n - 2 * k, -i * (n - 2 * k)):
                  (-1) ** (n // 2 + k) * math.comb(n, k) if sine else math.comb(n, k)
                  for k in range(n + 1)}
        grown: Counter = Counter()
        for (k1, a1), c1 in poly.items():
            for (k2, a2), c2 in factor.items():
                grown[k1 + k2, a1 + a2] += c1 * c2
        poly = {key: c for key, c in grown.items() if c}
    return poly


def laurent_even(spec: SumSpec) -> dict[int, int]:
    """{A: the even coefficient}, nonzero only: [z^0 u^A] of the cosine
    product, its period mean."""
    return {a: c for (k, a), c in sorted(laurent_expansion(spec).items()) if k == 0}


def laurent_antisym_exact(spec: SumSpec) -> dict[int, Fraction]:
    """{A: pi times the antisym-exact coefficient}, nonzero only.  With P and
    S the cosine and sine products, the integral over [0, 1/2] of z^(2j) is
    i/(pi j) at odd j and 0 at other j != 0, and S(t) = P(t - 1/2) has P's
    period mean, so for A > 0

        pi c_A = -(1/2) sum over odd j of ([z^(2j) u^A] - [z^(2j) u^-A])(P - S) / j

    and c_-A = -c_A."""
    diff = Counter(laurent_expansion(spec))
    diff.subtract(laurent_expansion(spec, sine=True))
    d: Counter = Counter()
    for (k, a), c in diff.items():
        if k % 4 == 2:  # k = 2j, j odd
            d[a] += Fraction(c, k // 2)
    out = {A: (d[-A] - d[A]) / 2 for A in {abs(a) for a in d}}
    return {A: v for A, v in sorted({**out, **{-A: -v for A, v in out.items()}}.items()) if v}
