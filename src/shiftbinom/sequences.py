"""Rational sequences converging to pi, pi^2, pi/sin(pi s) and friends, plus
g-composition enumeration and their combinatorial weights.

Each operation returns a SeqRecord whose `exact` field is a plain Fraction:
the beta-power bookkeeping is stripped symbolically, never through floats.
Sequence windows default to the one-sided 'paper' convention; the symmetric
variant is available everywhere a half-integer window appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .exact import (
    SHIFT_HALF,
    HalfInt,
    ScaledValue,
    Shift,
    factorial,
    newton_binomial,
    shifted_binomial,
)
from .sums import (
    SumSpec,
    Window,
    even_A_antisym_exact,
    even_A_antisym_partial,
    even_A_coefficient,
    even_A_shifted_partial,
    half_window,
    odd_A_coefficient_direct,
)

__all__ = [
    "SeqRecord",
    "GComposition",
    "pi_seq_t0",
    "pi2_seq",
    "pi_over_sin_seq",
    "pi_over_sin_sq_seq",
    "pi_over_sin_cos_seq",
    "odd_A_cumulative_seq",
    "pi2_ratio_seq",
    "pi_ratio_seq",
    "enumerate_g_compositions",
    "cg_weight",
    "cg_weight_factorial_form",
    "aggregate_composition_seq",
    "average_consecutive",
]


@dataclass(frozen=True)
class SeqRecord:
    """One row of a convergence table."""

    m: int
    exact: Fraction
    approx: float
    target_tag: str
    target_value: float
    abs_error: float


def _record(m: int, exact: Fraction, tag: str, target: float) -> SeqRecord:
    approx = float(exact)
    return SeqRecord(
        m=m,
        exact=exact,
        approx=approx,
        target_tag=tag,
        target_value=target,
        abs_error=abs(approx - target),
    )


def _rational(sv: ScaledValue, scale_exp: int) -> Fraction:
    """The rational factor of sv, which must carry beta^scale_exp (or be 0).

    A real check, not an assert, so it also holds under python -O; it raises
    RuntimeError because a broken invariant is not a usage error.
    """
    if sv.scale_exp != scale_exp and not sv.is_zero:
        raise RuntimeError(f"expected a value carrying beta^{scale_exp}, got {sv!r}")
    return sv.coeff


def _strip(l: int, entry: HalfInt | Fraction, shift: Shift = SHIFT_HALF) -> Fraction:
    """(pi/sin(pi s)) * C(l, entry) as the exact rational; pi * C(l, entry)
    at the default s = 1/2."""
    return _rational(shifted_binomial(l, entry, shift), 1)


def pi_seq_t0(l: int, m: int, window: Window = Window.PAPER) -> SeqRecord:
    """2^-l * sum over the window of pi*C(l, l/2+k), k half-integer.

    The value of the shifted expansion of (2 cos pi t)^l at t = 0; converges
    to pi as m grows.
    """
    if l <= 0 or l % 2:
        raise ValueError("l must be a positive even integer")
    if m < 1:
        raise ValueError("m must be >= 1")
    total = Fraction(0)
    for k in half_window(m, window):
        total += _strip(l, HalfInt(l) + k)
    return _record(m, total / 2**l, "pi", math.pi)


def pi2_seq(l: int, m: int, window: Window = Window.PAPER) -> SeqRecord:
    """((l/2)!^2/l!) * sum of pi*C(l, l/2+k) * (-1)^(k-1/2)/k over the window;
    the term-wise integral of the same expansion, converging to pi^2."""
    if l <= 0 or l % 2:
        raise ValueError("l must be a positive even integer")
    if m < 1:
        raise ValueError("m must be >= 1")
    pref = Fraction(factorial(l // 2) ** 2, factorial(l))
    total = Fraction(0)
    for k in half_window(m, window):
        sign = -1 if ((k.doubled - 1) // 2) % 2 else 1
        total += _strip(l, HalfInt(l) + k) * sign / k.as_fraction()
    return _record(m, pref * total, "pi^2", math.pi**2)


def _odd_l_window(m: int, window: Window) -> list[HalfInt]:
    """Half-integer window used by the odd-l generic sequences:
    [-m-1/2, m-1/2] one-sided, [-m-1/2, m+1/2] symmetric."""
    hi = 2 * m + 1 if window is Window.SYMMETRIC else 2 * m - 1
    return [HalfInt(d) for d in range(-2 * m - 1, hi + 1, 2)]


def pi_over_sin_seq(
    l: int, shift: Shift, m: int, window: Window = Window.PAPER
) -> SeqRecord:
    """Generic-shift analogue of pi_seq_t0; target pi/sin(pi s).

    k runs over integers for even l and half-integers for odd l, so that the
    entry l/2 + k + s is always an integer plus s.
    """
    if shift.is_zero:
        raise ValueError("s = 0 has no 1/sin(pi s) scale; use the classical path")
    if l < 0 or m < 1:
        raise ValueError("need l >= 0 and m >= 1")
    half_l = Fraction(l, 2)
    if l % 2 == 0:
        ks = [Fraction(k) for k in range(-m, m + 1)]
    else:
        ks = [k.as_fraction() for k in _odd_l_window(m, window)]
    total = Fraction(0)
    for k in ks:
        total += _strip(l, half_l + k + shift.s, shift)
    target = math.pi / math.sin(math.pi * float(shift.s))
    return _record(m, total / 2**l, "pi/sin(pi*s)", target)


def pi_over_sin_sq_seq(l: int, shift: Shift, m: int) -> SeqRecord:
    """((l/2)!^2/l!) * sum of (pi/sin pi s)*C(l, l/2+k+s) * (-1)^k/(k+s) for
    even l; target (pi/sin(pi s))^2."""
    if shift.is_zero:
        raise ValueError("s = 0 has no 1/sin(pi s) scale")
    if l < 0 or l % 2:
        raise ValueError("l must be even; use pi_over_sin_cos_seq for odd l")
    if m < 1:
        raise ValueError("m must be >= 1")
    pref = Fraction(factorial(l // 2) ** 2, factorial(l))
    half_l = Fraction(l, 2)
    total = Fraction(0)
    for k in range(-m, m + 1):
        sign = -1 if k % 2 else 1
        total += _strip(l, half_l + k + shift.s, shift) * sign / (k + shift.s)
    target = (math.pi / math.sin(math.pi * float(shift.s))) ** 2
    return _record(m, pref * total, "(pi/sin(pi*s))^2", target)


def pi_over_sin_cos_seq(
    l: int, shift: Shift, m: int, window: Window = Window.PAPER
) -> SeqRecord:
    """Odd-l companion of pi_over_sin_sq_seq; target pi/(sin(pi s) cos(pi s)).

    (l/2)!^2 at half-integer l/2 contributes one extra pi, cancelled here
    symbolically: the prefactor becomes ((2M)!/(4^M M!))^2 / l!, M = (l+1)/2.
    """
    if l < 1 or l % 2 == 0:
        raise ValueError("l must be odd")
    if shift.is_zero or shift.s == Fraction(1, 2):
        raise ValueError("target pi/(sin cos) is undefined at s = 0 or s = 1/2")
    if m < 1:
        raise ValueError("m must be >= 1")
    big_m = (l + 1) // 2
    pref = Fraction(factorial(2 * big_m), 4**big_m * factorial(big_m)) ** 2 / factorial(l)
    half_l = Fraction(l, 2)
    total = Fraction(0)
    for kh in _odd_l_window(m, window):
        k = kh.as_fraction()
        sign = -1 if ((kh.doubled - 1) // 2) % 2 else 1
        total += _strip(l, half_l + k + shift.s, shift) * sign / (k + shift.s)
    s = float(shift.s)
    target = math.pi / (math.sin(math.pi * s) * math.cos(math.pi * s))
    return _record(m, pref * total, "pi/(sin(pi*s)*cos(pi*s))", target)


def odd_A_cumulative_seq(spec: SumSpec, m: int) -> SeqRecord:
    """2 * sum over odd A = 1..2m+1 of the pi^2-stripped odd-A coefficients;
    converges to pi^2 * C(rn, rn/2)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    total = Fraction(0)
    for a in range(m + 1):
        total += _rational(odd_A_coefficient_direct(spec, 2 * a + 1), 2)
    target = math.pi**2 * math.comb(spec.r * spec.n, spec.r * spec.n // 2)
    return _record(m, 2 * total, "pi^2*C(rn,rn/2)", target)


def pi2_ratio_seq(
    spec: SumSpec, A: int, m: int, window: Window = Window.PAPER
) -> SeqRecord:
    """Ratio of the truncated shifted even-A coefficient to its exact integer
    limit; a rational sequence converging to pi^2."""
    ref = even_A_coefficient(spec, A)
    if ref == 0:
        raise ValueError(f"A = {A} is outside the support; zero reference")
    num = even_A_shifted_partial(spec, A, m, window)
    return _record(m, num.coeff / ref, "pi^2", math.pi**2)


def pi_ratio_seq(
    spec: SumSpec, A: int, m: int, window: Window = Window.PAPER
) -> SeqRecord:
    """Ratio of the truncated antisymmetric coefficient (two pi powers) to its
    exact one-pi-power limit; converges to pi."""
    ref = even_A_antisym_exact(spec, A)
    if ref.is_zero:
        raise ValueError(f"antisymmetric reference coefficient vanishes at A = {A}")
    num = even_A_antisym_partial(spec, A, m, window)
    return _record(m, num.coeff / ref.coeff, "pi", math.pi)


def average_consecutive(records: list[SeqRecord]) -> list[SeqRecord]:
    """Optional acceleration post-process: pairwise means of consecutive
    partial sums.

    Not part of any defining sum, purely an extrapolation aid: for
    alternating tails it cancels the leading error term, which otherwise
    decays only as a power of m.  Exactness is preserved (means of
    rationals).  Input records must share one target.
    """
    if len(records) < 2:
        return list(records)
    if len({(r.target_tag, r.target_value) for r in records}) != 1:
        raise ValueError("records mix different targets")
    out = []
    for a, b in zip(records, records[1:]):
        out.append(_record(b.m, (a.exact + b.exact) / 2, b.target_tag, b.target_value))
    return out


@dataclass(frozen=True)
class GComposition:
    """Composition of n into non-negative parts: interior runs of zeros are
    capped at g-2 and boundary parts are nonzero."""

    parts: tuple[int, ...]
    g: int

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(v) for v in self.parts))
        if self.g < 2:
            raise ValueError("g must be >= 2")
        if not self.parts or any(v < 0 for v in self.parts):
            raise ValueError("parts must be a nonempty tuple of non-negative ints")
        if sum(self.parts) < 1:
            raise ValueError("composition must have positive total")
        if self.parts[0] == 0 or self.parts[-1] == 0:
            raise ValueError("leading/trailing zero parts are not allowed")
        run = 0
        for v in self.parts:
            run = run + 1 if v == 0 else 0
            if run > self.g - 2:
                raise ValueError(f"more than {self.g - 2} consecutive zeros")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def j(self) -> int:
        return len(self.parts)


def _fixed_length_compositions(
    n: int, j: int, run_cap: int
) -> Iterator[tuple[int, ...]]:
    def rec(prefix: list[int], remaining: int, run: int) -> Iterator[tuple[int, ...]]:
        pos = len(prefix)
        if pos == j:
            if remaining == 0:
                yield tuple(prefix)
            return
        last = pos == j - 1
        lo = 1 if pos == 0 or last else 0
        # a later part must stay >= 1, so keep one unit back unless at the end
        hi = remaining if last else remaining - 1
        for v in range(lo, hi + 1):
            if v == 0 and run >= run_cap:
                continue
            prefix.append(v)
            yield from rec(prefix, remaining - v, run + 1 if v == 0 else 0)
            prefix.pop()

    if n >= 1 and j >= 1:
        yield from rec([], n, 0)


def enumerate_g_compositions(n: int, g: int) -> Iterator[GComposition]:
    """All g-compositions of n, each exactly once, ordered by length and then
    lexicographically by parts."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if g < 2:
        raise ValueError("g must be >= 2")
    j_max = n + (n - 1) * (g - 2)
    for j in range(1, j_max + 1):
        for parts in _fixed_length_compositions(n, j, g - 2):
            yield GComposition(parts, g)


def _padded_parts(comp: GComposition) -> tuple[int, ...]:
    # virtual zero parts keep both printed weight forms well-defined for short
    # compositions; they never change the value (each added factor is C(.,0)=1)
    need = max(comp.j, comp.g)
    return comp.parts + (0,) * (need - comp.j)


def cg_weight(comp: GComposition) -> Fraction:
    """Composition weight: head multinomial prefactor times the window-sum
    binomial product."""
    g = comp.g
    l = _padded_parts(comp)
    j = len(l)
    head = sum(l[: g - 1])
    pref = Fraction(
        factorial(head - 1), math.prod(factorial(v) for v in l[: g - 1])
    )
    w = pref
    for i in range(j - g + 1):
        top = sum(l[i : i + g]) - 1
        if top < 0:
            raise ValueError("malformed composition for this g: empty window")
        w *= newton_binomial(top, l[i + g - 1])
    return w


def cg_weight_factorial_form(comp: GComposition) -> Fraction:
    """The same weight as a ratio of window-sum factorials; must agree with
    cg_weight on every valid composition."""
    g = comp.g
    l = _padded_parts(comp)
    j = len(l)
    num = 1
    for i in range(j - g + 1):
        top = sum(l[i : i + g]) - 1
        if top < 0:
            raise ValueError("malformed composition for this g: empty window")
        num *= factorial(top)
    den = 1
    for i in range(j - g):
        den *= factorial(sum(l[i + 1 : i + g]) - 1)
    return Fraction(num, den * math.prod(factorial(v) for v in l))


def _spec_parts(comp: GComposition) -> tuple[int, ...]:
    # sum specs need j >= 2; a single-part composition gets one zero appended,
    # which leaves the integrand and the q->infinity sum rule unchanged
    return comp.parts if comp.j >= 2 else comp.parts + (0,)


def aggregate_composition_seq(n: int, g: int, r: int, m: int) -> SeqRecord:
    """g*n * sum over g-compositions of cg_weight * odd-A cumulative value;
    converges to pi^2 * C(rn, rn/2) * C(gn, n)."""
    total = Fraction(0)
    for comp in enumerate_g_compositions(n, g):
        spec = SumSpec(r=r, l=_spec_parts(comp), q=None)
        total += cg_weight(comp) * odd_A_cumulative_seq(spec, m).exact
    exact = g * n * total
    target = (
        math.pi**2 * math.comb(r * n, r * n // 2) * math.comb(g * n, n)
    )
    return _record(m, exact, "pi^2*C(rn,rn/2)*C(gn,n)", target)
