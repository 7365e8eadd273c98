"""Independent floating-point evaluation of the integrals and series.

Nothing here touches the exact path: integrals go through equally spaced
sampling (exact for trigonometric polynomials by discrete orthogonality) or
Gauss-Legendre nodes.  Agreement with the exact engine is therefore
evidence, not circularity.

The Gauss-Legendre rules are computed here, in pure Python: Newton's method
on the three-term Legendre recurrence, from the starting guesses
cos(pi (i + 3/4) / (n + 1/2)), gives the nodes; the weights are
2 / ((1 - x^2) P_n'(x)^2).  Checked against a 40-digit rule for n in {32,
48, 64, 96, 128, 192}, every node is within 6.5e-17 and every weight within
1.4e-16 of the exact one, so both are within 2^-52 (the smallest weights,
at the ends, to 4e-13 relative at n = 192); the nodes are within 3 ulp of
numpy's leggauss.  Each rule is built once per node count and kept, in a
bounded cache, as tuples of Python floats.

The integrand is prod_i (2 cos(pi t - pi (i-1) p/q))^(r l_i): every function
takes its phase p/q as the Fraction `phase`, 0 for q -> infinity, and forms
floats from the reduced p and q, as p / q and pi A p / q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .sums import Coefficients, Family, Rows, SumSpec, antisym_A_bound

__all__ = [
    "QuadratureResult",
    "trig_integral_full",
    "trig_integral_halfrange",
    "even_expansion",
    "odd_expansion",
    "antisym_expansion",
]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    samples: int
    est_error: float


def _product(spec: SumSpec, phase: Fraction, t: float, kind: str = "cos") -> float:
    fn = math.cos if kind == "cos" else math.sin
    pq = phase.numerator / phase.denominator
    out = 1.0
    for i, li in enumerate(spec.l, start=1):
        if li:
            out *= (2.0 * fn(math.pi * t - math.pi * (i - 1) * pq)) ** (spec.r * li)
    return out


def trig_integral_full(spec: SumSpec, phase: Fraction) -> QuadratureResult:
    """Integral over one period of the cosine-power product, as the mean over
    N equally spaced samples.

    The integrand is a trigonometric polynomial of degree r*n, so any N
    above the degree is exact up to roundoff; N = r*n + 1 is used and a
    doubled-N evaluation bounds the roundoff.
    """
    deg = spec.r * spec.n
    n1 = deg + 1
    v1 = math.fsum(_product(spec, phase, j / n1) for j in range(n1)) / n1
    n2 = 2 * n1
    v2 = math.fsum(_product(spec, phase, j / n2) for j in range(n2)) / n2
    est = abs(v1 - v2) + 1e-15 * (1.0 + abs(v2))
    return QuadratureResult(value=v2, samples=n2, est_error=est)


# a bound, not a setting: a node took at most 4 steps for every n in 1..300,
# 1248 and 2448
_NEWTON_STEPS = 10


def _legendre(n: int, x: float) -> tuple[float, float]:
    """P_n(x) and P_n'(x), by the three-term recurrence, for n >= 1 and |x| < 1."""
    p0, p1 = 1.0, x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    # P_n' = n (P_{n-1} - x P_n) / (1 - x^2); factored, 1 - x^2 keeps its digits near |x| = 1
    return p1, n * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))


def _gauss_legendre(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-point Gauss-Legendre nodes on [-1, 1], ascending, and their
    weights.  The positive nodes are found by Newton's method and mirrored
    exactly, x[n-1-i] = -x[i]; for odd n the middle node is exactly 0."""
    xs, ws = [], []  # the positive nodes, descending
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(_NEWTON_STEPS):
            p, dp = _legendre(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) < 1e-14:  # quadratic convergence: x is now exact to roundoff
                break
        else:
            raise RuntimeError(
                f"Gauss-Legendre node {i} of {n} did not converge in {_NEWTON_STEPS} steps"
            )
        _, dp = _legendre(n, x)
        xs.append(x)
        ws.append(2.0 / ((1.0 - x) * (1.0 + x) * dp * dp))
    mid_x, mid_w = [], []
    if n % 2:
        _, dp = _legendre(n, 0.0)
        mid_x, mid_w = [0.0], [2.0 / (dp * dp)]
    return (
        tuple([-x for x in xs] + mid_x + xs[::-1]),
        tuple(ws + mid_w + ws[::-1]),
    )


@lru_cache(maxsize=32)
def _legendre_rule(nodes: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Gauss-Legendre nodes and weights on [-1, 1], immutable so that every
    caller can share the cached rule."""
    return _gauss_legendre(nodes)


def _gauss(
    spec: SumSpec, phase: Fraction, lo: float, hi: float, kind: str, nodes: int
) -> float:
    x, w = _legendre_rule(nodes)
    mid, rad = (lo + hi) / 2.0, (hi - lo) / 2.0
    return rad * math.fsum(
        wi * _product(spec, phase, mid + rad * xi, kind) for xi, wi in zip(x, w)
    )


def trig_integral_halfrange(
    spec: SumSpec,
    phase: Fraction,
    lo: float = -0.5,
    hi: float = 0.5,
    kind: str = "cos",
    nodes: int | None = None,
) -> QuadratureResult:
    """Gauss-Legendre integral of the cosine- or sine-power product over
    [lo, hi]; est_error from node-count doubling."""
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be 'cos' or 'sin'")
    if nodes is None:
        nodes = max(32, spec.r * spec.n + 24)
    v1 = _gauss(spec, phase, lo, hi, kind, nodes)
    v2 = _gauss(spec, phase, lo, hi, kind, 2 * nodes)
    est = abs(v1 - v2) + 1e-15 * (1.0 + abs(v2))
    return QuadratureResult(value=v2, samples=2 * nodes, est_error=est)


def _odd_total_integral(spec: SumSpec, phase: Fraction, nodes: int | None = None) -> float:
    """Integral form of the total odd-A cosine expansion.

    Trading the second cosine for its half-integer expansion flips the sign
    of the integrand each time t - p/q crosses a half-odd integer, so the
    period integral splits at those points with alternating signs.
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
    total = 0.0
    for a, b in zip(cuts, cuts[1:]):
        if b - a < 1e-12:
            continue
        sign = -1.0 if math.floor((a + b) / 2.0 - pq + 0.5) % 2 else 1.0
        total += sign * trig_integral_halfrange(spec, phase, a, b, "cos", nodes).value
    return total


# Each expansion returns (integral side, coefficient side), and evaluates its
# family through one Coefficients object on `rows`: the expansions of one spec
# that share a store build the spec's tail weights once.


def even_expansion(
    spec: SumSpec, phase: Fraction, rows: Rows | None = None
) -> tuple[float, float]:
    """The period integral, and the sum over the even support of
    cos(pi A p/q) times the even coefficient."""
    p, q = phase.numerator, phase.denominator
    lhs = trig_integral_full(spec, phase).value
    even = Coefficients(spec, Family.EVEN, rows=rows)
    rhs = math.fsum(
        math.cos(math.pi * A * p / q) * even(A).coeff.numerator
        for A in even.default_A_range()
    )
    return lhs, rhs


def odd_expansion(
    spec: SumSpec, phase: Fraction, odd_A_cut: int = 199, rows: Rows | None = None
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
        trig_integral_halfrange(spec, phase, 0.0, 0.5, "cos").value
        - trig_integral_halfrange(spec, phase, 0.0, 0.5, "sin").value
    )
    bound = antisym_A_bound(spec)
    antisym = Coefficients(spec, Family.ANTISYM_EXACT, rows=rows)
    rhs = math.fsum(
        math.sin(math.pi * A * p / q) * float(antisym(A))
        for A in range(-bound, bound + 1, 2)
    )
    return lhs, rhs
