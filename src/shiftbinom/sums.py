"""Multiple binomial sums indexed by the even/odd area variable A.

Each family is one A-coefficient of the cosine (sine, for the antisymmetric
families) expansion of prod_i (2 cos(pi t - pi (i-1) p/q))^(r l_i), with k_1
and k_2 eliminated in favour of A.  The coefficient of e^(i pi A p/q) does
not depend on p/q, so a spec is (r, l) alone; the phase is an argument of
the oracle, which sums the coefficients against it.  One lattice sum evaluates all seven:

    coeff(A) = sum over (s2, s1) of W[s2, s1] C(n2, n2/2 - A/2 - s1) H(A/2 + s2)

Here n_i = r l_i; W[s2, s1] sums prod_{i>=3} C(n_i, n_i/2 + k_i) over the
tail lattice points k_3..k_j with s2 = sum (i-2) k_i and s1 = sum (i-1) k_i;
H(x) = C(n1, n1/2 + x) when k_1 is eliminated too, and otherwise
H(x) = sum over k_1 of C(n1, n1/2 + k_1) g(x - k_1).  The family table,
whose rows are the `Family` members:

    family         A     1/pi power  k_1                  g
    even           even  0           eliminated           -
    odd            odd   2           eliminated           -
    odd-sinc       odd   2           integers             sinc(d)
    shifted        even  2           half-integer window  sinc(d)
    antisym        even  2           half-integer window  1/(pi d)
    antisym-exact  even  1           integers             (1 - cos(pi d))/(pi d)
    four           even  4           eliminated           -, with k_3 and k_4
                                                          on half-integer windows

Every half-integer window, here and in the windowed `seq` kinds, is the one
that `Window.indices` gives for the truncation convention and m; here
`half_window` reads it, doubled.

A binomial at a half-integer entry, like g at a half-integer d, is an exact
rational times 1/pi, so every term is a plain rational, and each family
carries one fixed power of 1/pi, `Family.pi_exp`.  `Coefficients` returns
that rational, the coefficient times pi^pi_exp, as a plain Fraction; a reader
that needs the coefficient's float takes the power from the family, as
`exact.as_float(c, family.pi_exp)`.

`Coefficients(terms, family, m, window)` is the one way to a coefficient:
one object per call (a table, a sequence, a verify check), evaluated at any
A, with `default_A_range()` the A of a table that names none and
`residues()` the poles that give the odd family from the even one;
`sum_rule_even` sums it over the even support.  `terms` is one spec, or a
weighted sum of specs, such as the g-compositions of `agg`, whose
coefficient is the weighted sum of theirs.  The object builds each spec's
tail weights W once and merges them into one tail, keyed by the doubled
entries of the two eliminated binomials, (n1, e1) outside and (n2, e2)
inside, with e1 = n1 + 2 s2 and e2 = n2 - 2 s1:

    coeff(A) = sum over (n1, e1) of C(n1, (e1 + A)/2)
                   sum over (n2, e2) of [sum of w W] C(n2, (e2 - A)/2)

Specs that share both keys add their w W once, when the tail is built, so
each A costs one lattice sum however many specs there are.  The families
with a k_1 axis take H((e1 - n1 + A)/2) in place of the outer binomial, and
sum one k_1 term, `Coefficients.k1_term`, over the rows n1: a table runs that
term over one axis, the half-integer window or the integers
|k_1| <= max n1/2 (where a smaller row's entry is 0), and a ratio sweep runs
it over its window, one term at a time.
Every binomial entry comes from the object's own `Rows` store, which
computes each once.  Nothing is cached at module level.
The sums run over integer numerators and one common denominator per
coefficient, and each coefficient becomes one Fraction at the end.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import defaultdict
from collections.abc import Callable, Iterable
from enum import Enum
from fractions import Fraction

from .exact import ParameterError, Value, shifted_binomial

__all__ = [
    "SumSpec",
    "Window",
    "Family",
    "Coefficients",
    "half_window",
    "sum_rule_even",
]


class Window(str, Enum):
    """Truncation conventions for the infinite half-integer sums: 'paper' is
    one-sided, and 'symmetric' adds the missing end, so that the A -> -A
    (anti)symmetry is exact at every finite truncation, not only in the
    limit.  `indices` is the one place where their windows are written.
    """

    PAPER = "paper"
    SYMMETRIC = "symmetric"

    def indices(self, m: int, odd_l: bool = False) -> range:
        """The integer indices i of the window at m, with k = i + 1/2 for a
        half-integer k: [-m-1, m] under 'symmetric'; under 'paper' [-m, m],
        or [-m-1, m-1] at odd l.  Each window holds 0 and the window at
        every smaller m."""
        if self is Window.SYMMETRIC:
            return range(-m - 1, m + 1)
        return range(-m - odd_l, m + 1 - odd_l)


def half_window(m: int | None, window: Window = Window.SYMMETRIC) -> range:
    """The half-integers k = i + 1/2 of the truncation window at size m,
    ascending, each given doubled as 2i + 1 over the indices i of
    `Window.indices`.  Every windowed family reads its m here, so this is
    where a missing one is reported."""
    if m is None or m < 1:
        raise ParameterError("a half-integer window needs a truncation m >= 1")
    i = Window(window).indices(m)
    return range(2 * i.start + 1, 2 * i.stop + 1, 2)


class SumSpec(Value):
    """Parameter bundle (r, l_1..l_j) of one integral/sum family.

    The phase p/q of the integral is no part of it: every family is the
    coefficient of e^(i pi A p/q), whatever p/q, and the phase enters only
    the oracle's side of an identity.  r and each part are taken by
    `operator.index`: a bool becomes an int, and a float or a string raises
    TypeError rather than being truncated.
    """

    __slots__ = ("r", "l")
    r: int
    l: tuple[int, ...]

    def __init__(self, r: int, l: Iterable[int]):
        super().__init__(operator.index(r), tuple(map(operator.index, l)))
        if self.r < 2 or self.r % 2:
            raise ParameterError("r must be a positive even integer")
        if len(self.l) < 2:
            raise ParameterError("need at least two parts l_1, l_2")
        if any(v < 0 for v in self.l):
            raise ParameterError("parts must be non-negative")

    @property
    def n(self) -> int:
        return sum(self.l)

    @property
    def j(self) -> int:
        return len(self.l)


Pair = tuple[int, int]  # the fraction p/q as (p, q), q > 0


# The k_1 weights g, as pi g(d) with d given doubled (d2 = 2d), each returned
# as a Pair like every other term of the sums.
def _over(c: int, d2: int) -> Pair:
    """c/d2 with the sign moved into the numerator."""
    return (c, d2) if d2 > 0 else (-c, -d2)


def _sinc(d2: int) -> Pair:
    """pi sinc(d) = sin(pi d)/d at a half-integer d."""
    return _over(-2 if ((d2 - 1) // 2) % 2 else 2, d2)


def _reciprocal(d2: int) -> Pair:
    """pi/(pi d) at a half-integer d."""
    return _over(2, d2)


def _one_minus_cos(d2: int) -> Pair:
    """(1 - cos(pi d))/d at an integer d: 2/d for odd d, else 0 (d = 0 too)."""
    return _over(4, d2) if d2 % 4 else (0, 1)


class Family(str, Enum):
    """Coefficient families exposed by `Coefficients` and the CLI; each is
    the coefficient of e^(i pi A p/q) in its expansion, and each member is
    its row of the family table:

    - parity: A % 2 of every A the family takes;
    - pi_exp: the power of 1/pi that every coefficient of the family carries;
    - weight: the k_1 weight g, or None when k_1 is eliminated;
    - half_axes: the i whose k_i runs over a size-m half-integer window.
    """

    EVEN = "even", 0, 0  # an integer, 0 outside the finite support
    ODD = "odd", 1, 2  # both eliminated entries are half-integers, hence 1/pi^2
    ODD_SINC = "odd-sinc", 1, 2, _sinc  # the odd coefficient again, exactly, at every odd A
    # pi^2 times it tends to the even coefficient as m grows
    SHIFTED = "shifted", 0, 2, _sinc, (1,)
    # the coefficient of -i e^(i pi A p/q) in the sine expansion over [0, 1]
    ANTISYM = "antisym", 0, 2, _reciprocal, (1,)
    ANTISYM_EXACT = "antisym-exact", 0, 1, _one_minus_cos  # the m -> infinity limit of antisym
    # half-integer k_3, k_4 make both eliminated entries half-integers
    FOUR = "four", 0, 4, None, (3, 4)

    def __new__(cls, value: str, parity: int, pi_exp: int,
                weight: Callable[[int], Pair] | None = None, half_axes: tuple[int, ...] = ()):
        member = str.__new__(cls, value)
        member._value_ = value
        member.parity, member.pi_exp = parity, pi_exp
        member.weight, member.half_axes = weight, half_axes
        return member

    @property
    def needs_m(self) -> bool:
        """Whether some k_i runs over a size-m half-integer window, so that
        the family takes a truncation m."""
        return bool(self.half_axes)


class Rows(dict):
    """The binomial row entries C(n, e2/2), times pi when e2/2 is a
    half-integer: the rational `shifted_binomial`, as a reduced Pair keyed
    (n, e2), each computed on first use and kept as long as the store is.
    An entry depends on n and e2 alone, so one store serves every spec of a
    weighted sum.  The sums over the eliminated binomials skip an integer
    entry off its row, e2 outside [0, 2 n], which is 0, so a table over a
    wide range of A stores no zero per A."""

    def __missing__(self, key: tuple[int, int]) -> Pair:
        c = shifted_binomial(key[0], Fraction(key[1], 2))
        value = self[key] = c.numerator, c.denominator
        return value


def _dot(terms: Iterable[tuple[Pair, Pair]]) -> Pair:
    """The sum of x*y over the terms (x, y), as one integer numerator over
    the least common multiple of the terms' denominators, unreduced."""
    num, den = 0, 1
    for (xp, xq), (yp, yq) in terms:
        p = xp * yp
        if p:
            q = xq * yq
            if den % q:
                f = q // math.gcd(den, q)
                num *= f
                den *= f
            num += p * (den // q)
    return num, den


def _axis(n: int, half: bool, m: int | None, window: Window) -> range:
    """2k over one summation index k of a C(n, n/2 + k): the integers
    |k| <= n/2, or the size-m half-integer window as half_window gives it."""
    return half_window(m, window) if half else range(-n, n + 1, 2)


def _tail_weights(
    spec: SumSpec, w: Fraction, half_axes: tuple[int, ...], m: int | None, window: Window,
    rows: Rows,
) -> dict[tuple[int, int], Pair]:
    """The tail lattice k_3..k_j of spec, at weight w, collapsed one axis at a
    time to w times the summed weights W of the points that share the doubled
    entries (e1, e2) of the two eliminated binomials: e1 = n1 + 2 s2 and
    e2 = n2 - 2 s1 start at (n1, n2), the key of the empty tail, whose weight
    is w, and axis i moves them by 2 k_i (i-2) and -2 k_i (i-1)."""
    weights = {(spec.r * spec.l[0], spec.r * spec.l[1]): (w.numerator, w.denominator)}
    for i in range(3, spec.j + 1):
        n = spec.r * spec.l[i - 1]
        grown: dict[tuple[int, int], Pair] = {}
        for k2 in _axis(n, i in half_axes, m, window):
            c = rows[n, n + k2]
            for (e1, e2), v in weights.items():
                key = e1 + (i - 2) * k2, e2 - (i - 1) * k2
                grown[key] = _dot(((v, c), (grown.get(key, (0, 1)), (1, 1))))  # += v c
        weights = grown
    return weights


# The merged tail of a weighted sum of specs, {(n1, e1): {(n2, e2): sum of w W}}:
# each spec's tail weights W[e1, e2] times its weight w, keyed outside by its
# row n1 and the doubled entry e1 of its first eliminated binomial, and inside
# by its row n2 and the doubled entry e2 of its second.
Tail = dict[tuple[int, int], dict[tuple[int, int], Pair]]


class Coefficients:
    """One coefficient family of a weighted sum of specs at one truncation,
    evaluated at any A.

    `terms` is one SumSpec, the sum of one term of weight 1, or an iterable
    of (weight, spec) pairs, read once, whose coefficient is the sum of
    weight times each spec's.  A weight is taken exactly, by `Fraction(w)`:
    an int, a Fraction, a string such as "1/10" or a Decimal; a float, a
    numpy float included, raises TypeError, since it would be taken at its
    binary value, as `SumSpec` refuses a float field.  As the pairs are
    read, each spec's tail weights W are built once and merged into `tail`,
    keyed by the doubled entries of the two eliminated binomials (the
    module docstring's {(n1, e1): {(n2, e2): sum of w W}}), so each A costs
    one lattice sum however many specs there are.  Every binomial entry comes from the
    object's own `Rows` store, which computes each once.  Each sum runs over
    integer numerators and one common denominator, and each coefficient
    becomes one Fraction at the end.  A family with a k_1 axis has one k_1
    term, summed over the rows n1: a call runs it over one axis, and
    `k1_term` gives it to a ratio sweep, which runs the window itself.
    `family` and `window` may be members or their string values.
    ParameterError reports no spec, or a spec with too few parts, here; an A
    of the wrong parity at each call; and a missing m where `half_window`
    reads it: here for the tail axes of `four`, at each call for the k_1
    axis of `shifted` and `antisym`.
    """

    def __init__(
        self,
        terms: SumSpec | Iterable[tuple[Fraction | int, SumSpec]],
        family: Family,
        m: int | None = None,
        window: Window = Window.SYMMETRIC,
    ):
        self.family, self.m, self.window = Family(family), m, window
        half_axes, self.rows = self.family.half_axes, Rows()
        self.tail: Tail = {}
        for w, spec in [(1, terms)] if isinstance(terms, SumSpec) else terms:
            if isinstance(w, numbers.Real) and not isinstance(w, numbers.Rational):
                raise TypeError(f"a weight must be exact, not the float {w!r}")
            if max(half_axes, default=0) > spec.j:
                raise ParameterError(
                    f"family {self.family.value} needs at least {max(half_axes)} parts"
                )
            n1, n2 = spec.r * spec.l[0], spec.r * spec.l[1]
            weights = _tail_weights(spec, Fraction(w), half_axes, m, window, self.rows)
            for (e1, e2), c in weights.items():
                group, key = self.tail.setdefault((n1, e1), {}), (n2, e2)
                group[key] = _dot(((c, (1, 1)), (group[key], (1, 1)))) if key in group else c
        if not self.tail:
            raise ParameterError("a weighted sum needs at least one spec")

    def _inner(self, A: int) -> dict[int, list[tuple[int, Pair]]]:
        """{n1: [(e1, inner)]}: inner is the sum over the keys (n2, e2) of the
        merged tail at (n1, e1) of w W C(n2, (e2 - A)/2), and the zeros are
        dropped, but every row n1 keeps its key, since a call reads its k_1
        axis from the largest; A's parity is checked first."""
        if A % 2 != self.family.parity:
            raise ParameterError(f"A must be {'odd' if self.family.parity else 'even'}")
        rows, inner = self.rows, {}
        for (n1, e1), group in self.tail.items():
            v = _dot((c, rows[n2, e2 - A]) for (n2, e2), c in group.items()
                     if (e2 - A) % 2 or 0 <= e2 - A <= 2 * n2)
            found = inner.setdefault(n1, [])
            if v[0]:
                found.append((e1, v))
        return inner

    def _k1(self, inner: dict[int, list[tuple[int, Pair]]], A: int, k2: int) -> Pair:
        """The term that k1_term documents, at k_1 = k2/2, as a Pair."""
        g, rows = self.family.weight, self.rows
        return _dot((rows[n1, n1 + k2], _dot((v, g(e1 + A - n1 - k2)) for e1, v in found))
                    for n1, found in inner.items())

    def __call__(self, A: int) -> Fraction:
        """The coefficient at A times pi^pi_exp: the module docstring's sum."""
        family, rows = self.family, self.rows
        inner = self._inner(A)
        if family.weight is None:
            num, den = _dot(
                (v, rows[n1, e1 + A]) for n1, found in inner.items() for e1, v in found
                if (e1 + A) % 2 or 0 <= e1 + A <= 2 * n1
            )
        else:
            # the axis is formed before the sum, so a missing m is reported at every A
            axis = _axis(max(inner), 1 in family.half_axes, self.m, self.window)
            num, den = _dot((self._k1(inner, A, k2), (1, 1)) for k2 in axis)
        return Fraction(num, den)

    def k1_term(self, A: int) -> Callable[[int], Fraction]:
        """k2 -> the term of a weighted-k_1 family's coefficient at k_1 = k2/2:

            sum over n1 of pi^[k_1 half-integer] C(n1, n1/2 + k_1)
                sum over e1 of inner[n1, e1] pi g(A/2 + (e1 - n1)/2 - k_1)

        A call sums these terms over the family's k_1 axis; here the caller
        runs the axis, so no m is read."""
        if self.family.weight is None:
            raise ParameterError(f"family {self.family.value} eliminates k_1")
        inner = self._inner(A)
        return lambda k2: Fraction(*self._k1(inner, A, k2))

    def residues(self) -> dict[int, Fraction]:
        """{a: rho1_a}, nonzero: pi^2 odd(A) is the sum over even a of
        4 even(a)/(A - a)^2 + rho1_a/(A - a), on the same tail.  As
        pi C(n, K + 1/2) = (-1)^(K+1) sum_j (-1)^j C(n, j)/(j - K - 1/2), on
        the key (n1, e1, n2, e2) of weight c the pair (j1, j2) has poles
        a1 = 2 j1 - e1, a2 = e2 - 2 j2, and adds b t/(a1 - a2) to rho1 at a1 and
        b t/(a2 - a1) at a2 when they differ, b = 4 (-1)^(e1/2 + j1) C(n1, j1)
        and t = (-1)^(e2/2 + j2) C(n2, j2) c.  So each (n1, e1) group has two
        pole lists, b by a1 from row n1 and t by a2 summed over its keys, and
        one symmetric pass: on each side, each pole a adds its factor times
        the sum of the other side's factors over (a - a') at the poles a' != a,
        one big product per pole where a pass by pairs takes one per pair."""
        if self.family.half_axes:
            raise ParameterError(f"family {self.family.value} has half-integer axes: no residues")
        rows, terms = self.rows, defaultdict(list)
        for (n1, e1), group in self.tail.items():
            by_a2 = defaultdict(list)
            for (n2, e2), c in group.items():
                for j2 in range(n2 + 1):
                    t = (-1) ** ((e2 // 2 + j2) % 2) * rows[n2, 2 * j2][0], 1
                    by_a2[e2 - 2 * j2].append((c, t))
            b_by_a1 = {2 * j1 - e1: (4 * (-1) ** ((e1 // 2 + j1) % 2) * rows[n1, 2 * j1][0], 1)
                       for j1 in range(n1 + 1)}
            t_by_a2 = {a2: v for a2, ts in by_a2.items() if (v := _dot(ts))[0]}
            for side, other in ((b_by_a1, t_by_a2), (t_by_a2, b_by_a1)):
                for a, f in side.items():
                    s = _dot((v, _over(1, a - a_)) for a_, v in other.items() if a_ != a)
                    terms[a].append((f, s))
        return {a: v for a, ts in sorted(terms.items()) if (v := Fraction(*_dot(ts)))}

    def default_A_range(self) -> list[int]:
        """The A values a table covers when no explicit range is requested,
        read from the entry keys of the merged tail.

        For the even family, every A at which some key pair puts both
        eliminated entries in range, 0 <= e1 + A <= 2 n1 and
        0 <= e2 - A <= 2 n2: its support when every weight is positive, since
        each lattice term in range is then positive.  For the antisymmetric
        limit, every even |A| <= max(e2, 2 n2 - e2) over the inner keys: past
        it the entry e2 - A leaves [0, 2 n2] for every key, so the coefficient
        vanishes identically.
        """
        entries = [(n1, e1, n2, e2) for (n1, e1), group in self.tail.items() for n2, e2 in group]
        if self.family is Family.EVEN:
            sup: set[int] = set()
            for n1, e1, n2, e2 in entries:
                sup.update(range(max(-e1, e2 - 2 * n2), min(2 * n1 - e1, e2) + 1, 2))
            return sorted(sup)
        if self.family is Family.ANTISYM_EXACT:
            b = max(max(e2, 2 * n2 - e2) for _, _, n2, e2 in entries)
            return list(range(-b, b + 1, 2))
        raise ParameterError(f"family {self.family.value} has no finite default A range")


def sum_rule_even(spec: SumSpec) -> int:
    """Sum of all even-A coefficients; equals C(rn, rn/2) exactly (the q ->
    infinity collapse of the expansion to an overall binomial count)."""
    even = Coefficients(spec, Family.EVEN)
    return sum(even(A).numerator for A in even.default_A_range())
