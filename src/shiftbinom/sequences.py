"""Rational sequences converging to pi, pi^2, pi/sin(pi s) and friends, plus
g-composition enumeration and their combinatorial weights.

Each operation returns a SeqRecord whose `exact` field is a plain Fraction,
summed from rational terms: a shifted binomial enters as its rational factor
`beta_coeff`, and a coefficient as the Fraction `sums.Coefficients` returns;
no term passes through a float.
The seven windowed kinds take `window`, default 'paper', and read the
integer indices i of their window at m from `sums.Window.indices`, with
k = i + 1/2 for the half-integer kinds `pi`, `pi2` and `ratio-*` and for
odd l; the integer window of `pis` and `pis2` at even l has no symmetric
variant.  The five binomial kinds, `pi` to `pis-odd`, share one builder,
`_binomial`, which owns their term and prefactor.

`sweep(kind, ms, **params)` is the one entry point: it evaluates every kind
from the table `_KINDS`, whose builders (`_pi`, `_pi2`, ...) each document
their kind.  A builder checks the kind's parameters and gives the
window of integer indices at m, the term at one index, an exact prefactor and
the target; the value at m is the prefactor times the sum of the terms over
the window.  The windows are nested: each holds index 0 and the window at
every smaller m.  So `sweep` visits the requested m in ascending order and
adds only the indices the previous window lacked, and a sweep costs a number
of terms linear in its last m.  The ratio kinds use the same incremental
window: their index is the half-integer k_1 of the truncated coefficient,
whose term at one k_1 comes from `sums.Coefficients.k1_term`.  The kinds
`cum` and `agg` read their terms from one weighted `sums.Coefficients`:
`cum` as a sum of one spec, `agg` of one spec per g-composition, weighted
by c_g.  Its merged tail holds every spec's tail weights for the whole
sweep, so each term is one lattice sum however many specs there are.

The shift s of `pis`, `pis2` and `pis-odd` is a plain Fraction, and the kind
checks 0 < s < 1 (`pis-odd` also s != 1/2).  Their float targets are formed
from the exact distance of s (of 2s for `pis-odd`) to the nearest integer, so
a shift near 1 (near 1/2 for `pis-odd`) keeps all its digits, and a target
past double range is inf.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import chain, groupby

from .exact import ParameterError, Value, as_float, beta_coeff, shifted_binomial
from .sums import Coefficients, Family, SumSpec, Window

__all__ = [
    "SeqRecord",
    "GComposition",
    "sweep",
    "enumerate_g_compositions",
    "cg_weight",
]


class SeqRecord(Value):
    """One row of a convergence table."""

    __slots__ = ("m", "exact", "approx", "target_tag", "target_value", "abs_error")
    m: int
    exact: Fraction
    approx: float
    target_tag: str
    target_value: float
    abs_error: float


def _record(m: int, exact: Fraction, tag: str, target: float) -> SeqRecord:
    approx = as_float(exact)
    # past double range the float difference means nothing
    abs_error = abs(approx - target) if math.isfinite(approx) else math.inf
    return SeqRecord(m, exact, approx, tag, target, abs_error)


# A sequence kind with its parameters checked: the value at m is pref times
# the sum of term(i) over the indices i in the range window(m); each window
# holds 0 and the window at every smaller m.
_Kind = namedtuple("_Kind", "tag target least_m pref window term")


def _window(l: int | None, window: Window) -> Callable[[int], range]:
    """The window of the seven windowed kinds at m, as `Window.indices`
    gives it: the half-integer kinds pass l = None, and k = i + 1/2 for them
    and for odd l.  Even l has no symmetric window: C(l, l/2 + x) is
    symmetric only about x = 0, and the entries x = k + s lie symmetrically
    about it only at s = 1/2, where pis and pis2 give the values of the kinds
    pi and pi2."""
    odd, window = (l or 0) % 2 == 1, Window(window)
    if window is Window.SYMMETRIC and l is not None and not odd:
        raise ParameterError(f"even l = {l} has no symmetric window")
    return lambda m: window.indices(m, odd)


def _binomial(tag: str, target: float, l: int, s: Fraction, window: Callable[[int], range],
              alternating: bool) -> _Kind:
    """The binomial kind whose term at i is (pi/sin(pi s)) C(l, l/2 + k + s),
    an exact rational, at k = i for even l and k = i + 1/2 for odd l, times
    (-1)^i / (k + s) when alternating; the entry l/2 + k + s is the integer
    (l + l%2)/2 + i plus s.  The prefactor is 2^-l, or with alternation
    (l/2)!^2 / l! = 1/C(l, l/2), without the factor pi that (l/2)!^2 carries
    for odd l: C(l, l/2) is then taken as its rational factor."""
    base, offset = (l + l % 2) // 2, Fraction(l % 2, 2) + s

    def term(i: int) -> Fraction:
        c = beta_coeff(l, base + i, s)
        return c * (-1 if i % 2 else 1) / (i + offset) if alternating else c

    pref = 1 / shifted_binomial(l, Fraction(l, 2)) if alternating else Fraction(1, 2**l)
    return _Kind(tag, target, 1, pref, window, term)


def _pi(l: int, window: Window = Window.PAPER) -> _Kind:
    """2^-l sum of pi C(l, l/2 + k), k half-integer: the shifted (2 cos pi t)^l at t = 0."""
    if l <= 0 or l % 2:
        raise ParameterError("l must be a positive even integer")
    return _binomial("pi", math.pi, l, Fraction(1, 2), _window(None, window), alternating=False)


def _pi2(l: int, window: Window = Window.PAPER) -> _Kind:
    """((l/2)!^2/l!) sum of pi C(l, l/2 + k) (-1)^(k-1/2)/k: the term-wise integral."""
    if l <= 0 or l % 2:
        raise ParameterError("l must be a positive even integer")
    return _binomial("pi^2", math.pi**2, l, Fraction(1, 2), _window(None, window),
                     alternating=True)


def _check_shift(s: Fraction) -> None:
    """The shift of every pis* kind lies strictly between 0 and 1."""
    if not 0 < s < 1:
        raise ParameterError(f"shift must satisfy 0 < s < 1, not {s}")


def _cosecant(x: Fraction) -> float:
    """pi/sin(pi x) for a rational x off the integers.  With k the integer
    nearest x and d = x - k, exact, it is (-1)^k pi/sin(pi d): the float is
    formed from d alone, so no digit of x is lost to its integer part, and it
    is a signed inf when float(d) underflows to 0."""
    k = round(x)
    d = float(x - k)
    c = math.copysign(math.inf, d) if d == 0 else math.pi / math.sin(math.pi * d)
    return -c if k % 2 else c


def _pis(l: int, s: Fraction, window: Window = Window.PAPER) -> _Kind:
    """pi with the shift s; k runs over integers for even l, half-integers for odd l."""
    _check_shift(s)
    if l < 0:
        raise ParameterError("l must be >= 0")
    return _binomial("pi/sin(pi*s)", _cosecant(s), l, s, _window(l, window), alternating=False)


def _pis2(l: int, s: Fraction, window: Window = Window.PAPER) -> _Kind:
    """pi2 with shift s, for even l: sign (-1)^k and denominator k + s."""
    _check_shift(s)
    if l < 0 or l % 2:
        raise ParameterError("l must be even; use kind pis-odd for odd l")
    c = _cosecant(s)  # c * c, not c ** 2, which raises OverflowError past double range
    return _binomial("(pi/sin(pi*s))^2", c * c, l, s, _window(l, window), alternating=True)


def _pis_odd(l: int, s: Fraction, window: Window = Window.PAPER) -> _Kind:
    """pis2 for odd l; `_binomial` drops the extra pi of (l/2)!^2 at half-integer l/2.
    The target pi/(sin(pi s) cos(pi s)) is 2 pi/sin(2 pi s)."""
    if l < 1 or l % 2 == 0:
        raise ParameterError("l must be odd")
    _check_shift(s)
    if s == Fraction(1, 2):
        raise ParameterError("target pi/(sin cos) is undefined at s = 1/2")
    return _binomial("pi/(sin(pi*s)*cos(pi*s))", 2 * _cosecant(2 * s), l, s, _window(l, window),
                     alternating=True)


def _odd_A_sums(
    pref: int, terms: SumSpec | Iterable[tuple[Fraction | int, SumSpec]], rn: int, tag: str = "",
    factor: float = 1.0,
) -> _Kind:
    """Sums of the pi^2-stripped odd-A coefficient of terms, one SumSpec or
    (weight, spec) pairs as `Coefficients` takes them, at A = 2i+1 for
    i = 0..m, each term from one weighted `Coefficients` that lasts the whole
    sweep.  The limit is pi^2 C(rn, rn/2), times the float factor that `tag`
    names."""
    target = math.pi**2 * as_float(math.comb(rn, rn // 2)) * factor
    odd = Coefficients(terms, Family.ODD)
    return _Kind("pi^2*C(rn,rn/2)" + tag, target, 0, pref, lambda m: range(m + 1),
                 lambda i: odd(2 * i + 1))


def _cum(spec: SumSpec) -> _Kind:
    """2 sum over odd A = 1..2m+1 of the pi^2-stripped odd coefficients."""
    return _odd_A_sums(2, spec, spec.r * spec.n)


def _agg(n: int, g: int, r: int = 2) -> _Kind:
    """g n sum over the g-compositions of n of cg_weight times their cum terms."""
    # sum specs need j >= 2; a single-part composition gets one zero appended,
    # which leaves the integrand and the sum rule unchanged
    weighted = (
        (cg_weight(comp), SumSpec(r=r, l=comp.parts if comp.j >= 2 else comp.parts + (0,)))
        for comp in enumerate_g_compositions(n, g)
    )
    return _odd_A_sums(2 * g * n, weighted, r * n, "*C(gn,n)", as_float(math.comb(g * n, n)))


def _ratio(spec: SumSpec, A: int, window: Window, truncated: Family, limit: Family) -> _Kind:
    """The coefficient of the family `truncated` at A, summed over its k_1
    window, over that of `limit`, its exact m -> infinity limit, which
    carries fewer powers of 1/pi: the ratio tends to pi to the difference."""
    ref = Coefficients(spec, limit)(A)
    if ref == 0:
        raise ParameterError(f"the {limit.value} reference coefficient vanishes at A = {A}")
    power = truncated.pi_exp - limit.pi_exp
    term = Coefficients(spec, truncated).k1_term(A)  # at k_1 = i + 1/2
    return _Kind("pi" if power == 1 else f"pi^{power}", math.pi**power, 1, 1 / ref,
                 _window(None, window), lambda i: term(2 * i + 1))


def _ratio_pi2(spec: SumSpec, A: int, window: Window = Window.PAPER) -> _Kind:
    """The truncated shifted coefficient over its exact even-family limit."""
    return _ratio(spec, A, window, Family.SHIFTED, Family.EVEN)


def _ratio_pi(spec: SumSpec, A: int, window: Window = Window.PAPER) -> _Kind:
    """The truncated antisym coefficient (two pi powers) over its antisym-exact
    limit (one)."""
    return _ratio(spec, A, window, Family.ANTISYM, Family.ANTISYM_EXACT)


_KINDS: dict[str, Callable[..., _Kind]] = {
    "pi": _pi,
    "pi2": _pi2,
    "pis": _pis,
    "pis2": _pis2,
    "pis-odd": _pis_odd,
    "cum": _cum,
    "agg": _agg,
    "ratio-pi2": _ratio_pi2,
    "ratio-pi": _ratio_pi,
}


def sweep(kind: str, ms: Iterable[int], **params) -> Iterator[SeqRecord]:
    """The records of one sequence kind, one per distinct m of ms, in
    ascending m, each computed as it is yielded.  A range with a positive
    step is taken as it is, so a sweep holds no list of its m.

    params are the keyword parameters of the kind's builder in `_KINDS`;
    that signature is the one list of what a kind takes, and the CLI's `seq`
    reads its flags from it.  The kinds with a half-integer window take
    `window`, its truncation convention, default `Window.PAPER`; the others
    do not.  The kind, every parameter and every m are checked at the call,
    before any term is computed.
    """
    if kind not in _KINDS:
        raise ParameterError(f"unknown sequence kind {kind!r}")
    seq = _KINDS[kind](**params)
    if not (isinstance(ms, range) and ms.step > 0):
        ms = sorted(set(ms))
    if ms and ms[0] < seq.least_m:
        raise ParameterError(f"m must be >= {seq.least_m}")
    return _records(seq, ms)


def _records(seq: _Kind, ms: Iterable[int]) -> Iterator[SeqRecord]:
    """The record of seq at each m of ms, ascending: each window adds only
    the indices the previous one lacked."""
    total, done = Fraction(0), range(0)
    for m in ms:
        win = seq.window(m)
        for i in chain(range(win.start, done.start), range(done.stop, win.stop)):
            total += seq.term(i)
        done = win
        yield _record(m, seq.pref * total, seq.tag, seq.target)


class GComposition(Value):
    """Composition of n into non-negative parts: interior runs of zeros are
    capped at g-2 and boundary parts are nonzero.  g and each part are taken
    by `operator.index`, as the fields of a `SumSpec` are."""

    __slots__ = ("parts", "g")
    parts: tuple[int, ...]
    g: int

    def __init__(self, parts: Iterable[int], g: int):
        super().__init__(tuple(map(operator.index, parts)), operator.index(g))
        if self.g < 2:
            raise ParameterError("g must be >= 2")
        if not self.parts or any(v < 0 for v in self.parts):
            raise ParameterError("parts must be a nonempty tuple of non-negative ints")
        if sum(self.parts) < 1:
            raise ParameterError("composition must have positive total")
        if self.parts[0] == 0 or self.parts[-1] == 0:
            raise ParameterError("leading/trailing zero parts are not allowed")
        if any(v == 0 and len(list(run)) > self.g - 2 for v, run in groupby(self.parts)):
            raise ParameterError(f"more than {self.g - 2} consecutive zeros")

    @property
    def j(self) -> int:
        return len(self.parts)


def enumerate_g_compositions(n: int, g: int) -> Iterator[GComposition]:
    """All g-compositions of n, each exactly once, ordered by length and then
    lexicographically by parts.  n and g are checked at the call; nothing is
    built ahead, and each composition is made as it is yielded.

    At a fixed length a composition is a first part a >= 1, a run of 0..g-2
    zeros, and the rest.  A zero sorts before any nonzero part, so the order
    is a ascending, then the longest run, that is the shortest rest, first,
    then the rest in its own order.  A rest of sum t can be any length from 1
    to t(g-1) - (g-2), and only those lengths are taken, so every branch
    yields.  The recursion takes one frame per nonzero part, at most n deep,
    however many zeros a composition holds.
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if g < 2:
        raise ParameterError("g must be >= 2")

    def compose(head: tuple[int, ...], total: int, j: int) -> Iterator[tuple[int, ...]]:
        """head followed by each g-composition of total of length j, in order."""
        if j == 1:
            yield head + (total,)
            return
        for a in range(1, total):
            # the rest is 1 to (total - a)(g-1) - (g-2) long, after 0..g-2 zeros
            for rest in range(max(1, j + 1 - g), min(j, (total - a) * (g - 1) - g + 3)):
                yield from compose(head + (a,) + (0,) * (j - 1 - rest), total - a, rest)

    return (GComposition(p, g) for j in range(1, n * (g - 1) - g + 3) for p in compose((), n, j))


def cg_weight(comp: GComposition) -> Fraction:
    """Composition weight: the head multinomial (h-1)!/prod of the head parts'
    factorials, h the sum of the first g-1 parts, times one binomial
    C(window sum - 1, last part) per window of g consecutive parts.  A
    composition of fewer than g parts has no window of g parts, so its weight
    is the prefactor alone: zero parts padded up to g would add only factors
    C(., 0) = 1."""
    g, l = comp.g, comp.parts
    windows = (math.comb(sum(l[i : i + g]) - 1, l[i + g - 1]) for i in range(comp.j - g + 1))
    return Fraction(math.factorial(sum(l[: g - 1]) - 1) * math.prod(windows),
                    math.prod(map(math.factorial, l[: g - 1])))
