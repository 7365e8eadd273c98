"""The benchmark's fixed CLI invocations and the work they demand.

Each workload is a tuple of `python -m shiftbinom` argument lists.  The
arguments are fixed: the reference values in reference.json and the hand
counts pinned by test_perfbench.py are tied to them, so a benchmark seed only
orders the invocations within a pass.  No invocation passes `--workers`, so
the flag can be removed without turning its absence into failures here.

`demand()` derives from an invocation's arguments alone, without importing
shiftbinom, how much work its output needs: half-integer window terms,
coefficient requests, and the tail lattices those requests sweep.  These
numbers are the "computed" metrics; they describe the workload, not the
program, so an optimisation that skips repeated work leaves them unchanged
while the traced counts drop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

SETUP = ("compositions", "--n", "1", "--g", "2")

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    "seq-deep": (
        ("seq", "pi", "--l", "2", "--m", "1:400:1"),
        ("seq", "pis", "--l", "3", "--s", "1/3", "--m", "1:250:1"),
        ("seq", "pi2", "--l", "4", "--m", "1:200:1"),
    ),
    "coeff-wide": (
        ("coeffs", "--family", "odd", "--r", "4", "--l", "2,2,2,2,2", "--a-min", "1", "--a-max", "41"),
        ("coeffs", "--family", "odd-sinc", "--r", "4", "--l", "2,2,2,2", "--a-min", "1", "--a-max", "21"),
        ("coeffs", "--family", "four", "--r", "2", "--l", "1,1,1,1", "--a-max", "4", "--m", "20"),
        ("coeffs", "--family", "shifted", "--r", "2", "--l", "2,2,2", "--a-max", "8", "--m", "100"),
        ("coeffs", "--family", "antisym-exact", "--r", "4", "--l", "2,2,2,2"),
        ("coeffs", "--family", "even", "--r", "2", "--l", "3,3,3,3,3"),
        ("verify", "all", "--r", "4", "--l", "2,2,2", "--p", "2", "--q", "7", "--n", "6", "--g", "3"),
    ),
    "agg-sweep": (
        ("seq", "agg", "--n", "4", "--g", "3", "--r", "2", "--m", "0:30"),
    ),
}

# The seven sums evaluators; a "coefficient request" is one call of one of them
# in a from-scratch evaluation.
EVALUATORS = {
    "even": "even_A_coefficient",
    "odd": "odd_A_coefficient_direct",
    "odd-sinc": "odd_A_coefficient_sinc",
    "shifted": "even_A_shifted_partial",
    "antisym": "even_A_antisym_partial",
    "antisym-exact": "even_A_antisym_exact",
    "four": "four_shifted_coefficient",
}

# Defaults of the CLI flags the workloads leave out (see shiftbinom.cli).
_DEFAULTS = {
    "verify": {"--r": "2", "--p": "1", "--q": "3", "--a-max": "9", "--odd-a-cut": "399"},
    "coeffs": {"--r": "2", "--p": "1", "--q": "inf"},
    "seq": {"--r": "2", "--p": "1", "--q": "inf"},
}


def key(args: tuple[str, ...]) -> str:
    """Name of an invocation in reference.json and in reports."""
    return " ".join(args)


@dataclass
class Demand:
    """Work an invocation's output needs, derived from its arguments.

    `first_*` is the extra work of the CLI's up-front validation of the first
    sweep record, which evaluates that record once more before the sweep.
    """

    window_terms: int = 0
    largest_windows: int = 0
    first_window_terms: int = 0
    requests: list = field(default_factory=list)
    first_requests: list = field(default_factory=list)
    lattices: dict = field(default_factory=dict)

    @property
    def distinct_requests(self) -> int:
        return len(set(self.requests))

    def lattice_totals(self) -> tuple[int, int]:
        """(points, distinct (s2, s1) pairs) summed over the requests."""
        points = pairs = 0
        for family, spec, _A, _m in self.requests:
            p, q = self.lattices[_lattice_key(family, spec)]
            points += p
            pairs += q
        return points, pairs


def _flags(args: tuple[str, ...]) -> dict[str, str]:
    flags = dict(_DEFAULTS.get(args[0], {}))
    it = iter(args[1:])
    for a in it:
        if a.startswith("--"):
            flags[a] = next(it)
    return flags


def _spec(flags: dict[str, str]) -> tuple:
    l = tuple(int(v) for v in flags["--l"].split(","))
    q = flags["--q"]
    pq = (0, None) if q == "inf" else (int(flags["--p"]), int(q))
    return (int(flags["--r"]), l, pq)


def _lattice_key(family: str, spec: tuple) -> tuple:
    r, l, _pq = spec
    return (r, l, 5 if family == "four" else 3)


def lattice(r: int, l: tuple[int, ...], start: int) -> list[tuple[int, int]]:
    """(s2, s1) at every point of the tail lattice k_start..k_j, with
    |k_i| <= r*l_i/2, s2 = sum (i-2) k_i and s1 = sum (i-1) k_i."""
    axes = [(i, r * l[i - 1] // 2) for i in range(start, len(l) + 1)]
    ranges = [range(-h, h + 1) for _i, h in axes]
    return [
        (sum((i - 2) * k for (i, _h), k in zip(axes, ks)),
         sum((i - 1) * k for (i, _h), k in zip(axes, ks)))
        for ks in itertools.product(*ranges)
    ]


def even_support(r: int, l: tuple[int, ...]) -> list[int]:
    """Even A whose coefficient has at least one lattice term with both
    eliminated binomial entries in range."""
    h1, h2 = r * l[0] // 2, r * l[1] // 2
    support = set()
    for s2, s1 in set(lattice(r, l, 3)):
        lo, hi = max(-h1 - s2, -h2 - s1), min(h1 - s2, h2 - s1)
        support.update(2 * a for a in range(lo, hi + 1))
    return sorted(support)


def antisym_bound(r: int, l: tuple[int, ...]) -> int:
    """|A| beyond which the exact antisymmetric coefficient vanishes."""
    return 2 * (r * l[1] // 2 + sum((i - 1) * (r * l[i - 1] // 2) for i in range(3, len(l) + 1)))


def g_compositions(n: int, g: int) -> list[tuple[int, ...]]:
    """Compositions of n with nonzero first and last parts and no run of more
    than g-2 interior zeros."""
    out = []

    def rec(prefix: list[int], remaining: int, run: int) -> None:
        if remaining == 0:
            if prefix[-1]:
                out.append(tuple(prefix))
            return
        for v in range(0 if prefix else 1, remaining + 1):
            if v == 0 and run >= g - 2:
                continue
            rec(prefix + [v], remaining - v, run + 1 if v == 0 else 0)

    rec([], n, 0)
    return out


def _sweep(text: str) -> list[int]:
    fields = [int(v) for v in text.split(":")]
    if len(fields) == 1:
        return fields
    start, stop, stride = fields if len(fields) == 3 else (*fields, 1)
    return list(range(start, stop + 1, stride))


def _window_len(m: int) -> int:
    # every half-integer window kind in the workloads uses the default 'paper'
    # window, which holds 2m+1 terms (for even and odd l alike)
    return 2 * m + 1


def demand(args: tuple[str, ...]) -> Demand:
    """Work demanded by one invocation; see the module docstring."""
    command, flags, d = args[0], _flags(args), Demand()
    if command == "seq" and args[1] in ("pi", "pis", "pi2"):
        ms = _sweep(flags["--m"])
        d.window_terms = sum(_window_len(m) for m in ms)
        d.largest_windows = _window_len(max(ms))
        d.first_window_terms = _window_len(ms[0])
    elif command == "seq" and args[1] == "agg":
        ms, r = _sweep(flags["--m"]), int(flags["--r"])
        comps = g_compositions(int(flags["--n"]), int(flags["--g"]))

        def record(m: int) -> list:
            # one cumulative odd-A window of m+1 terms per composition
            return [
                ("odd", (r, c if len(c) >= 2 else c + (0,), (0, None)), 2 * a + 1, None)
                for c in comps
                for a in range(m + 1)
            ]

        for m in ms:
            d.requests += record(m)
        d.first_requests = record(ms[0])
        d.window_terms = len(d.requests)
        d.largest_windows = len(comps) * (max(ms) + 1)
    elif command == "coeffs":
        spec, family = _spec(flags), flags["--family"]
        r, l, _pq = spec
        m = _sweep(flags["--m"])[0] if "--m" in flags else None
        if "--a-max" in flags:
            a_max = int(flags["--a-max"])
            a_min = int(flags.get("--a-min", -a_max))
            parity = 1 if family in ("odd", "odd-sinc") else 0
            A_values = [A for A in range(a_min, a_max + 1) if A % 2 == parity]
        elif family == "even":
            A_values = even_support(r, l)
        else:
            b = antisym_bound(r, l)
            A_values = list(range(-b, b + 1, 2))
        d.requests = [(family, spec, A, m) for A in A_values]
    elif command == "verify" and args[1] == "all":
        spec = _spec(flags)
        r, l, _pq = spec
        support = even_support(r, l)
        b = antisym_bound(r, l)
        odd_cut, a_max = int(flags["--odd-a-cut"]), int(flags["--a-max"])
        # identity checks against the oracle, then odd-equality, then sum-rule
        d.requests = (
            [("even", spec, A, None) for A in support]
            + [("odd", spec, A, None) for A in range(1, odd_cut + 1, 2)]
            + [("antisym-exact", spec, A, None) for A in range(-b, b + 1, 2)]
            + [(f, spec, A, None) for A in range(1, a_max + 1, 2) for f in ("odd", "odd-sinc")]
            + [("even", spec, A, None) for A in support]
        )
    else:
        raise ValueError(f"no demand model for {key(args)!r}")
    for family, spec, _A, _m in d.requests:
        lk = _lattice_key(family, spec)
        if lk not in d.lattices:
            pts = lattice(*lk)
            d.lattices[lk] = (len(pts), len(set(pts)))
    return d
