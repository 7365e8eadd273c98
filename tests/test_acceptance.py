"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines as
they print).  Exact assertions carry zero tolerance; numeric ones state
their threshold inline.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

from shiftbinom.oracle import even_expansion
from shiftbinom.sums import (
    Coefficients,
    Family,
    SumSpec,
    Window,
    sum_rule_even,
)
from shiftbinom.sequences import (
    cg_weight,
    enumerate_g_compositions,
    sweep,
)

from reference import cg_weight_factorial_form, chu_vandermonde_partial, shifted_series_eval

# r = 2 grid: every l-list with 2 <= j <= 4 parts and total n <= 4
GRID_L = [
    l
    for j in (2, 3, 4)
    for l in itertools.product(range(5), repeat=j)
    if sum(l) <= 4
]

PI_50 = Fraction("3.14159265358979323846264338327950288419716939937511")


def report(n: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {n:2d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok


def test_criterion_01_even_expansion_identity():
    t0 = time.monotonic()
    worst = 0.0
    for l in GRID_L:
        for p, q in ((1, 3), (1, 5), (2, 7)):
            lhs, rhs = even_expansion(SumSpec(r=2, l=l), Fraction(p, q))
            worst = max(worst, abs(lhs - rhs))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    report(
        1,
        ok,
        f"cosine-expansion identity on {3 * len(GRID_L)} specs: "
        f"worst |lhs-rhs| = {worst:.3e} (< 1e-9), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_02_odd_forms_identical():
    checked = 0
    ok = True
    for l in GRID_L:
        spec = SumSpec(r=2, l=l)
        direct, sinc = Coefficients(spec, Family.ODD), Coefficients(spec, Family.ODD_SINC)
        for A in range(-9, 10, 2):
            checked += 1
            if direct(A) != sinc(A):
                ok = False
    report(2, ok, f"odd-A direct vs sinc forms: {checked} rational-exact equalities")


def test_criterion_03_sum_rules_and_cumulative_decay():
    rules_ok = True
    for l in GRID_L:
        spec = SumSpec(r=2, l=l)
        rn = spec.r * spec.n
        if sum_rule_even(spec) != math.comb(rn, rn // 2):
            rules_ok = False
    spec = SumSpec(r=2, l=(1, 1))
    target = 6 * PI_50 * PI_50
    errs = [
        abs(rec.exact - target) / target
        for rec in sweep("cum", [20, 200, 2000], spec=spec)
    ]
    decay_ok = errs[2] < errs[1] < errs[0]
    ratio = errs[1] / errs[2]
    ok = rules_ok and decay_ok and ratio >= 10
    report(
        3,
        ok,
        f"even sum rule exact on {len(GRID_L)} specs; cumulative rel err "
        f"m=200: {float(errs[1]):.2e} -> m=2000: {float(errs[2]):.2e} "
        f"(improvement {float(ratio):.0f}x >= 10x)",
    )


def test_criterion_04_pi_sequence():
    pinned = sweep("pi", [1], l=2)[0].exact == Fraction(44, 15)
    errs = [rec.abs_error for rec in sweep("pi", [10, 100, 1000], l=4)]
    ok = pinned and errs[2] < errs[1] < errs[0] and errs[2] < 1e-4
    report(
        4,
        ok,
        f"pi sequence: l=2 m=1 = 44/15 exact; l=4 errors {errs[0]:.2e} > "
        f"{errs[1]:.2e} > {errs[2]:.2e} (< 1e-4)",
    )


def test_criterion_05_pi_squared_sequence():
    errs = []
    rational_ok = True
    for rec in sweep("pi2", [10, 100, 1000], l=2):
        rational_ok &= isinstance(rec.exact, Fraction)
        errs.append(rec.abs_error)
    ok = rational_ok and errs[2] < errs[1] < errs[0]
    report(
        5,
        ok,
        f"pi^2 sequence: every term exact-rational, errors {errs[0]:.2e} > "
        f"{errs[1]:.2e} > {errs[2]:.2e}",
    )


def test_criterion_06_generic_shift_sequences():
    ok = True
    detail = []
    for s in (Fraction(1, 3), Fraction(1, 4)):
        e1 = [rec.abs_error for rec in sweep("pis", [10, 100, 1000], l=2, s=s)]
        e2 = [rec.abs_error for rec in sweep("pis2", [10, 100, 1000], l=2, s=s)]
        ok &= e1[2] < e1[1] < e1[0] and e2[2] < e2[1] < e2[0]
        detail.append(f"s={s}: {e1[2]:.1e}/{e2[2]:.1e}")
    for shifted, plain in (("pis", "pi"), ("pis2", "pi2")):
        a = sweep(shifted, [1, 10, 50], l=2, s=Fraction(1, 2))
        b = sweep(plain, [1, 10, 50], l=2)
        ok &= [rec.exact for rec in a] == [rec.exact for rec in b]
    report(
        6,
        ok,
        "generic-shift sequences converge (final errors "
        + ", ".join(detail)
        + "); s=1/2 reductions bit-match",
    )


def test_criterion_07_chu_vandermonde():
    ok = True
    finals = []
    for s in (Fraction(1, 2), Fraction(1, 3)):
        beta = math.sin(math.pi * float(s)) / math.pi  # each partial sum carries beta(s)^2
        errs = [
            abs(float(chu_vandermonde_partial(2, 2, 1, 1, s, m)) * beta**2 - 6.0)
            for m in (10, 100, 1000)
        ]
        ok &= errs[2] < errs[1] < errs[0]
        finals.append(errs[2])
    ok &= chu_vandermonde_partial(2, 2, 1, 1, Fraction(0), 4) == 6
    report(
        7,
        ok,
        f"Chu-Vandermonde partials -> C(4,2)=6: final errors "
        f"{finals[0]:.2e} (s=1/2), {finals[1]:.2e} (s=1/3); s=0 exact at m=4",
    )


def test_criterion_08_composition_machinery():
    ok = True
    count = 0
    for n in range(1, 7):
        for g in (2, 3, 4):
            comps = list(enumerate_g_compositions(n, g))
            count += len(comps)
            for c in comps:
                if cg_weight(c) != cg_weight_factorial_form(c):
                    ok = False
            if g * n * sum(cg_weight(c) for c in comps) != math.comb(g * n, n):
                ok = False
    report(
        8,
        ok,
        f"both weight forms agree on {count} compositions (n <= 6, g <= 4); "
        f"g*n*sum(c_g) = C(gn,n) exact throughout",
    )


def test_criterion_09_ratio_sequences():
    spec = SumSpec(r=2, l=(1, 1))
    ok = True
    e51 = []
    e52 = []
    ms = (10, 100, 1000)
    for r1, r2 in zip(sweep("ratio-pi2", ms, spec=spec, A=0), sweep("ratio-pi", ms, spec=spec, A=2)):
        ok &= isinstance(r1.exact, Fraction) and isinstance(r2.exact, Fraction)
        e51.append(r1.abs_error)
        e52.append(r2.abs_error)
    ok &= e51[2] < e51[1] < e51[0] and e52[2] < e52[1] < e52[0]
    report(
        9,
        ok,
        f"ratio sequences: to pi^2 errors {e51[0]:.1e} > {e51[1]:.1e} > "
        f"{e51[2]:.1e}; to pi errors {e52[0]:.1e} > {e52[1]:.1e} > {e52[2]:.1e}; "
        f"all terms rational",
    )


def test_criterion_10_shifted_binomial_theorem():
    ok = True
    worst_final = 0.0
    for l in range(0, 7):
        for s in (0.5, 1 / 3, 0.25):
            for t in (0.0, 0.3, -0.3, 0.45, -0.45):
                target = (2 * math.cos(math.pi * t)) ** l
                envs = []
                for K in (25, 100, 400):
                    envs.append(
                        max(
                            abs(shifted_series_eval(l, s, t, K + d) - target)
                            for d in (0, 1, 2)
                        )
                    )
                if not (envs[2] < envs[1] < envs[0]):
                    ok = False
                worst_final = max(worst_final, envs[2])
    for l in range(0, 7):
        v = shifted_series_eval(l, 0.0, 0.3, max(1, l))
        if abs(v - (2 * math.cos(math.pi * 0.3)) ** l) > 1e-12:
            ok = False
    report(
        10,
        ok,
        f"shifted expansion converges on the 105-point (l,s,t) grid "
        f"(worst tail envelope {worst_final:.2e}); s=0 exact at finite K",
    )


def test_criterion_11_symmetry_ledger():
    ok = True
    specs = [SumSpec(r=2, l=(1, 1)), SumSpec(r=2, l=(2, 1)), SumSpec(r=2, l=(1, 1, 1))]
    even_As = list(range(-6, 7, 2))
    odd_As = list(range(-7, 8, 2))
    for spec in specs:
        even = Coefficients(spec, Family.EVEN)
        ok &= all(even(A) == even(-A) for A in even.default_A_range())
        for fam in (Family.ODD, Family.ODD_SINC):
            c = Coefficients(spec, fam)
            ok &= all(c(A) == c(-A) for A in odd_As)
        c = Coefficients(spec, Family.SHIFTED, m=2, window=Window.SYMMETRIC)
        ok &= all(c(A) == c(-A) for A in even_As)
        for fam in (Family.ANTISYM, Family.ANTISYM_EXACT):
            c = Coefficients(spec, fam, m=2, window=Window.SYMMETRIC)
            ok &= all(c(A) == -c(-A) for A in even_As)
    four = Coefficients(SumSpec(r=2, l=(1, 1, 1, 1)), Family.FOUR, m=2, window=Window.SYMMETRIC)
    ok &= all(four(A) == four(-A) for A in even_As)
    report(
        11,
        ok,
        "every family's declared (anti)symmetry holds exactly "
        "(even/odd/shifted/four symmetric, antisym families antisymmetric)",
    )
