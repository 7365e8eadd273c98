import itertools
import math
from fractions import Fraction

import pytest

from shiftbinom import sequences
from shiftbinom.exact import (
    SHIFT_HALF,
    ScaledValue,
    Shift,
    shifted_binomial,
)
from shiftbinom.sums import (
    SumSpec,
    Window,
    even_A_antisym_exact,
    even_A_antisym_partial,
    even_A_coefficient,
    even_A_shifted_partial,
)
from shiftbinom.sequences import (
    GComposition,
    aggregate_composition_seq,
    cg_weight,
    cg_weight_factorial_form,
    enumerate_g_compositions,
    odd_A_cumulative_seq,
    pi2_ratio_seq,
    pi2_seq,
    pi_over_sin_cos_seq,
    pi_over_sin_seq,
    pi_over_sin_sq_seq,
    pi_ratio_seq,
    pi_seq_t0,
)

S3 = Shift(Fraction(1, 3))
S4 = Shift(Fraction(1, 4))
# pi C(2, x) at x = 1/2, 3/2, 5/2, pinned by hand from the closed product
PI_C2 = {Fraction(1, 2): Fraction(16, 3), Fraction(3, 2): Fraction(16, 3),
         Fraction(5, 2): Fraction(16, 15)}


# -------------------------------- pi sequence -------------------------------


def test_pi_seq_m1_pinned_value():
    # independent recompute from pinned values:
    # 2^-2 * (pi C(2,1/2) + pi C(2,3/2) + pi C(2,5/2))
    expect = sum(PI_C2.values()) / 4
    assert expect == Fraction(44, 15)
    rec = pi_seq_t0(2, 1)
    assert rec.exact == Fraction(44, 15)
    assert rec.target_tag == "pi"
    assert rec.abs_error == abs(float(rec.exact) - math.pi)


def test_pi_seq_error_decays():
    assert pi_seq_t0(2, 100).abs_error < pi_seq_t0(2, 10).abs_error


def test_pi_seq_rejects_odd_or_nonpositive_l():
    with pytest.raises(ValueError):
        pi_seq_t0(3, 5)
    with pytest.raises(ValueError):
        pi_seq_t0(0, 5)


def test_odd_l_footnote_identity():
    # C(l, l/2+k) = C(l-1, l/2+k) + C(l-1, l/2-k) for odd l, half-int entries
    for l in (1, 3, 5):
        for k in range(-6, 7):
            e = Fraction(l, 2) + k  # a half-integer
            lhs = shifted_binomial(l, e, SHIFT_HALF)
            rhs = shifted_binomial(l - 1, e, SHIFT_HALF) + shifted_binomial(
                l - 1, Fraction(l, 2) - k, SHIFT_HALF
            )
            assert lhs == rhs


# -------------------------------- pi^2 sequence -----------------------------


def test_pi2_seq_m1_recomputed():
    # k in {-1/2, 1/2, 3/2}: sign (-1)^(k-1/2), denominator k, prefactor 1/2
    expect = Fraction(0)
    for d in (-1, 1, 3):
        k = Fraction(d, 2)
        sign = -1 if ((d - 1) // 2) % 2 else 1
        expect += PI_C2[1 + k] * sign / k
    expect /= 2
    rec = pi2_seq(2, 1)
    assert rec.exact == expect == Fraction(464, 45)


def test_pi2_seq_error_decays_and_terms_rational():
    errs = []
    for m in (10, 100):
        rec = pi2_seq(2, m)
        assert isinstance(rec.exact, Fraction)
        errs.append(rec.abs_error)
    assert errs[1] < errs[0]


# ----------------------------- generic-s sequences ---------------------------


def test_pi_over_sin_reduces_to_pi_seq_at_half():
    for m in (1, 5, 23):
        assert pi_over_sin_seq(2, SHIFT_HALF, m).exact == pi_seq_t0(2, m).exact
        assert pi_over_sin_sq_seq(2, SHIFT_HALF, m).exact == pi2_seq(2, m).exact


def test_pi_over_sin_seq_converges():
    for s in (S3, S4):
        errs = [pi_over_sin_seq(2, s, m).abs_error for m in (10, 100)]
        assert errs[1] < errs[0]
        rec = pi_over_sin_seq(2, s, 100)
        assert rec.target_value == pytest.approx(math.pi / math.sin(math.pi * float(s.s)))


def test_pi_over_sin_seq_l0_and_odd_l():
    errs = [pi_over_sin_seq(0, S3, m).abs_error for m in (10, 100, 1000)]
    assert errs[2] < errs[1] < errs[0]
    errs = [pi_over_sin_seq(1, S3, m).abs_error for m in (10, 100, 1000)]
    assert errs[2] < errs[1] < errs[0]


def test_pi_over_sin_seq_rejects_zero_shift():
    from shiftbinom.exact import SHIFT_ZERO

    with pytest.raises(ValueError):
        pi_over_sin_seq(2, SHIFT_ZERO, 5)


def test_pi_over_sin_sq_seq_converges():
    rec = pi_over_sin_sq_seq(2, S4, 10)
    assert rec.target_value == pytest.approx(
        (math.pi / math.sin(math.pi / 4)) ** 2
    )
    assert pi_over_sin_sq_seq(2, S4, 100).abs_error < rec.abs_error
    with pytest.raises(ValueError):
        pi_over_sin_sq_seq(1, S4, 5)


def test_pi_over_sin_cos_seq():
    rec10 = pi_over_sin_cos_seq(1, S4, 10)
    assert rec10.target_value == pytest.approx(2 * math.pi)  # sin*cos = 1/2 at s=1/4
    errs = [pi_over_sin_cos_seq(1, S4, m).abs_error for m in (10, 100, 1000)]
    assert errs[2] < errs[1] < errs[0]
    with pytest.raises(ValueError):
        pi_over_sin_cos_seq(2, S4, 5)
    with pytest.raises(ValueError):
        pi_over_sin_cos_seq(1, SHIFT_HALF, 5)  # cos(pi/2) pole


# ------------------------------ cumulative sums ------------------------------


def test_odd_cumulative_values():
    spec = SumSpec(r=2, l=(1, 1))
    rec0 = odd_A_cumulative_seq(spec, 0)
    assert rec0.exact == Fraction(512, 9)
    rec1 = odd_A_cumulative_seq(spec, 1)
    assert rec1.exact == Fraction(512, 9) + Fraction(512, 225)
    assert rec1.target_value == pytest.approx(6 * math.pi**2)


def test_odd_cumulative_monotone_for_positive_terms():
    spec = SumSpec(r=2, l=(1, 1))
    vals = [odd_A_cumulative_seq(spec, m).exact for m in range(6)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_wrong_beta_power_raises_runtime_error(monkeypatch):
    # an internal invariant, checked without assert so python -O keeps it; the
    # evaluator that cum and agg build for each spec returns beta^1 here
    beta1 = ScaledValue(Fraction(1), 1, SHIFT_HALF)
    monkeypatch.setattr(sequences, "Coefficients", lambda spec, family, rows: lambda A: beta1)
    with pytest.raises(RuntimeError):
        odd_A_cumulative_seq(SumSpec(r=2, l=(1, 1)), 0)


# ------------------------------ ratio sequences ------------------------------


def test_pi2_ratio_seq():
    spec = SumSpec(r=2, l=(1, 1))
    errs = [pi2_ratio_seq(spec, 0, m).abs_error for m in (10, 100)]
    assert errs[1] < errs[0]
    rec = pi2_ratio_seq(spec, 0, 10)
    assert isinstance(rec.exact, Fraction)
    with pytest.raises(ValueError):
        pi2_ratio_seq(spec, 4, 10)  # outside the support


def test_pi_ratio_seq():
    spec = SumSpec(r=2, l=(1, 1))
    errs = [pi_ratio_seq(spec, 2, m).abs_error for m in (10, 100)]
    assert errs[1] < errs[0]
    with pytest.raises(ValueError):
        pi_ratio_seq(spec, 0, 10)  # antisymmetric coefficient vanishes


# ------------------------------- compositions --------------------------------


def brute_force_compositions(n: int, g: int) -> list[tuple[int, ...]]:
    """Oracle enumeration: filter every bounded tuple by the stated rules."""
    out = []
    j_max = n + (n - 1) * (g - 2)
    for j in range(1, j_max + 1):
        for parts in itertools.product(range(n + 1), repeat=j):
            if sum(parts) != n:
                continue
            if parts[0] == 0 or parts[-1] == 0:
                continue
            run = best = 0
            for v in parts:
                run = run + 1 if v == 0 else 0
                best = max(best, run)
            if best > g - 2:
                continue
            out.append(parts)
    return out


def test_enumerate_examples():
    assert [c.parts for c in enumerate_g_compositions(2, 2)] == [(2,), (1, 1)]
    assert [c.parts for c in enumerate_g_compositions(1, 2)] == [(1,)]
    three = [c.parts for c in enumerate_g_compositions(2, 3)]
    assert (1, 0, 1) in three
    assert three == [(2,), (1, 1), (1, 0, 1)]


def test_enumerate_against_brute_force():
    for n, g in [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (4, 3), (3, 4)]:
        mine = [c.parts for c in enumerate_g_compositions(n, g)]
        assert sorted(mine, key=lambda p: (len(p), p)) == mine  # documented order
        assert sorted(mine) == sorted(brute_force_compositions(n, g)), (n, g)
        assert len(set(mine)) == len(mine)


def test_gcomposition_validation():
    with pytest.raises(ValueError):
        GComposition((0, 1), 2)
    with pytest.raises(ValueError):
        GComposition((1, 0), 2)
    with pytest.raises(ValueError):
        GComposition((1, 0, 1), 2)  # zero run exceeds g-2 = 0
    with pytest.raises(ValueError):
        GComposition((1, 0, 0, 1), 3)
    GComposition((1, 0, 1), 3)  # fine at g = 3


def test_cg_weight_examples():
    assert cg_weight(GComposition((2,), 2)) == Fraction(1, 2)
    assert cg_weight(GComposition((1, 1), 2)) == Fraction(1)


def test_cg_two_forms_agree_on_full_grid():
    for n in range(1, 7):
        for g in (2, 3, 4):
            for comp in enumerate_g_compositions(n, g):
                assert cg_weight(comp) == cg_weight_factorial_form(comp), comp


def test_cg_sum_rule_identity():
    # g*n*sum(c_g) = C(gn, n) pins the enumeration and weight conventions
    assert 4 * sum(cg_weight(c) for c in enumerate_g_compositions(2, 2)) == 6
    for n in range(1, 7):
        for g in (2, 3, 4):
            total = g * n * sum(cg_weight(c) for c in enumerate_g_compositions(n, g))
            assert total == math.comb(g * n, n), (n, g)


# ------------------------------- aggregation --------------------------------


def test_aggregate_composes_prior_pieces():
    # n=2, g=2, m=0: g*n*(c(2)*cum((2,0)) + c(1,1)*cum((1,1)))
    cum2 = odd_A_cumulative_seq(SumSpec(r=2, l=(2, 0)), 0).exact
    cum11 = odd_A_cumulative_seq(SumSpec(r=2, l=(1, 1)), 0).exact
    expect = 4 * (Fraction(1, 2) * cum2 + 1 * cum11)
    rec = aggregate_composition_seq(2, 2, 2, 0)
    assert rec.exact == expect


def test_aggregate_single_part_padding():
    # n=1: the lone composition (1) lifts to the two-part spec (1, 0)
    rec = aggregate_composition_seq(1, 2, 2, 3)
    direct = 2 * 1 * odd_A_cumulative_seq(SumSpec(r=2, l=(1, 0)), 3).exact
    assert rec.exact == direct
    assert rec.target_value == pytest.approx(math.pi**2 * 2 * 2)


def test_aggregate_converges():
    errs = [aggregate_composition_seq(2, 2, 2, m).abs_error for m in (2, 8, 32)]
    assert errs[2] < errs[1] < errs[0]
    rec = aggregate_composition_seq(2, 2, 2, 8)
    assert rec.target_value == pytest.approx(36 * math.pi**2)


# ------------------------------ window policies ------------------------------


def test_sequence_windows_selectable():
    a = pi_seq_t0(2, 3, Window.PAPER)
    b = pi_seq_t0(2, 3, Window.SYMMETRIC)
    assert a.exact != b.exact  # symmetric window has one extra term
    assert abs(b.approx - math.pi) < 1


# ---------------------------------- sweeps ----------------------------------

SWEEP_MS = [1, 2, *range(5, 18, 4)]  # 1, 2, 5, 9, 13, 17
SWEEPS = [
    ("pi", {"l": 2}),
    ("pi", {"l": 4}),
    ("pi2", {"l": 2}),
    ("pi2", {"l": 6}),
    *[("pis", {"l": l, "s": s}) for l in (2, 3) for s in (S3, SHIFT_HALF)],
    *[("pis2", {"l": l, "s": s}) for l in (2, 4) for s in (S3, SHIFT_HALF)],
    ("pis-odd", {"l": 1, "s": S3}),
    ("pis-odd", {"l": 3, "s": S3}),
    ("cum", {"spec": SumSpec(r=2, l=(1, 1))}),
    ("cum", {"spec": SumSpec(r=2, l=(1, 2, 1))}),
    ("agg", {"n": 2, "g": 2, "r": 2}),
    ("agg", {"n": 3, "g": 3, "r": 2}),
    ("ratio-pi2", {"spec": SumSpec(r=2, l=(1, 1)), "A": 0}),
    ("ratio-pi", {"spec": SumSpec(r=2, l=(1, 1)), "A": 2}),
]


@pytest.mark.parametrize("window", list(Window))
@pytest.mark.parametrize("kind, params", SWEEPS)
def test_sweep_adds_only_new_window_terms(kind, params, window):
    # the incremental sweep against a from-scratch evaluation at every m
    ms = ([0] if kind in ("cum", "agg") else []) + SWEEP_MS
    swept = sequences.sweep(kind, ms, window, **params)
    assert swept == [sequences.sweep(kind, [m], window, **params)[0] for m in ms]


@pytest.mark.parametrize("window", list(Window))
@pytest.mark.parametrize(
    "kind, spec, A, partial, limit",
    [
        ("ratio-pi2", SumSpec(r=2, l=(1, 1)), 0, even_A_shifted_partial,
         lambda spec, A: even_A_coefficient(spec, A)),
        ("ratio-pi", SumSpec(r=2, l=(1, 2)), 2, even_A_antisym_partial,
         lambda spec, A: even_A_antisym_exact(spec, A).coeff),
        ("ratio-pi", SumSpec(r=2, l=(1, 1, 1)), -2, even_A_antisym_partial,
         lambda spec, A: even_A_antisym_exact(spec, A).coeff),
    ],
)
def test_ratio_sweep_matches_truncated_coefficient(kind, spec, A, partial, limit, window):
    # the incremental k_1 window against the whole coefficient from sums at every m
    ms = SWEEP_MS[:-1]  # 1, 2, 5, 9, 13
    swept = sequences.sweep(kind, ms, window, spec=spec, A=A)
    assert [r.exact for r in swept] == [
        partial(spec, A, m, window).coeff / limit(spec, A) for m in ms
    ]


def test_sweep_order_and_validation(monkeypatch):
    ms = [9, 1, 5, 5, 2]
    assert sequences.sweep("pis", ms, l=3, s=S3) == [pi_over_sin_seq(3, S3, m) for m in ms]
    assert sequences.sweep("pi", [], l=2) == []

    def no_terms(*args):
        raise AssertionError("a term was computed before the check")

    monkeypatch.setattr(sequences, "beta_coeff", no_terms)
    with pytest.raises(ValueError):
        sequences.sweep("pi", [3, 0], l=2)  # m = 0 is rejected up front
    with pytest.raises(ValueError):
        sequences.sweep("pi", [1], l=3)
    with pytest.raises(ValueError):
        sequences.sweep("no-such-kind", [1])
