import copy
import itertools
import math
import pickle
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbinom import sequences
from shiftbinom.exact import ParameterError, shifted_binomial
from shiftbinom.sums import Coefficients, Family, SumSpec, Window
from shiftbinom.sequences import (
    GComposition,
    SeqRecord,
    cg_weight,
    enumerate_g_compositions,
    sweep,
)

from reference import (
    agg_weighted,
    cg_weight_factorial_form,
    closed_walks_by_area,
    odd_A_sums_by_spec,
)

S3, S4, HALF = Fraction(1, 3), Fraction(1, 4), Fraction(1, 2)
# pi C(2, x) at x = 1/2, 3/2, 5/2, pinned by hand from the closed product
PI_C2 = {Fraction(1, 2): Fraction(16, 3), Fraction(3, 2): Fraction(16, 3),
         Fraction(5, 2): Fraction(16, 15)}


# -------------------------------- pi sequence -------------------------------


def test_pi_seq_m1_pinned_value():
    # independent recompute from pinned values:
    # 2^-2 * (pi C(2,1/2) + pi C(2,3/2) + pi C(2,5/2))
    expect = sum(PI_C2.values()) / 4
    assert expect == Fraction(44, 15)
    [rec] = sweep("pi", [1], l=2)
    assert rec.exact == Fraction(44, 15)
    assert rec.target_tag == "pi"
    assert rec.abs_error == abs(float(rec.exact) - math.pi)


def test_pi_seq_error_decays():
    m10, m100 = sweep("pi", [10, 100], l=2)
    assert m100.abs_error < m10.abs_error


def test_pi_seq_rejects_odd_or_nonpositive_l():
    for l in (3, 0):
        with pytest.raises(ValueError):
            sweep("pi", [5], l=l)


def test_odd_l_footnote_identity():
    # C(l, l/2+k) = C(l-1, l/2+k) + C(l-1, l/2-k) for odd l, half-int entries:
    # each carries one power of beta(1/2)
    for l in (1, 3, 5):
        for k in range(-6, 7):
            e = Fraction(l, 2) + k  # a half-integer
            lhs = shifted_binomial(l, e)
            rhs = shifted_binomial(l - 1, e) + shifted_binomial(l - 1, Fraction(l, 2) - k)
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
    [rec] = sweep("pi2", [1], l=2)
    assert rec.exact == expect == Fraction(464, 45)


def test_pi2_seq_error_decays_and_terms_rational():
    recs = list(sweep("pi2", [10, 100], l=2))
    assert all(isinstance(rec.exact, Fraction) for rec in recs)
    assert recs[1].abs_error < recs[0].abs_error


# ----------------------------- generic-s sequences ---------------------------


def test_pi_over_sin_reduces_to_pi_seq_at_half():
    def exact(kind, **params):
        return [rec.exact for rec in sweep(kind, (1, 5, 23), **params)]

    for l in (2, 4, 6):
        assert exact("pis", l=l, s=HALF) == exact("pi", l=l), l
        assert exact("pis2", l=l, s=HALF) == exact("pi2", l=l), l


def test_pi_over_sin_seq_converges():
    for s in (S3, S4):
        m10, m100 = sweep("pis", [10, 100], l=2, s=s)
        assert m100.abs_error < m10.abs_error
        assert m100.target_value == pytest.approx(math.pi / math.sin(math.pi * float(s)))


def test_pi_over_sin_seq_l0_and_odd_l():
    for l in (0, 1):
        errs = [rec.abs_error for rec in sweep("pis", [10, 100, 1000], l=l, s=S3)]
        assert errs[2] < errs[1] < errs[0]


def test_pi_over_sin_seq_rejects_zero_shift():
    with pytest.raises(ValueError):
        sweep("pis", [5], l=2, s=Fraction(0))


def test_pi_over_sin_sq_seq_converges():
    rec, m100 = sweep("pis2", [10, 100], l=2, s=S4)
    assert rec.target_value == pytest.approx(
        (math.pi / math.sin(math.pi / 4)) ** 2
    )
    assert m100.abs_error < rec.abs_error
    with pytest.raises(ValueError):
        sweep("pis2", [5], l=1, s=S4)


def test_pi_over_sin_cos_seq():
    recs = list(sweep("pis-odd", [10, 100, 1000], l=1, s=S4))
    assert recs[0].target_value == pytest.approx(2 * math.pi)  # sin*cos = 1/2 at s=1/4
    errs = [rec.abs_error for rec in recs]
    assert errs[2] < errs[1] < errs[0]
    with pytest.raises(ValueError):
        sweep("pis-odd", [5], l=2, s=S4)
    with pytest.raises(ValueError):
        sweep("pis-odd", [5], l=1, s=HALF)  # cos(pi/2) pole


def test_pis_targets_keep_their_symmetry_in_s_exactly():
    # pi/sin(pi s) is even under s -> 1 - s and pi/(sin(pi s) cos(pi s)) odd;
    # formed from the exact distance to the nearest integer, the float
    # targets keep that bit for bit
    shifts = {Fraction(a, b) for b in range(2, 30) for a in range(1, b)}
    for s in shifts:
        for kind, l in (("pis", 2), ("pis2", 2), ("pis-odd", 1)):
            if kind == "pis-odd" and s == HALF:
                continue
            [at_s] = sweep(kind, [1], l=l, s=s)
            [mirror] = sweep(kind, [1], l=l, s=1 - s)
            sign = -1 if kind == "pis-odd" else 1
            assert mirror.target_value.hex() == (sign * at_s.target_value).hex(), (kind, s)


def test_pis_kinds_reject_shift_out_of_range():
    for kind, l in (("pis", 2), ("pis2", 2), ("pis-odd", 1)):
        for s in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 4)):
            with pytest.raises(ParameterError, match="0 < s < 1"):
                sweep(kind, [1], l=l, s=s)


# ------------------------------ cumulative sums ------------------------------


def test_odd_cumulative_values():
    rec0, rec1 = sweep("cum", [0, 1], spec=SumSpec(r=2, l=(1, 1)))
    assert rec0.exact == Fraction(512, 9)
    assert rec1.exact == Fraction(512, 9) + Fraction(512, 225)
    assert rec1.target_value == pytest.approx(6 * math.pi**2)


def test_odd_cumulative_monotone_for_positive_terms():
    vals = [rec.exact for rec in sweep("cum", range(6), spec=SumSpec(r=2, l=(1, 1)))]
    assert all(b > a for a, b in zip(vals, vals[1:]))


# ------------------------------ ratio sequences ------------------------------


def test_pi2_ratio_seq():
    spec = SumSpec(r=2, l=(1, 1))
    rec, m100 = sweep("ratio-pi2", [10, 100], spec=spec, A=0)
    assert m100.abs_error < rec.abs_error
    assert isinstance(rec.exact, Fraction)
    with pytest.raises(ValueError):
        sweep("ratio-pi2", [10], spec=spec, A=4)  # outside the support


def test_pi_ratio_seq():
    spec = SumSpec(r=2, l=(1, 1))
    m10, m100 = sweep("ratio-pi", [10, 100], spec=spec, A=2)
    assert m100.abs_error < m10.abs_error
    with pytest.raises(ValueError):
        sweep("ratio-pi", [10], spec=spec, A=0)  # antisymmetric coefficient vanishes


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


@pytest.mark.parametrize("n, g", [(7, 4), (6, 5), (5, 6), (8, 3), (4, 9), (3, 40)])
def test_enumerate_yields_every_composition_in_order(n, g):
    # strictly increasing keys admit no repeat, and there are sum over k of
    # C(n-1, k-1)(g-1)^(k-1) = g^(n-1) g-compositions, k nonzero parts with a
    # run of 0..g-2 zeros in each of their k-1 gaps: so every valid
    # composition is yielded, once, in the documented order
    comps = list(enumerate_g_compositions(n, g))
    keys = [(len(c.parts), c.parts) for c in comps]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(comps) == g ** (n - 1)
    assert all(c == GComposition(c.parts, g) for c in comps)


def test_enumerate_builds_nothing_ahead():
    # the first compositions of n = 3 at g = 200, of 40,000 with up to 399
    # parts, come without the others being found
    tracemalloc.start()
    try:
        first = list(itertools.islice(enumerate_g_compositions(3, 200), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.parts for c in first] == [(3,), (1, 2), (2, 1)]
    assert peak < 2**20


def test_enumerate_many_part_compositions():
    # n = 2 with up to g-2 = 1098 zeros between its two ones: 1,100
    # compositions of up to 1,100 parts, made with one frame per nonzero part,
    # not per part
    comps = list(enumerate_g_compositions(2, 1100))
    assert len(comps) == 1100
    assert comps[0].parts == (2,) and comps[-1].parts == (1, *[0] * 1098, 1)
    assert 1100 * 2 * sum(cg_weight(c) for c in comps) == math.comb(2200, 2)


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


# the package's value types: (a maker, its fields, its repr, another value of
# the type that differs in one field)
_PI_1 = (1, Fraction(8, 3), 8 / 3, "pi", math.pi, abs(8 / 3 - math.pi))
_VALUES = {
    "SumSpec": (lambda: SumSpec(r=2, l=[1, True]), {"r": 2, "l": (1, 1)},
                "SumSpec(r=2, l=(1, 1))", SumSpec(r=2, l=(1, 1, 0))),
    "GComposition": (lambda: GComposition([1, 0, 2], 3), {"parts": (1, 0, 2), "g": 3},
                     "GComposition(parts=(1, 0, 2), g=3)", GComposition((1, 0, 2), 4)),
    "SeqRecord": (lambda: SeqRecord(*_PI_1),
                  dict(zip(("m", "exact", "approx", "target_tag", "target_value", "abs_error"),
                           _PI_1)),
                  "SeqRecord(m=1, exact=Fraction(8, 3), approx={!r}, target_tag='pi', "
                  "target_value={!r}, abs_error={!r})".format(*_PI_1[2:3], *_PI_1[4:]),
                  SeqRecord(2, *_PI_1[1:])),
}


@pytest.mark.parametrize("name", _VALUES)
def test_value_types_compare_hash_and_print_by_their_fields(name):
    make, fields, text, other = _VALUES[name]
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and {a: name}[b] == name
    assert a != other and other != a and len({a, other}) == 2
    # no value equals a tuple of its fields, or a value of another type
    assert a != tuple(fields.values()) and all(a != _VALUES[n][0]() for n in _VALUES if n != name)
    assert {f: getattr(a, f) for f in fields} == fields
    assert all(type(v) is int for f in ("l", "parts") if f in fields for v in getattr(a, f))
    assert repr(a) == text
    assert copy.copy(a) == copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", _VALUES)
def test_value_types_refuse_assignment(name):
    make, fields, _, _ = _VALUES[name]
    a = make()
    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, f, 0)
    for f in fields:
        with pytest.raises(AttributeError):
            delattr(a, f)
    assert a == make()


# each value type's field checks, and the parameter checks that no other
# in-process test reaches, each with its message
@pytest.mark.parametrize("make, message", [
    (lambda: SumSpec(r=3, l=(1, 1)), "r must be a positive even integer"),
    (lambda: SumSpec(r=0, l=(1, 1)), "r must be a positive even integer"),
    (lambda: SumSpec(r=2, l=[1]), "need at least two parts l_1, l_2"),
    (lambda: SumSpec(r=2, l=(1, -1)), "parts must be non-negative"),
    (lambda: GComposition((1, 1), 1), "g must be >= 2"),
    (lambda: GComposition((), 2), "parts must be a nonempty tuple of non-negative ints"),
    (lambda: GComposition((1, -1, 1), 3), "parts must be a nonempty tuple of non-negative ints"),
    (lambda: GComposition((0,), 2), "composition must have positive total"),
    (lambda: GComposition((0, 1), 3), "leading/trailing zero parts are not allowed"),
    (lambda: GComposition((1, 0, 0, 1), 3), "more than 1 consecutive zeros"),
    (lambda: GComposition((1, 0, 1, 0, 0, 0, 1), 4), "more than 2 consecutive zeros"),
    (lambda: shifted_binomial(-1, HALF), "l must be non-negative"),
    (lambda: sweep("pis", [1], l=-1, s=S3), "l must be >= 0"),
    (lambda: Coefficients(SumSpec(r=2, l=(1, 1)), Family.EVEN).k1_term(0),
     "family even eliminates k_1"),
])
def test_value_types_report_bad_fields(make, message):
    with pytest.raises(ParameterError) as raised:
        make()
    assert str(raised.value) == message


# an integer field takes an integer or a bool, and neither truncates a float
# nor reads a string digit by digit
@pytest.mark.parametrize("make", [
    lambda: SumSpec(r=2, l=(1.5, 1)),
    lambda: SumSpec(r=2, l="11"),
    lambda: SumSpec(r=2.0, l=(1, 1)),
    lambda: GComposition((1, 2), 2.0),
    lambda: GComposition((1.5, 1), 2),
], ids=["l-float", "l-string", "r-float", "g-float", "parts-float"])
def test_value_types_refuse_fields_that_are_not_integers(make):
    with pytest.raises(TypeError):
        make()


def test_cg_weight_examples():
    assert cg_weight(GComposition((2,), 2)) == Fraction(1, 2)
    assert cg_weight(GComposition((1, 1), 2)) == Fraction(1)


def test_cg_two_forms_agree_on_full_grid():
    for n in range(1, 7):
        for g in (2, 3, 4):
            for comp in enumerate_g_compositions(n, g):
                assert cg_weight(comp) == cg_weight_factorial_form(comp), comp


# 18 (n, g) pairs: hypothesis stops once it has drawn each of them
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(1, 6), st.integers(2, 4))
def test_cg_sum_rule_identity(n, g):
    # g*n*sum(c_g) = C(gn, n) pins the enumeration and weight conventions
    total = g * n * sum(cg_weight(c) for c in enumerate_g_compositions(n, g))
    assert total == math.comb(g * n, n)


# ------------------------------- aggregation --------------------------------


def test_aggregate_composes_prior_pieces():
    # n=2, g=2, m=0: g*n*(c(2)*cum((2,0)) + c(1,1)*cum((1,1)))
    [cum2] = sweep("cum", [0], spec=SumSpec(r=2, l=(2, 0)))
    [cum11] = sweep("cum", [0], spec=SumSpec(r=2, l=(1, 1)))
    expect = 4 * (Fraction(1, 2) * cum2.exact + 1 * cum11.exact)
    [rec] = sweep("agg", [0], n=2, g=2, r=2)
    assert rec.exact == expect


def test_aggregate_single_part_padding():
    # n=1: the lone composition (1) lifts to the two-part spec (1, 0)
    [rec] = sweep("agg", [3], n=1, g=2, r=2)
    [cum] = sweep("cum", [3], spec=SumSpec(r=2, l=(1, 0)))
    assert rec.exact == 2 * 1 * cum.exact
    assert rec.target_value == pytest.approx(math.pi**2 * 2 * 2)


@pytest.mark.parametrize("n, g, r", [
    (n, g, r) for n in range(1, 7) for g in (2, 3, 4) for r in (2, 4)
])
def test_agg_sweep_matches_per_spec_sum(n, g, r):
    # the merged tail against one Coefficients per composition spec, exactly,
    # at every m up to 40; a grid cell with many compositions stops sooner,
    # since the per-spec side costs one lattice sum per spec and per m
    weighted = agg_weighted(n, g, r)
    ms = range(min(40, 1200 // len(weighted)) + 1)
    assert [rec.exact for rec in sweep("agg", ms, n=n, g=g, r=r)] == odd_A_sums_by_spec(
        2 * g * n, weighted, ms)


def _area_aggregate(n: int, weight) -> dict[int, Fraction]:
    """The nonzero A -> sum over the 2-compositions l of n of 2 n weight(l)
    even_(2, l)(A), from one weighted even Coefficients."""
    even = Coefficients([(2 * n * w, spec) for w, spec in agg_weighted(n, 2, 2, weight)],
                        Family.EVEN)
    return {A: c for A in even.default_A_range() if (c := even(A))}


@pytest.mark.parametrize("n", range(1, 9))
def test_even_aggregate_counts_closed_walks_by_area(n):
    # g = 2, r = 2: the weighted even aggregate is the number of closed walks
    # of length 2n on Z^2 by twice their algebraic area, at every A
    walks = closed_walks_by_area(2 * n)
    assert _area_aggregate(n, cg_weight) == walks
    assert sum(walks.values()) == math.comb(2 * n, n) ** 2
    if n == 3:
        assert walks == {-4: 12, -2: 72, 0: 232, 2: 72, 4: 12}
    # the count sees every weight: one composition's moved by 1 breaks it
    first = next(enumerate_g_compositions(n, 2))
    moved = lambda c: cg_weight(c) + (c == first)
    assert _area_aggregate(n, moved) != walks


def test_aggregate_converges():
    recs = list(sweep("agg", [2, 8, 32], n=2, g=2, r=2))
    errs = [rec.abs_error for rec in recs]
    assert errs[2] < errs[1] < errs[0]
    assert recs[1].target_value == pytest.approx(36 * math.pi**2)


# ------------------------------ window policies ------------------------------


def test_sequence_windows_selectable():
    [a] = sweep("pi", [3], l=2, window=Window.PAPER)
    [b] = sweep("pi", [3], l=2, window=Window.SYMMETRIC)
    assert a.exact != b.exact  # symmetric window has one extra term
    assert abs(b.approx - math.pi) < 1


@pytest.mark.parametrize("kind, params", [
    ("pi", {"l": 2}),
    ("ratio-pi", {"spec": SumSpec(r=2, l=(1, 2)), "A": 2}),
])
def test_window_by_value(kind, params):
    # a plain string gives the member's value
    for window, value in [(Window.PAPER, "paper"), (Window.SYMMETRIC, "symmetric")]:
        by_value = list(sweep(kind, range(1, 6), **params, window=value))
        assert by_value == list(sweep(kind, range(1, 6), **params, window=window)), value


def test_even_l_has_no_symmetric_window_by_value():
    with pytest.raises(ParameterError, match="no symmetric window"):
        sweep("pis", [1], l=2, s=S3, window="symmetric")


# ---------------------------------- sweeps ----------------------------------

SWEEP_MS = [1, 2, *range(5, 18, 4)]  # 1, 2, 5, 9, 13, 17
SWEEPS = [
    ("pi", {"l": 2}),
    ("pi", {"l": 4}),
    ("pi2", {"l": 2}),
    ("pi2", {"l": 6}),
    *[("pis", {"l": l, "s": s}) for l in (2, 3) for s in (S3, HALF)],
    *[("pis2", {"l": l, "s": s}) for l in (2, 4) for s in (S3, HALF)],
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
    # cum and agg have no half-integer window and take no window parameter
    if kind in ("cum", "agg"):
        ms = [0, *SWEEP_MS]
    else:
        ms, params = SWEEP_MS, {**params, "window": window}
    if kind in ("pis", "pis2") and params["l"] % 2 == 0 and window is Window.SYMMETRIC:
        # C(l, l/2 + k + s) is symmetric in k only at s = 0: no symmetric window
        with pytest.raises(ParameterError, match="no symmetric window"):
            sequences.sweep(kind, ms, **params)
        return
    swept = list(sequences.sweep(kind, ms, **params))
    assert swept == [next(sequences.sweep(kind, [m], **params)) for m in ms]


@pytest.mark.parametrize("window", list(Window))
@pytest.mark.parametrize(
    "kind, spec, A, partial, limit",
    [
        ("ratio-pi2", SumSpec(r=2, l=(1, 1)), 0, Family.SHIFTED, Family.EVEN),
        ("ratio-pi", SumSpec(r=2, l=(1, 2)), 2, Family.ANTISYM, Family.ANTISYM_EXACT),
        ("ratio-pi", SumSpec(r=2, l=(1, 1, 1)), -2, Family.ANTISYM, Family.ANTISYM_EXACT),
    ],
)
def test_ratio_sweep_matches_truncated_coefficient(kind, spec, A, partial, limit, window):
    # the incremental k_1 window against the whole coefficient from sums at every m
    ms = SWEEP_MS[:-1]  # 1, 2, 5, 9, 13
    swept = sequences.sweep(kind, ms, spec=spec, A=A, window=window)
    ref = Coefficients(spec, limit)(A)
    assert [r.exact for r in swept] == [
        Coefficients(spec, partial, m, window)(A) / ref for m in ms
    ]


def test_sweep_order_and_validation(monkeypatch):
    # one record per distinct m, in ascending m
    ms = [9, 1, 5, 5, 2]
    assert [rec.m for rec in sequences.sweep("pis", ms, l=3, s=S3)] == [1, 2, 5, 9]
    assert list(sequences.sweep("pi", [], l=2)) == []

    def no_terms(*args):
        raise AssertionError("a term was computed before the check")

    # each bad input raises at the call itself, before any record is asked for
    monkeypatch.setattr(sequences, "beta_coeff", no_terms)
    with pytest.raises(ValueError):
        sequences.sweep("pi", [3, 0], l=2)  # m = 0 is rejected up front
    with pytest.raises(ValueError):
        sequences.sweep("pi", [1], l=3)
    with pytest.raises(ValueError):
        sequences.sweep("no-such-kind", [1])
    with pytest.raises(ValueError):
        sequences.enumerate_g_compositions(0, 2)
    with pytest.raises(ValueError):
        sequences.enumerate_g_compositions(2, 1)


def test_sweep_holds_no_list_of_a_range():
    # a range with a positive step is swept as it is: the first record of a
    # million m costs no set or list of them
    tracemalloc.start()
    try:
        assert next(sequences.sweep("pi", range(1, 10**6 + 1), l=2)).m == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    # any other iterable, a range with a negative step included, is sorted first
    assert [rec.m for rec in sequences.sweep("pi", range(5, 0, -2), l=2)] == [1, 3, 5]


def test_sweep_computes_each_record_as_it_is_yielded(monkeypatch):
    calls = []
    beta_coeff = sequences.beta_coeff

    def counted(*args):
        calls.append(args)
        return beta_coeff(*args)

    monkeypatch.setattr(sequences, "beta_coeff", counted)
    records = sequences.sweep("pi", range(1, 1001), l=2)
    assert calls == []
    assert next(records).m == 1
    # the paper window at m = 1 is i = -1, 0, 1: its three terms and no more
    assert len(calls) == 3
