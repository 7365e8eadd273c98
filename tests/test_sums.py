import functools
import itertools
import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftbinom import cli, oracle, sequences, sums
from shiftbinom.exact import ParameterError, as_float, shifted_binomial
from shiftbinom.sums import (
    Coefficients,
    Family,
    SumSpec,
    Window,
    half_window,
    sum_rule_even,
)

from reference import (
    agg_weighted,
    chu_vandermonde_partial,
    laurent_antisym_exact,
    laurent_even,
    odd_A_sums_by_spec,
    per_spec_coefficients,
    pole_residues,
    sinc_at,
    support_bound,
)

# the standard grid: r = 2, every l-list with 2 <= j <= 4 and total n <= 4
GRID = [
    SumSpec(r=2, l=l)
    for j in (2, 3, 4)
    for l in itertools.product(range(5), repeat=j)
    if sum(l) <= 4
]


def _window(m: int, window: Window) -> list[Fraction]:
    """Half-integers from -m-1/2 (symmetric) or -m+1/2 (paper) up to m+1/2."""
    lo = -m - 1 if window is Window.SYMMETRIC else -m
    return [Fraction(2 * k + 1, 2) for k in range(lo, m + 1)]


def _beta_power(x: Fraction) -> int:
    """The power of beta(1/2) = 1/pi that C(n, x), or sinc(x), carries."""
    return 0 if x.denominator == 1 else 1


# memoized only for speed: the oracle still visits every lattice point
@functools.lru_cache(maxsize=None)
def _binom(n: int, entry: Fraction) -> tuple[Fraction, int]:
    return shifted_binomial(n, entry), _beta_power(entry)


# family -> (weight g of a summed k_1 with its power of beta, or None when
# k_1 is solved; the indices i whose k_i runs over a half-integer window
# instead of |k_i| <= r l_i / 2)
NAIVE_ROWS = {
    Family.EVEN: (None, ()),
    Family.ODD: (None, ()),
    Family.ODD_SINC: (lambda d: (sinc_at(d), _beta_power(d)), ()),
    Family.SHIFTED: (lambda d: (sinc_at(d), _beta_power(d)), (1,)),
    Family.ANTISYM: (lambda d: (1 / d, 1), (1,)),
    Family.ANTISYM_EXACT: (lambda d: (2 / d if d % 2 else Fraction(0), 1), ()),
    Family.FOUR: (None, (3, 4)),
}


def naive_coefficient(
    spec: SumSpec, family: Family, A: int, m: int | None = None,
    window: Window = Window.SYMMETRIC,
) -> tuple[Fraction, int]:
    """Oracle: every point of the k_3..k_j lattice, one by one.  k_2 solves
    A = -2 sum_{i>=2} (i-1) k_i; k_1 solves sum_i k_i = 0, or is summed
    against g(solution - k_1).  No collapse of the lattice and no reuse of
    any partial sum.  Returns the sum of the terms' rational factors and
    their one power of beta(1/2): each nonzero term carries one power per
    half-integer entry, plus its weight's, and two terms that differ raise."""
    weight, half_axes = NAIVE_ROWS[family]
    n = [spec.r * li for li in spec.l]

    def binom(i, k):  # C(r l_i, r l_i / 2 + k)
        return _binom(n[i - 1], Fraction(n[i - 1], 2) + k)

    def axis(i):
        if i in half_axes:
            return _window(m, window)
        return [Fraction(k) for k in range(-n[i - 1] // 2, n[i - 1] // 2 + 1)]

    total, powers = Fraction(0), set()

    def add(*factors: tuple[Fraction, int]) -> None:
        nonlocal total
        term = math.prod((c for c, _e in factors), start=Fraction(1))
        if term:
            total += term
            powers.add(sum(e for _c, e in factors))
            if len(powers) > 1:
                raise AssertionError(f"terms with beta powers {sorted(powers)} at A = {A}")

    tail_axes = [[(i, k, binom(i, k)) for k in axis(i)] for i in range(3, spec.j + 1)]
    for point in itertools.product(*tail_axes):
        k2 = -Fraction(A, 2) - sum((i - 1) * k for i, k, _c in point)
        k1 = -k2 - sum(k for _i, k, _c in point)
        tail = [binom(2, k2), *(c for _i, _k, c in point)]
        if weight is None:
            add(*tail, binom(1, k1))
        else:
            for k in axis(1):
                add(*tail, binom(1, k), weight(k1 - k))
    return total, powers.pop() if powers else 0


# ------------------------------ every family -------------------------------


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_every_family_matches_naive_lattice(family):
    """Exact equality, coefficient and pi power, with the point-by-point
    oracle over GRID, |A| <= 9, m in {1, 3} and both windows: one A at a
    time, and every A of one table.  A zero has no pi power to compare."""
    parity = 1 if family in (Family.ODD, Family.ODD_SINC) else 0
    truncations = (
        [(m, w) for m in (1, 3) for w in Window]
        if NAIVE_ROWS[family][1]
        else [(None, Window.SYMMETRIC)]
    )
    A_values = list(range(-9 + (1 - parity), 10, 2))
    for spec in GRID:
        if family is Family.FOUR and spec.j < 4:
            continue
        for m, window in truncations:
            coeffs = Coefficients(spec, family, m, window)
            for A in A_values:
                expect, power = naive_coefficient(spec, family, A, m, window)
                got = coeffs(A)
                assert got == expect, (spec.l, A, m, window, got)
                if expect:
                    assert family.pi_exp == power, (spec.l, A)


def test_family_parity_and_needs_m():
    # the facts the CLI reads off a family, against the naive table above
    for family in Family:
        assert family.parity == (1 if family in (Family.ODD, Family.ODD_SINC) else 0)
        assert family.needs_m is bool(NAIVE_ROWS[family][1]), family


def _expansions(spec: SumSpec) -> None:
    phase = Fraction(0)
    oracle.even_expansion(spec, phase)
    oracle.odd_expansion(spec, phase)
    oracle.antisym_expansion(spec, phase)


def test_tables_are_built_once_per_call(monkeypatch):
    """One tail-weight build per table and per spec of an agg sweep, whose
    specs share one row store, so each binomial row entry is computed once
    across all of them.  A ratio sweep, an odd-equality check and the three
    oracle expansions build one W per Coefficients object, each with its own
    store, so no entry is computed more times than there are objects."""
    builds, entries = [], Counter()
    tail_weights, missing = sums._tail_weights, sums.Rows.__missing__

    def counted_tail_weights(spec, *args):
        builds.append(spec)
        return tail_weights(spec, *args)

    def counted_missing(rows, key):
        entries[key] += 1
        return missing(rows, key)

    monkeypatch.setattr(sums, "_tail_weights", counted_tail_weights)
    monkeypatch.setattr(sums.Rows, "__missing__", counted_missing)
    spec = SumSpec(r=2, l=(1, 2, 1, 1))
    odd, even = list(range(-9, 10, 2)), list(range(-8, 9, 2))
    for family, A_values, m in [
        (Family.EVEN, None, None),  # the support comes from the same W
        (Family.ODD, odd, None),
        (Family.ODD_SINC, odd, None),
        (Family.SHIFTED, even, 3),
        (Family.ANTISYM, even, 3),
        (Family.ANTISYM_EXACT, None, None),
        (Family.FOUR, even, 3),
    ]:
        builds.clear()
        entries.clear()
        coeffs = Coefficients(spec, family, m)
        for A in coeffs.default_A_range() if A_values is None else A_values:
            coeffs(A)
        assert builds == [spec], family
        assert set(entries.values()) == {1}, family
    builds.clear()
    entries.clear()
    list(sequences.sweep("agg", range(8), n=4, g=3, r=2))
    assert len(builds) == len(list(sequences.enumerate_g_compositions(4, 3)))
    assert set(entries.values()) == {1}
    for name, run, objects in [
        ("ratio-pi2", lambda: list(sequences.sweep("ratio-pi2", range(1, 9), spec=spec, A=2)), 2),
        ("ratio-pi", lambda: list(sequences.sweep("ratio-pi", range(1, 9), spec=spec, A=2,
                                                  window=Window.SYMMETRIC)), 2),
        ("odd-equality",
         lambda: cli.main(["verify", "odd-equality", "--r", "2", "--l", "1,2,1,1"]), 2),
        ("expansions", lambda: _expansions(spec), 3),
    ]:
        builds.clear()
        entries.clear()
        run()
        assert [b.l for b in builds] == [spec.l] * objects, name
        assert max(entries.values()) <= objects, name


# ------------------------------- even family -------------------------------


def test_even_examples():
    even = Coefficients(SumSpec(r=2, l=(1, 1)), Family.EVEN)
    assert [even(A) for A in (0, 2, 4)] == [4, 1, 0]
    assert Family.EVEN.pi_exp == 0
    with pytest.raises(ValueError):
        even(1)


def test_even_against_brute_force_lattice():
    for spec in GRID:
        even = Coefficients(spec, Family.EVEN)
        bound = support_bound(spec) + 2
        for A in range(-bound, bound + 1, 2):
            expect, power = naive_coefficient(spec, Family.EVEN, A)
            assert (even(A), power) == (expect, 0), (spec.l, A)


def test_even_support():
    for l, expect in [((1, 1), [-2, 0, 2]), ((0, 0), [0])]:
        assert Coefficients(SumSpec(r=2, l=l), Family.EVEN).default_A_range() == expect
    sup = Coefficients(SumSpec(r=2, l=(1, 1, 1)), Family.EVEN).default_A_range()
    assert sup == sorted(-A for A in sup)


def test_support_containment_and_positivity():
    for spec in GRID:
        even = Coefficients(spec, Family.EVEN)
        bound = support_bound(spec)
        for A in even.default_A_range():
            assert abs(A) <= bound
            assert even(A) > 0


def test_sum_rule_even():
    assert sum_rule_even(SumSpec(r=2, l=(1, 1))) == 6
    assert sum_rule_even(SumSpec(r=2, l=(1, 1, 1))) == 20
    assert sum_rule_even(SumSpec(r=2, l=(0, 0))) == 1
    for spec in GRID:
        rn = spec.r * spec.n
        assert sum_rule_even(spec) == math.comb(rn, rn // 2)


# -------------------------------- odd family --------------------------------


def test_odd_direct_examples():
    spec = SumSpec(r=2, l=(1, 1))
    odd = Coefficients(spec, Family.ODD)
    v = odd(1)
    # two half-integer entries: the product carries beta(1/2)^2
    expect = shifted_binomial(2, Fraction(3, 2)) * shifted_binomial(2, Fraction(1, 2))
    assert (v, Family.ODD.pi_exp) == (expect, 2)
    assert (v, Family.ODD.pi_exp) == (Fraction(256, 9), 2)
    assert odd(3) == Fraction(256, 225)
    with pytest.raises(ValueError):
        odd(2)
    with pytest.raises(ValueError):
        Coefficients(spec, Family.ODD_SINC)(2)


def test_odd_symmetry():
    for spec in GRID[:40]:
        direct, sinc = Coefficients(spec, Family.ODD), Coefficients(spec, Family.ODD_SINC)
        for A in (1, 3, 5):
            assert direct(A) == direct(-A)
            assert sinc(A) == sinc(-A)


def test_odd_direct_equals_sinc_form_exactly():
    # rational-exact, zero tolerance, over the full grid and |A| <= 9
    for spec in GRID:
        direct, sinc = Coefficients(spec, Family.ODD), Coefficients(spec, Family.ODD_SINC)
        for A in range(-9, 10, 2):
            d, s = direct(A), sinc(A)
            assert d == s, (spec.l, A, d, s)


def test_odd_sinc_handles_zero_parts():
    # C(0, half-integer) factors still contribute: C(0, x) = sinc(x)
    spec = SumSpec(r=2, l=(0, 0))
    v = Coefficients(spec, Family.ODD)(1)
    assert v == sinc_at(Fraction(1, 2)) * sinc_at(Fraction(-1, 2))
    assert v == 4
    assert v == Coefficients(spec, Family.ODD_SINC)(1)


# -------------------------- windowed even families --------------------------


def test_half_window_shapes():
    # Window.indices is the one window rule: [-m-1, m] symmetric, [-m, m]
    # paper, and [-m-1, m-1] paper at odd l
    for odd_l in (False, True):
        assert list(Window.SYMMETRIC.indices(1, odd_l)) == [-2, -1, 0, 1]
        assert list(Window.SYMMETRIC.indices(2, odd_l)) == [-3, -2, -1, 0, 1, 2]
    assert list(Window.PAPER.indices(1)) == [-1, 0, 1]
    assert list(Window.PAPER.indices(2)) == [-2, -1, 0, 1, 2]
    assert list(Window.PAPER.indices(1, odd_l=True)) == [-2, -1, 0]
    assert list(Window.PAPER.indices(2, odd_l=True)) == [-3, -2, -1, 0, 1]
    # half_window doubles them as 2i + 1
    for window in Window:
        for m in (1, 2):
            assert list(half_window(m, window)) == [2 * i + 1 for i in window.indices(m)]
    assert list(half_window(1, Window.PAPER)) == [-1, 1, 3]
    assert list(half_window(1, Window.SYMMETRIC)) == [-3, -1, 1, 3]
    assert len(half_window(10, Window.PAPER)) == 21
    assert len(half_window(10, Window.SYMMETRIC)) == 22
    with pytest.raises(ValueError):
        half_window(0, Window.PAPER)


@pytest.mark.parametrize("family", [Family.SHIFTED, Family.FOUR])
def test_family_and_window_by_value(family):
    # a plain string gives the member's value, for the family and the window
    spec, A_values = SumSpec(r=2, l=(1, 2, 1, 1)), range(-6, 7, 2)
    tables = {}
    for window, value in [(Window.PAPER, "paper"), (Window.SYMMETRIC, "symmetric")]:
        tables[window] = [Coefficients(spec, family, 3, window)(A) for A in A_values]
        by_value = Coefficients(spec, family.value, 3, value)
        assert [by_value(A) for A in A_values] == tables[window], value
        assert list(half_window(3, value)) == list(half_window(3, window))
    assert tables[Window.PAPER] != tables[Window.SYMMETRIC]


def test_shifted_partial_m1_value():
    # recomputed term by term: k1 in {-1/2, 1/2, 3/2}
    got = Coefficients(SumSpec(r=2, l=(1, 1)), Family.SHIFTED, 1, Window.PAPER)(0)
    # each term is a sinc and a binomial at half-integers: beta(1/2)^2
    expect = sum(
        sinc_at(-k) * shifted_binomial(2, Fraction(1) + k) * 2
        for k in (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2))
    )
    assert (got, Family.SHIFTED.pi_exp) == (expect, 2)
    assert got == Fraction(1856, 45)
    assert Family.SHIFTED.pi_exp == 2


def test_shifted_partial_converges_to_even_coefficient():
    spec = SumSpec(r=2, l=(1, 1))
    target = Coefficients(spec, Family.EVEN)(0)

    def shifted(m):
        return Coefficients(spec, Family.SHIFTED, m, Window.PAPER)(0)

    errs = [abs(as_float(shifted(m), Family.SHIFTED.pi_exp) - target) for m in (5, 25, 125)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-4


def test_shifted_partial_symmetry_at_symmetric_window():
    for spec in (SumSpec(r=2, l=(1, 1)), SumSpec(r=2, l=(1, 1, 1))):
        shifted = Coefficients(spec, Family.SHIFTED, 3, Window.SYMMETRIC)
        for A in (0, 2):
            assert shifted(A) == shifted(-A)


def test_antisym_partial_antisymmetry_and_zero_at_origin():
    antisym = Coefficients(SumSpec(r=2, l=(1, 1)), Family.ANTISYM, 4, Window.SYMMETRIC)
    assert antisym(0) == 0
    for A in (2, -2):
        a, b = antisym(A), antisym(-A)
        assert a == -b
    assert Family.ANTISYM.pi_exp == 2


def test_antisym_partial_m1_is_finite_exact():
    v = Coefficients(SumSpec(r=2, l=(1, 1)), Family.ANTISYM, 1, Window.PAPER)(2)
    # k1 in {-1/2, 1/2, 3/2}, d = 1 - k1, second binomial entry 0
    expect = Fraction(0)
    for k1 in (Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)):
        c = shifted_binomial(2, Fraction(1) + k1)
        expect += c / (1 - k1)
    assert v == expect


def test_antisym_exact_values():
    exact = Coefficients(SumSpec(r=2, l=(1, 1)), Family.ANTISYM_EXACT)
    assert (exact(2), Family.ANTISYM_EXACT.pi_exp) == (Fraction(4), 1)
    assert exact(0) == 0  # d = 0 terms vanish
    for A in (2, 4, 6):
        assert exact(A) == -exact(-A)


def test_antisym_exact_is_limit_of_partial():
    spec = SumSpec(r=2, l=(1, 1))
    exact = Coefficients(spec, Family.ANTISYM_EXACT)(2)
    z = as_float(exact, Family.ANTISYM_EXACT.pi_exp)

    def partial(m):
        return Coefficients(spec, Family.ANTISYM, m, Window.PAPER)(2)

    errs = [abs(as_float(partial(m), Family.ANTISYM.pi_exp) - z) for m in (10, 100, 1000)]
    assert errs[2] < errs[1] < errs[0]


def test_antisym_bound():
    # the default range is every even |A| <= b, and past b the coefficient vanishes
    spec = SumSpec(r=2, l=(1, 1))
    exact = Coefficients(spec, Family.ANTISYM_EXACT)
    b = max(exact.default_A_range())
    assert b == 2 and exact.default_A_range() == [-2, 0, 2]
    for A in (b + 2, -b - 2, b + 6):
        assert exact(A) == 0


# ------------------------------- four-shifted -------------------------------


def test_four_shifted_basic():
    spec = SumSpec(r=2, l=(1, 1, 1, 1))
    four = Coefficients(spec, Family.FOUR, 1)
    v = four(0)
    assert Family.FOUR.pi_exp == 4
    assert isinstance(v, Fraction) and v.denominator > 0  # exact rational
    four2 = Coefficients(spec, Family.FOUR, 2)
    assert four2(2) == four2(-2)
    with pytest.raises(ValueError):
        Coefficients(SumSpec(r=2, l=(1, 1)), Family.FOUR, 1)(0)
    with pytest.raises(ValueError):
        four(1)


def test_four_shifted_cumulative_approaches_central_binomial():
    spec = SumSpec(r=2, l=(1, 1, 1, 1))
    errs = []
    for m in (2, 5, 12):
        cut = 4 * m + 8
        four = Coefficients(spec, Family.FOUR, m)
        total = math.fsum(as_float(four(A), Family.FOUR.pi_exp) for A in range(-cut, cut + 1, 2))
        errs.append(abs(total - 70.0))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-5


# ----------------------------- Chu-Vandermonde ------------------------------


def test_chu_sinc_squared_case():
    # l1 = l2 = 0, s = 1/2: partial sums of sinc^2 converge to 1
    errs = []
    for m in (10, 100, 1000):
        v = chu_vandermonde_partial(0, 0, 0, 0, Fraction(1, 2), m)  # times beta(1/2)^2
        errs.append(abs(as_float(v, 2) - 1.0))
    assert errs[2] < errs[1] < errs[0]


def test_chu_classical_terminates():
    # s = 0: integer entries, no power of beta
    assert chu_vandermonde_partial(2, 2, 1, 1, Fraction(0), 4) == 6
    # larger windows only add zero terms
    assert chu_vandermonde_partial(2, 2, 1, 1, Fraction(0), 9) == 6


def test_chu_half_shift_converges():
    errs = []
    for m in (10, 100, 1000):
        v = chu_vandermonde_partial(2, 2, 1, 1, Fraction(1, 2), m)  # times beta(1/2)^2
        errs.append(abs(as_float(v, 2) - 6.0))
    assert errs[2] < errs[1] < errs[0]


def test_chu_precondition():
    with pytest.raises(ValueError):
        chu_vandermonde_partial(2, 2, 3, 1, Fraction(1, 2), 5)


# --------------------------------- SumSpec ----------------------------------


def test_sumspec_validation():
    with pytest.raises(ValueError):
        SumSpec(r=3, l=(1, 1))
    with pytest.raises(ValueError):
        SumSpec(r=2, l=(1,))
    with pytest.raises(ValueError):
        SumSpec(r=2, l=(1, -1))
    # the phase p/q is no field of a spec (see test_oracle.test_phase_normalisation)
    with pytest.raises(TypeError):
        SumSpec(r=2, l=(1, 1), p=1, q=3)


# ------------------------- Coefficients as a table --------------------------


def test_even_default_A_range_is_support():
    even = Coefficients(SumSpec(r=2, l=(1, 1)), Family.EVEN)
    table = {A: even(A) for A in even.default_A_range()}
    assert table == {-2: 1, 0: 4, 2: 1}
    assert all(type(v) is Fraction for v in table.values())
    assert Family.EVEN.pi_exp == 0


def test_rows_store_no_entry_off_its_row():
    """The sums skip an integer entry off its row, which is 0, so a wide
    table stores no zero per A: 100,001 even A of `even --l 1,1` leave the
    3 entries of row 2, and so do the A of `antisym-exact` on the same tail."""
    even = Coefficients(SumSpec(r=2, l=(1, 1)), "even")
    table = {A: even(A) for A in range(-100000, 100001, 2)}
    assert len(even.rows) == 3
    assert {A: c for A, c in table.items() if c} == {-2: 1, 0: 4, 2: 1}
    limit = Coefficients(SumSpec(r=2, l=(1, 1)), "antisym-exact")
    assert [limit(A) for A in range(-2000, 2001, 2)]
    assert len(limit.rows) == 3


def test_coefficients_parity_check():
    spec = SumSpec(r=2, l=(1, 1))
    odd = Coefficients(spec, Family.ODD)
    for A in (0, 2):
        with pytest.raises(ParameterError):
            odd(A)
    with pytest.raises(ParameterError):
        Coefficients(spec, Family.SHIFTED)(0)  # missing m
    with pytest.raises(ParameterError):
        odd.default_A_range()  # no finite range


def test_four_with_too_few_parts_raises_when_constructed():
    # four runs k_3 and k_4 on half-integer windows, so it needs 4 parts
    with pytest.raises(ParameterError, match="needs at least 4 parts"):
        Coefficients(SumSpec(r=2, l=(1, 1, 1)), Family.FOUR, 2)
    with pytest.raises(ParameterError):
        Coefficients(SumSpec(r=2, l=(1, 1, 1, 1)), Family.FOUR)  # missing m, read with W


def test_coeff_table_symmetry_ledger():
    """Every family carries its declared (anti)symmetry exactly."""
    specs = [SumSpec(r=2, l=(1, 1)), SumSpec(r=2, l=(1, 1, 1)), SumSpec(r=2, l=(2, 1))]
    odd_As, even_As = list(range(-7, 8, 2)), list(range(-6, 7, 2))
    for spec in specs:
        even = Coefficients(spec, Family.EVEN)
        assert all(even(A) == even(-A) for A in even.default_A_range())
        for fam in (Family.ODD, Family.ODD_SINC):
            c = Coefficients(spec, fam)
            assert all(c(A) == c(-A) for A in odd_As)
        c = Coefficients(spec, Family.SHIFTED, m=2, window=Window.SYMMETRIC)
        assert all(c(A) == c(-A) for A in even_As)
        for fam in (Family.ANTISYM, Family.ANTISYM_EXACT):
            c = Coefficients(spec, fam, m=2, window=Window.SYMMETRIC)
            assert all(c(A) == -c(-A) for A in even_As)
    four = Coefficients(SumSpec(r=2, l=(1, 1, 1, 1)), Family.FOUR, m=2, window=Window.SYMMETRIC)
    assert all(four(A) == four(-A) for A in range(-4, 5, 2))


# --------------------------- weighted sums of specs ---------------------------

# weights of both signs, rows n1 = r l_1 of three sizes, and one spec twice,
# whose weights add in the merged tail; every spec has the 4 parts four needs
WEIGHTED = [
    (Fraction(3, 2), SumSpec(r=2, l=(1, 1, 0, 1))),
    (-2, SumSpec(r=2, l=(2, 1, 1, 0))),
    (Fraction(1, 3), SumSpec(r=4, l=(1, 0, 1, 1))),
    (5, SumSpec(r=2, l=(0, 2, 1, 1))),
    (1, SumSpec(r=2, l=(1, 1, 0, 1))),
    (Fraction(-1, 7), SumSpec(r=2, l=(1, 2, 1, 1, 1))),
]


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_weighted_coefficients_match_per_spec_sum(family):
    """One merged tail against one Coefficients per spec, exactly, at every
    |A| <= 11 of the family's parity, and for the weighted-k_1 families term
    by term along k_1 too."""
    m = 3 if family.needs_m else None
    merged = Coefficients(WEIGHTED, family, m)
    by_spec = per_spec_coefficients(WEIGHTED, family, m)
    for A in range(-11 + 1 - family.parity, 12, 2):
        assert merged(A) == by_spec(A), A
    if family.weight is not None:
        A = 4 + family.parity
        terms = [(w, Coefficients(spec, family).k1_term(A)) for w, spec in WEIGHTED]
        merged_term = merged.k1_term(A)
        for k2 in range(-9 + (1 not in family.half_axes), 10, 2):  # 2 k_1 on the family's axis
            assert merged_term(k2) == sum(w * term(k2) for w, term in terms), k2


def test_weighted_default_A_range_reads_the_merged_keys():
    # positive weights: the even support is the union of the specs' supports,
    # and the antisym-exact range the widest of theirs
    positive = [(abs(w), spec) for w, spec in WEIGHTED]
    supports, spans = ([Coefficients(spec, family).default_A_range() for _, spec in positive]
                       for family in (Family.EVEN, Family.ANTISYM_EXACT))
    assert Coefficients(positive, Family.EVEN).default_A_range() == sorted(set().union(*supports))
    assert Coefficients(positive, Family.ANTISYM_EXACT).default_A_range() == max(spans, key=len)
    even = Coefficients(positive, Family.EVEN)
    assert [A for A in range(-40, 41, 2) if even(A)] == even.default_A_range()


def test_exact_weights_give_the_exact_coefficient():
    # 1/10 of the weight-1 coefficient 4, whichever exact form 1/10 takes
    spec = SumSpec(r=2, l=(1, 1))
    for w in (Fraction(1, 10), "1/10", Decimal("0.1")):
        assert Coefficients([(w, spec)], Family.EVEN)(0) == Fraction(2, 5)


@pytest.mark.parametrize("make", [
    lambda: 0.1,
    lambda: pytest.importorskip("numpy").float64(0.1),
    lambda: pytest.importorskip("numpy").float32(0.1),
], ids=["float", "numpy.float64", "numpy.float32"])
def test_a_float_weight_raises(make):
    # a float would be taken at its binary value, 3602879701896397/2^55 for 0.1
    terms = ((w, SumSpec(r=2, l=(1, 1))) for w in [make()])
    with pytest.raises(TypeError, match="exact"):
        Coefficients(terms, Family.EVEN)


def test_weighted_coefficients_check_every_spec():
    # the pairs are read once, so a generator gives what its list gives
    for empty in ([], (pair for pair in [])):
        with pytest.raises(ParameterError, match="at least one spec"):
            Coefficients(empty, Family.EVEN)
    short = (1, SumSpec(r=2, l=(1, 1, 1)))
    for terms in ([*WEIGHTED, short], (pair for pair in [short, *WEIGHTED])):
        with pytest.raises(ParameterError, match="needs at least 4 parts"):
            Coefficients(terms, Family.FOUR, 2)
    for family in (Family.EVEN, Family.ODD, Family.ANTISYM_EXACT):
        listed = Coefficients(WEIGHTED, family)
        read = Coefficients((pair for pair in WEIGHTED), family)
        assert read.tail == listed.tail and type(read.tail) is dict
        assert all(isinstance(key, tuple) and len(key) == 2 for key in read.tail)
        for A in range(-9 + 1 - family.parity, 10, 4):
            assert read(A) == listed(A), (family, A)


@pytest.mark.parametrize("spec", GRID, ids=lambda spec: ",".join(map(str, spec.l)))
def test_cum_matches_per_spec_sum(spec):
    # cum's one-term weighted Coefficients against the spec's own
    ms = range(11)
    assert [rec.exact for rec in sequences.sweep("cum", ms, spec=spec)] == odd_A_sums_by_spec(
        2, [(1, spec)], ms)


# ----------------------- the odd family by its poles -----------------------


def _check_pole_form(terms) -> dict[int, Fraction]:
    """The residues of terms, after checking exactly, at every odd |A| <= 25,
    that the odd family is its pole form

        pi^2 odd(A) = sum over a of 4 even(a) / (A - a)^2 + rho1_a / (A - a)

    with the even table and rho1 of one Coefficients; that the plain pair
    loop gives 4 even(a) as the double poles and the grouped rho1; and that
    rho1 is odd in a and sums to 0."""
    even, odd = Coefficients(terms, Family.EVEN), Coefficients(terms, Family.ODD)
    table = {a: c for a in even.default_A_range() if (c := even(a))}
    rho1 = even.residues()
    for A in range(-25, 26, 2):
        pole = sum(4 * c / (A - a) ** 2 for a, c in table.items()) + sum(
            r / (A - a) for a, r in rho1.items())
        assert pole == odd(A), A
    assert pole_residues(even) == ({a: 4 * c for a, c in table.items()}, rho1)
    assert all(rho1.get(-a) == -r for a, r in rho1.items()) and sum(rho1.values()) == 0
    return rho1


@pytest.mark.parametrize("spec", GRID, ids=lambda spec: ",".join(map(str, spec.l)))
def test_odd_family_is_its_pole_form(spec):
    _check_pole_form(spec)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("g", [2, 3, 4])
def test_agg_odd_family_is_its_pole_form(n, g):
    # the weighted merged tail of agg, c_g times each g-composition's spec
    _check_pole_form(agg_weighted(n, g, 2))


@pytest.mark.parametrize("spec", [
    SumSpec(r=2, l=(1, 1)), SumSpec(r=2, l=(0, 0)), SumSpec(r=2, l=(3, 0, 2)),
    SumSpec(r=2, l=(0, 0, 3, 0)), SumSpec(r=4, l=(3, 3, 3)), SumSpec(r=6, l=(3, 2, 2, 1)), SumSpec(r=2, l=(6, 6, 6, 6, 6)),
], ids=lambda spec: f"{spec.r};{','.join(map(str, spec.l))}")
def test_residues_absolute_sum_is_below_four_times_two_to_the_rn(spec):
    """The odd check's roundoff bound takes sum_a |rho1_a| <= 4 * 2^(rn): each
    pair of poles a1 != a2, at least 2 apart, adds at most half its factor
    to two entries, and the factors of one spec sum to 4 * 2^(rn) in size.
    (2; 0,0,3,0) comes nearest among r = 2 and n <= 6, at 2.29 * 2^(rn)."""
    rho1 = _check_pole_form(spec) if spec.r * spec.n <= 36 else (
        Coefficients(spec, Family.EVEN).residues())
    assert sum(abs(r) for r in rho1.values()) <= 4 * 2 ** (spec.r * spec.n)
    if spec.n == 0:
        assert rho1 == {}  # pi^2 odd(A) = 4/A^2


def test_residues_match_the_pair_loop_at_scale():
    # rn = 240, past the sizes whose pole form is checked above: one group of
    # 121 poles a side, paired 14,641 times by the plain loop
    even = Coefficients(SumSpec(r=2, l=(60, 60)), Family.EVEN)
    table = {a: 4 * c for a in even.default_A_range() if (c := even(a))}
    assert pole_residues(even) == (table, even.residues())


def test_residues_need_a_tail_without_half_integer_axes():
    spec = SumSpec(r=2, l=(1, 1, 1, 1))
    assert Coefficients(spec, Family.ODD).residues() == Coefficients(spec, Family.EVEN).residues()
    for family in (Family.FOUR, Family.SHIFTED, Family.ANTISYM):
        with pytest.raises(ParameterError, match="half-integer axes"):
            Coefficients(spec, family, 2).residues()


# ---------------------- the exact Laurent-polynomial oracle ----------------------


@pytest.mark.parametrize("spec", [
    *GRID, SumSpec(r=2, l=(10, 10)), SumSpec(r=4, l=(3, 3, 3, 3)),
    SumSpec(r=6, l=(3, 2, 2, 1)), SumSpec(r=2, l=(6, 6, 6, 6, 6)),
    SumSpec(r=2, l=(10, 10, 10, 10)), SumSpec(r=4, l=(4, 4, 4, 4, 4)),
    SumSpec(r=2, l=(20, 20, 20)), SumSpec(r=6, l=(4, 4, 4, 4, 4)),
], ids=lambda spec: f"{spec.r};{','.join(map(str, spec.l))}")
def test_finite_families_match_the_laurent_expansion(spec):
    """The even and antisym-exact tables, every nonzero entry, exactly equal
    to the coefficients read from the cosine and sine products expanded as
    integer Laurent polynomials: a check with no float ceiling, up to
    rn = 120; at rn = 60 the float checks already pass only within a bound
    of about 10^5."""
    for family, expected in ((Family.EVEN, laurent_even(spec)),
                             (Family.ANTISYM_EXACT, laurent_antisym_exact(spec))):
        coeffs = Coefficients(spec, family)
        assert {A: c for A in coeffs.default_A_range() if (c := coeffs(A))} == expected, family


# ------------------------- properties over drawn specs -------------------------

# r in {2, 4} and 2-4 parts of size <= 2: rn <= 32, small enough that each
# example costs milliseconds, and every spec shape of the grid above and more
SPECS = st.builds(SumSpec, r=st.sampled_from([2, 4]),
                  l=st.lists(st.integers(0, 2), min_size=2, max_size=4))
PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)


@PROPERTY
@given(SPECS)
def test_even_support_sums_to_the_central_binomial(spec):
    rn = spec.r * spec.n
    assert sum_rule_even(spec) == math.comb(rn, rn // 2)


@PROPERTY
@given(SPECS)
def test_odd_equals_odd_sinc_at_every_small_odd_A(spec):
    direct, sinc = Coefficients(spec, Family.ODD), Coefficients(spec, Family.ODD_SINC)
    for A in range(-9, 10, 2):
        assert direct(A) == sinc(A), A


@PROPERTY
@given(SPECS, st.integers(1, 4), st.integers(0, 8).map(lambda a: 2 * a))
def test_symmetric_window_keeps_the_A_symmetry_exactly(spec, m, A):
    """Under the symmetric window, at every m: shifted, and four where the
    spec has its 4 parts, are even in A, and antisym is odd."""
    families = [Family.SHIFTED, *([Family.FOUR] if spec.j >= 4 else []), Family.ANTISYM]
    for family in families:
        c = Coefficients(spec, family, m, Window.SYMMETRIC)
        sign = -1 if family is Family.ANTISYM else 1
        assert c(-A) == sign * c(A), family


@PROPERTY
@given(SPECS, st.integers(-20, 19).map(lambda a: 2 * a + 1))
def test_odd_coefficient_is_its_pole_form_at_any_odd_A(spec, A):
    """pi^2 odd(A) = sum over a of 4 even(a)/(A - a)^2 + rho1_a/(A - a)."""
    even = Coefficients(spec, Family.EVEN)
    pole = sum(4 * even(a) / Fraction(A - a) ** 2 for a in even.default_A_range()) + sum(
        r / Fraction(A - a) for a, r in even.residues().items())
    assert pole == Coefficients(spec, Family.ODD)(A)


@PROPERTY
@given(SPECS)
def test_finite_families_match_the_laurent_expansion_at_drawn_specs(spec):
    test_finite_families_match_the_laurent_expansion(spec)


# ------------------------------- public names -------------------------------


@pytest.mark.parametrize("module", ["exact", "sums", "sequences", "oracle", "cli"])
def test_star_import_finds_every_public_name(module):
    # raises AttributeError for a name left in __all__ after its definition went
    exec(f"from shiftbinom.{module} import *", {})
