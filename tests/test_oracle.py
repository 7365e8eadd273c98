import math
from fractions import Fraction

import pytest

from shiftbinom.exact import ParameterError, as_float
from shiftbinom.oracle import (
    _integrate,
    _modes,
    _samples,
    antisym_expansion,
    even_expansion,
    identity_bound,
    odd_expansion,
    square_wave_bound,
)
from shiftbinom.sums import Coefficients, Family, SumSpec, sum_rule_even

from reference import float_binomial, shifted_series_eval


ZERO = Fraction(0)  # the phase of q -> infinity

EXPANSIONS = (even_expansion, odd_expansion, antisym_expansion)


def _period(spec: SumSpec, phase: Fraction) -> float:
    """The period integral as even_expansion forms it: the mean of the samples."""
    f = _samples(spec, phase)
    return math.fsum(f) / len(f)


def _integral(spec: SumSpec, phase: Fraction, lo: float, hi: float, kind: str) -> float:
    """The integral of the cosine- or sine-power product over [lo, hi], from
    the cosine product's modes: the sine product is the cosine one at
    t - 1/2, so its interval moves by -1/2."""
    shift = 0.5 if kind == "sin" else 0.0
    return _integrate(_modes(spec, _samples(spec, phase)), lo - shift, hi - shift)


def test_full_integral_examples():
    assert _period(SumSpec(r=2, l=(1, 1)), ZERO) == pytest.approx(6.0)
    assert _period(SumSpec(r=2, l=(1, 1)), Fraction(1, 2)) == pytest.approx(2.0)
    assert _period(SumSpec(r=2, l=(0, 0)), ZERO) == pytest.approx(1.0)


def test_closed_form_at_phase_zero():
    """At phase 0 with r = 2, l = (1, 1) the products are (2 cos pi t)^4 =
    6 + 8 cos 2pi t + 2 cos 4pi t and (2 sin pi t)^4 = 6 - 8 cos 2pi t +
    2 cos 4pi t, whose antiderivatives are 6t +- (4/pi) sin 2pi t +
    (1/(2pi)) sin 4pi t.

    Roundoff bound, 2^-40 (9.1e-13): every sample is at most 2^4; it passes
    through fewer than 2^4 roundings of relative size 2^-53 (the sample,
    the product with its root of unity) before the exactly rounded sums; a
    mode is twice such a mean; and its three modes, each times a difference
    of two unit exponentials over 2 pi k, sum to less than 2^4 times the
    largest.  A zero-width interval integrates to exactly 0.
    """
    spec = SumSpec(r=2, l=(1, 1))

    def antiderivative(t, sign):
        return (6 * t + sign * 4 / math.pi * math.sin(2 * math.pi * t)
                + math.sin(4 * math.pi * t) / (2 * math.pi))

    # the whole period, the antisym half range, the cut pieces of the odd
    # integral at phase 1/3 (cut at -1/6), and an interval off the grid
    for lo, hi in ((-0.5, 0.5), (0.0, 0.5), (-0.5, -1 / 6), (-1 / 6, 0.5), (0.1, 0.37)):
        for kind, sign in (("cos", 1), ("sin", -1)):
            exact = antiderivative(hi, sign) - antiderivative(lo, sign)
            assert abs(_integral(spec, ZERO, lo, hi, kind) - exact) <= 2**-40, (lo, hi, kind)
    assert _integral(spec, ZERO, 0.3, 0.3, "cos") == 0.0
    assert len(_samples(spec, ZERO)) == 2 * (spec.r * spec.n + 1)


def test_halfrange_matches_full_for_even_integrand():
    """[-1/2, 1/2] gives the period integral, and integrals over adjacent
    intervals add up, both to roundoff relative to C(rn, rn/2), which bounds
    the integrand's mean."""
    for spec, phase in ((SumSpec(r=2, l=(1, 1)), Fraction(1, 3)),
                        (SumSpec(r=2, l=(1, 2, 1)), Fraction(1, 5)),
                        (SumSpec(r=4, l=(1, 1, 1)), Fraction(3, 8))):
        full = _period(spec, phase)
        tol = 1e-14 * math.comb(spec.r * spec.n, spec.r * spec.n // 2)
        whole = _integral(spec, phase, -0.5, 0.5, "cos")
        assert whole == pytest.approx(full, abs=tol), spec
        for kind in ("cos", "sin"):
            for a, b, c in ((-0.5, -0.1, 0.5), (0.0, 0.2, 0.5), (-0.3, 0.05, 0.45)):
                ab, bc, ac = (_integral(spec, phase, lo, hi, kind)
                              for lo, hi in ((a, b), (b, c), (a, c)))
                assert ab + bc == pytest.approx(ac, abs=tol), (spec, kind, a, b, c)


def test_halfrange_sin_of_all_zero_parts_is_range_length():
    assert _integral(SumSpec(r=2, l=(0, 0)), ZERO, 0.0, 0.5, "sin") == pytest.approx(0.5)


# ------------------------------ float binomial ------------------------------


def test_float_binomial_matches_comb_and_poles():
    for l in range(8):
        for k in range(l + 1):
            assert float_binomial(l, float(k)) == pytest.approx(math.comb(l, k))
    assert float_binomial(3, 5.0) == 0.0
    assert float_binomial(3, -1.0) == 0.0
    # half-integer value cross-check: C(2, 1/2) = 16/(3 pi)
    assert float_binomial(2, 0.5) == pytest.approx(16 / (3 * math.pi))


# ------------------------------- series eval --------------------------------


def test_series_t0_half_shift():
    v = shifted_series_eval(2, 0.5, 0.0, 400)
    assert v.imag == pytest.approx(0.0, abs=1e-12)
    assert v.real == pytest.approx(4.0, abs=1e-3)


def test_series_s0_is_exact_at_finite_K():
    for l in (0, 1, 2, 3, 4):
        for t in (0.0, 0.3, -0.45):
            v = shifted_series_eval(l, 0.0, t, max(2, l))
            assert v.real == pytest.approx((2 * math.cos(math.pi * t)) ** l, abs=1e-12)
            assert v.imag == pytest.approx(0.0, abs=1e-12)


def test_series_envelope_decreases_on_grid():
    for l in (0, 1, 2, 5):
        for s in (0.5, 1 / 3, 0.25):
            for t in (0.0, 0.3, -0.45):
                target = (2 * math.cos(math.pi * t)) ** l
                envs = []
                for K in (25, 100, 400):
                    envs.append(
                        max(
                            abs(shifted_series_eval(l, s, t, K + d) - target)
                            for d in (0, 1, 2)
                        )
                    )
                assert envs[2] < envs[1] < envs[0], (l, s, t, envs)


def test_series_rejects_boundary_t():
    with pytest.raises(ValueError):
        shifted_series_eval(2, 0.5, 0.5, 10)


# -------------------------------- expansions --------------------------------


def _abs_err(sides: tuple[float, float]) -> float:
    lhs, rhs = sides
    return abs(lhs - rhs)


def test_expansions_example_spec():
    spec, phase = SumSpec(r=2, l=(1, 1, 1)), Fraction(1, 5)
    assert _abs_err(even_expansion(spec, phase)) < 1e-10
    assert _abs_err(odd_expansion(spec, phase)) < 1e-10
    assert _abs_err(antisym_expansion(spec, phase)) < 1e-10


def test_expansions_q_infinity_collapse_to_central_binomial():
    spec = SumSpec(r=2, l=(1, 1))
    assert even_expansion(spec, ZERO)[1] == pytest.approx(6.0)
    odd = odd_expansion(spec, ZERO)
    assert odd[0] == pytest.approx(6.0)
    assert _abs_err(odd) < 1e-10
    assert sum_rule_even(spec) == 6


def test_expansions_small_grid():
    for l, p, q in [((1, 1), 1, 3), ((2, 1), 2, 7), ((1, 1, 1, 1), 1, 3), ((1, 2, 1), 1, 5)]:
        spec, phase = SumSpec(r=2, l=l), Fraction(p, q)
        for expansion in EXPANSIONS:
            assert _abs_err(expansion(spec, phase)) < 1e-8, (l, p, q, expansion)


def test_odd_integral_at_phases_past_one():
    """p/q -> p/q + 1 leaves the product alone (r is even) and flips
    cos(pi A p/q) at every odd A, so the odd total at 7/3 is the one at 1/3,
    and the one at 4/3 its negative.  Each needs the cut at
    p/q - 1/2 - floor(p/q) inside [-1/2, 1/2], and the closed form the phase
    reduced to [-1, 1), here 1/3 and -2/3; roundoff is relative to
    C(rn, rn/2), as in test_halfrange_matches_full_for_even_integrand."""
    spec = SumSpec(r=2, l=(1, 2, 1))
    tol = 1e-14 * math.comb(spec.r * spec.n, spec.r * spec.n // 2)
    third, four_thirds, seven_thirds = (odd_expansion(spec, Fraction(p, 3)) for p in (1, 4, 7))
    for side in (0, 1):
        assert seven_thirds[side] == pytest.approx(third[side], abs=tol)
        assert four_thirds[side] == pytest.approx(-third[side], abs=tol)
    for sides in (third, four_thirds, seven_thirds):
        assert _abs_err(sides) < 1e-10, sides


@pytest.mark.parametrize("spec", [SumSpec(r=2, l=(1, 2, 1)), SumSpec(r=4, l=(1, 1, 1))],
                         ids=["2;1,2,1", "4;1,1,1"])
@pytest.mark.parametrize("phase", [Fraction(-1, 10**30), 1 - Fraction(1, 10**30),
                                   2 - Fraction(1, 10**30)], ids=["0-", "1-", "2-"])
def test_odd_integral_where_the_phase_rounds_up_to_an_integer(spec, phase):
    """p/q mod 2 lies just below 1 or 2 here, and its float is that integer:
    the cut point c = -1/2 is read from the float, so the sign must be read
    from it too, not from the exact p/q mod 2, which is below the integer."""
    assert _abs_err(odd_expansion(spec, phase)) <= square_wave_bound(spec)


def test_largest_spec_in_double_range():
    """N 2^(rn) bounds every sample sum, so rn = 1012 is the largest r*n
    whose integral sides stay finite (see the oracle's module docstring);
    there the square wave still meets its bound."""
    largest = SumSpec(r=2, l=(505, 1))
    lhs, rhs = even_expansion(largest, ZERO)
    assert math.isfinite(lhs) and math.isfinite(rhs)
    lhs, rhs = antisym_expansion(largest, ZERO)
    assert math.isfinite(lhs) and math.isfinite(rhs)
    assert abs(lhs - rhs) <= square_wave_bound(largest)
    with pytest.raises(ParameterError):
        _samples(SumSpec(r=2, l=(506, 1)), ZERO)


def test_phase_normalisation():
    """A phase is a Fraction, so p/q is reduced before any float is formed:
    2/4 gives the floats of 1/2 bit for bit, and phase 0, q -> infinity,
    gives every cosine weight 1 and every sine weight 0."""
    spec = SumSpec(r=2, l=(1, 1, 1))
    for expansion in EXPANSIONS:
        assert expansion(spec, Fraction(2, 4)) == expansion(spec, Fraction(1, 2))
        assert expansion(spec, Fraction(-7, 21)) == expansion(spec, Fraction(-1, 3))
    assert _samples(spec, Fraction(2, 4)) == _samples(spec, Fraction(1, 2))
    # with phase 0 the coefficient sides are the plain sums of the coefficients
    even = even_expansion(spec, ZERO)[1]
    assert even == sum_rule_even(spec) == math.comb(6, 3)
    assert antisym_expansion(spec, ZERO)[1] == 0.0



def test_phase_is_reduced_below_two_exactly():
    """Every integrand has period 1 in p/q and the odd expansion period 2,
    and the oracle forms each angle from k p mod 2q, reduced exactly in
    integers: a phase 2k away from another gives its floats bit for bit,
    however large k is and on either side of 0."""
    spec = SumSpec(r=2, l=(1, 2, 1))
    for small in (Fraction(1, 3), Fraction(5, 3), Fraction(-7, 5), ZERO):
        for k in (1, 10**30, -1, -(10**30)):
            for expansion in EXPANSIONS:
                assert expansion(spec, small + 2 * k) == expansion(spec, small), (small, k)


@pytest.mark.parametrize("expansion, spec, phase, tol", [
    (antisym_expansion, SumSpec(r=4, l=(2, 2, 2)), Fraction(5, 3), 1e-9),
    (odd_expansion, SumSpec(r=4, l=(3, 3, 3)), Fraction(-7, 5), 1e-6),
    (odd_expansion, SumSpec(r=4, l=(3, 3, 3)), Fraction(10**21 + 1, 3), 1e-6),
], ids=["antisym-5/3", "odd-minus-7/5", "odd-10^21+1/3"])
def test_exact_angles_meet_the_cli_tolerances(expansion, spec, phase, tol):
    """Each expansion meets a tolerance far below its check's roundoff bound
    here.  Antisym at 5/3 and the odd expansion at (10^21 + 1)/3 meet it only
    when each angle is reduced exactly in integers: the float pi k p / q,
    formed directly, loses the digits it needs, in the odd integrand's
    shifts at that size of p.  At -7/5 the odd expansion meets it either way:
    its closed form reduces p/q exactly to [-1, 1), 3/5 here, before it forms
    any angle, and its integrand's shifts are small."""
    assert _abs_err(expansion(spec, phase)) < tol


# ------------------------------ roundoff bounds ------------------------------


def test_bounds_are_the_stated_formulas():
    # (4; 2,2,2): rn = 24, j = 3
    spec = SumSpec(r=4, l=(2, 2, 2))
    assert identity_bound(spec) == 19 * (24 + 3 + 1) * 2.0**24 * 2.0**-52
    assert square_wave_bound(spec) == 190 * (24 + 3 + 2) * 2.0**24 * 2.0**-52
    # finite up to the largest spec the oracle takes
    largest = SumSpec(r=2, l=(505, 1))
    for bound in (identity_bound, square_wave_bound):
        assert math.isfinite(bound(largest)), bound


@pytest.mark.parametrize("spec", [
    SumSpec(r=2, l=(1, 1)), SumSpec(r=2, l=(0, 0)), SumSpec(r=2, l=(1, 2, 1)),
    SumSpec(r=4, l=(2, 2, 2)), SumSpec(r=6, l=(3, 2, 2, 1)), SumSpec(r=2, l=(6, 6, 6, 6, 6)),
], ids=lambda spec: f"{spec.r};{','.join(map(str, spec.l))}")
def test_bounds_cover_the_measured_error(spec):
    for phase in (ZERO, Fraction(1, 3), Fraction(2, 7), Fraction(5, 3), Fraction(-7, 5)):
        assert _abs_err(even_expansion(spec, phase)) <= identity_bound(spec), phase
        assert _abs_err(odd_expansion(spec, phase)) <= square_wave_bound(spec), phase
        assert _abs_err(antisym_expansion(spec, phase)) <= square_wave_bound(spec), phase


def test_antisym_exact_absolute_sum_is_below_two_to_the_rn():
    """The square-wave bound takes the antisym-exact coefficients, each times its
    1/pi, to sum in absolute value to at most 2^(rn+1)/pi < 2^(rn)."""
    for spec in [SumSpec(r=2, l=(1, 1)), SumSpec(r=2, l=(2, 1, 1)), SumSpec(r=4, l=(1, 0, 2)),
                 SumSpec(r=2, l=(1, 2, 1, 1)), SumSpec(r=6, l=(2, 1, 1))]:
        coeffs = Coefficients(spec, Family.ANTISYM_EXACT)
        total = math.fsum(abs(as_float(coeffs(A), 1)) for A in coeffs.default_A_range())
        assert total <= 2.0 ** (spec.r * spec.n + 1) / math.pi, spec
