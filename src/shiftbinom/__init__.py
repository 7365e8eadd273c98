"""Exact shifted binomial sums, trigonometric-integral identities, and
rational sequences converging to powers of pi."""

from .exact import (
    SHIFT_HALF,
    SHIFT_ZERO,
    HalfInt,
    Rational,
    ScaledValue,
    Shift,
    newton_binomial,
    shifted_binomial,
    sinc_at,
)

__version__ = "0.1.0"
