"""Exact shifted binomial sums, trigonometric-integral identities, and
rational sequences converging to powers of pi."""

from .exact import newton_binomial, shifted_binomial

__version__ = "0.1.0"
