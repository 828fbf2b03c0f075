"""Base-2 log-domain arithmetic.

Norm evaluation accumulates every product as a log2 value and reduces sums of
positive terms with max-factored summation, so weights spanning hundreds of
binary orders of magnitude (deep cube towers, extreme smoothness indices)
neither overflow nor underflow double precision.

Parameters that decide a rule (the classifier's boundaries, the hypothesis
region of the tower witness) are normalised by ``num``, so that rationals
keep those boundaries exact.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

INF = math.inf
NEG_INF = float("-inf")


def inv(x: float) -> float:
    """1/x for an extended exponent x in (0, inf], with 1/inf = 0."""
    x = float(x)
    return 0.0 if x == INF else 1.0 / x


def geometric_tail_log2(rate: float, x: float) -> float:
    """log2 of the l^x norm of the geometric sequence 2**(-j rate), j >= 0:
    -(1/x) log2(1 - 2**(-rate x)), for rate > 0 and a finite x > 0."""
    return -inv(x) * math.log2(1.0 - 2.0 ** (-rate * x))


def num(x):
    """A parameter as a number: ints and Fractions become Fractions, so that
    arithmetic and comparisons on them stay exact; anything else a float,
    which may not be nan."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    x = float(x)
    if math.isnan(x):
        raise ValueError("parameters must be numbers, got nan")
    return x


def nums(*xs) -> list:
    """Parameters that one decision compares with each other, normalised by
    ``num``: exact when every finite one is rational, and all floats as soon
    as one is a float, so a decimal input decides in float arithmetic."""
    xs = [num(x) for x in xs]
    if any(isinstance(x, float) and x != INF for x in xs):
        return [float(x) for x in xs]
    return xs


def exact_inv(x):
    """1/x for an extended exponent normalised by ``num``: a Fraction for a
    Fraction, and exactly 0 at inf, so 1/inf keeps rational arithmetic exact."""
    return Fraction(0) if x == INF else 1 / x


def log2_sum(values) -> float:
    """log2 of sum(2**v) over an array of log2 values, max-factored."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return NEG_INF
    m = float(arr.max())
    if m == NEG_INF:
        return NEG_INF
    return m + math.log2(float(np.exp2(arr - m).sum()))


def log2_to_linear(v: float) -> float:
    """2**v with graceful overflow to inf and underflow to 0."""
    if v == NEG_INF:
        return 0.0
    try:
        return 2.0 ** v
    except OverflowError:
        return math.inf
