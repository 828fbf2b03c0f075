"""Base-2 log-domain arithmetic.

Norm evaluation accumulates every product as a log2 value and reduces sums of
positive terms with max-factored summation, so weights spanning hundreds of
binary orders of magnitude (deep cube towers, extreme smoothness indices)
neither overflow nor underflow double precision.
"""
from __future__ import annotations

import math

import numpy as np

INF = math.inf
NEG_INF = float("-inf")


def inv(x: float) -> float:
    """1/x for an extended exponent x in (0, inf], with 1/inf = 0."""
    x = float(x)
    return 0.0 if x == INF else 1.0 / x


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
