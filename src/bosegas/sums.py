"""Deterministic lattice summation.

Every scalar assembled from lattice contributions goes through `det_sum`,
which accumulates with exact compensated summation (Shewchuk partials, a
Kahan-style scheme with zero rounding error in the final result).  Combined
with the canonical shell-then-lexicographic point order this makes every
reported number independent of chunking, bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import NonFiniteSum


class Term(NamedTuple):
    """A truncated sum: its exact ball part and the continuum tail beyond
    the ball, both in the value.  The report writes a Term `x` as the keys
    `x`, `x_ball` and `x_tail`."""

    ball: float
    tail: float

    @property
    def value(self) -> float:
        return self.ball + self.tail


def det_sum(values: Iterable[float]) -> float:
    """Exactly rounded sum of a sequence of floats; NonFiniteSum where
    the sum overflows or adds opposite infinities."""
    if isinstance(values, np.ndarray):
        # fsum reads the buffer's items as the floats tolist would give,
        # without building the list
        values = memoryview(np.ascontiguousarray(values))
    try:
        return math.fsum(values)
    except (OverflowError, ValueError) as exc:
        raise NonFiniteSum(f"{exc}; coupling out of regime") from None


def weighted_sum(values: np.ndarray, counts: np.ndarray) -> float:
    """`det_sum` of each value repeated by its count, bitwise, for counts
    below 64 (a cubic orbit holds at most 48 points), without forming
    the repeated values.

    A Veltkamp split with factor 2^6 + 1 writes each value v as hi + lo,
    hi with at most 47 significant bits and lo with at most 6, so hi * n
    and lo * n are exact for n < 64: their exact sum is that of the
    repeated values, and `det_sum` rounds it once.  Where the split sum
    is zero, not finite, or raises, the repeated values are summed
    instead, so the sign of zero, a non-finite sum and NonFiniteSum are
    theirs.  The two can differ only in whether a partial sum just below
    the overflow threshold overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        g = 65.0 * values
        hi = g - (g - values)
        # float counts: a mixed-type multiply would allocate cast buffers
        n = np.asarray(counts, dtype=float)
        parts = np.concatenate([hi * n, (values - hi) * n])
    try:
        total = det_sum(parts)
    except NonFiniteSum:
        total = math.nan
    # a zero falls back too, so its sign is the repeated values' own
    if math.isfinite(total) and total != 0.0:
        return total
    return det_sum(np.repeat(values, counts))


def det_rows(func: Callable[[int], float], n: int) -> np.ndarray:
    """Evaluate func(i) for i in range(n) into an (n,) array; reduce it
    with det_sum afterwards for a fully deterministic double sum."""
    out = np.empty(n, dtype=float)
    for i in range(n):
        out[i] = func(i)
    return out
