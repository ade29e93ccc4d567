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


def det_rows(func: Callable[[int], float], n: int) -> np.ndarray:
    """Evaluate func(i) for i in range(n) into an (n,) array; reduce it
    with det_sum afterwards for a fully deterministic double sum."""
    out = np.empty(n, dtype=float)
    for i in range(n):
        out[i] = func(i)
    return out
