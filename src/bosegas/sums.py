"""Deterministic lattice summation.

Every scalar assembled from lattice contributions goes through `det_sum`,
which accumulates with exact compensated summation (Shewchuk partials, a
Kahan-style scheme with zero rounding error in the final result).  Combined
with the canonical shell-then-lexicographic point order this makes every
reported number independent of chunking, bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np


def det_sum(values: Iterable[float]) -> float:
    """Exactly rounded sum of a sequence of floats."""
    if isinstance(values, np.ndarray):
        return math.fsum(values.tolist())
    return math.fsum(values)


def det_rows(func: Callable[[int], tuple], n: int, width: int) -> np.ndarray:
    """Evaluate func(i) -> width floats for i in range(n) into an (n, width)
    array; reduce the columns with det_sum afterwards for a fully
    deterministic double sum."""
    out = np.empty((n, width), dtype=float)
    for i in range(n):
        out[i] = func(i)
    return out
