"""Run configuration: a single JSON file with a documented schema.

`parse_config` is the one place where each key gets its spelling, its
default and its validity rule.  An absent key takes its default; a present
key is always validated, so a zero, an empty list or a misspelled key
exits 2 rather than running on a value the file did not ask for.

Keys (defaults in parentheses):

  N                   particle number, integer >= 2, or a list for scans
  beta                scaling exponent in (0, 1); outside (1/2, 1) a warning
                      is attached (the expansion targets that window)
  kappa               coupling, >= 0
  R                   potential support radius, in (0, 1/4] on the unit torus
  cutoff_K_over_2pi   single-sum cutoff K / (2 pi), >= 2 (20).  The dense
                      index grid of a ball inside [-L, L]^3, (2L+1)^3
                      points, may hold at most MAX_BALL_GRID_POINTS
  cutoff_K2_over_2pi  double-sum cutoff K2 / (2 pi), in [1, K / (4 pi)],
                      so that every p + q of two K2 momenta lies in the K
                      ball (the smaller of 10 and K / (4 pi))
  oracle              {"modes": {"nsq_max": int >= 1} or
                                {"vectors": [[i,j,k], ...]} (first shell),
                       "n_max": [5, 7, 9]}; |2 pi n| <= K for each vector
                       n, and for |n|^2 = nsq_max

Every block rejects unknown keys.  The `oracle` block also accepts, and
ignores, `rel_tol_pert` and `rel_tol_g2`: the benchmark's oracle configs
still carry them for their own output gate.  The output path is the
command line's `--out`.
"""

from __future__ import annotations

import json
import math
import zlib
from typing import NamedTuple

from .errors import RejectedConfig
from .lattice_potential import TWO_PI, _nsq_max

# memory budget of the cutoff: K = 80 pi needs an 81^3 ball grid, and
# every K below 100 pi (L <= 49, 99^3) fits
MAX_BALL_GRID_POINTS = 100**3


class OracleConfig(NamedTuple):
    modes_nsq_max: int          # 0 when modes_vectors is given
    modes_vectors: tuple
    n_max_list: tuple


class RunConfig(NamedTuple):
    N_values: tuple
    beta: float
    kappa: float
    R: float
    cutoff_K: float
    cutoff_K2: float
    oracle: OracleConfig
    warnings: tuple
    config_hash: str

    @property
    def N(self) -> int:
        return self.N_values[0]


def _integer(x, what: str, lo: int, hi: int | None = None) -> int:
    """x as a JSON integer (not a bool) in [lo, hi]; RejectedConfig for
    anything else, floats and numeric strings included."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise RejectedConfig(f"{what} must be an integer, got {x!r}")
    if x < lo or (hi is not None and x > hi):
        bound = f"in [{lo}, {hi}]" if hi is not None else f">= {lo}"
        raise RejectedConfig(f"{what} must be {bound}, got {x}")
    return x


def _as_tuple_of_ints(x, what: str) -> tuple:
    """Integers in [2, 2^53], the range where float(N) is exact."""
    vals = x if isinstance(x, list) else [x]
    if not vals:
        raise RejectedConfig(f"{what} must not be empty")
    return tuple(_integer(v, what, 2, 2**53) for v in vals)


def _number(x, what: str) -> float:
    """x as a finite float from a JSON number (not a bool or a string);
    RejectedConfig for anything else."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise RejectedConfig(f"{what} must be a number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:
        raise RejectedConfig(f"{what} must be a number, got {x!r}") from None
    if not math.isfinite(v):
        raise RejectedConfig(f"{what} must be finite, got {x!r}")
    return v


def _ball_grid_points(K: float) -> float:
    """Points of the dense index grid of the ball |p| <= K: (2L+1)^3,
    with L as `enumerate_lattice` computes it."""
    if 2.0 * K / TWO_PI > MAX_BALL_GRID_POINTS:  # the side alone is too long
        return math.inf
    return (2 * math.isqrt(_nsq_max(K)) + 1) ** 3


def _block(block, what: str, allowed: tuple) -> dict:
    """A JSON object whose keys are all in `allowed`."""
    if not isinstance(block, dict):
        raise RejectedConfig(f"{what} must be a JSON object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise RejectedConfig(f"unknown keys in {what}: {sorted(unknown)}")
    return block


def _oracle_modes(ob: dict) -> tuple[int, tuple]:
    """(nsq_max, vectors) of the oracle mode set: exactly one of the
    shells |n|^2 <= nsq_max or an explicit non-empty vector list; the
    first shell when `modes` is absent."""
    if "modes" not in ob:
        return 1, ()
    modes = _block(ob["modes"], "oracle.modes", ("nsq_max", "vectors"))
    if len(modes) != 1:
        raise RejectedConfig(
            "oracle.modes must hold exactly one of nsq_max or vectors"
        )
    if "nsq_max" in modes:
        return _integer(modes["nsq_max"], "oracle.modes.nsq_max", 1), ()
    vectors = modes["vectors"]
    if not isinstance(vectors, list) or not vectors or not all(
        isinstance(v, list) and len(v) == 3 for v in vectors
    ):
        raise RejectedConfig(
            "oracle.modes.vectors must be a non-empty list of [i, j, k]"
        )
    # |n|^2 of any such vector stays exact in int64
    return 0, tuple(
        tuple(_integer(c, "oracle.modes.vectors entry", -(2**30), 2**30)
              for c in v)
        for v in vectors
    )


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON document; raises RejectedConfig on any
    structural problem."""
    _block(raw, "configuration", (
        "N", "beta", "kappa", "R", "cutoff_K_over_2pi", "cutoff_K2_over_2pi",
        "oracle",
    ))
    for key in ("N", "beta", "kappa", "R"):
        if key not in raw:
            raise RejectedConfig(f"missing required key {key!r}")

    n_values = _as_tuple_of_ints(raw["N"], "N")
    beta = _number(raw["beta"], "beta")
    if not 0.0 < beta < 1.0:
        raise RejectedConfig(f"beta must lie in (0, 1), got {beta}")
    kappa = _number(raw["kappa"], "kappa")
    if kappa < 0.0:
        raise RejectedConfig(f"kappa must be nonnegative, got {kappa}")
    R = _number(raw["R"], "R")
    if not 0.0 < R <= 0.25:
        raise RejectedConfig(
            f"R must lie in (0, 1/4] so the potential fits the torus, got {R}"
        )

    x = _number(raw.get("cutoff_K_over_2pi", 20.0), "cutoff_K_over_2pi")
    x2 = _number(raw.get("cutoff_K2_over_2pi", min(10.0, x / 2.0)),
                 "cutoff_K2_over_2pi")
    if x < 2.0:
        raise RejectedConfig(
            f"cutoff_K_over_2pi below 2, twice the first shell: {x}"
        )
    K = TWO_PI * x
    if _ball_grid_points(K) > MAX_BALL_GRID_POINTS:
        raise RejectedConfig(
            f"cutoff_K_over_2pi = {x} needs a ball grid of more than "
            f"{MAX_BALL_GRID_POINTS} points"
        )
    if x2 < 1.0:
        raise RejectedConfig(f"cutoff_K2_over_2pi below the first shell 1: {x2}")
    if x2 > x / 2.0:
        raise RejectedConfig(
            f"cutoff_K2_over_2pi = {x2} exceeds half of cutoff_K_over_2pi "
            f"= {x}: the pair sums read p + q, up to 2 K2, in the K ball"
        )

    ob = _block(raw.get("oracle", {}), "oracle",
                ("modes", "n_max", "rel_tol_pert", "rel_tol_g2"))
    nsq_max, vectors = _oracle_modes(ob)
    # the oracle reads its modes' tables from the K ball
    largest = max((i * i + j * j + k * k for i, j, k in vectors), default=nsq_max)
    if largest > _nsq_max(K):
        what = "vectors" if vectors else "nsq_max"
        raise RejectedConfig(f"oracle.modes.{what} out of the ball |n| <= "
                             f"cutoff_K_over_2pi = {x}")
    n_max = ob.get("n_max", [5, 7, 9])
    if not isinstance(n_max, list) or not n_max:
        raise RejectedConfig("oracle.n_max must be a non-empty list")
    oracle = OracleConfig(
        modes_nsq_max=nsq_max,
        modes_vectors=vectors,
        # the Fock basis packs occupations as uint8
        n_max_list=tuple(_integer(n, "oracle.n_max entry", 0, 255) for n in n_max),
    )

    warnings = []
    if not 0.5 < beta < 1.0:
        warnings.append(
            f"beta = {beta} is outside (1/2, 1); the expansion is derived "
            f"for that window"
        )

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    digest = f"{zlib.crc32(canonical.encode()):08x}"

    return RunConfig(
        N_values=n_values,
        beta=beta,
        kappa=kappa,
        R=R,
        cutoff_K=K,
        cutoff_K2=TWO_PI * x2,
        oracle=oracle,
        warnings=tuple(warnings),
        config_hash=digest,
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise RejectedConfig(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)
