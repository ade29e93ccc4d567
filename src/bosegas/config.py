"""Run configuration: a single JSON file with a documented schema.

Keys (defaults in parentheses):

  N                 particle number, integer >= 2, or a list for scans
  beta              scaling exponent in (0, 1); outside (1/2, 1) a warning
                    is attached (the expansion targets that window)
  kappa             coupling, >= 0
  R                 potential support radius, in (0, 1/4] on the unit torus
  cutoff_K          single-sum momentum cutoff (40*pi); `cutoff_K_over_2pi`
                    may be given instead.  The p+q cube of a ball inside
                    [-L, L]^3, (4L+1)^3 points and the largest grid a run
                    with K2 = K allocates, may hold at most
                    MAX_PAIR_CUBE_POINTS
  cutoff_K2         double-sum cutoff in [2*pi, cutoff_K] (20*pi); or
                    `cutoff_K2_over_2pi`
  scattering        {"tol": 1e-11, "max_iter": 200}
  oracle            {"modes": {"nsq_max": int} | {"vectors": [[i,j,k],...]},
                     "n_max": [5, 7, 9], "N": optional override}
  out               output path for reports (stdout if absent)
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .errors import RejectedConfig

DEFAULT_K = 40.0 * math.pi
DEFAULT_K2 = 20.0 * math.pi
# memory budget of the cutoff: K = 80 pi needs a 161^3 pair cube, and
# every K below 100 pi (L <= 49, 197^3) fits
MAX_PAIR_CUBE_POINTS = 200**3


@dataclass(frozen=True)
class OracleConfig:
    modes_nsq_max: int = 1
    modes_vectors: tuple = ()
    n_max_list: tuple = (5, 7, 9)
    N: int | None = None


@dataclass(frozen=True)
class RunConfig:
    N_values: tuple
    beta: float
    kappa: float
    R: float
    cutoff_K: float = DEFAULT_K
    cutoff_K2: float = DEFAULT_K2
    tol: float = 1e-11
    max_iter: int = 200
    oracle: OracleConfig = field(default_factory=OracleConfig)
    out: str | None = None
    warnings: tuple = ()
    config_hash: str = ""

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


def _particle_number(v, what: str) -> int:
    """An integer in [2, 2^53], the range where float(N) is exact."""
    return _integer(v, what, 2, 2**53)


def _as_tuple_of_ints(x, what: str) -> tuple:
    vals = x if isinstance(x, list) else [x]
    if not vals:
        raise RejectedConfig(f"{what} must not be empty")
    return tuple(_particle_number(v, what) for v in vals)


def _number(x, what: str) -> float:
    """x as a finite float; RejectedConfig for anything else."""
    try:
        v = float(x)
    except (TypeError, ValueError, OverflowError):
        raise RejectedConfig(f"{what} must be a number, got {x!r}") from None
    if not math.isfinite(v):
        raise RejectedConfig(f"{what} must be finite, got {x!r}")
    return v


def _pair_cube_points(K: float) -> float:
    """Points of the p+q cube of the ball |p| <= K: (4L+1)^3, with L as
    `enumerate_lattice` computes it."""
    x = K / (2.0 * math.pi)
    if 4.0 * x > MAX_PAIR_CUBE_POINTS:  # the side alone is too long
        return math.inf
    L = math.isqrt(math.floor(x * x + 1e-9))
    return (4 * L + 1) ** 3


def _block(raw: dict, key: str) -> dict:
    block = raw.get(key, {})
    if not isinstance(block, dict):
        raise RejectedConfig(f"{key} block must be an object")
    return block


def parse_config(raw: dict) -> RunConfig:
    """Validate a parsed JSON document; raises RejectedConfig on any
    structural problem."""
    if not isinstance(raw, dict):
        raise RejectedConfig("configuration must be a JSON object")
    unknown = set(raw) - {
        "N", "beta", "kappa", "R", "cutoff_K", "cutoff_K_over_2pi",
        "cutoff_K2", "cutoff_K2_over_2pi", "scattering", "oracle", "out",
    }
    if unknown:
        raise RejectedConfig(f"unknown keys: {sorted(unknown)}")
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

    if "cutoff_K" in raw and "cutoff_K_over_2pi" in raw:
        raise RejectedConfig("give cutoff_K or cutoff_K_over_2pi, not both")
    K = _number(raw.get("cutoff_K", 0.0), "cutoff_K") or 2.0 * math.pi * _number(
        raw.get("cutoff_K_over_2pi", 0.0), "cutoff_K_over_2pi"
    )
    K = K or DEFAULT_K
    if "cutoff_K2" in raw and "cutoff_K2_over_2pi" in raw:
        raise RejectedConfig("give cutoff_K2 or cutoff_K2_over_2pi, not both")
    K2 = _number(raw.get("cutoff_K2", 0.0), "cutoff_K2") or 2.0 * math.pi * _number(
        raw.get("cutoff_K2_over_2pi", 0.0), "cutoff_K2_over_2pi"
    )
    K2 = K2 or min(DEFAULT_K2, K)
    if K < 2.0 * math.pi:
        raise RejectedConfig(f"cutoff_K below the first shell: {K}")
    if not math.isfinite(K):
        raise RejectedConfig("cutoff_K must be finite")
    if _pair_cube_points(K) > MAX_PAIR_CUBE_POINTS:
        raise RejectedConfig(
            f"cutoff_K = {K} needs a pair cube of more than "
            f"{MAX_PAIR_CUBE_POINTS} points"
        )
    if K2 < 2.0 * math.pi:
        raise RejectedConfig(f"cutoff_K2 below the first shell: {K2}")
    if K2 > K * (1.0 + 1e-12):
        raise RejectedConfig(f"cutoff_K2 = {K2} exceeds cutoff_K = {K}")

    scat = _block(raw, "scattering")
    tol = _number(scat.get("tol", 1e-11), "scattering.tol")
    max_iter = _integer(scat.get("max_iter", 200), "scattering.max_iter", 1)
    if tol <= 0.0:
        raise RejectedConfig("scattering tol must be > 0")

    ob = _block(raw, "oracle")
    modes = ob.get("modes", {"nsq_max": 1})
    if not isinstance(modes, dict):
        raise RejectedConfig("oracle.modes must be an object")
    vectors = modes.get("vectors", [])
    n_max = ob.get("n_max", [5, 7, 9])
    if not isinstance(vectors, list) or not all(
        isinstance(v, list) and len(v) == 3 for v in vectors
    ):
        raise RejectedConfig("oracle.modes.vectors must be a list of [i, j, k]")
    if not isinstance(n_max, list) or not n_max:
        raise RejectedConfig("oracle.n_max must be a non-empty list")
    oracle = OracleConfig(
        modes_nsq_max=(
            _integer(modes.get("nsq_max", 0), "oracle.modes.nsq_max", 0)
            if "vectors" not in modes else 0
        ),
        # |n|^2 of any such vector stays exact in int64
        modes_vectors=tuple(
            tuple(_integer(c, "oracle.modes.vectors entry", -(2**30), 2**30)
                  for c in v)
            for v in vectors
        ),
        # the Fock basis packs occupations as uint8
        n_max_list=tuple(_integer(n, "oracle.n_max entry", 0, 255) for n in n_max),
        N=_particle_number(ob["N"], "oracle.N") if "N" in ob else None,
    )

    warnings = []
    if not 0.5 < beta < 1.0:
        warnings.append(
            f"beta = {beta} is outside (1/2, 1); the expansion is derived "
            f"for that window"
        )

    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]

    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise RejectedConfig(f"out must be a path, got {out!r}")
    return RunConfig(
        N_values=n_values,
        beta=beta,
        kappa=kappa,
        R=R,
        cutoff_K=K,
        cutoff_K2=K2,
        tol=tol,
        max_iter=max_iter,
        oracle=oracle,
        out=out,
        warnings=tuple(warnings),
        config_hash=digest,
    )


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise RejectedConfig(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw)
