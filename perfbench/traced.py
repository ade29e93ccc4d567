"""Run the bosegas CLI with every public module-level function wrapped in a
span recorder, then write the spans as JSON.

    python perfbench/traced.py SPANS_OUT -- <bosegas CLI arguments>

The program's source is not modified: the wrappers are installed from
here, by rebinding each public function in every bosegas module that holds
a reference to it.  Spans stay in memory and are written once at the end;
each is [name, start_s, end_s, parent_index, attrs].  A few wrappers also
record exact work counts in attrs (lattice size, solver iterations, FFT
grid points per convolution, Fock dimension and nnz).
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import threading
import time

import bosegas

# called once per pair-sum row from worker threads: a span per call would
# time thread scheduling, not a layer
UNWRAPPED = frozenset({"sums.det_sum"})

SPANS: list = []
_local = threading.local()
# id(FockBasis) -> occupancy cap, so operator nnz can be filed per cap
_BASIS_CAP: dict = {}


def _stack() -> list:
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


class _CountingConvolver:
    """Pass-through around a convolver that counts applications."""

    def __init__(self, conv, attrs: dict):
        self._conv = conv
        self._attrs = attrs

    def __call__(self, *args, **kwargs):
        self._attrs["convolutions"] += 1
        return self._conv(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._conv, name)


def _record_counts(name: str, args, kwargs, result, attrs: dict):
    """Exact work counts for the spans that the per-layer metrics read."""
    if name == "lattice_potential.enumerate_lattice":
        attrs["M"] = len(result)
    elif name == "scattering.solve_eta":
        attrs["iterations"] = int(result.iterations)
    elif name == "scattering.make_convolver":
        shape = getattr(result, "shape", None)
        grid = 1
        for n in shape if isinstance(shape, tuple) else (0,):
            grid *= int(n)
        attrs["fft_grid_points"] = grid
        attrs["convolutions"] = 0
        return _CountingConvolver(result, attrs)
    elif name in ("bogoliubov.e01", "corrections.e_pert_tilde",
                  "corrections.g2_expectation"):
        tables = args[0]
        K2 = args[1] if len(args) > 1 else kwargs["K2"]
        nsq_max = int((K2 / (2.0 * 3.141592653589793)) ** 2 + 1e-9)
        attrs["M2"] = int((tables.lattice.nsq <= nsq_max).sum())
    elif name == "sums.det_rows":
        attrs["rows"] = int(args[1] if len(args) > 1 else kwargs["n"])
    elif name == "fock.build_basis":
        cap = int(args[1] if len(args) > 1 else kwargs["n_max"])
        _BASIS_CAP[id(result)] = cap
        attrs["cap"] = cap
        attrs["dim"] = len(result)
    elif name.startswith("fock.build_") and hasattr(result, "mat"):
        basis = args[0] if args else None
        attrs["cap"] = _BASIS_CAP.get(id(basis), -1)
        attrs["nnz"] = int(result.mat.nnz)
    return result


def _wrap(name: str, fn):
    def wrapper(*args, **kwargs):
        stack = _stack()
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter(), None, parent, {}]
        SPANS.append(span)
        stack.append(len(SPANS) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        try:
            return _record_counts(name, args, kwargs, result, span[4])
        except (AttributeError, IndexError, KeyError, TypeError,
                ValueError) as exc:
            span[4]["count_error"] = repr(exc)
            return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def install() -> list[str]:
    """Wrap every public function defined in a bosegas submodule and
    rebind it wherever a bosegas module imported it by name."""
    modules = [
        importlib.import_module(f"bosegas.{info.name}")
        for info in pkgutil.iter_modules(bosegas.__path__)
    ]
    modules.append(bosegas)
    originals = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and callable(obj)
                    and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and f"{short}.{attr}" not in UNWRAPPED):
                originals[id(obj)] = (f"{short}.{attr}", obj)
    wrappers = {key: _wrap(name, fn) for key, (name, fn) in originals.items()}
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrappers and originals[id(obj)][1] is obj:
                setattr(mod, attr, wrappers[id(obj)])
    return sorted(name for name, _ in originals.values())


def main(argv: list[str]) -> int:
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_OUT -- <bosegas arguments>")
    wrapped = install()
    from bosegas import cli

    try:
        code = cli.main(cli_args)
    finally:
        doc = {"wrapped": wrapped, "spans": SPANS}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
