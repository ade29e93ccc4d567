"""Invariants of the shipped package as a whole."""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "bosegas")


def test_numpy_is_the_only_runtime_dependency():
    # every import in src/bosegas, lazy ones inside functions too, is the
    # standard library, numpy or the package itself; scipy is for the
    # tests only
    allowed = set(sys.stdlib_module_names) | {"numpy", "bosegas"}
    files = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert "scattering.py" in files
    found = []
    for name in files:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                tops = ["bosegas" if node.level else node.module.split(".")[0]]
            else:
                continue
            found += [f"{name}:{node.lineno} {t}" for t in tops if t not in allowed]
    assert found == []
