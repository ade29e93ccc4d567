#!/usr/bin/env python3
"""Regenerate the pinned regression record for the reference configuration.

The record is built by `run_pipeline(parse_config(...))`, the path the
`energy` command takes; the cutoffs are the defaults, K = 40 pi and
K2 = 20 pi.
"""

import json
import os

from bosegas.config import parse_config
from bosegas.pipeline import run_pipeline

OUT = os.path.join(os.path.dirname(__file__), "..", "tests", "data",
                   "reference_report.json")
REFERENCE = {"N": 10**4, "beta": 0.75, "kappa": 0.1, "R": 0.25}


def main():
    report = run_pipeline(parse_config(REFERENCE))
    doc = {
        k: v
        for k, v in report.flat().items()
        if isinstance(v, (int, float)) and k not in ("t_scatter_ms", "t_sums_ms")
    }
    os.makedirs(os.path.dirname(OUT), exist_ok=True)
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    print(f"wrote {os.path.normpath(OUT)} with {len(doc)} fields")


if __name__ == "__main__":
    main()
