"""Bit-stable text rendering of reports.

All floats render with 17 significant digits, so runs that compute the
same numbers write the same bytes; only the two wall-time fields differ
from run to run.
"""

from __future__ import annotations

import json

from .corrections import EnergyReport


def fmt(x) -> str:
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def csv_header() -> str:
    return ",".join(EnergyReport.CSV_COLUMNS)


def render_csv_row(report: EnergyReport) -> str:
    return ",".join(fmt(v) for v in report.csv_values())


def report_to_json(report: EnergyReport, config_hash: str = "") -> str:
    doc = report.flat()
    doc["warnings"] = list(report.warnings)
    doc["config_hash"] = config_hash
    rendered = {
        k: (fmt(v) if isinstance(v, float) else v) for k, v in doc.items()
    }
    return json.dumps(rendered, indent=2, sort_keys=True)
