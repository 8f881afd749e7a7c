"""Tabular export containers shared by the library and the CLI.

CSV output carries '#'-prefixed metadata lines (parameter echo, units,
version) ahead of the header row and prints numbers with 17 significant
digits, so identical configurations produce byte-identical files.  JSON
output is strict JSON: a non-finite number becomes null.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence


def format_number(x: Any) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if x != x:
            return "nan"
        return format(x, ".17g")
    return str(x)


def _json_value(x: Any) -> Any:
    """``x`` with every non-finite float, also inside lists and dicts, as None."""
    if isinstance(x, float):
        return x if abs(x) < float("inf") else None  # False for NaN too
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    return x


@dataclass
class SpectrumTable:
    """Rows of per-level quantities plus self-describing metadata."""

    columns: Sequence[str]
    rows: list[tuple]
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = []
        for key in sorted(self.meta):
            lines.append(f"# {key}: {json.dumps(self.meta[key], sort_keys=True)}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format_number(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {"meta": self.meta, "columns": list(self.columns), "rows": self.rows}
        return json.dumps(_json_value(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
