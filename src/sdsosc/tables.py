"""Tabular export containers shared by the library and the CLI.

CSV output carries '#'-prefixed metadata lines (parameter echo, units,
version) ahead of the header row and prints numbers with 17 significant
digits, so identical configurations produce byte-identical files.  JSON
output is strict JSON: a non-finite number becomes null.

``to_csv`` types each column once and formats every row with one ``%``
template: ``%.17g`` for a column of Python floats, ``%d`` for one of ints
and bools, and ``%s`` over ``format_number``'s text for any other column
(NumPy scalars, strings, None, mixed types).  ``"%.17g" % x`` and
``format(x, ".17g")`` are the same C conversion, so the bytes equal those of
``format_number`` applied cell by cell.  The template holds only conversion
specs and commas; no cell text is ever parsed as a format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Sequence

from .errors import ParameterDomainError


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


def _column_spec(column: Sequence) -> str:
    """The ``%`` conversion of a column: %.17g for Python floats, %d for ints and bools, else %s."""
    types = set(map(type, column))
    return "%.17g" if types == {float} else "%d" if types <= {int, bool} else "%s"


@dataclass
class SpectrumTable:
    """Rows of per-level quantities plus self-describing metadata."""

    columns: Sequence[str]
    rows: list[tuple]
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        lines = [f"# {key}: {json.dumps(self.meta[key], sort_keys=True)}" for key in sorted(self.meta)]
        lines.append(",".join(self.columns))
        rows = self.rows
        if len(set(map(len, rows))) > 1:
            bad = next(i for i, row in enumerate(rows) if len(row) != len(rows[0]))
            raise ParameterDomainError(f"table row {bad} has {len(rows[bad])} cells, row 0 has {len(rows[0])}")
        specs = [_column_spec(col) for col in zip(*rows)]
        if "%s" in specs:
            rows = zip(*[map(format_number, col) if spec == "%s" else col for spec, col in zip(specs, zip(*rows))])
        template = ",".join(specs)
        lines += [template % row for row in map(tuple, rows)]  # % takes a tuple; tuple() returns a tuple row itself
        lines.append("")  # the final newline, without a copy of the joined text
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {"meta": self.meta, "columns": list(self.columns), "rows": self.rows}
        return json.dumps(_json_value(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"
