"""Tabular export containers shared by the library and the CLI.

A ``SpectrumTable`` is column names, one sequence per column and metadata.
``write`` types each column once (``_kind``) and formats ``_CHUNK`` rows at a
time through one ``%`` template of conversion specs and separators into the
open file, so its memory follows the chunk, not the table.  CSV is the
'#'-prefixed metadata lines, the header and the rows, floats to 17 significant
digits; JSON is strict (null for a non-finite number), laid out as
``json.dumps(sort_keys=True, indent=2)`` lays it out.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field
from typing import Any, Sequence, TextIO

import numpy as np

from .errors import ParameterDomainError

_CHUNK = 1 << 15  # rows per template pass and per write
# per column kind: the % spec of a cell in CSV and in JSON (str of a float is its repr)
_SPECS = {"float": ("%.17g", "%s"), "int": ("%d", "%d"), "bool": ("%d", "%s"), "cell": ("%s", "%s")}
# per format: row start, cell separator, row end, row separator
_LAYOUT = {"csv": ("", ",", "\n", ""), "json": ("    [\n      ", ",\n      ", "\n    ]", ",\n")}


def format_number(x: Any) -> str:
    if isinstance(x, float):
        return "nan" if x != x else format(x, ".17g")
    return str(int(x)) if isinstance(x, bool) else str(x)


def _json_value(x: Any) -> Any:
    """``x`` with every non-finite float, also inside lists and dicts, as None."""
    if isinstance(x, float):
        return x if abs(x) < float("inf") else None  # False for NaN too
    if isinstance(x, dict):
        return {k: _json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    return x


def _json_cell(x: Any) -> str:
    """One cell as ``json.dumps(indent=2)`` writes it inside a row."""
    return json.dumps(_json_value(x), sort_keys=True, indent=2, allow_nan=False).replace("\n", "\n      ")


def _kind(column: Sequence) -> str:
    """'float' for a float64 array or a list of Python floats, 'int' or 'bool' for an array or a list
    of those, 'cell' for any other column (float32, NumPy scalars, strings, None, mixed types), which
    goes cell by cell through ``format_number`` or ``_json_cell`` with the bytes of those calls."""
    if isinstance(column, np.ndarray):
        kind = "float" if column.dtype == np.float64 else column.dtype.kind
        return {"float": "float", "i": "int", "u": "int", "b": "bool"}.get(kind, "cell")
    types = set(map(type, column))
    return "float" if types == {float} else "int" if types <= {int} else "bool" if types == {bool} else "cell"


def _cells(part: Sequence, kind: str, fmt: str) -> Sequence:
    """A chunk of a column of ``kind`` as the cells of the ``fmt`` template."""
    if kind == "cell":
        return list(map(format_number if fmt == "csv" else _json_cell, part))
    cells = part.tolist() if isinstance(part, np.ndarray) else part
    if fmt == "csv" or kind == "int":
        return cells
    if kind == "bool":
        return ["true" if x else "false" for x in cells]
    return cells if all(map(math.isfinite, cells)) else [x if math.isfinite(x) else "null" for x in cells]


@dataclass
class SpectrumTable:
    """Named columns of per-level quantities plus self-describing metadata."""

    columns: Sequence[str]
    data: Sequence[Sequence]
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.data[0]) if len(self.data) else 0

    def write(self, fh: TextIO, fmt: str) -> None:
        """The table as ``fmt`` ("csv" or "json"), one write per chunk of rows; nothing is
        written unless every column is as long as the first."""
        if len(self.data) != len(self.columns):
            raise ParameterDomainError(f"table has {len(self.columns)} column names and {len(self.data)} columns")
        for name, column in zip(self.columns, self.data):
            if len(column) != len(self):
                raise ParameterDomainError(
                    f"table column {name!r} has {len(column)} cells, column {self.columns[0]!r} has {len(self)}")
        kinds = [_kind(column) for column in self.data]
        row_start, cell_sep, row_end, row_sep = _LAYOUT[fmt]
        template = row_start + cell_sep.join(_SPECS[kind][fmt == "json"] for kind in kinds) + row_end
        if fmt == "csv":
            meta = "".join(f"# {key}: {json.dumps(self.meta[key], sort_keys=True)}\n" for key in sorted(self.meta))
            text, tail = meta + ",".join(self.columns) + "\n", ""
        else:  # "rows" sorts last, so the text ends in its empty list
            text = json.dumps(_json_value({"meta": self.meta, "columns": list(self.columns), "rows": []}),
                              sort_keys=True, indent=2, allow_nan=False)
            text, tail = (text[:-len("[]\n}")] + "[\n", "\n  ]\n}\n") if len(self) else (text + "\n", "")
        for start in range(0, len(self), _CHUNK):
            if start:
                fh.write(text)
                text = row_sep
            cells = [_cells(column[start:start + _CHUNK], kind, fmt) for kind, column in zip(kinds, self.data)]
            text += row_sep.join([template % row for row in zip(*cells)])
        fh.write(text + tail)

    def to_csv(self) -> str:
        out = io.StringIO()
        self.write(out, "csv")
        return out.getvalue()

    def to_json(self) -> str:
        out = io.StringIO()
        self.write(out, "json")
        return out.getvalue()
