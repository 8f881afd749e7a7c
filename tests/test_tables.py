"""CSV and JSON export of ``SpectrumTable``.

``to_csv`` formats rows through one ``%`` template per table; these tests pin
its bytes to a per-cell reference written here, over derandomized tables that
mix every cell type a caller can pass, and check that the CLI's own tables
never need the per-cell fallback.
"""

import json
import math
import random
import struct

import numpy as np
import pytest

from sdsosc.cli import main
from sdsosc.errors import ParameterDomainError
from sdsosc.tables import SpectrumTable

SPECIAL_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                  2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1.0, 1e16, 123456789.0]


def reference_cell(x) -> str:
    """One cell as the CSV has always written it: bools as 1/0, NaN as nan, floats to 17 digits."""
    if isinstance(x, bool):
        return str(int(x))
    if isinstance(x, float):  # np.float64 too, np.float32 is not a float
        return "nan" if math.isnan(x) else format(x, ".17g")
    return str(x)


def reference_csv(table: SpectrumTable) -> str:
    lines = [f"# {key}: {json.dumps(table.meta[key], sort_keys=True)}" for key in sorted(table.meta)]
    lines.append(",".join(table.columns))
    lines += [",".join(map(reference_cell, row)) for row in table.rows]
    return "\n".join(lines) + "\n"


def random_double(rng: random.Random) -> float:
    if rng.random() < 0.2:
        return rng.choice(SPECIAL_FLOATS)
    return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]


def random_int(rng: random.Random) -> int:
    return rng.choice([0, -1, 7, rng.randrange(-10**6, 10**6), rng.randrange(2**63, 2**80), -(2**70) - 3])


CELL_KINDS = {
    "float": random_double,
    "int": random_int,
    "bool": lambda rng: rng.random() < 0.5,
    "np.float64": lambda rng: np.float64(random_double(rng)),
    "np.int64": lambda rng: np.int64(rng.randrange(-(2**63), 2**63)),
    "np.float32": lambda rng: np.float32(rng.choice([0.1, -2.5, 3e38, math.inf, math.nan, 1e-45])),
    "str": lambda rng: rng.choice(["", "x", "%d", "%s%%", "a b", "levels"]),
    "None": lambda rng: None,
}
# one kind per column, so the typed templates get whole columns; "mixed" draws each cell's kind anew
COLUMN_KINDS = ["float", "float", "int", "int", "bool", ("int", "bool")] + list(CELL_KINDS) + ["mixed"]


def random_table(seed: int) -> SpectrumTable:
    rng = random.Random(seed)
    width, height = rng.randrange(0, 7), rng.choice([0, 1, 2, rng.randrange(3, 40)])
    kinds = []
    for _ in range(width):
        kind = rng.choice(COLUMN_KINDS)
        kinds.append(list(CELL_KINDS) if kind == "mixed" else [kind] if isinstance(kind, str) else list(kind))
    rows = [tuple(CELL_KINDS[rng.choice(ks)](rng) for ks in kinds) for _ in range(height)]
    if rng.random() < 0.2:
        rows = [list(row) for row in rows]
    meta = {"seed": seed, "units": "natural", "bad": math.nan} if rng.random() < 0.5 else {}
    return SpectrumTable(columns=[f"c{j}" for j in range(width)], rows=rows, meta=meta)


def test_csv_matches_per_cell_reference():
    for seed in range(600):
        table = random_table(seed)
        assert table.to_csv() == reference_csv(table), seed


def test_csv_special_cells():
    rows = [(0, True, -0.0, math.nan, 2**64, np.float64(0.1), np.int64(-3), np.float32(0.1), "%s", None),
            (-5, False, 5e-324, -math.inf, -1, np.float64(math.nan), np.int64(9), np.float32(-1.5), "x", None)]
    table = SpectrumTable(columns=[f"c{j}" for j in range(10)], rows=rows, meta={"kind": "demo"})
    assert table.to_csv() == (
        '# kind: "demo"\nc0,c1,c2,c3,c4,c5,c6,c7,c8,c9\n'
        "0,1,-0,nan,18446744073709551616,0.10000000000000001,-3,0.1,%s,None\n"
        "-5,0,4.9406564584124654e-324,-inf,-1,nan,9,-1.5,x,None\n"
    )


def test_empty_tables():
    assert SpectrumTable(columns=("n", "E"), rows=[]).to_csv() == "n,E\n"
    assert SpectrumTable(columns=(), rows=[(), ()]).to_csv() == "\n\n\n"
    assert SpectrumTable(columns=(), rows=[[], []]).to_csv() == "\n\n\n"


def test_ragged_rows_rejected():
    table = SpectrumTable(columns=("n", "E"), rows=[(0, 1.0), (1, 2.0), (2,), (3, 4.0, 5.0)])
    with pytest.raises(ParameterDomainError, match="row 2 has 1 cells, row 0 has 2"):
        table.to_csv()


def test_json_unchanged():
    table = SpectrumTable(
        columns=("n", "ok", "x"),
        rows=[(0, True, 0.1), (1, False, math.nan), (2, True, -math.inf)],
        meta={"kind": "demo", "pair": (1, 2.5), "bad": math.inf},
    )
    assert table.to_json() == (
        '{\n  "columns": [\n    "n",\n    "ok",\n    "x"\n  ],\n  "meta": {\n    "bad": null,\n'
        '    "kind": "demo",\n    "pair": [\n      1,\n      2.5\n    ]\n  },\n  "rows": [\n    [\n'
        '      0,\n      true,\n      0.1\n    ],\n    [\n      1,\n      false,\n      null\n    ],\n'
        '    [\n      2,\n      true,\n      null\n    ]\n  ]\n}\n'
    )


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n-max", "30"],
    ["spectrum", "--dim", "3", "--n-max", "12"],
    ["spectrum", "--figure1", "--n-max", "100"],
    ["wavefunction", "--n", "4", "--p-count", "11"],
    ["wavefunction", "--n", "3", "--dim", "3", "--l", "2", "--p-count", "11"],
    ["thermo", "--figure3", "--method", "all", "--t-min", "15", "--t-max", "16", "--t-count", "2"],
])
def test_cli_tables_take_typed_templates(argv, tmp_path, monkeypatch):
    """Every CLI table holds Python floats and ints only, so no cell falls back to format_number."""
    def fallback(x):
        raise AssertionError(f"cell {x!r} of type {type(x).__name__} fell back to format_number")

    monkeypatch.setattr("sdsosc.tables.format_number", fallback)
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
