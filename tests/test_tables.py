"""CSV and JSON export of ``SpectrumTable``.

The writers format chunks of rows through one ``%`` template per table; these
tests pin their CSV and JSON bytes to per-cell references written here, over
derandomized tables whose columns mix every cell type a caller can pass, check
that the CLI's own tables never need the per-cell fallback, and bound the
memory a large CLI table takes to write.
"""

import io
import json
import math
import random
import struct
import tracemalloc

import numpy as np
import pytest

from sdsosc import tables
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


def plain(column) -> list:
    """A column's cells as the writers take them: a float64, int or bool array as its Python scalars."""
    if isinstance(column, np.ndarray) and (column.dtype == np.float64 or column.dtype.kind in "iub"):
        return column.tolist()
    return list(column)


def reference_rows(table: SpectrumTable) -> list[tuple]:
    return list(zip(*map(plain, table.data)))


def reference_csv(table: SpectrumTable) -> str:
    lines = [f"# {key}: {json.dumps(table.meta[key], sort_keys=True)}" for key in sorted(table.meta)]
    lines.append(",".join(table.columns))
    lines += [",".join(map(reference_cell, row)) for row in reference_rows(table)]
    return "\n".join(lines) + "\n"


def json_value(x):
    """``x`` with every non-finite float, also inside lists and dicts, as None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: json_value(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_value(v) for v in x]
    return x


def reference_json(table: SpectrumTable) -> str:
    """The whole table as one json.dumps call, as the JSON has always been written."""
    payload = {"meta": table.meta, "columns": list(table.columns), "rows": reference_rows(table)}
    return json.dumps(json_value(payload), sort_keys=True, indent=2, allow_nan=False) + "\n"


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
    data = [[row[j] for row in rows] for j in range(width)]
    if rng.random() < 0.5:  # every other column as the array NumPy makes of it
        data = [np.array(column) if j % 2 else column for j, column in enumerate(data)]
    meta = {"seed": seed, "units": "natural", "bad": math.nan} if rng.random() < 0.5 else {}
    return SpectrumTable(columns=[f"c{j}" for j in range(width)], data=data, meta=meta)


def test_csv_matches_per_cell_reference():
    for seed in range(600):
        table = random_table(seed)
        assert table.to_csv() == reference_csv(table), seed


def test_json_matches_per_cell_reference():
    compared = 0
    for seed in range(600):
        table = random_table(seed)
        try:
            expected = reference_json(table)
        except TypeError:  # np.int64 and np.float32 cells are not JSON; the writer rejects them too
            with pytest.raises(TypeError):
                table.to_json()
            continue
        assert table.to_json() == expected, seed
        compared += 1
    assert compared >= 300


@pytest.mark.parametrize("chunk", [1, 3])
def test_chunk_boundaries_keep_the_bytes(chunk, monkeypatch):
    """With chunks of 1 and 3 rows most tables span several writes; the text stays the same."""
    texts = {}
    for seed in range(600):
        table = random_table(seed)
        try:
            texts[seed] = table.to_csv(), table.to_json()
        except TypeError:
            texts[seed] = table.to_csv(), None
    monkeypatch.setattr(tables, "_CHUNK", chunk)
    for seed, (csv_text, json_text) in texts.items():
        table = random_table(seed)
        assert table.to_csv() == csv_text, seed
        if json_text is not None:
            assert table.to_json() == json_text, seed


def test_csv_special_cells():
    rows = [(0, True, -0.0, math.nan, 2**64, np.float64(0.1), np.int64(-3), np.float32(0.1), "%s", None),
            (-5, False, 5e-324, -math.inf, -1, np.float64(math.nan), np.int64(9), np.float32(-1.5), "x", None)]
    table = SpectrumTable(columns=[f"c{j}" for j in range(10)], data=list(zip(*rows)), meta={"kind": "demo"})
    assert table.to_csv() == (
        '# kind: "demo"\nc0,c1,c2,c3,c4,c5,c6,c7,c8,c9\n'
        "0,1,-0,nan,18446744073709551616,0.10000000000000001,-3,0.1,%s,None\n"
        "-5,0,4.9406564584124654e-324,-inf,-1,nan,9,-1.5,x,None\n"
    )


def test_array_columns():
    """float64, int and bool arrays take the typed templates; float32 and object arrays go cell by cell."""
    data = [np.array([-0.0, math.nan]), np.array([-3, 9]), np.array([2**64 - 1, 0], dtype=np.uint64),
            np.array([True, False]), np.array([None, 2**70], dtype=object)]
    table = SpectrumTable(columns=["c0", "c1", "c2", "c3", "c4"], data=data)
    assert table.to_csv() == "c0,c1,c2,c3,c4\n-0,-3,18446744073709551615,1,None\nnan,9,0,0,1180591620717411303424\n"
    assert json.loads(table.to_json())["rows"] == [[-0.0, -3, 2**64 - 1, True, None], [None, 9, 0, False, 2**70]]
    assert table.to_json() == reference_json(table)
    table = SpectrumTable(columns=["x"], data=[np.array([0.1, -1.5], dtype=np.float32)])
    assert table.to_csv() == "x\n0.1\n-1.5\n"


def test_empty_tables():
    assert SpectrumTable(columns=("n", "E"), data=([], [])).to_csv() == "n,E\n"
    assert SpectrumTable(columns=("n", "E"), data=(np.array([]), np.array([], dtype=int))).to_csv() == "n,E\n"
    empty_json = '{\n  "columns": [\n    "n"\n  ],\n  "meta": {},\n  "rows": []\n}\n'
    assert SpectrumTable(columns=("n",), data=[[]]).to_json() == empty_json
    # a table with no columns has no rows, so only the (empty) header line is left
    assert SpectrumTable(columns=(), data=()).to_csv() == "\n"
    assert SpectrumTable(columns=(), data=[]).to_csv() == "\n"


def test_ragged_columns_rejected():
    """The column that differs in length is named, and nothing is written before the check."""
    for fmt in ("csv", "json"):
        out = io.StringIO()
        table = SpectrumTable(columns=("n", "E", "dE"), data=([0, 1, 2], [1.0, 2.0, 3.0], [1.0, 1.0]), meta={"k": 1})
        with pytest.raises(ParameterDomainError, match="column 'dE' has 2 cells, column 'n' has 3"):
            table.write(out, fmt)
        table = SpectrumTable(columns=("n", "E"), data=([0, 1, 2],))
        with pytest.raises(ParameterDomainError, match="2 column names and 1 columns"):
            table.write(out, fmt)
        assert out.getvalue() == ""


def test_json_unchanged():
    table = SpectrumTable(
        columns=("n", "ok", "x"),
        data=([0, 1, 2], [True, False, True], [0.1, math.nan, -math.inf]),
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
    """Every CLI column is a float64 or int array, so no cell falls back to format_number or json.dumps."""
    def fallback(x):
        raise AssertionError(f"cell {x!r} of type {type(x).__name__} fell back to the per-cell path")

    monkeypatch.setattr(tables, "format_number", fallback)
    monkeypatch.setattr(tables, "_json_cell", fallback)
    for fmt in ("csv", "json"):
        assert main(argv + ["--format", fmt, "--out", str(tmp_path / fmt)]) == 0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cli_table_memory_is_bounded(fmt, tmp_path):
    """A 200 000-row table is written a chunk at a time: the traced peak stays far below the file's size."""
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main(["spectrum", "--n-max", "199999", "--format", fmt, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    with open(out, encoding="utf-8") as fh:
        last = json.load(fh)["rows"][-1] if fmt == "json" else fh.read().splitlines()[-1].split(",")
    assert int(last[0]) == 199_999
