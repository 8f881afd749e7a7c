"""Every argv the CLI can be handed ends in output or in a typed error.

Hypothesis draws `spectrum`, `wavefunction`, `thermo` and `bounds` argv, some
options as flags and some from a JSON config file, mixing valid values with
edge values (zero, the size limits, 2^53, deformations up to 1e308) and
invalid ones (NaN, +-inf, negatives, huge integers, wrong JSON types, unknown
choices).  Valid SI masses and frequencies are drawn log-uniformly over
[1e-320, 1e308], so their squares can leave double precision.  Valid draws
stay cheap: tables of at most 2001 rows, n <= 60, t_count <= 3, and thermo in
natural units with kBT <= 60.

Each example must either return 0 and leave parseable output (strict JSON, or
CSV rows as wide as their header; every spectrum and wavefunction cell finite,
while thermo marks out-of-regime points with NaN), return 2, 3 or 4 with
exactly one stderr line starting ``error: ``, or stop in argparse with
SystemExit(2).  Any other exception or exit code fails the test.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import hypothesis.strategies as st
from hypothesis import given, settings

from sdsosc.cli import main

NAN, INF = math.nan, math.inf
HUGE = 10**21

# (valid values, edge and invalid values) per option; every n range of two
# pool values is either at most 2001 rows or past the 10^6-row limit
ALPHA = ([0.0, 1e-6, 1e-4, 0.005, 0.05], [-0.005, NAN, INF, -INF, HUGE, 1e154, 1e308])
LOG_UNIFORM = st.floats(-320.0, 308.0).map(lambda e: 10.0**e)
MASS = (LOG_UNIFORM, [0.0, -1.0, NAN, INF])
OMEGA = (LOG_UNIFORM, [0.0, -1.0, NAN, -INF])
DIM = ([1, 2, 3, 5], [0, -1, 2**53, 2**53 + 1, HUGE])
L = ([0, 1, 2], [-1, 2**53 + 1, HUGE])
N_1D = ([0, 1, 7, 60, 2000], [-1, 2**53 - 3, 2**53, 2**53 + 1, 2 * 10**6, HUGE])
N_ND = ([0, 1, 7, 60], [-1, 2**53 - 3, 2**53, 2**53 + 1, 4 * 10**6, HUGE])
WAVE_N = ([0, 1, 7, 60], [-1, 5001, HUGE])
P_COUNT = ([2, 11, 41], [1, 0, -5, 10**6 + 1, HUGE])
TEMPERATURE = ([0.5, 1.0, 15.0, 30.0, 60.0], [0.0, -1.0, NAN, INF, -INF])
T_COUNT = ([2, 3], [1, 0, -1, 10_001, HUGE])
B_FIELD = ([6.0, 1e-3, 1e3], [0.0, -1.0, NAN, INF, 1e300, 1e-300])
N_LEVEL = ([1.0, 1e10], [2.5, 0.0, -1.0, NAN, INF, 1e300])
UNITS = (["natural", "si"], ["cgs"])
FORMAT = (["csv", "json"], ["xml"])
T_SCALE = (["linear", "log"], ["cubic"])
METHOD = (["direct", "highT", "em", "numeric-derivative", "all"], ["exact"])
# JSON values of the wrong type for any key
WRONG_JSON = [True, False, "abc", [1], {"a": 1}, 3.5]


def options(command, spectrum_dim):
    """Pools of the options a command takes, keyed by their config name."""
    pools = {"alpha1": ALPHA, "alpha2": ALPHA, "m": MASS, "omega": OMEGA, "dim": DIM, "l": L,
             "units": UNITS, "format": FORMAT}
    if command == "spectrum":  # --dim is always given, so that the n pools match it
        del pools["dim"]
        pools["n_min"] = pools["n_max"] = N_1D if spectrum_dim == 1 else N_ND
    elif command == "thermo":
        # the direct sum runs over ~kBT / hbar omega levels, about 2e12 for the
        # SI defaults (1 kg, 1 rad/s) at 15 K, so thermo draws stay natural
        pools.update(units=(["natural"], ["cgs"]), t_min=TEMPERATURE, t_max=TEMPERATURE, t_count=T_COUNT,
                     t_scale=T_SCALE, method=METHOD)
    elif command == "bounds":
        pools["units"] = (["si"], ["natural"])
    return pools


def pick(draw, pool):
    """A valid value three times in four, otherwise an edge or invalid one;
    a pool side is a list of values or a strategy."""
    valid, other = pool
    side = other if other and draw(st.integers(0, 3)) == 0 else valid
    return draw(side if isinstance(side, st.SearchStrategy) else st.sampled_from(side))


def flag(name, value):
    # --flag=value, so that argparse does not take -inf or -1 for an option
    return f"--{name.replace('_', '-')}={value}"


@st.composite
def invocations(draw):
    """(argv, config dict or None, command, output directory) of one call."""
    command = draw(st.sampled_from(["spectrum", "wavefunction", "thermo", "bounds"]))
    spectrum_dim = draw(st.sampled_from([1, 2, 3]))
    pools = options(command, spectrum_dim)
    chosen = sorted(draw(st.sets(st.sampled_from(sorted(pools)), max_size=6)))
    in_config = draw(st.sets(st.sampled_from(chosen))) if chosen and draw(st.booleans()) else None
    argv, config = [command], None if in_config is None else {}
    for key in chosen:
        value = pick(draw, pools[key])
        if config is not None and key in in_config:
            config[key] = draw(st.sampled_from([value] * 4 + [None] + WRONG_JSON))
        else:
            argv.append(flag(key, value))
    if config is not None and draw(st.integers(0, 3)) == 0:
        config[draw(st.sampled_from(["bogus", "n", "p_count"]))] = 1
    if command == "spectrum":
        argv.append(flag("dim", spectrum_dim))
        if draw(st.booleans()):
            argv.append("--figure1")
    elif command == "wavefunction":
        argv.append(flag("n", pick(draw, WAVE_N)))
        if draw(st.booleans()):
            argv.append(flag("p_count", pick(draw, P_COUNT)))
        if draw(st.booleans()):
            argv.append("--undeformed")
    elif command == "thermo":
        figure = draw(st.sampled_from([None, 2, 3, 4, 5]))
        if figure:
            argv.append(f"--figure{figure}")
        if "t_count" not in chosen:
            argv.append("--t-count=2")  # the default grid has 36 points
    elif command == "bounds":
        for name, pool in (("b_field", B_FIELD), ("n_level", N_LEVEL)):
            if draw(st.booleans()):
                argv.append(flag(name, pick(draw, pool)))
    out_dir = draw(st.sampled_from(["ok", "ok", "ok", "missing"]))
    return argv, config, command, out_dir


def reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def check_output(path: Path, fmt: str, finite: bool):
    """Rows as wide as the header; with ``finite``, every cell a finite number."""
    text = path.read_text()
    if fmt == "json":
        payload = json.loads(text, parse_constant=reject_constant)
        assert all(len(row) == len(payload["columns"]) for row in payload["rows"])
        cells = [cell for row in payload["rows"] for cell in row]
    else:
        rows = list(csv.reader(line for line in text.splitlines() if line and not line.startswith("#")))
        assert rows and all(len(row) == len(rows[0]) for row in rows)
        cells = [float(cell) for row in rows[1:] for cell in row]
    if finite:  # JSON writes a non-finite cell as null
        assert all(cell is not None and math.isfinite(cell) for cell in cells), path.name


@given(invocations())
@settings(max_examples=300, deadline=5000, derandomize=True)
def test_every_argv_ends_in_output_or_typed_error(invocation):
    argv, config, command, out_dir = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        target = root / out_dir / "out"
        (root / "ok").mkdir()
        argv = argv + ["--out", str(target)]
        if config is not None:
            (root / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(root / "cfg.json")]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            # a warning would reach a user's terminal as extra stderr lines
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, config, stderr.getvalue())
            return
        err = stderr.getvalue()
        assert not caught, (argv, config, [str(w.message) for w in caught])
        if code != 0:
            assert code in (2, 3, 4), (argv, config, code, err)
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, config, err)
            return
        fmt = "json" if "--format=json" in argv or (config or {}).get("format") == "json" else "csv"
        if command == "thermo":
            written = sorted(root.glob("ok/out.*"))
            assert written, argv
            for path in written:  # out-of-regime points are NaN cells
                check_output(path, fmt, finite=False)
        elif command == "bounds":
            for line in target.read_text().splitlines():
                if not line.startswith("#"):
                    name, value = line.split(": ")
                    assert math.isfinite(float(value)), (argv, line)
        else:
            check_output(target, fmt, finite=True)
