"""Tests of the benchmark's output checks: each passes on a real output and
fails once one value of a copy is perturbed.

    PYTHONPATH=src python -m pytest -q bench/selftest_checks.py

The file name keeps it out of the repository's default test collection.  A
check whose tolerance lies below 1e-8 is shown to fail at 1e-8 relative.  The
rest compare quantities that the program itself only knows to a wider
accuracy (the direct route's finite-difference U, C and S, the 1e-4 agreement
of numeric derivatives with the closed forms, orderings in theta), and are
shown to fail at twice their tolerance, or by a perturbation that reverses
the ordering.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from sdsosc import cli  # noqa: E402

SMALL = 1e-8


def _perturb(op, row, column, rel, tmp_path):
    """Copy of the op whose output has value (row, column) scaled by 1 + rel;
    row counts data rows after the header."""
    src = Path(op["files"][0])
    lines = src.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    fields = lines[header + 1 + row].split(",")
    value = float(fields[column])
    fields[column] = format(value * (1.0 + rel) if value else rel, ".17g")
    lines[header + 1 + row] = ",".join(fields)
    dst = tmp_path / f"perturbed-{src.name}"
    dst.write_text("\n".join(lines) + "\n")
    return dict(op, files=[str(dst)])


def _names(fails):
    return {f.split(":")[0] for f in fails}


CASES = {
    "spectrum1": ("spectrum", {"dim": 1, "n_max": 3000, "alpha1": 0.004, "alpha2": 0.011}),
    "spectrum3": ("spectrum", {"dim": 3, "n_max": 60, "alpha1": 0.0003, "alpha2": 0.0002}),
    "figure1": ("figure1", {"n_max": 50000, "alpha1": 0.001, "alpha2": 0.002}),
    **{f"thermo{q}": ("thermo", {"figure": k, "t_min": 15.2, "t_max": 21.7, "t_count": 3})
       for k, q in workloads.QUANTITY.items()},
    "wave1": ("wavefunction", {"n": 7, "l": 0, "dim": 1, "alpha1": 0.01, "alpha2": 0.03, "p_count": 101}),
    "wave3": ("wavefunction", {"n": 40, "l": 2, "dim": 5, "alpha1": 0.002, "alpha2": 0.003, "p_count": 101}),
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("outputs")
    ops = {}
    for i, (name, (kind, params)) in enumerate(CASES.items()):
        ops[name] = workloads.make_op(kind, params, tmp, i)
        assert cli.main(ops[name]["argv"]) == 0
    return ops


def test_real_outputs_pass(outputs):
    for name, op in outputs.items():
        assert checks.check_op(op) == [], name


@pytest.mark.parametrize("key,row,column,check", [
    ("spectrum1", 2000, 3, "spectrum-energy"),
    ("spectrum1", 2000, 4, "spectrum-spacing"),
    ("spectrum1", 2000, 5, "spectrum-first-order"),
    ("spectrum3", 500, 3, "spectrum-energy"),
    ("spectrum3", 500, 4, "spectrum-spacing"),
    ("spectrum3", 500, 5, "spectrum-first-order"),
    ("figure1", 40, 1, "figure1-undeformed"),
    ("figure1", 40, 2, "figure1-deformed"),
    ("thermoF", 1, 1, "thermo-direct"),
    ("thermoF", 2, 17, "thermo-direct"),
    ("thermoF", 1, 3, "thermo-highT-undeformed"),
    ("thermoU", 1, 3, "thermo-highT-undeformed"),
    ("thermoC", 1, 3, "thermo-highT-undeformed"),
    ("thermoS", 1, 3, "thermo-highT-undeformed"),
    ("wave1", None, 1, "wavefunction-samples"),
    ("wave1", None, 1, "wavefunction-norm-quadrature"),
    ("wave1", None, 1, "wavefunction-parity"),
    ("wave3", None, 1, "wavefunction-samples"),
    ("wave3", None, 1, "wavefunction-norm-quadrature"),
])
def test_fails_at_1e8(outputs, tmp_path, key, row, column, check):
    op = outputs[key]
    if row is None:  # the sample of largest magnitude
        _, _, data = checks.read_table(op["files"][0])
        row = int(abs(data[:, 1]).argmax())
    assert check in _names(checks.check_op(_perturb(op, row, column, SMALL, tmp_path)))


def test_header_norm_fails_at_1e8(outputs, tmp_path):
    src = Path(outputs["wave1"]["files"][0])
    text = src.read_text()
    line = next(line for line in text.splitlines() if line.startswith("# norm_check: "))
    value = float(line.split(": ")[1])
    dst = tmp_path / "norm.csv"
    dst.write_text(text.replace(line, f"# norm_check: {value * (1 + SMALL)!r}"))
    fails = checks.check_op(dict(outputs["wave1"], files=[str(dst)]))
    assert _names(fails) == {"wavefunction-norm-header"}


@pytest.mark.parametrize("q", ["U", "C", "S"])
def test_direct_derivatives_fail_beyond_their_accuracy(outputs, tmp_path, q):
    op = outputs[f"thermo{q}"]
    _, _, data = checks.read_table(op["files"][0])
    t, value = data[1, 0], data[1, 9]  # theta = 1e-6, direct
    rel = 2 * checks.direct_tolerance(q, t) / abs(value)
    assert "thermo-direct" not in _names(checks.check_op(_perturb(op, 1, 9, rel / 4, tmp_path)))
    assert "thermo-direct" in _names(checks.check_op(_perturb(op, 1, 9, rel, tmp_path)))


def test_numeric_derivative_fails_beyond_1e4(outputs, tmp_path):
    op = outputs["thermoU"]
    column = 1 + 2 * 3 + 2 * 4  # U at theta = 1e-6, numeric-derivative
    rel = 2 * checks.ND_RTOL
    assert "thermo-numeric-derivative" in _names(checks.check_op(_perturb(op, 1, column, rel, tmp_path)))


def test_ordering_in_theta_fails_when_reversed(outputs, tmp_path):
    op = outputs["thermoS"]
    _, _, data = checks.read_table(op["files"][0])
    # lift S[highT] at theta = 1e-6 just above its theta = 0 value
    rel = (data[1, 3] - data[1, 11]) / data[1, 11] * 1.01
    assert "thermo-monotone" in _names(checks.check_op(_perturb(op, 1, 11, rel, tmp_path)))


def test_row_count_fails_on_missing_row(outputs, tmp_path):
    src = Path(outputs["spectrum3"]["files"][0])
    lines = src.read_text().splitlines()
    dst = tmp_path / "short.csv"
    dst.write_text("\n".join(lines[:-1]) + "\n")
    assert _names(checks.check_op(dict(outputs["spectrum3"], files=[str(dst)]))) == {"spectrum-rows"}


def test_workloads_are_seeded_and_distinct(tmp_path):
    for name in workloads.GENERATORS:
        a = workloads.round_ops(name, 7, 0, tmp_path, 1)
        assert a == workloads.round_ops(name, 7, 0, tmp_path, 1)
        argvs = [tuple(op["argv"][:-2]) for r in range(3) for op in workloads.round_ops(name, 7, r, tmp_path, 1)]
        assert len(set(argvs)) == len(argvs)


def test_tracer_counts_repeat_and_restore(tmp_path):
    from tracer import Tracer

    original = cli.main
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        assert cli.main is not original
        for op in workloads.round_ops("wavefunction-norms", 3, 0, tmp_path, 1)[:4]:
            assert cli.main(op["argv"]) == 0
        tracer.uninstall()
        summary = tracer.summary()
        counts.append({k: v["value"] for k, v in summary.items() if not k.endswith("self_s")})
        assert all(v["value"] >= 0 for k, v in summary.items())
    assert cli.main is original
    assert counts[0] == counts[1]
    assert counts[0]["cli.main.calls"] == 4 and counts[0]["polynomials.gauss_jacobi_scaled.nodes"] > 0
