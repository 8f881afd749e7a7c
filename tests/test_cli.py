import json
import math
import warnings

import pytest

from sdsosc import spectrum1d as s1, spectrumnd as snd
from sdsosc.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def data_rows(text):
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    header, body = rows[0].split(","), rows[1:]
    return header, [line.split(",") for line in body]


class TestSpectrumCommand:
    def test_undeformed_energies(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--alpha1", "0", "--alpha2", "0", "--n-max", "5")
        assert code == 0
        header, body = data_rows(out)
        energies = [float(r[header.index("energy")]) for r in body]
        expected = [math.sqrt(1 + 2 * n) for n in range(6)]
        assert energies == pytest.approx(expected, rel=1e-15)

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (out1, out2):
            assert main(["spectrum", "--n-max", "8", "--out", str(path)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_round_trip(self, tmp_path, capsys):
        code, out, _ = run(capsys, "spectrum", "--alpha1", "0.003", "--n-max", "4")
        assert code == 0
        echoed = next(line for line in out.splitlines() if line.startswith("# config:"))
        cfg = json.loads(echoed.split("# config:", 1)[1])
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rerun_out = tmp_path / "rerun.csv"
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(rerun_out)]) == 0
        direct_out = tmp_path / "direct.csv"
        assert main(["spectrum", "--alpha1", "0.003", "--n-max", "4", "--out", str(direct_out)]) == 0
        assert rerun_out.read_bytes() == direct_out.read_bytes()

    def test_flags_override_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"alpha1": 0.5, "n_max": 2}))
        code, out, _ = run(capsys, "spectrum", "--config", str(cfg_path), "--alpha1", "0.001")
        assert code == 0
        echoed = json.loads(next(l for l in out.splitlines() if l.startswith("# config:")).split(":", 1)[1])
        assert echoed["alpha1"] == 0.001 and echoed["n_max"] == 2

    def test_empty_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "--n-min", "5", "--n-max", "2")
        assert code == 2 and "range" in err

    def test_dim_three_rows_follow_parity(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--dim", "3", "--n-max", "4")
        assert code == 0
        header, body = data_rows(out)
        pairs = [(int(r[0]), int(r[1])) for r in body]
        assert pairs == [(0, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 3), (4, 0), (4, 2), (4, 4)]

    def test_figure1_spacing_converges(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--figure1", "--alpha1", "0.005", "--alpha2", "0.005", "--n-max", "10000"
        )
        assert code == 0
        header, body = data_rows(out)
        deformed = [float(r[2]) for r in body]
        undeformed = [float(r[1]) for r in body]
        assert abs(deformed[-1] - 0.1) / 0.1 < 0.01
        assert undeformed[-1] < 0.01  # collapsing spacing without deformation

    def test_figure1_config_n_max_acts_as_flag(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_max": 100}))
        from_config, from_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
        assert main(["spectrum", "--figure1", "--config", str(cfg_path), "--out", str(from_config)]) == 0
        assert main(["spectrum", "--figure1", "--n-max", "100", "--out", str(from_flag)]) == 0
        assert from_config.read_bytes() == from_flag.read_bytes()

    def test_json_format(self, capsys):
        for extra, n_rows in (((), 4), (("--dim", "3"), 6)):
            code, out, _ = run(capsys, "spectrum", "--n-max", "3", "--format", "json", *extra)
            assert code == 0
            payload = json.loads(out)
            assert payload["columns"][0] == "n" and len(payload["rows"]) == n_rows


class TestConfigFile:
    """Config-file values meet the flag types and choices on one path."""

    @pytest.mark.parametrize("command, values", [
        ("spectrum", {"alpha1": "x"}),
        ("spectrum", {"n_max": "abc"}),
        ("spectrum", {"n_max": 3.5}),
        ("spectrum", {"l": "a"}),
        ("spectrum", {"alpha1": True}),
        ("thermo", {"t_count": 2.5}),
    ])
    def test_value_of_wrong_type_is_usage_error(self, capsys, tmp_path, command, values):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(values))
        code, out, err = run(capsys, command, "--config", str(cfg_path), "--out", str(tmp_path / "x"))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_null_leaves_key_unset(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"out": None, "l": None, "n_max": 2}))
        target = tmp_path / "x.csv"
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(target)]) == 0
        echoed = next(l for l in target.read_text().splitlines() if l.startswith("# config:"))
        cfg = json.loads(echoed.split(":", 1)[1])
        assert cfg["l"] == 0 and cfg["n_max"] == 2

    def test_value_reads_as_its_flag_text(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n_max": "4", "alpha1": 0, "units": "natural"}))
        from_config, from_flags = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(from_config)]) == 0
        assert main(["spectrum", "--n-max", "4", "--alpha1", "0", "--out", str(from_flags)]) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_parser_built_once(self):
        assert build_parser() is build_parser()


class TestSizeLimits:
    # each input is one past a documented bound, or far past it, and returns at once
    @pytest.mark.parametrize("argv, bound", [
        (["spectrum", "--n-min", str(2**52), "--n-max", str(2**52 + 10**6)], "1000000"),
        (["spectrum", "--dim", "3", "--n-min", "521", "--n-max", "2065"], "1000000"),
        (["spectrum", "--n-min", str(2**53 + 1), "--n-max", str(2**53 + 1)], str(2**53)),
        (["spectrum", "--figure1", "--n-max", str(10**30)], str(2**53)),
        (["spectrum", "--n-min", str(10**24), "--n-max", str(10**24 + 1)], str(2**53)),
        (["wavefunction", "--n", "0", "--p-count", str(10**6 + 1)], "1000000"),
        (["wavefunction", "--n", "0", "--p-count", str(10**21)], "1000000"),
        (["wavefunction", "--n", "5001"], "5000"),
        (["thermo", "--t-count", "10001"], "10000"),
        (["thermo", "--t-count", str(10**23)], "10000"),
    ])
    def test_limit_plus_one_is_usage_error(self, capsys, tmp_path, argv, bound):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path / "x"))
        assert code == 2 and out == "" and not any(tmp_path.iterdir())
        assert err.startswith("error: ") and err.count("\n") == 1 and bound in err

    def test_quantum_number_at_limit(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n-min", str(2**53), "--n-max", str(2**53))
        assert code == 0
        _, body = data_rows(out)
        assert [r[0] for r in body] == [str(2**53)]


class TestWavefunctionCommand:
    def test_odd_level_has_node_at_origin(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--n", "1", "--p-count", "21")
        assert code == 0
        header, body = data_rows(out)
        mid = body[len(body) // 2]
        assert float(mid[0]) == 0.0 and float(mid[1]) == 0.0

    def test_norm_metadata(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--n", "2", "--p-count", "11")
        assert code == 0
        norm_line = next(l for l in out.splitlines() if l.startswith("# norm_check:"))
        assert float(norm_line.split(":")[1]) == pytest.approx(1.0, abs=1e-8)

    def test_radial_profile(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--n", "0", "--l", "1", "--dim", "3", "--p-count", "11")
        assert code == 0
        header, body = data_rows(out)
        assert float(body[0][1]) == 0.0  # centrifugal zero at p = 0
        norm_line = next(l for l in out.splitlines() if l.startswith("# norm_check:"))
        assert float(norm_line.split(":")[1]) == pytest.approx(1.0, abs=1e-8)

    def test_zero_alpha2_requires_undeformed_flag(self, capsys):
        code, _, err = run(capsys, "wavefunction", "--n", "0", "--alpha2", "0")
        assert code == 2 and "--undeformed" in err

    def test_undeformed_gaussian_peak(self, capsys):
        code, out, _ = run(capsys, "wavefunction", "--n", "0", "--undeformed", "--p-count", "21")
        assert code == 0
        header, body = data_rows(out)
        peak = max(float(r[1]) for r in body)
        assert peak == pytest.approx(math.pi ** -0.25, rel=1e-12)

    @pytest.mark.parametrize("argv", [
        # [C_250^200]^2 overflows at the nodes; the norm is composed in log space
        ["--n", "250", "--alpha1", "0", "--alpha2", "5e-3"],
        # strongly asymmetric Jacobi exponents (a = 1999.5, b = 2.5)
        ["--n", "50", "--l", "2", "--dim", "3", "--alpha1", "0", "--alpha2", "5e-4"],
    ])
    def test_large_state_norm_check(self, capsys, argv):
        code, out, err = run(capsys, "wavefunction", *argv, "--p-count", "41")
        assert code == 0 and err == ""
        norm_line = next(l for l in out.splitlines() if l.startswith("# norm_check:"))
        assert abs(float(norm_line.split(":")[1]) - 1.0) <= 1e-10
        _, body = data_rows(out)
        assert len(body) == 41 and all(math.isfinite(float(r[1])) for r in body)

    # the (n + 1)-node Gauss-Hermite rule is exact for psi_n^2; from n = 144 on
    # H_n overflows at the grid's edge 6 sqrt(n + 1) and the run exits 4
    @pytest.mark.parametrize("units", [[], ["--units", "si"]], ids=["natural", "si"])
    @pytest.mark.parametrize("n", [0, 1, 7, 20, 40, 100, 143])
    def test_undeformed_norm_check_is_exact(self, capsys, n, units):
        code, out, err = run(capsys, "wavefunction", "--n", str(n), "--undeformed", "--p-count", "11", *units)
        assert code == 0 and err == ""
        norm_line = next(l for l in out.splitlines() if l.startswith("# norm_check:"))
        assert abs(float(norm_line.split(":")[1]) - 1.0) <= 1e-12

    # n = 1000 at alpha2 = 5e-3 is TestExitCodes.test_failed_quadrature_is_four
    @pytest.mark.parametrize("argv", [
        ["--n", "300", "--alpha1", "0", "--alpha2", "1e-3"],
        ["--n", "200", "--undeformed"],
    ])
    def test_overflowing_state_is_numeric_error(self, capsys, tmp_path, argv):
        target = tmp_path / "x.csv"
        code, out, err = run(capsys, "wavefunction", *argv, "--out", str(target))
        assert code == 4 and out == "" and not target.exists()
        assert err.startswith("error: ") and err.count("\n") == 1

    # psi overflows at these states (default nu = 100 in 1D, nu = 1e3 radially); the
    # norm rule, which would take seconds to build, is never started
    @pytest.mark.parametrize("argv", [
        ["--n", "3000"],
        ["--n", "400", "--dim", "3", "--alpha1", "0", "--alpha2", "1e-3"],
    ])
    def test_overflowing_psi_skips_the_norm_rule(self, capsys, tmp_path, monkeypatch, argv):
        def unreachable(*args):
            raise AssertionError("norm rule built for psi samples that overflow")

        monkeypatch.setattr(s1, "wavefunction_norm_1d", unreachable)
        monkeypatch.setattr(snd, "radial_norm", unreachable)
        target = tmp_path / "x.csv"
        code, out, err = run(capsys, "wavefunction", *argv, "--out", str(target))
        assert code == 4 and out == "" and not target.exists()
        assert err.startswith("error: ") and "psi samples overflow" in err and err.count("\n") == 1


class TestThermoCommand:
    def test_figure4_constant_undeformed_column(self, tmp_path):
        prefix = tmp_path / "fig4"
        assert main(["thermo", "--figure4", "--t-count", "5", "--out", str(prefix)]) == 0
        text = (tmp_path / "fig4.C.csv").read_text()
        header, body = data_rows(text)
        col = header.index("C[theta=0][highT]")
        values = [float(r[col]) for r in body]
        assert values == pytest.approx([2.0] * len(values), rel=1e-13)

    def test_direct_and_hight_columns_agree(self, tmp_path):
        prefix = tmp_path / "z"
        assert main([
            "thermo", "--method", "all", "--alpha1", "0", "--alpha2", "1e-6",
            "--t-count", "4", "--out", str(prefix),
        ]) == 0
        text = (tmp_path / "z.Z.csv").read_text()
        header, body = data_rows(text)
        i_direct = next(i for i, c in enumerate(header) if c.startswith("Z[") and c.endswith("[direct]"))
        i_hight = next(i for i, c in enumerate(header) if c.startswith("Z[") and c.endswith("[highT]"))
        for r in body:
            zd, zh = float(r[i_direct]), float(r[i_hight])
            assert abs(zd - zh) / zd < 0.05

    def test_writes_one_file_per_quantity(self, tmp_path):
        prefix = tmp_path / "full"
        assert main([
            "thermo", "--alpha1", "0", "--alpha2", "1e-6", "--t-count", "3", "--out", str(prefix),
        ]) == 0
        for q in ("Z", "F", "U", "C", "S"):
            assert (tmp_path / f"full.{q}.csv").exists()

    def test_all_points_out_of_regime_exit_code(self, tmp_path, capsys):
        prefix = tmp_path / "cold"
        code = main([
            "thermo", "--t-min", "0.5", "--t-max", "1.0", "--t-count", "3", "--out", str(prefix),
        ])
        assert code == 4

    def test_direct_free_energy_finite_where_z_underflows(self, tmp_path):
        prefix = tmp_path / "cold"
        assert main(["thermo", "--method", "direct", "--alpha1", "0", "--alpha2", "1e-6",
                     "--t-min", "0.001", "--t-max", "0.0011", "--t-count", "2", "--out", str(prefix)]) == 0
        _, z = data_rows((tmp_path / "cold.Z.csv").read_text())
        _, f = data_rows((tmp_path / "cold.F.csv").read_text())
        assert [float(r[1]) for r in z] == [0.0, 0.0]  # exp(-1 / kB T) underflows
        assert [float(r[1]) for r in f] == pytest.approx([1.0, 1.0], rel=1e-15)  # the ground level

    def test_json_format(self, tmp_path):
        prefix = tmp_path / "j"
        assert main(["thermo", "--format", "json", "--t-count", "2", "--alpha1", "0", "--alpha2", "1e-6",
                     "--out", str(prefix)]) == 0
        payload = json.loads((tmp_path / "j.C.json").read_text())
        columns = payload["columns"]
        assert columns == ["T", "C[theta=1e-06][highT]", "in_regime[theta=1e-06][highT]"]
        assert [row[0] for row in payload["rows"]] == [15.0, 50.0]
        assert [row[2] for row in payload["rows"]] == [1, 1]

    def test_json_out_of_regime_cells_are_null(self, tmp_path):
        prefix = tmp_path / "j"
        assert main(["thermo", "--format", "json", "--method", "all", "--alpha1", "0", "--alpha2", "1e-3",
                     "--t-min", "15", "--t-max", "50", "--t-count", "2", "--out", str(prefix)]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        payload = json.loads((tmp_path / "j.C.json").read_text(), parse_constant=reject)
        em = payload["columns"].index("C[theta=0.001][em]")
        assert [row[em] for row in payload["rows"]].count(None) >= 1

    def test_bare_run_names_the_fix(self, tmp_path, capsys):
        code, out, err = run(capsys, "thermo", "--out", str(tmp_path / "x"))
        assert code == 4 and out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "--method direct" in err and "--alpha1" in err

    def test_missing_out_prefix(self, capsys):
        code, _, err = run(capsys, "thermo", "--t-count", "3")
        assert code == 2


class TestBoundsCommand:
    def test_reference_values_reproduced(self, capsys):
        code, out, _ = run(capsys, "bounds", "--units", "si")
        assert code == 0
        fields = dict(line.split(": ") for line in out.splitlines() if not line.startswith("#"))
        assert float(fields["theta_bound_c2units"]) == pytest.approx(1e33, rel=0.02)
        assert float(fields["delta_x_bound_m"]) == pytest.approx(3.33e-18, rel=0.02)
        assert float(fields["delta_p_bound_kgms"]) == pytest.approx(3.17e-36, rel=0.02)
        assert "theta_scaling_exponent_in_B" in fields

    def test_natural_units_rejected(self, capsys):
        code, _, err = run(capsys, "bounds")
        assert code == 2

    def test_invalid_level_rejected(self, capsys):
        code, _, err = run(capsys, "bounds", "--units", "si", "--n-level", "0")
        assert code == 2

    @pytest.mark.parametrize("argv", [["--b-field", "1e300"], ["--b-field", "1e-300"], ["--n-level", "1e300"]])
    def test_bounds_beyond_double_range_are_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "bounds", "--units", "si", *argv)
        assert code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestVerifyCommand:
    def test_oracle_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "oracles")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and all(c["passed"] for c in report["checks"])

    def test_limits_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "limits")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] and "undeformed-norm" in [c["name"] for c in report["checks"]]

    def test_unknown_suite_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "bogus"])
        assert err.value.code == 2


class TestExitCodes:
    def test_io_failure_is_three(self, capsys):
        code = main(["spectrum", "--n-max", "2", "--out", "/nonexistent-dir/x.csv"])
        assert code == 3

    def test_unreadable_config_is_usage_error(self, capsys):
        code = main(["spectrum", "--config", "/nonexistent-dir/cfg.json"])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        *[["spectrum", f"{flag}={value}", "--n-max", "2"]
          for flag in ("--alpha1", "--alpha2") for value in ("nan", "inf", "-inf")],
        ["wavefunction", "--n", "0", "--alpha2", "nan"],
        ["spectrum", "--units", "si", "--m", "nan"],
        *[["thermo", "--method", "direct", "--alpha1", "0", "--alpha2", "1e-6", flag, value,
           "--t-count", "3", "--out", "x"] for flag, value in (("--t-max", "nan"), ("--t-max", "inf"),
                                                             ("--t-min", "nan"))],
        *[["bounds", "--units", "si", flag, value] for flag, value in (("--b-field", "nan"), ("--b-field", "inf"),
                                                                     ("--n-level", "nan"), ("--n-level", "1e400"))],
        # SI constants whose squares leave double precision
        ["spectrum", "--units", "si", "--m", "1e-300", "--n-max", "3"],
        ["spectrum", "--units", "si", "--omega", "1e300", "--n-max", "3"],
        ["spectrum", "--units", "si", "--m", "1e200", "--omega", "1e200", "--n-max", "3"],
        ["wavefunction", "--n", "0", "--units", "si", "--m", "1e-300"],
        ["thermo", "--method", "direct", "--units", "si", "--m", "1e-300", "--t-count", "3", "--out", "x"],
    ])
    def test_nonfinite_parameter_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and "finite" in err and out == ""

    # k^2 = 1e308 is finite, but (k^2 / m^2 c^2) n^2 and the thermo coefficient a2 overflow
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--alpha1", "1e308", "--n-max", "3"],
        ["spectrum", "--figure1", "--alpha1", "1e308"],
        ["thermo", "--dim", "3", "--alpha1", "1e308", "--method", "direct", "--t-count", "2"],
        ["thermo", "--dim", "3", "--alpha1", "1e308", "--method", "all", "--t-count", "2"],
    ])
    def test_overflowing_deformation_is_numeric_error(self, capsys, tmp_path, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NumPy warning reaches the terminal either
            code, out, err = run(capsys, *argv, "--out", str(tmp_path / "x"))
        assert code == 4 and out == "" and list(tmp_path.iterdir()) == []
        assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err

    def test_failed_quadrature_is_four(self, capsys, tmp_path):
        # C_1000^200 overflows double precision: a NumericError, reported on one line
        target = tmp_path / "x.csv"
        code, _, err = run(capsys, "wavefunction", "--n", "1000", "--alpha1", "0", "--alpha2", "5e-3",
                           "--out", str(target))
        assert code == 4 and not target.exists()
        assert err.startswith("error: ") and err.count("\n") == 1
