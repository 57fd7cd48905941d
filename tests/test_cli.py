"""Tests for the command-line interface."""

import math
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

from gaussfisher import cli, verification
from gaussfisher.errors import ValidationError

MTS_DOC = """\
family = MTS
n1 = 2.0
n2 = 1.0
theta = 1.5707963267948966
phi = 0.0
"""

STS_DOC = """\
family = STS
n1 = 0.0
n2 = 0.0
r = 0.7
phi = 0.0
"""

# at n1 = 1e100 the closed form's k_plus and k_minus overflow
HUGE_MTS_DOC = "family = MTS\nn1 = 1e100\nn2 = 1e99\ntheta = 1\nphi = 0.2\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def parse_report(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


class TestStateDocuments:
    def test_mean_offsets_parsed(self):
        spec = cli.parse_state_document(STS_DOC + "mean = 0.1, -0.2, 0.3, 0\n")
        assert spec.mean == (0.1, -0.2, 0.3, 0.0)
        assert spec.displaced

    def test_missing_key_reports_coordinate(self):
        with pytest.raises(ValidationError, match="theta"):
            cli.parse_state_document("family = MTS\nn1 = 1\nn2 = 0.5\nphi = 0\n")

    def test_bad_number_reports_key(self):
        with pytest.raises(ValidationError, match="n1"):
            cli.parse_state_document("family = TS\nn1 = abc\nn2 = 0.5\n")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="wobble"):
            cli.parse_state_document(MTS_DOC + "wobble = 3\n")

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # STS_DOC sets r = 0.7 on line 4; a later r must not win silently
        doc = STS_DOC + "r = 2\n"
        with pytest.raises(ValidationError, match="line 6: repeated key 'r'"):
            cli.parse_state_document(doc)
        assert cli.main(["metric", write(tmp_path, "a.txt", doc)]) == 2
        assert capsys.readouterr().out == ""


class TestFidelityCommand:
    def test_identical_specs(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", MTS_DOC)
        assert cli.main(["fidelity", path, path]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["fidelity"]) == pytest.approx(1.0, abs=1e-12)
        assert float(report["closed_form_residual"]) < 1e-12

    def test_thermal_quarter(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", "family = TS\nn1 = 0\nn2 = 0\n")
        b = write(tmp_path, "b.txt", "family = TS\nn1 = 1\nn2 = 1\n")
        assert cli.main(["fidelity", a, b]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["fidelity"]) == pytest.approx(0.25, rel=1e-12)
        assert float(report["bures_angle"]) == pytest.approx(math.pi / 3.0, rel=1e-12)

    def test_displaced_pair_skips_closed_form(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", MTS_DOC + "mean = 1, 0, 0, 0\n")
        b = write(tmp_path, "b.txt", MTS_DOC)
        assert cli.main(["fidelity", a, b]) == 0
        report = parse_report(capsys.readouterr().out)
        assert "closed_form_fidelity" not in report
        assert float(report["fidelity"]) < 1.0

    def test_malformed_document_exits_2_without_output(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.txt", "family = MTS\nn1 = 1\n")
        good = write(tmp_path, "good.txt", MTS_DOC)
        out = tmp_path / "report.txt"
        assert cli.main(["fidelity", bad, good, "--out", str(out)]) == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_cancelled_closed_form_exits_2(self, tmp_path, capsys):
        # both fidelity routes refuse the cancellation of sqrt(k_plus) -
        # sqrt(k_minus): one error line, no traceback
        path = write(tmp_path, "a.txt", "family = STS\nn1 = 1e8\nn2 = 1e8\nr = 0.5\nphi = 0.2\n")
        assert cli.main(["fidelity", path, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: sqrt(k_plus) - sqrt(k_minus) rounds to 0")
        assert captured.err.count("\n") == 1

    def test_overflowing_self_pair_exits_2(self, tmp_path, capsys):
        # the general route's determinants overflow at n = 1e77: one error
        # line, no numpy warning, where "fidelity nan outside [0, 1]" followed
        # a RuntimeWarning
        path = write(tmp_path, "a.txt", "family = STS\nn1 = 1e77\nn2 = 1e77\nr = 0.5\nphi = 0.2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["fidelity", path, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: determinant invariants")
        assert captured.err.endswith("overflows double precision\n")
        assert captured.err.count("\n") == 1

    def test_bad_tolerance_override_exits_2(self, tmp_path, capsys, tolerance_env):
        path = write(tmp_path, "a.txt", MTS_DOC)
        with pytest.raises(ValidationError):
            tolerance_env(psd="abc")
        assert cli.main(["fidelity", path, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: GAUSSFISHER_PSD='abc'")


class TestMetricCommand:
    def test_mts_anchor_components(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", MTS_DOC)
        assert cli.main(["metric", path, "--measurements", "100"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["qfi_n1"]) == pytest.approx(1.0 / 6.0, rel=1e-12)
        assert float(report["qfi_n2"]) == pytest.approx(0.5, rel=1e-12)
        assert float(report["qfi_theta"]) == pytest.approx(1.0 / 7.0, rel=1e-12)
        assert float(report["qfi_phi"]) == pytest.approx(1.0 / 7.0, rel=1e-12)
        assert float(report["crb_n1"]) == pytest.approx(0.06, rel=1e-12)

    def test_sts_squeezed_vacuum(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", STS_DOC)
        assert cli.main(["metric", path]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["qfi_2r"]) == pytest.approx(1.0, rel=1e-12)
        assert float(report["qfi_n1"]) == math.inf

    def test_numeric_deviation_column(self, tmp_path, capsys):
        path = write(tmp_path, "a.txt", MTS_DOC.replace("phi = 0.0", "phi = 0.3"))
        assert cli.main(["metric", path, "--numeric"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["numeric_max_deviation"]) < 1e-4

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_measurements_below_one_exit_2(self, tmp_path, capsys, count):
        path = write(tmp_path, "a.txt", MTS_DOC)
        assert cli.main(["metric", path, "--measurements", count]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "positive integer" in captured.err

    @pytest.mark.parametrize("key, value", [("n1", "nan"), ("n2", "inf")])
    def test_non_finite_document_exits_2(self, tmp_path, capsys, key, value):
        doc = "".join(f"{k} = {value if k == key else v}\n"
                      for k, v in parse_report(MTS_DOC).items())
        path = write(tmp_path, "a.txt", doc)
        for command in (["metric", path], ["oracle", path, path, "--truncation", "6"]):
            assert cli.main(command) == 2
            assert capsys.readouterr().out == ""

    def test_overflowing_point_exits_2(self, tmp_path, capsys):
        doc = MTS_DOC.replace("n1 = 2.0", "n1 = 1e160")
        assert "1e160" in doc
        assert cli.main(["metric", write(tmp_path, "a.txt", doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflows double precision" in captured.err

    def test_numeric_metric_at_large_occupancy(self, tmp_path, capsys):
        # n2 = 0.3 lies within twice n1's step (2 h_1 = 2) but not its own
        doc = "family = MTS\nn1 = 1000\nn2 = 0.3\ntheta = 1.0\nphi = 0.2\n"
        assert cli.main(["metric", write(tmp_path, "a.txt", doc), "--numeric"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["numeric_max_deviation"]) < 1e-4

    def test_numeric_metric_overflow_exits_2(self, tmp_path, capsys):
        # the closed form's k_plus and k_minus overflow: this printed four NaN
        # rows and exited 0
        path = write(tmp_path, "a.txt", HUGE_MTS_DOC)
        assert cli.main(["metric", path, "--numeric"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: (k_plus, k_minus) of this pair "
                                "overflows double precision\n")

    def test_jeffreys_prior_does_not_underflow(self, tmp_path, capsys):
        # the components 1e-200 and 1e-198 multiply to below the smallest
        # double; this printed jeffreys_prior = 0.0
        assert cli.main(["metric", write(tmp_path, "a.txt", HUGE_MTS_DOC)]) == 0
        value = float(parse_report(capsys.readouterr().out)["jeffreys_prior"])
        assert value == pytest.approx(3.4079574884719811e-199, rel=1e-14)

    def test_degenerate_numeric_point_fails(self, tmp_path, capsys):
        doc = "family = MTS\nn1 = 1.0\nn2 = 1.0\ntheta = 1.0\nphi = 0.0\n"
        path = write(tmp_path, "a.txt", doc)
        assert cli.main(["metric", path, "--numeric"]) == 2
        assert "degenerate" in capsys.readouterr().err


class TestCurvatureCommand:
    def test_mts_zero_point(self, capsys):
        assert cli.main(["curvature", "MTS", "0.5", "0.5"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["curvature_closed"]) == pytest.approx(0.0, abs=1e-12)

    def test_sts_squeezed_vacuum_value(self, capsys):
        assert cli.main(["curvature", "STS", "0", "0"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["curvature_closed"]) == pytest.approx(-16.0)

    def test_method_all_three_values(self, capsys):
        assert cli.main(["curvature", "MTS", "2", "1", "--method", "all"]) == 0
        report = parse_report(capsys.readouterr().out)
        for key in ("curvature_closed", "curvature_pipeline", "curvature_warped"):
            assert float(report[key]) == pytest.approx(-448.0 / 49.0, rel=1e-3)
        assert float(report["max_residual"]) < 1e-3

    def test_pipeline_fallback_at_degenerate_point(self, capsys):
        # the closed-form value (0.0 here) must not stand in for the pipeline
        assert cli.main(["curvature", "MTS", "0.5", "0.5", "--method", "pipeline"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["curvature_pipeline"] == "unavailable"
        assert report["warning_0"].startswith("pipeline_unavailable: ")

    def test_pipeline_guard_at_stencil_point(self, capsys):
        # the centre n1 = 0.0015 passes the guard; the stencil point n1 - h does not
        assert cli.main(["curvature", "STS", "0.0015", "1", "--method", "pipeline"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["curvature_pipeline"] == "unavailable"
        assert report["warning_0"] == (
            "pipeline_unavailable: pipeline requires occupancies >= 1e-3")

    @pytest.mark.parametrize("argv", [
        ["MTS", "inf", "1", "--method", "all"],
        ["MTS", "nan", "1"],
        ["STS", "2", "inf", "--method", "warped"],
        ["MTS", "2", "1", "--method", "pipeline", "--device", "1.0", "nan"],
        ["STS", "2", "1", "--method", "pipeline", "--device", "inf", "0"],
    ], ids=["n1_inf", "n1_nan", "n2_inf", "device_phi_nan", "device_r_inf"])
    def test_bad_numbers_exit_2(self, capsys, argv):
        assert cli.main(["curvature", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err

    def test_closed_overflow_reported(self, capsys):
        # the other routes still report: warped overflows too, and so does the
        # pipeline's occupancy component
        assert cli.main(["curvature", "STS", "1e200", "1", "--method", "all"]) == 0
        report = parse_report(capsys.readouterr().out)
        for key in ("curvature_closed", "curvature_pipeline", "curvature_warped"):
            assert report[key] == "unavailable"
        assert report["warning_0"] == ("closed_unavailable: scalar curvature at (n1, n2) = "
                                       "(1e+200, 1.0) overflows double precision")
        assert report["warning_1"].startswith("warped_unavailable: ")
        assert report["warning_2"] == ("pipeline_unavailable: occupancy metric component "
                                       "at n = 1e+200 overflows double precision")
        assert "max_residual" not in report

    def test_pipeline_non_finite_metric(self, capsys):
        assert cli.main(["curvature", "MTS", "1e160", "1e159", "--method", "pipeline"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["curvature_pipeline"] == "unavailable"
        assert report["warning_0"] == ("pipeline_unavailable: occupancy metric component "
                                       "at n = 1e+160 overflows double precision")

    def test_method_all_at_degenerate_point(self, capsys):
        assert cli.main(["curvature", "MTS", "0.5", "0.5", "--method", "all"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["curvature_closed"]) == pytest.approx(0.0, abs=1e-12)
        assert report["curvature_pipeline"] == "unavailable"
        assert report["curvature_warped"] == "unavailable"
        assert report["warning_0"].startswith("warped_unavailable: ")
        assert report["warning_1"].startswith("pipeline_unavailable: ")
        assert "max_residual" not in report


class TestSurfaceCommand:
    def test_symmetric_zero_crossing(self, capsys):
        assert cli.main(["surface", "2a", "--values", "0.5,1.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,R"
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(row["R"]) == pytest.approx(0.0, abs=1e-12)

    def test_edge_curves_share_asymptote(self, capsys):
        assert cli.main(["surface", "5", "--values", "100000000"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        _, mt, st_ = (float(v) for v in lines[1].split(","))
        assert mt == pytest.approx(2.0, abs=1e-6)
        assert st_ == pytest.approx(2.0, abs=1e-6)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["surface", "4b", "--count", "41", "--out", str(a)]) == 0
        assert cli.main(["surface", "4b", "--count", "41", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_range_and_values_write_identical_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["surface", "1", "--range", "0:5", "--count", "5",
                         "--out", str(a)]) == 0
        assert cli.main(["surface", "1", "--values", "0,1.25,2.5,3.75,5",
                         "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["1", "--range", "0:1e200", "--count", "3"],
        ["1", "--values", "1e200"],
        ["3", "--values", "1,1e200"],
        ["4a", "--range", "0:1e160", "--count", "3"],
        ["1", "--range", "0:1e-200", "--count", "3"],
    ], ids=["range_huge", "values_diagonal", "values_sts", "section_huge", "range_tiny"])
    def test_past_double_precision_exits_2(self, capsys, argv):
        assert cli.main(["surface", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "overflows double precision" in captured.err

    def test_surface_figure_grid(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert cli.main(["surface", "1", "--values", "0,1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n1,n2,R"
        assert len(lines) == 5
        grid = {tuple(line.split(",")[:2]): float(line.split(",")[2])
                for line in lines[1:]}
        assert grid[("0", "1")] == pytest.approx(20.0)

    def test_domain_violation_exits_2(self, capsys):
        assert cli.main(["surface", "2b", "--values", "1.5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_range_exits_2(self, capsys):
        assert cli.main(["surface", "1", "--range", "5:1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["2a", "--values", "nan"],
        ["2a", "--values", "1,inf"],
        ["1", "--range", "0:inf", "--count", "3"],
        ["1", "--range=-inf:0", "--count", "3"],
    ], ids=["values_nan", "values_inf", "range_hi_inf", "range_lo_inf"])
    def test_non_finite_grid_exits_2(self, capsys, argv):
        assert cli.main(["surface", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err

    def test_unknown_figure_exits_2(self, capsys):
        assert cli.main(["surface", "9"]) == 2
        capsys.readouterr()

    def test_zero_count_exits_2(self, capsys):
        # a count of 0 is a value, not a request for the default grid
        assert cli.main(["surface", "2a", "--count", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 2 samples" in captured.err


class TestVerifyCommand:
    def test_core_suite_passes(self, capsys):
        assert cli.main(["verify", "core", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_all_runs_every_suite(self, capsys, monkeypatch):
        # a stand-in oracle suite keeps this fast; the real one runs in CI
        monkeypatch.setitem(verification.SUITES, "oracle",
                            lambda seed: [verification.CheckResult("stand-in", True, "ok")])
        assert cli.main(["verify", "all", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "PASS [oracle] stand-in: ok" in out and "SKIP" not in out
        for name in verification.SUITES:
            assert f"PASS [{name}] " in out

    def test_negative_seed_exits_2(self, capsys):
        assert cli.main(["verify", "core", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--seed" in captured.err

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = lambda seed: [verification.CheckResult("forced", False, "boom")]
        monkeypatch.setitem(verification.SUITES, "core", failing)
        assert cli.main(["verify", "core"]) == 1
        assert "FAIL" in capsys.readouterr().out

    # finite stand-ins for the Fock checks, so a NaN case runs no real oracle
    ORACLE_STUBS = {
        "fock_agreement": lambda rng, count, tag, d: (1e-15, 1e-15),
        "fock_cross_agreement": lambda rng, count, d: (1e-15, 1e-15),
        "commuting_spectral": lambda rng, count: 1e-15,
    }

    @pytest.mark.parametrize("owner, name, fake, suite, failure", [
        (verification.cf, "q_affinity", lambda x, y: math.nan,
         "appendix", "FAIL [appendix] affinity function at least one: worst nan"),
        # a NaN in one family's overlap column must fail the combined check
        (verification, "fock_agreement",
         lambda rng, count, tag, d: (0.0, math.nan if tag == "STS" else 0.0),
         "oracle", "FAIL [oracle] Fock overlap agreement: worst nan"),
        (verification, "fock_cross_agreement", lambda rng, count, d: (0.0, math.nan),
         "oracle", "FAIL [oracle] Fock oracle agreement (mixed x squeezed): worst nan"),
    ], ids=["affinity", "oracle_overlap", "oracle_cross"])
    def test_nan_fails_its_check(self, capsys, monkeypatch, owner, name, fake, suite, failure):
        if suite == "oracle":
            for stub_name, stub in self.ORACLE_STUBS.items():
                monkeypatch.setattr(verification, stub_name, stub)
        monkeypatch.setattr(owner, name, fake)
        assert cli.main(["verify", suite]) == 1
        out = capsys.readouterr().out
        assert failure in out
        if suite == "oracle":
            assert out.count("FAIL") == 1

    def test_leading_line_lists_tolerances(self, capsys, tolerance_env):
        assert cli.main(["verify", "core", "--seed", "11"]) == 0
        default = capsys.readouterr().out.splitlines()
        assert default[0] == (
            "TOLERANCES sym=1e-12 psd=1e-10 invariant=1e-09 "
            "branch=1e-10 kminus=1e-11 prob_norm=1e-09")
        tolerance_env(psd="1e-8")
        assert cli.main(["verify", "core", "--seed", "11"]) == 0
        overridden = capsys.readouterr().out.splitlines()
        assert overridden[0] == default[0].replace("psd=1e-10", "psd=1e-08*")
        assert overridden[1:] == default[1:]


class TestOracleCommand:
    def test_small_truncation_agreement(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt",
                  "family = MTS\nn1 = 0.3\nn2 = 0.1\ntheta = 1.1\nphi = 0.4\n")
        b = write(tmp_path, "b.txt",
                  "family = MTS\nn1 = 0.2\nn2 = 0.35\ntheta = 0.6\nphi = -0.8\n")
        assert cli.main(["oracle", a, b, "--truncation", "20"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert float(report["closed_form_difference"]) < 1e-6
        assert float(report["trace_deficit_a"]) < 1e-6

    def test_zero_truncation_exits_2(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", MTS_DOC)
        assert cli.main(["oracle", a, a, "--truncation", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "at least 2" in captured.err

    def test_displaced_states_rejected(self, tmp_path, capsys):
        a = write(tmp_path, "a.txt", MTS_DOC + "mean = 1, 0, 0, 0\n")
        b = write(tmp_path, "b.txt", MTS_DOC)
        assert cli.main(["oracle", a, b]) == 2
        capsys.readouterr()


class TestParser:
    # the numeric cross-check routes and the oracle suite run in one fixed
    # configuration, so their step and truncation are not options
    @pytest.mark.parametrize("argv", [
        ["curvature", "MTS", "2", "1", "--step", "1e-3"],
        ["metric", "{doc}", "--step", "1e-3"],
        ["verify", "oracle", "--truncation", "6"],
        ["verify", "all", "--include-oracle"],
    ], ids=["curvature_step", "metric_step", "verify_truncation", "verify_oracle_gate"])
    def test_fixed_settings_are_not_options(self, tmp_path, capsys, argv):
        doc = write(tmp_path, "a.txt", MTS_DOC)
        with pytest.raises(SystemExit) as exc:
            cli.main([doc if arg == "{doc}" else arg for arg in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments" in captured.err


class TestFiberOverflow:
    # sinh(2r)^2 overflows at r = 200, and sinh(2r) itself at r = 400: one
    # error line or an unavailable route, and no traceback
    def run(self, tmp_path, *argv):
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "gaussfisher", *argv], capture_output=True,
                              text=True, env=env, timeout=120, cwd=tmp_path)

    def test_metric_exits_2(self, tmp_path):
        doc = write(tmp_path, "a.txt", "family = STS\nn1 = 2\nn2 = 1\nr = 200\nphi = 0\n")
        proc = self.run(tmp_path, "metric", doc)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: fiber metric component at x = 400.0 "
                               "overflows double precision\n")

    def test_metric_product_overflow_exits_2(self, tmp_path):
        # H_dev and sinh(2r)^2 are finite at n1 = 1e100, r = 170; their product is not
        doc = write(tmp_path, "a.txt", "family = STS\nn1 = 1e100\nn2 = 1\nr = 170\nphi = 0\n")
        proc = self.run(tmp_path, "metric", doc)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == ("error: fiber metric component at x = 340.0 "
                               "overflows double precision\n")

    @pytest.mark.parametrize("method, r", [("pipeline", "200"), ("all", "400")])
    def test_curvature_reports_pipeline_unavailable(self, tmp_path, method, r):
        proc = self.run(tmp_path, "curvature", "STS", "2", "1", "--method", method,
                        "--device", r, "0")
        assert proc.returncode == 0 and proc.stderr == ""
        report = parse_report(proc.stdout)
        assert report["curvature_pipeline"] == "unavailable"
        assert report["warning_0"] == (f"pipeline_unavailable: fiber metric component at "
                                       f"x = {2.0 * float(r)!r} overflows double precision")


class TestClosedStdout:
    # a reader that leaves early (``gaussfisher verify all | head -3``) must
    # not draw a BrokenPipeError traceback; the pipe here is closed before
    # the first write, so every command meets it
    @pytest.mark.parametrize("argv", [["verify", "core"], ["curvature", "MTS", "2", "1"]],
                             ids=["verify", "report"])
    def test_exits_quietly(self, argv):
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "gaussfisher", *argv],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141


class TestTruncationSweep:
    # scripts/truncation_sweep.py ended in a ValueError traceback on
    # '6,x' and in a ValidationError traceback on '1'
    SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "truncation_sweep.py"

    def run(self, *argv):
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, str(self.SCRIPT), *argv], capture_output=True,
                              text=True, env=env, timeout=120)

    @pytest.mark.parametrize("raw", ["6,x", "1", "6,2.5", ""])
    def test_bad_truncations_exit_2(self, raw):
        proc = self.run("--truncations", raw)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: --truncations")
        assert proc.stderr.count("\n") == 1

    def test_sweep_reports_every_row(self):
        proc = self.run("--truncations", "6,8")
        assert proc.returncode == 0 and proc.stderr == ""
        rows = [line.split() for line in proc.stdout.splitlines() if line[:4].strip().isdigit()]
        assert [int(row[0]) for row in rows] == [6, 8, 6, 8]
        assert all(float(row[2]) < 1e-1 for row in rows)
