import csv
import io
import json

import numpy as np
import pytest

from heatforms import errors
from heatforms.cli import main
from heatforms.fields import lp_norm, random_band_limited, read_ffld, write_ffld
from heatforms.fourier import apply_beurling_ahlfors
from heatforms.reporting import Report, fmt_number


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_jsonl(text):
    lines = [json.loads(line) for line in text.strip().splitlines()]
    head, rows, status = lines[0], lines[1:-1], lines[-1]
    return head, rows, status


class TestBoundsCommand:
    def test_values_and_exit(self, capsys):
        code, out = run_cli(capsys, "bounds", "--n", "3", "--p", "4")
        assert code == 0
        head, rows, status = parse_jsonl(out)
        assert head["command"] == "bounds"
        byname = {r["label"]: r["value"] for r in rows}
        assert byname["overall_constant"] == pytest.approx(7.0 / 3.0, abs=1e-15)
        assert byname["overall_bound"] == 7.0
        assert status["status"] == "pass"

    def test_byte_identical_reruns(self, capsys):
        _, out1 = run_cli(capsys, "bounds", "--n", "4", "--p", "2.5")
        _, out2 = run_cli(capsys, "bounds", "--n", "4", "--p", "2.5")
        assert out1 == out2

    def test_json_and_csv_rows_agree(self, capsys):
        _, jout = run_cli(capsys, "bounds", "--n", "3", "--p", "2")
        _, cout = run_cli(capsys, "bounds", "--n", "3", "--p", "2", "--format", "csv")
        _, jrows, _ = parse_jsonl(jout)
        creader = csv.DictReader(io.StringIO(cout))
        crows = list(creader)
        assert len(jrows) == len(crows)
        for j, c in zip(jrows, crows):
            assert j["label"] == c["label"]
            assert float(c["value"]) == j["value"]

    def test_usage_error_exit_1(self, capsys):
        assert main(["bounds", "--n", "3"]) in (1,)
        capsys.readouterr()

    def test_domain_error_exit_1(self, capsys):
        code, _ = run_cli(capsys, "bounds", "--n", "3", "--p", "0.5")
        assert code == 1


class TestSeededCommands:
    def test_norm_search_deterministic(self, capsys):
        args = ("norm-search", "--n", "2", "--p", "4", "--grid", "16", "--budget", "20")
        _, out1 = run_cli(capsys, *args, "--seed", "9")
        _, out2 = run_cli(capsys, *args, "--seed", "9")
        assert out1 == out2
        _, out3 = run_cli(capsys, *args, "--seed", "10")
        assert out1 != out3

    def test_threads_flag_changes_nothing_numeric(self, capsys):
        args = ("simulate", "transform", "--p", "2", "--trials", "5000", "--steps", "16")
        _, out1 = run_cli(capsys, *args, "--threads", "1")
        _, out2 = run_cli(capsys, *args, "--threads", "8")
        rows1 = parse_jsonl(out1)[1]
        rows2 = parse_jsonl(out2)[1]
        assert rows1 == rows2


class TestApplyCommand:
    def test_round_trip_matches_library(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        f = random_band_limited(2, (16, 16), 1.0, rng)
        src = tmp_path / "in.ffld"
        dst = tmp_path / "out.ffld"
        write_ffld(f, src)
        code, out = run_cli(capsys, "apply", "--input", str(src), "--output", str(dst))
        assert code == 0
        got = read_ffld(dst)
        want = apply_beurling_ahlfors(f)
        for m in want.masks:
            assert np.allclose(got.components[m], want.components[m], atol=1e-15)
        byname = {r["label"]: r["value"] for r in parse_jsonl(out)[1]}
        assert byname["l2_in"] == pytest.approx(lp_norm(f, 2))

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "apply", "--input", str(tmp_path / "nope.ffld"), "--output", "/tmp/x"
        )
        assert code == 1

    def test_malformed_file_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.ffld"
        bad.write_bytes(b"FFLD1 {\"n\": 2}\n")
        code, _ = run_cli(capsys, "apply", "--input", str(bad), "--output", "/tmp/x")
        assert code == 1


class TestChecksAndExitCodes:
    def test_matrix_verify_passes(self, capsys):
        code, out = run_cli(capsys, "matrix-verify", "--n", "3", "--alpha-grid", "7")
        assert code == 0
        assert parse_jsonl(out)[2]["status"] == "pass"

    def test_impossible_tolerance_exit_2(self, capsys):
        code, out = run_cli(
            capsys, "matrix-verify", "--n", "3", "--alpha-grid", "7", "--tol", "1e-30"
        )
        # closed forms agree to machine precision but not to 1e-30
        assert code == 2
        assert parse_jsonl(out)[2]["status"] == "fail"

    def test_asymptotics_values(self, capsys):
        code, out = run_cli(capsys, "asymptotics", "--n", "2", "--p", "1000")
        assert code == 0
        byname = {r["label"]: r["value"] for r in parse_jsonl(out)[1]}
        assert byname["c_asym"] == pytest.approx(np.sqrt(2.0))
        assert abs(byname["bound_over_p_minus_1"] - np.sqrt(2.0)) < 0.03 * np.sqrt(2.0)


class TestErrorExitCodes:
    def test_wide_interval_exit_3_without_traceback(self, capsys):
        code = main(["simulate", "transform", "--trials", "50"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1 and "StatisticalPowerError" in captured.err

    @pytest.mark.parametrize("counts", ["32", "64,64"])
    def test_ito_needs_two_step_counts(self, capsys, counts):
        code = main(["simulate", "ito", "--step-counts", counts, "--paths", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_negative_kmax_exit_1(self, capsys):
        code = main(["norm-search", "--n", "2", "--p", "4", "--grid", "16", "--kmax", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert "kmax" in captured.err

    @pytest.mark.parametrize(
        "exc, expected",
        [
            (errors.AccuracyError("quadrature"), 3),
            (errors.SearchError("degenerate"), 3),
            (errors.StatisticalPowerError("wide"), 3),
            (errors.FFLDError("bad file"), 1),
            (errors.CapError("too big"), 1),
        ],
    )
    def test_every_package_error_has_an_exit_code(self, capsys, monkeypatch, exc, expected):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("heatforms.cli.hm.bound_constants", fail)
        code = main(["bounds", "--n", "3", "--p", "4"])
        captured = capsys.readouterr()
        assert code == expected
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and str(exc) in captured.err


SMALL_RUNS = {
    "bounds": ["bounds", "--n", "3", "--p", "4"],
    "matrix-verify": ["matrix-verify", "--n", "2", "--alpha-grid", "3"],
    "apply": ["apply"],  # files are added by the test
    "norm-search": ["norm-search", "--n", "2", "--p", "4", "--grid", "8", "--budget", "4"],
    "psw": ["psw", "--cases", "1", "--grid", "8"],
    "impow": ["impow", "--s", "1", "--p", "2"],
    "asymptotics": ["asymptotics", "--n", "2", "--p", "4", "--sigma-samples", "3"],
    "simulate-markov": ["simulate", "markov", "--grid", "8", "--steps", "5", "--paths", "200"],
    "simulate-ito": ["simulate", "ito", "--grid", "8", "--step-counts", "8,16", "--paths", "50", "--reps", "1"],
    "simulate-transform": ["simulate", "transform", "--p", "2", "--trials", "5000", "--steps", "16"],
}


class TestStrictJsonReports:
    @pytest.mark.parametrize("name", sorted(SMALL_RUNS))
    def test_every_line_is_strict_json(self, capsys, tmp_path, name):
        def reject(token):
            raise ValueError(f"non-finite number {token} in report")

        argv = list(SMALL_RUNS[name])
        if name == "apply":
            src = tmp_path / "in.ffld"
            write_ffld(random_band_limited(2, (8, 8), 1.0, np.random.default_rng(0)), src)
            argv += ["--input", str(src), "--output", str(tmp_path / "out.ffld")]
        code, out = run_cli(capsys, *argv)
        assert code in (0, 2)
        lines = out.splitlines()
        assert len(lines) >= 3
        parsed = [json.loads(line, parse_constant=reject) for line in lines]
        assert "status" in parsed[-1]

    def test_psw_needs_a_case(self, capsys):
        code = main(["psw", "--cases", "0", "--grid", "8"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--cases" in captured.err

    def test_markov_needs_two_paths(self, capsys):
        code = main(["simulate", "markov", "--grid", "8", "--steps", "5", "--paths", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "StatisticalPowerError" in captured.err


NON_FINITE_RUNS = {
    "psw-tmax-inf": ["psw", "--cases", "1", "--grid", "8", "--tmax", "inf"],
    "psw-tol-nan": ["psw", "--cases", "1", "--grid", "8", "--tol", "nan"],
    "transform-p-inf": ["simulate", "transform", "--p", "inf", "--trials", "5000"],
    "apply-L-inf": ["apply"],  # files are added by the test
    "asymptotics-p-1e308": ["asymptotics", "--n", "2", "--p", "1e308"],
}


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("name", sorted(NON_FINITE_RUNS))
    def test_exit_1_without_report(self, capsys, tmp_path, name):
        argv = list(NON_FINITE_RUNS[name])
        out_path = tmp_path / "out.ffld"
        if name == "apply-L-inf":
            src = tmp_path / "in.ffld"
            write_ffld(random_band_limited(2, (8, 8), 1.0, np.random.default_rng(0)), src)
            src.write_bytes(src.read_bytes().replace(b'"L": 1.0', b'"L": Infinity'))
            argv += ["--input", str(src), "--output", str(out_path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert not out_path.exists()

    def test_non_finite_report_value_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr("heatforms.cli.asy.asymptotic_constant", lambda n: float("nan"))
        code = main(["asymptotics", "--n", "2", "--p", "4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "c_asym" in captured.err


class TestReportFormatting:
    def test_fmt_17_digits(self):
        assert fmt_number(1 / 3) == "0.33333333333333331"
        assert fmt_number(2.0) == "2"
        assert fmt_number(7) == "7"

    @pytest.mark.parametrize(
        "value, se", [(float("nan"), None), (float("inf"), None), (1.0, float("nan"))]
    )
    def test_add_rejects_non_finite(self, value, se):
        rep = Report(command="demo", inputs={})
        with pytest.raises(ValueError, match="not finite"):
            rep.add("a", value, se=se)
        assert rep.rows == []

    def test_report_round_trip(self):
        rep = Report(command="demo", inputs={"n": 2, "x": 0.1})
        rep.add("a", 1.5)
        rep.add("b", 2.0, se=0.25)
        head, row_a, row_b, status = rep.to_jsonl().strip().splitlines()
        assert json.loads(head)["inputs"] == {"n": 2, "x": 0.1}
        assert json.loads(row_b) == {"label": "b", "value": 2.0, "se": 0.25}
        assert json.loads(status) == {"status": "pass"}
        csv_lines = rep.to_csv().strip().splitlines()
        assert csv_lines[0] == "label,value,se"
        assert csv_lines[2] == "b,2,0.25"
