import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatforms import errors
from heatforms import multipliers as mult
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

    def test_overflowing_norm_writes_nothing(self, capsys, tmp_path):
        # samples near 1e307 have a finite l2 norm, but the operator's spectrum overflows
        f = random_band_limited(2, (16, 16), 1.0, np.random.default_rng(3))
        src = tmp_path / "in.ffld"
        dst = tmp_path / "out.ffld"
        write_ffld(f.like(f.data * 1e307), src)
        code = main(["apply", "--input", str(src), "--output", str(dst)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "overflows" in captured.err
        assert not dst.exists()

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _ = run_cli(
            capsys, "apply", "--input", str(tmp_path / "nope.ffld"), "--output", "/tmp/x"
        )
        assert code == 1

    def test_field_with_no_components_exit_1(self, capsys, tmp_path):
        src = tmp_path / "empty.ffld"
        write_ffld(random_band_limited(2, (8, 8), 1.0, np.random.default_rng(0), grades=[1]), src)
        header = src.read_bytes().split(b"\n", 1)[0]
        src.write_bytes(header.replace(b'"grades": [1]', b'"grades": []') + b"\n")
        dst = tmp_path / "out.ffld"
        code = main(["apply", "--input", str(src), "--output", str(dst)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "at least one component" in captured.err
        assert not dst.exists()

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

    @pytest.mark.parametrize(
        "argv, target, result",
        [
            (
                ["norm-search", "--n", "2", "--p", "4"],
                "ns.norm_search",
                SimpleNamespace(best_ratio=7.0, best_index=0, evaluations=1, degenerate=0, ceiling=6.0),
            ),
            (["impow", "--s", "0.5", "--p", "4"], "mult.imaginary_power_constant", 1.0),
            (["asymptotics", "--n", "2", "--p", "4", "--sigma-samples", "1"], "asy.aggregate_bound", -1.0),
            (
                ["simulate", "markov"],
                "st.markov_identity_check",
                SimpleNamespace(mc_value=1.0, std_error=0.1, exact_value=2.0, z_score=10.0),
            ),
            (
                ["simulate", "transform"],
                "st.martingale_transform_experiment",
                SimpleNamespace(ratio=4.0, rel_ci_half_width=0.01, ceiling=3.0, passed=False),
            ),
        ],
        ids=["norm-search", "impow", "asymptotics", "markov", "transform"],
    )
    def test_failed_check_exit_2(self, capsys, monkeypatch, argv, target, result):
        # the library call is replaced by one whose result fails the command's check
        monkeypatch.setattr(f"heatforms.cli.{target}", lambda *args, **kwargs: result)
        monkeypatch.setattr("heatforms.cli.st.simulate_paths", lambda *args: None)  # markov's unread ensemble
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert out.splitlines()[-1] == '{"status":"fail"}'

    def test_asymptotics_values(self, capsys):
        code, out = run_cli(capsys, "asymptotics", "--n", "2", "--p", "1000")
        assert code == 0
        byname = {r["label"]: r["value"] for r in parse_jsonl(out)[1]}
        assert byname["c_asym"] == pytest.approx(np.sqrt(2.0))
        assert abs(byname["bound_over_p_minus_1"] - np.sqrt(2.0)) < 0.03 * np.sqrt(2.0)

    def test_asymptotics_at_n_60(self, capsys):
        # the log-Gamma difference once cancelled here and read sphere_factor 0.8667
        code, out = run_cli(capsys, "asymptotics", "--n", "60", "--p", "4")
        assert code == 0
        byname = {r["label"]: r["value"] for r in parse_jsonl(out)[1]}
        assert byname["sphere_factor"] == pytest.approx(1.2256894381274399e-9, rel=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [["norm-search", "--n", "2", "--p", "1e308", "--grid", "8", "--budget", "4"], ["bounds", "--n", "3", "--p", "1e308"]],
        ids=["norm-search", "bounds"],
    )
    def test_overflowing_bound_names_the_exponent(self, capsys, argv):
        # (n/2 + 1)(p* - 1) overflows; the one error line names the exponent
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.count("\n") == 1 and "overflows at p = 1e+308" in captured.err

    def test_asymptotics_names_a_dimension_past_the_largest_double(self, capsys):
        code = main(["asymptotics", "--n", "1024", "--p", "4"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "heatforms: error: ambient dimension 2**1024 is not a finite double\n"

    def test_norm_search_at_p_1000(self, capsys):
        # the fields' p-th power sums underflow here while their norms (~0.47) do not
        code, out = run_cli(capsys, "norm-search", "--n", "2", "--p", "1000", "--budget", "8")
        assert code == 0
        byname = {r["label"]: r["value"] for r in parse_jsonl(out)[1]}
        assert 1.0 <= byname["best_ratio"] <= byname["ceiling"]


class TestErrorExitCodes:
    @pytest.mark.parametrize(
        "exc", [MemoryError(), MemoryError("Unable to allocate 8.00 EiB for an array with shape (1152921504606846976,)")]
    )
    def test_memory_error_exit_1(self, capsys, monkeypatch, exc):
        # a size too large to allocate is a usage error, reported on one line
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("heatforms.cli.ns.norm_search", fail)
        code = main(["norm-search", "--n", "2", "--p", "4", "--grid", "8", "--budget", "4"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("heatforms: error: ")
        assert (str(exc) or "MemoryError") in captured.err

    def test_wide_interval_exit_3_without_traceback(self, capsys):
        code = main(["simulate", "transform", "--trials", "50"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.count("\n") == 1 and "StatisticalPowerError" in captured.err

    def test_one_trial_exit_3(self, capsys):
        code = main(["simulate", "transform", "--trials", "1"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "StatisticalPowerError" in captured.err

    @pytest.mark.parametrize("flag", ["--steps", "--trials"])
    def test_empty_walk_exit_1_without_warning(self, capsys, flag):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["simulate", "transform", flag, "0"])
        captured = capsys.readouterr()
        assert caught == []
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "at least 1" in captured.err

    @pytest.mark.parametrize("counts", ["32", "64,64"])
    def test_ito_needs_two_step_counts(self, capsys, counts):
        code = main(["simulate", "ito", "--step-counts", counts, "--paths", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "flags, code_want",
        [(["--reps", "0", "--paths", "10"], 1), (["--paths", "0"], 1), (["--paths", "1"], 3)],
        ids=["reps-0", "paths-0", "paths-1"],
    )
    def test_ito_needs_a_seed_and_two_paths(self, capsys, flags, code_want):
        code = main(["simulate", "ito", "--grid", "8", *flags])
        captured = capsys.readouterr()
        assert code == code_want
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        if code_want == 3:
            assert "StatisticalPowerError" in captured.err

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


class TestSharedParser:
    # main builds its argparse tree once per process and parses every call with it

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        runs = [SMALL_RUNS["simulate-transform"], SMALL_RUNS["simulate-markov"], SMALL_RUNS["bounds"]]
        in_process = []
        for argv in runs:
            code = main(list(argv))
            in_process.append((code, capsys.readouterr().out))
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for argv, (code, out) in zip(runs, in_process):
            command = [sys.executable, "-m", "heatforms.cli", *argv]
            proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
            assert (proc.returncode, proc.stdout) == (code, out)

    def test_usage_error_after_a_good_call(self, capsys):
        assert main(list(SMALL_RUNS["bounds"])) == 0
        capsys.readouterr()
        assert main(["bounds", "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "required" in captured.err
        assert main(list(SMALL_RUNS["bounds"])) == 0


class TestDeterminism:
    # identical arguments, seed included, give byte-identical reports and files

    @given(
        command=st.sampled_from(["apply", "psw", "norm-search"]),
        seed=st.integers(0, 2**63 - 1),
        fmt=st.sampled_from(["json", "csv"]),
    )
    @settings(max_examples=15, deadline=None)
    def test_in_process_reruns_are_byte_identical(self, command, seed, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            argv = SMALL_RUNS[command] + ["--seed", str(seed), "--format", fmt]
            out_path = Path(tmp) / "out.ffld"
            if command == "apply":
                src = Path(tmp) / "in.ffld"
                write_ffld(random_band_limited(2, (8, 8), 1.0, np.random.default_rng(seed)), src)
                argv += ["--input", str(src), "--output", str(out_path)]
            runs = []
            for _ in range(2):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = main(argv)
                written = out_path.read_bytes() if out_path.exists() else None
                runs.append((code, stdout.getvalue().encode(), written))
        assert runs[0][0] in (0, 2) and runs[0][1]
        assert runs[0] == runs[1]


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

    @pytest.mark.parametrize("grid", ["2", "3"])
    def test_psw_needs_a_grid_of_four(self, capsys, grid):
        # at grid 2 the equality mode k = 1 sat on the Nyquist index, where
        # the gradient is zeroed, and the check failed with gap 1
        code = main(["psw", "--cases", "1", "--grid", grid])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--grid" in captured.err

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_matrix_verify_needs_an_alpha(self, capsys, grid):
        code = main(["matrix-verify", "--n", "3", "--alpha-grid", grid])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--alpha-grid" in captured.err

    def test_asymptotics_rejects_negative_sigma_samples(self, capsys):
        code = main(["asymptotics", "--n", "2", "--p", "4", "--sigma-samples", "-3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--sigma-samples" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["psw", "--n", "0"], "dimension"),
            (["psw", "--n", "-1"], "dimension"),
            (["simulate", "markov", "--n", "0"], "dimension"),
            (["simulate", "markov", "--grid", "0"], "powers of two"),
            (["simulate", "ito", "--grid", "0"], "powers of two"),
            (["norm-search", "--n", "2", "--p", "4", "--grid", "0"], "powers of two"),
            (["norm-search", "--n", "2", "--p", "4", "--grid", "12"], "powers of two"),
            (["simulate", "transform", "--p", "2", "--trials", "5000", "--steps", "16", "--n", "0"], "--n or --grid"),
            (["simulate", "transform", "--trials", "5000", "--grid", "16"], "--n or --grid"),
        ],
        ids=[
            "psw-n-0", "psw-n-negative", "markov-n-0", "markov-grid-0", "ito-grid-0",
            "search-grid-0", "search-grid-12", "transform-n", "transform-grid",
        ],
    )
    def test_fields_need_a_dimension_and_a_power_of_two_grid(self, capsys, argv, message):
        # checked before a field is built, so no traceback escapes
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and message in captured.err

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["markov", "--steps", "5", "--paths", "200"], (2, 16)),
            (["ito", "--step-counts", "8,16", "--paths", "50", "--reps", "1"], (2, 16)),
            (["transform", "--p", "2", "--trials", "5000", "--steps", "16"], (None, None)),
        ],
        ids=["markov", "ito", "transform"],
    )
    def test_report_echoes_the_grid_an_experiment_uses(self, capsys, argv, want):
        # --n and --grid default to 2 and 16 for markov and ito; transform has no grid
        code, out = run_cli(capsys, "simulate", *argv)
        assert code in (0, 2)
        inputs = parse_jsonl(out)[0]["inputs"]
        assert (inputs["n"], inputs["grid"]) == want

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
    "bounds-p-abc": ["bounds", "--n", "2", "--p", "abc"],  # not a number at all
    # finite arguments whose results overflow; any RuntimeWarning fails the suite
    "norm-search-p-1e308": [
        "norm-search", "--n", "2", "--p", "1e308", "--grid", "8", "--budget", "4"
    ],
    "transform-p-1e308": ["simulate", "transform", "--p", "1e308", "--trials", "5000"],
    "impow-s-1e3": ["impow", "--s", "1e3", "--p", "2"],
    "asymptotics-n-1e30": ["asymptotics", "--n", str(10**30), "--p", "4"],  # refused before 1 << n
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


class TestLargeArguments:
    def test_matrix_verify_past_the_cap_exits_before_any_solve(self, capsys, monkeypatch):
        # n = 22's middle block has 22 * C(22, 11) rows; the grades under the cap are not solved first
        calls = []
        monkeypatch.setattr("heatforms.cli.hm.spectral_norm", lambda m: calls.append(m) or 0.0)
        code = main(["matrix-verify", "--n", "22"])
        captured = capsys.readouterr()
        assert (code, captured.out, calls) == (1, "", [])
        assert "exceeds cap" in captured.err

    @pytest.mark.parametrize("samples, expected", [("1", 1), ("0", 0)])
    def test_asymptotics_sigma_probe_is_capped(self, capsys, samples, expected):
        # the projection spans the full matrix's columns and shares its cap, n <= 10
        code = main(["asymptotics", "--n", "11", "--p", "4", "--sigma-samples", samples])
        assert code == expected
        assert (capsys.readouterr().out == "") == (expected == 1)

    def test_psw_at_huge_t_max_passes(self, capsys):
        code, out = run_cli(capsys, "psw", "--cases", "1", "--grid", "8", "--tmax", "1e300")
        rows = {r["label"]: r["value"] for r in parse_jsonl(out)[1]}
        assert code == 0
        assert rows["equality_gap"] < 1e-9

    def test_impow_is_undecided_at_s_300(self, capsys):
        # the constant (~1e203) is finite (TestPowerConstant checks it), but
        # the quadrature would cancel a profile of that size to modulus 1
        code = main(["impow", "--s", "300", "--p", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "AccuracyError" in captured.err

    def test_impow_is_undecided_where_the_quadrature_estimate_misses_tol(self, capsys):
        # at s = 10 the estimate is near 1.1e-8: the last change plus a
        # truncation term kept below _TARGET / 2 by the lowered left end
        code = main(["impow", "--s", "10", "--p", "2", "--tol", "1e-9"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "AccuracyError" in captured.err

    @pytest.mark.parametrize("s", ["8", "12.6"])
    def test_impow_passes_past_s_7(self, capsys, s):
        # the truncation bound at a fixed left end read 4.2e-6 > 1e-6 at s = 8
        code, out = run_cli(capsys, "impow", "--s", s, "--p", "2")
        assert code == 0 and parse_jsonl(out)[2] == {"status": "pass"}

    def test_impow_passes_where_the_quadrature_estimate_meets_tol(self, capsys):
        # the report is the one built from the single-lambda quadrature
        code, out = run_cli(capsys, "impow", "--s", "6", "--p", "2")
        head, rows, status = parse_jsonl(out)
        assert code == 0 and status == {"status": "pass"}
        sym = mult.imaginary_power_symbol(6.0)
        expected = {
            f"quad_rel_err_lambda_{lam:g}": abs(mult.laplace_symbol_eval(sym, lam) - lam**6j)
            / abs(lam**6j)
            for lam in (0.1, 1.0, 10.0)
        }
        got = {r["label"]: r["value"] for r in rows if r["label"] in expected}
        assert got == expected
        assert [r["label"] for r in rows] == [
            "constant", "constant_closed_form", *expected
        ]


TOL_READERS = {
    "matrix-verify": ["--n", "2", "--alpha-grid", "3"],
    "norm-search": ["--n", "2", "--p", "4", "--grid", "8", "--budget", "2"],
    "psw": ["--cases", "1", "--grid", "8"],
    "impow": ["--s", "1", "--p", "2"],
}
TOL_IGNORERS = {
    "bounds": ["--n", "2", "--p", "4"],
    "apply": ["--input", "in.ffld", "--output", "out.ffld"],
    "asymptotics": ["--n", "2", "--p", "4"],
    "simulate": ["transform", "--trials", "5000"],
}


class TestTolFlag:
    @pytest.mark.parametrize("command", sorted(TOL_READERS))
    def test_accepted_where_read(self, capsys, command):
        code, out = run_cli(capsys, command, *TOL_READERS[command], "--tol", "0.5")
        assert code == 0
        assert parse_jsonl(out)[0]["inputs"]["tol"] == 0.5

    @pytest.mark.parametrize("command", sorted(TOL_READERS))
    def test_negative_rejected_where_read(self, capsys, command):
        code = main([command, *TOL_READERS[command], "--tol", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--tol" in captured.err

    @pytest.mark.parametrize("command", sorted(TOL_READERS))
    def test_zero_accepted_where_read(self, capsys, command):
        # a zero tolerance parses; the check it sets may fail (2) or be
        # undecided (3), but it is not a usage error
        code = main([command, *TOL_READERS[command], "--tol", "0"])
        assert code in (0, 2, 3)
        assert "--tol" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", sorted(TOL_IGNORERS))
    def test_rejected_where_ignored(self, capsys, command):
        code = main([command, *TOL_IGNORERS[command], "--tol", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "--tol" in captured.err


class TestReportFormatting:
    def test_fmt_17_digits(self):
        assert fmt_number(1 / 3) == "0.33333333333333331"
        assert fmt_number(2.0) == "2"
        assert fmt_number(7) == "7"
        assert fmt_number(True) == "true" and fmt_number(False) == "false"

    def test_rejects_what_it_cannot_write(self):
        rep = Report(command="demo", inputs={"grid": [8, 8]})
        with pytest.raises(TypeError, match="cannot serialize"):
            rep.to_jsonl()
        with pytest.raises(ValueError, match="unknown format 'xml'"):
            Report(command="demo", inputs={}).render("xml")

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
