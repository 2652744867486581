"""End-to-end CLI behavior: outputs, exit codes, and reproducibility."""

import csv
import errno
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bayescal
import bayescal.cli
from bayescal import ExperimentConfig, GeneratorConfig, LrDistributionReport, NormalGammaParams
from bayescal.cli import main
from bayescal.conjugate import NONINFORMATIVE_PRIOR
from bayescal.scores import DEFAULT_VARIANCE_FLOOR
from bayescal.verification import QuadratureSpec, VerificationReport

REPO_ROOT = Path(__file__).resolve().parents[1]

SYMMETRIC_CSV = "label,score\nH1,0.0\nH1,2.0\nH2,-2.0\nH2,0.0\n"


@pytest.fixture
def background(tmp_path):
    f = tmp_path / "bg.csv"
    f.write_text(SYMMETRIC_CSV)
    return str(f)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLlrCommand:
    def test_both_methods_happy_path(self, background, capsys):
        code, out, _ = run_cli(
            capsys, "llr", "--background", background, "--score", "2.0", "--method", "both"
        )
        assert code == 0
        payload = json.loads(out)
        # plugin model: means +-1, ML variance 1 per class, so log-LR = 2e
        assert math.isclose(payload["log_lr_plugin"], 4.0, rel_tol=1e-12)
        assert math.isclose(
            payload["log10_lr_plugin"], 4.0 / math.log(10), rel_tol=1e-12
        )
        assert "log_lr_bayes" in payload and "log10_lr_bayes" in payload
        assert payload["prior"] == {"mu0": 0.0, "beta": 0.01, "a": 0.01, "b": 0.01}
        assert (payload["n1"], payload["n2"]) == (2, 2)

    def test_single_method_omits_other_keys(self, background, capsys):
        code, out, _ = run_cli(
            capsys, "llr", "--background", background, "--score", "1.0", "--method", "bayes"
        )
        assert code == 0
        payload = json.loads(out)
        assert "log_lr_plugin" not in payload
        assert "log_lr_bayes" in payload

    def test_tar_non_aliases(self, tmp_path, capsys):
        f = tmp_path / "bg.csv"
        f.write_text("label,score\ntar,0.0\ntar,2.0\nnon,-2.0\nnon,0.0\n")
        code, out, _ = run_cli(
            capsys, "llr", "--background", str(f), "--score", "2.0", "--method", "plugin"
        )
        assert code == 0
        assert math.isclose(json.loads(out)["log_lr_plugin"], 4.0, rel_tol=1e-12)

    def test_parse_error_exits_2_with_line_number(self, tmp_path, capsys):
        f = tmp_path / "bg.csv"
        f.write_text("label,score\nH1,1.0\nH1,abc\nH2,0.0\nH2,1.0\n")
        code, _, err = run_cli(capsys, "llr", "--background", str(f), "--score", "1.0")
        assert code == 2
        assert ":3:" in err

    @pytest.mark.parametrize(
        "flag,raw,message",
        [
            ("--background", b"label,score\nH1,1.0\nH2,\xff2.0\n", "byte 0xff is not UTF-8"),
            (
                "--background",
                b"label,score\nH1,1.0\nH2," + b"1" * 131_073 + b"\n",
                "field larger than field limit (131072)",
            ),
            ("--config", b'{\n  "prior":\n    {"a": "\xe9"}\n}\n', "byte 0xe9 is not UTF-8"),
            (
                "--config",
                b'\xef\xbb\xbf{\n  "prior":\n    {"a": "\xe9"}\n}\n',
                "byte 0xe9 is not UTF-8",
            ),
        ],
        ids=[
            "background_not_utf8", "background_field_too_long", "config_not_utf8",
            "config_bom_not_utf8",
        ],
    )
    def test_unreadable_input_exits_2_naming_line_3(
        self, flag, raw, message, background, tmp_path, capsys
    ):
        f = tmp_path / "input"
        f.write_bytes(raw)
        files = {"--background": background, flag: str(f)}
        argv = [arg for pair in files.items() for arg in pair]
        code, out, err = run_cli(capsys, "llr", "--score", "1.0", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {f}:3: {message}")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, line",
        [
            # truncated inside a quoted score: not loaded as if it were whole
            ('label,score\nH1,1.0\nH1,2.0\nH2,-1.0\nH2,"-2.0', 5),
            # the quote opened on line 2 runs to the end of the file
            ('label,score\nH1,"1.0\nH1,2.0\nH2,-1.0\nH2,-2.0\n', 2),
        ],
        ids=["truncated_last_line", "opened_on_line_2"],
    )
    def test_open_quote_exits_2_at_the_line_it_opened(self, text, line, tmp_path, capsys):
        f = tmp_path / "bg.csv"
        f.write_text(text)
        code, out, err = run_cli(
            capsys, "llr", "--background", str(f), "--score", "1.0", "--method", "plugin"
        )
        assert (code, out) == (2, "")
        assert err == f"error: {f}:{line}: unexpected end of data\n"

    def test_overflowing_class_exits_3_naming_it(self, tmp_path, capsys):
        f = tmp_path / "bg.csv"
        f.write_text("label,score\nH1,1.0\nH1,2e154\nH2,-1.0\nH2,-2.0\n")
        code, out, err = run_cli(capsys, "llr", "--background", str(f), "--score", "1.0")
        assert (code, out) == (3, "")
        assert err == (
            f"error: {f}: h1_scores overflow float range when summarized; "
            "the largest in magnitude is h1_scores[1] = 2e+154\n"
        )

    def test_plugin_precondition_exits_3(self, tmp_path, capsys):
        f = tmp_path / "bg.csv"
        f.write_text("label,score\nH1,1.0\nH2,0.0\nH2,1.0\n")
        code, _, err = run_cli(
            capsys, "llr", "--background", str(f), "--score", "1.0", "--method", "plugin"
        )
        assert code == 3
        assert err == "error: n1 must be >= 2, got 1\n"

    def test_prior_flags_override_defaults(self, background, capsys):
        code, out, _ = run_cli(
            capsys, "llr", "--background", background, "--score", "0.5",
            "--method", "bayes", "--a", "2.0", "--b", "3.0",
        )
        assert code == 0
        assert json.loads(out)["prior"]["a"] == 2.0

    def test_config_file_supplies_prior_flags_win(self, background, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prior": {"a": 5.0, "b": 5.0}}))
        code, out, _ = run_cli(
            capsys, "llr", "--background", background, "--score", "0.5",
            "--config", str(cfg), "--b", "7.0",
        )
        assert code == 0
        prior = json.loads(out)["prior"]
        assert prior["a"] == 5.0 and prior["b"] == 7.0

    def test_config_file_may_start_with_a_byte_order_mark(self, background, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"prior": {"mu0": 0.5}}).encode())
        code, out, _ = run_cli(
            capsys, "llr", "--background", background, "--score", "0.5", "--config", str(cfg)
        )
        assert code == 0
        assert json.loads(out)["prior"]["mu0"] == 0.5


class TestDecideCommand:
    def test_high_threshold_conviction(self, background, capsys):
        # plugin log-LR at score 5 is 10; posterior odds e^10 > 10000
        code, out, _ = run_cli(
            capsys, "decide", "--background", background, "--score", "5.0",
            "--method", "plugin", "--pi1", "0.5",
            "--cost-false-convict", "10000", "--cost-false-acquit", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["decision"] == "convict"
        assert math.isclose(payload["threshold_log"], math.log(10_000), rel_tol=1e-12)

    def test_just_below_threshold_acquits(self, background, capsys):
        # plugin log-LR at score 4.6 is 9.2; e^9.2 = 9897 < 10000
        code, out, _ = run_cli(
            capsys, "decide", "--background", background, "--score", "4.6",
            "--method", "plugin", "--pi1", "0.5",
            "--cost-false-convict", "10000", "--cost-false-acquit", "1",
        )
        assert code == 0
        assert json.loads(out)["decision"] == "acquit"

    def test_tie_acquits(self, background, capsys):
        code, out, _ = run_cli(
            capsys, "decide", "--background", background, "--score", "0.0",
            "--pi1", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["posterior_log_odds"] == 0.0
        assert payload["decision"] == "acquit"

    def test_invalid_pi1_exits_3(self, background, capsys):
        code, _, err = run_cli(
            capsys, "decide", "--background", background, "--score", "0.0", "--pi1", "1.5"
        )
        assert code == 3
        assert "pi1" in err


@pytest.mark.parametrize(
    "command, method",
    [("llr", "plugin"), ("llr", "bayes"), ("llr", "both"), ("decide", "plugin"), ("decide", "bayes")],
)
@pytest.mark.parametrize(
    "bad, named",
    [(("--a", "-1"), "a must be"), (("--b", "0"), "b must be"),
     (("--beta", "nan"), "beta must be"), (("--variance-floor", "-1"), "variance_floor must be")],
)
def test_prior_and_floor_checked_whatever_the_method(background, capsys, command, method, bad, named):
    extra = ["--pi1", "0.5"] if command == "decide" else []
    code, out, err = run_cli(
        capsys, command, "--background", background, "--score", "1.0", "--method", method,
        *extra, *bad,
    )
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: {named}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["llr", "--mu0", "nan"], "mu0 must be finite, got nan"),
        (["llr", "--b", "-1"], "b must be finite and > 0, got -1.0"),
        (["decide", "--pi1", "0.5", "--cost-false-acquit", "inf"],
         "cost_false_acquit must be finite and > 0, got inf"),
        (["decide", "--pi1", "0.5", "--cost-false-acquit", "1e-320"],
         "cost_false_convict / cost_false_acquit must be finite and > 0, got inf"),
        (["decide", "--pi1", "0.5", "--cost-false-convict", "1e-320", "--cost-false-acquit", "1e10"],
         "cost_false_convict / cost_false_acquit must be finite and > 0, got 0.0"),
        (["lr-distribution", "--score", "1", "--shift-location", "inf"],
         "shift_location must be finite, got inf"),
        (["lr-distribution", "--score", "1", "--trials", "1"], "trials must be >= 2, got 1"),
        (["simulate", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["verify", "--grid-mu", "100"], "grid_mu must be >= 101, got 100"),
    ],
)
def test_each_rule_exits_3_with_its_one_line(argv, message, background, tmp_path, capsys):
    if argv[0] in ("llr", "decide"):
        argv = [*argv, "--background", background, "--score", "1.0"]
    if argv[0] == "simulate":
        argv = [*argv, "--out-dir", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv", [["llr"], ["decide", "--pi1", "0.5"], ["lr-distribution", "--trials", "5"]]
)
def test_overflowing_score_prints_only_the_error_line(argv, background):
    """The non-finite log-LR is rejected with exit 3, and numpy's overflow
    warnings, which would only precede that line, are not printed."""
    if argv[0] != "lr-distribution":
        argv = [*argv, "--background", background]
    env = dict(os.environ, PYTHONPATH=str(Path(bayescal.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "bayescal.cli", *argv, "--score", "1e200"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["llr", "decide"])
@pytest.mark.parametrize(
    "score, message",
    [("nan", "score must be finite, got nan"), ("inf", "score must be finite, got inf"),
     ("-inf", "score must be finite, got -inf"),
     # a finite score whose log-LR overflows: the result is at fault
     ("1e308", "log-LR must be finite, got nan")],
)
def test_non_finite_score_is_blamed_on_the_score(command, score, message, background, capsys):
    extra = ["--pi1", "0.5"] if command == "decide" else []
    code, out, err = run_cli(
        capsys, command, "--background", background, f"--score={score}", *extra
    )
    assert (code, out) == (3, "")
    assert err == f"error: {message}\n"


class TestVerifyCommand:
    QUICK = [
        "verify", "--posteriors", "2", "--e-points", "3", "--joint-cases", "1",
        "--theta-samples", "40", "--theta-datasets", "1", "--pitfall-trials", "8",
        "--grid-mu", "301", "--grid-lambda", "301",
    ]

    def test_quick_suite_passes_and_reports(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, *self.QUICK, "--report", str(report_path))
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["predictive_closed_form_vs_quadrature"]["value"] < 1e-6
        assert json.loads(report_path.read_text()) == payload

    def test_rerun_is_byte_identical(self, capsys):
        args = [*self.QUICK, "--grid-mu", "101", "--grid-lambda", "101", "--seed", "7"]
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_report_to_unwritable_path_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code, _, err = run_cli(capsys, *self.QUICK, "--report", str(blocker / "r.json"))
        assert code == 4

    @pytest.mark.parametrize(
        "flag, name, value",
        [
            ("--posteriors", "n_posteriors", "0"),
            ("--posteriors", "n_posteriors", "-3"),
            ("--e-points", "n_e", "0"),
            ("--joint-cases", "n_joint_cases", "0"),
            ("--theta-samples", "n_theta_samples", "0"),
            ("--theta-datasets", "n_theta_datasets", "0"),
            ("--pitfall-trials", "n_pitfall_trials", "0"),
        ],
    )
    def test_sweep_size_below_one_exits_3(self, flag, name, value, capsys):
        code, out, err = run_cli(capsys, *self.QUICK, flag, value)
        assert (code, out) == (3, "")
        assert err == f"error: {name} must be >= 1, got {value}\n"

    @pytest.mark.parametrize("flag", ["--lambda-quantile-eps", "--mu-halfwidth"])
    def test_removed_flag_exits_2(self, flag, capsys):
        with pytest.raises(SystemExit) as info:
            main([*self.QUICK, flag, "8"])
        assert info.value.code == 2

    def test_even_grid_passes(self, capsys):
        code, out, _ = run_cli(capsys, *self.QUICK, "--grid-mu", "102", "--grid-lambda", "102")
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_reports_every_check_and_spec_field(self, capsys):
        code, out, _ = run_cli(capsys, *self.QUICK)
        assert code == 0
        payload = json.loads(out)
        assert [c["name"] for c in payload["checks"]] == [
            "predictive_closed_form_vs_quadrature",
            "joint_evidence_route_vs_predictive_route",
            "empty_evidence_normalization",
            "grid_convergence",
            "lambda_tail_convergence",
            "plugin_plus_correction_identity",
            "peak_only_posterior_tail_divergence",
            "peak_only_posterior_divergence_shrinks",
        ]
        assert sorted(payload["config"]["quadrature"]) == ["grid_lambda", "grid_mu", "lambda_tail_nats"]

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], {"spec": QuadratureSpec()}),
            (["--seed", "5", "--grid-mu", "301"], {"seed": 5, "spec": QuadratureSpec(grid_mu=301)}),
            (
                ["--posteriors", "2", "--e-points", "3", "--joint-cases", "4",
                 "--theta-samples", "5", "--theta-datasets", "6", "--pitfall-trials", "7",
                 "--grid-lambda", "303"],
                {"n_posteriors": 2, "n_e": 3, "n_joint_cases": 4, "n_theta_samples": 5,
                 "n_theta_datasets": 6, "n_pitfall_trials": 7,
                 "spec": QuadratureSpec(grid_lambda=303)},
            ),
        ],
    )
    def test_flags_not_given_keep_library_defaults(self, flags, expected, monkeypatch, capsys):
        calls = []

        def fake_suite(**kwargs):
            calls.append(kwargs)
            return VerificationReport(checks=(), config={})

        monkeypatch.setattr(bayescal.verification, "run_verification_suite", fake_suite)
        code, _, _ = run_cli(capsys, "verify", *flags)
        assert code == 0
        assert calls == [expected]


class TestSimulateCommand:
    SMALL_CONFIG = {
        "experiment": {
            "n1": 9, "n2": 27, "trials": 4, "n_test_per_class": 300, "seed": 7,
            "prior_grid": [-4.0, -2.0, 0.0, 2.0, 4.0],
        },
        "confidence": {"sizes": [[9, 27]], "trials": 2, "n_test_per_class": 100, "seed": 3},
    }

    def _write_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.SMALL_CONFIG))
        return str(cfg)

    def test_writes_all_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", self._write_config(tmp_path),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        curve = (out_dir / "curve.csv").read_text().splitlines()
        assert curve[0].split(",")[:3] == ["prior_log_odds", "prior_log10_odds", "error_plugin"]
        assert len(curve) == 1 + 5  # header + grid points
        confidence = (out_dir / "confidence.csv").read_text().splitlines()
        assert len(confidence) == 1 + 4  # one size, two methods x two hypotheses
        meta = json.loads((out_dir / "run_meta.json").read_text())
        assert meta["experiment"]["n1"] == 9
        assert meta["degenerate_trials"] == 0
        assert meta["trials_used"] == 4

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(capsys, "simulate", "--config", cfg, "--out-dir", str(out_a))[0] == 0
        assert run_cli(capsys, "simulate", "--config", cfg, "--out-dir", str(out_b))[0] == 0
        for name in ("curve.csv", "confidence.csv", "run_meta.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_prior_log_odds_beyond_exp_range(self, tmp_path, capsys):
        # exp(1000) overflows a float; pi1 = exp(-1000) rounds to 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": {"trials": 3, "prior_grid": [-1000.0, 0.0]}}))
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out-dir", str(out_dir))
        assert code == 0, err
        rows = list(csv.DictReader((out_dir / "curve.csv").read_text().splitlines()))
        assert float(rows[0]["prior_log_odds"]) == -1000.0
        assert float(rows[0]["error_prior_only"]) == 0.0
        assert float(rows[1]["error_prior_only"]) == 0.5

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", self._write_config(tmp_path),
            "--out-dir", str(out_dir), "--trials", "2", "--seed", "9",
        )
        assert code == 0
        meta = json.loads((out_dir / "run_meta.json").read_text())
        assert meta["experiment"]["trials"] == 2
        assert meta["experiment"]["seed"] == 9
        assert meta["trials_used"] == 2

    def test_bundled_fig1_config_produces_41_curve_rows(self, tmp_path, capsys):
        """The bundled config's default grid has 41 points; trials are cut
        down via flag overrides to keep this a contract check, not a rerun."""
        out_dir = tmp_path / "out"
        cfg = REPO_ROOT / "configs" / "fig1.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out-dir", str(out_dir), "--trials", "2",
        )
        assert code == 0
        curve = (out_dir / "curve.csv").read_text().splitlines()
        assert len(curve) == 1 + 41

    def test_ignored_test_set_size_is_not_echoed(self, tmp_path, capsys):
        # SMALL_CONFIG sets n_test_per_class in both sections, as older files do
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", self._write_config(tmp_path),
            "--out-dir", str(out_dir),
        )
        assert code == 0
        meta = json.loads((out_dir / "run_meta.json").read_text())
        assert "n_test_per_class" not in meta["experiment"]
        assert "n_test_per_class" not in meta["confidence"]

    def test_n_test_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--out-dir", str(tmp_path / "out"), "--n-test", "100"])
        assert info.value.code == 2

    @pytest.mark.parametrize("value", [0, -3, 2.5, "many"])
    def test_experiment_test_set_size_is_still_checked(self, value, tmp_path, capsys):
        experiment = {**self.SMALL_CONFIG["experiment"], "n_test_per_class": value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.SMALL_CONFIG, "experiment": experiment}))
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")
        )
        assert (code, out) == (3, "")
        assert "n_test_per_class" in err and err.count("\n") == 1

    def test_overflowing_test_law_prints_only_the_error_line(self, tmp_path):
        """Rates that are not finite are rejected with exit 3 before any file
        is written, and numpy's overflow warnings are not printed."""
        env = dict(os.environ, PYTHONPATH=str(Path(bayescal.__file__).resolve().parents[1]))
        out_dir = tmp_path / "out"
        done = subprocess.run(
            [sys.executable, "-m", "bayescal.cli", "simulate", "--config",
             str(REPO_ROOT / "configs" / "fig1.json"), "--shift-scale", "1e300",
             "--trials", "5", "--out-dir", str(out_dir)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (3, "")
        assert done.stderr == "error: error_plugin must be finite, got nan\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "shift_scale, code, err",
        [("1e5", 0, ""), ("1e150", 0, ""),
         ("1e153", 3, "error: error_plugin must be finite, got nan\n")],
    )
    def test_test_law_far_wider_than_the_backgrounds(
        self, shift_scale, code, err, tmp_path, capsys
    ):
        """The error curve's crossings converge however wide the test law,
        and the confidence run's spread of means near 1e300 is finite; at
        1e153 the error rates overflow and are refused."""
        got = run_cli(
            capsys, "simulate", "--shift-scale", shift_scale, "--trials", "20",
            "--out-dir", str(tmp_path / "out"),
        )
        assert (got[0], got[2]) == (code, err)

    def test_confidence_test_set_below_one_exits_3(self, tmp_path, capsys):
        confidence = {**self.SMALL_CONFIG["confidence"], "n_test_per_class": 0}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**self.SMALL_CONFIG, "confidence": confidence}))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out-dir", str(out_dir))
        assert (code, out) == (3, "")
        assert err == "error: n_test_per_class must be >= 1, got 0\n"
        assert not out_dir.exists()

    def test_unwritable_out_dir_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        code, _, _ = run_cli(
            capsys, "simulate", "--config", self._write_config(tmp_path),
            "--out-dir", str(blocker / "sub"),
        )
        assert code == 4

    def test_unconverged_solve_exits_3_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        """A crossing solve still moving at its step cap raises
        ConvergenceError, which exits 3 with its one line before any output
        is written. No Newton step at all stands in for a world whose solve
        does not converge."""
        monkeypatch.setattr(bayescal.experiment, "_NEWTON_STEPS", 0)
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "simulate", "--out-dir", str(out_dir), "--trials", "3")
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "after 0 Newton steps" in err
        assert list(tmp_path.iterdir()) == []


class TestLrDistributionCommand:
    def test_output_contract(self, capsys):
        code, out, _ = run_cli(
            capsys, "lr-distribution", "--score", "6.0", "--n1", "9", "--n2", "27",
            "--trials", "40", "--seed", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"mu", "sigma", "bayes_log_lr_per_trial"}
        assert len(payload["bayes_log_lr_per_trial"]) == 40
        assert payload["generator"]["mu1_true"] == 2.0
        # the printed mean is the mean of the printed list, bit for bit
        assert payload["mean_bayes_log_lr"] == float(np.mean(payload["bayes_log_lr_per_trial"]))

    def test_rerun_identical_stdout(self, capsys):
        args = ["lr-distribution", "--score", "4.0", "--trials", "10", "--seed", "3"]
        _, out_a, _ = run_cli(capsys, *args)
        _, out_b, _ = run_cli(capsys, *args)
        assert out_a == out_b

    def test_generator_flag_validation(self, capsys):
        code, _, err = run_cli(
            capsys, "lr-distribution", "--score", "1.0", "--gen-sigma1", "0.0",
            "--trials", "10", "--seed", "0",
        )
        assert code == 3

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_score_is_blamed_on_the_score(self, score, capsys):
        # as llr does: the input is at fault, not a result computed from it
        code, out, err = run_cli(capsys, "lr-distribution", f"--score={score}", "--trials", "5")
        assert (code, out) == (3, "")
        assert err == f"error: score must be finite, got {score}\n"

    @pytest.mark.parametrize("score", ["1e154", "1e200"])
    def test_non_finite_result_exits_3(self, score, capsys):
        # as llr does: a log-LR or summary that overflows is an error, never
        # a bare NaN or Infinity in the JSON
        code, out, err = run_cli(
            capsys, "lr-distribution", "--score", score, "--trials", "5", "--seed", "0"
        )
        assert code == 3
        assert out == ""
        assert "not finite" in err

    def test_finite_up_to_about_1e152_at_the_default_trials(self, capsys):
        """The plugin log-LRs at score 1e150, of order 1e299, have a finite
        mu and sigma; at 1e153 their mean overflows, and the refusal shows
        both summaries as plain floats."""
        code, out, _ = run_cli(capsys, "lr-distribution", "--score", "1e150")
        assert code == 0
        payload = json.loads(out)
        assert payload["mu"] == pytest.approx(-2.12884e299, rel=1e-5)
        assert payload["sigma"] == pytest.approx(7.75938e299, rel=1e-5)
        code, out, err = run_cli(capsys, "lr-distribution", "--score", "1e153")
        assert (code, out) == (3, "")
        assert re.fullmatch(
            r"error: log-LRs at score 1e\+153 are not finite: mu=-inf, sigma=\d\.\d+e\+305\n", err
        )


class TestFlagsReachLibrary:
    """Each flag's dest is the config key it sets; the library is called with
    the resolved values, and a flag not given leaves the default in place."""

    @staticmethod
    def _record(monkeypatch, name, result=None):
        """Replace ``bayescal.experiment.<name>``, which the CLI calls, by a
        recorder of its bound arguments that returns ``result``, or the real
        function's result if None."""
        real = getattr(bayescal.experiment, name)
        calls = []

        def recorder(*args, **kwargs):
            calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
            return real(*args, **kwargs) if result is None else result

        monkeypatch.setattr(bayescal.experiment, name, recorder)
        return calls

    def test_simulate_flags_reach_experiment_not_confidence(self, tmp_path, monkeypatch, capsys):
        experiments = self._record(monkeypatch, "run_experiment")
        confidences = self._record(monkeypatch, "confidence_curve")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TestSimulateCommand.SMALL_CONFIG))
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out"),
            "--trials", "3", "--gen-mu2", "-1", "--variance-floor", "1e-4", "--beta", "0.5",
            "--seed", "11",
        )
        assert code == 0
        [run], [conf] = experiments, confidences
        prior = NormalGammaParams(0.0, 0.5, 0.01, 0.01)
        assert run["exp"].trials == 3 and run["exp"].seed == 11
        assert run["gen"] == GeneratorConfig(mu2_true=-1.0)
        assert (run["prior"], run["variance_floor"]) == (prior, 1e-4)
        assert conf["gen"] == GeneratorConfig(mu2_true=-1.0)
        assert (conf["prior"], conf["variance_floor"]) == (prior, 1e-4)
        # --seed and --trials set the experiment's; the confidence section keeps its own
        assert (conf["seed"], conf["trials"]) == (3, 2)

    @pytest.mark.parametrize(
        "confidence, message",
        [
            ({"sizes": [[9, 27], [1, 9]]}, "n1 must be >= 2, got 1"),
            ({"sizes": [[9, 1]]}, "n2 must be >= 2, got 1"),
            ({"sizes": []}, "sizes must not be empty"),
            ({"trials": 1}, "trials must be >= 2, got 1"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"n_test_per_class": 0}, "n_test_per_class must be >= 1, got 0"),
        ],
        ids=["size-1x9", "size-9x1", "no-sizes", "trials-1", "seed-negative", "n_test-0"],
    )
    def test_bad_confidence_section_exits_3_before_the_curve(
        self, confidence, message, tmp_path, monkeypatch, capsys
    ):
        experiments = self._record(monkeypatch, "run_experiment")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"confidence": confidence}))
        code, out, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")
        )
        assert (code, out) == (3, "")
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert experiments == []

    def test_lr_distribution_sizes_default_to_simulate_experiment(self, monkeypatch, capsys):
        report = LrDistributionReport(0.0, 0.0, np.zeros(1), np.zeros(1))
        calls = self._record(monkeypatch, "lr_distribution_demo", report)
        code, out, _ = run_cli(capsys, "lr-distribution", "--score", "1.0")
        assert code == 0
        assert calls == [
            {"e": 1.0, "world": GeneratorConfig(), "n1": 9, "n2": 27, "trials": 1000, "seed": 0,
             "prior": NONINFORMATIVE_PRIOR, "variance_floor": DEFAULT_VARIANCE_FLOOR}
        ]
        payload = json.loads(out)
        assert [payload[k] for k in ("n1", "n2", "trials", "seed")] == [9, 27, 1000, 0]
        # the defaults are simulate's experiment defaults, not parser literals
        monkeypatch.setitem(bayescal.cli._EXPERIMENT_DEFAULTS, "trials", 7)
        assert run_cli(capsys, "lr-distribution", "--score", "1.0", "--n2", "5")[0] == 0
        assert (calls[-1]["n2"], calls[-1]["trials"]) == (5, 7)


def test_experiment_defaults_are_the_dataclass_defaults():
    assert bayescal.cli._EXPERIMENT_DEFAULTS == bayescal.asdict(ExperimentConfig())


class TestConfigFile:
    @pytest.mark.parametrize(
        "cfg, named",
        [
            ({"generator": {"mu1_tru": 2.0}}, "generator.mu1_tru"),
            ({"prior": {"alpha": 1.0}}, "prior.alpha"),
            ({"experiment": {"n_test": 5}}, "experiment.n_test"),
            ({"priors": {"a": 1.0}}, "priors"),
            ({"prior": 5}, "prior"),
            ({"confidence": [1, 2]}, "confidence"),
            ({"generator": {"mu1_true": "abc"}}, "generator.mu1_true"),
            ({"variance_floor": "x"}, "variance_floor"),
            ({"experiment": {"prior_grid": 0.0}}, "experiment.prior_grid"),
            ({"confidence": {"sizes": [[9, 27, 3]]}}, "confidence.sizes"),
            ({"experiment": {"trials": True}}, "experiment.trials"),
            ({"generator": {"mu1_true": True}}, "generator.mu1_true"),
            ({"variance_floor": False}, "variance_floor"),
            ({"confidence": {"sizes": [[9, True]]}}, "confidence.sizes"),
        ],
    )
    @pytest.mark.parametrize("command", ["llr", "lr-distribution"])
    def test_malformed_config_exits_3_naming_the_key(
        self, cfg, named, command, tmp_path, background, capsys
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = {"llr": ["llr", "--background", background], "lr-distribution":
                ["lr-distribution", "--trials", "5"]}[command]
        code, out, err = run_cli(capsys, *argv, "--score", "1.0", "--config", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {path}: {named}:")

    @pytest.mark.parametrize(
        "cfg, named, shown",
        [
            ({"experiment": {"trials": 2.5}}, "experiment.trials", "2.5"),
            ({"experiment": {"n1": 9.7}}, "experiment.n1", "9.7"),
            ({"confidence": {"seed": 1.5}}, "confidence.seed", "1.5"),
            ({"confidence": {"sizes": [[9, 27.5]]}}, "confidence.sizes", "[[9, 27.5]]"),
        ],
    )
    def test_fraction_in_integer_field_exits_3(
        self, cfg, named, shown, tmp_path, background, capsys
    ):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(
            capsys, "llr", "--background", background, "--score", "1.0", "--config", str(path)
        )
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {path}: {named}: expected ")
        assert err.rstrip().endswith(f"got {shown}")

    def test_boolean_is_not_a_number(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": {"trials": True}}))
        code, out, err = run_cli(capsys, "lr-distribution", "--score", "1.0", "--config", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: {path}: experiment.trials: expected an integer, got true\n"

    @pytest.mark.parametrize(
        "cfg, expected",
        [
            ({"prior": {"mu0": "0.5"}}, 'prior.mu0: expected a number, got "0.5"'),
            ({"experiment": {"trials": "7"}}, 'experiment.trials: expected an integer, got "7"'),
            ({"variance_floor": "1e-6"}, 'variance_floor: expected a number, got "1e-6"'),
        ],
    )
    def test_numeric_string_is_not_a_number(self, cfg, expected, tmp_path, background, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(
            capsys, "llr", "--background", background, "--score", "1.0", "--config", str(path)
        )
        assert (code, out) == (3, "")
        assert err == f"error: {path}: {expected}\n"

    def test_integral_float_in_integer_field_runs(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(TestSimulateCommand.SMALL_CONFIG))
        cfg["experiment"]["trials"] = 4.0
        cfg["confidence"]["sizes"] = [[9.0, 27]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "simulate", "--config", str(path), "--out-dir", str(out_dir)
        )
        assert code == 0
        meta = json.loads((out_dir / "run_meta.json").read_text())
        assert meta["experiment"]["trials"] == 4 and isinstance(meta["experiment"]["trials"], int)
        assert meta["confidence"]["sizes"] == [[9, 27]]
        assert meta["trials_used"] + meta["degenerate_trials"] == 4

    def test_integer_literals_echo_as_floats(self, tmp_path, background, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"prior": {"a": 5}, "variance_floor": 1}))
        code, out, _ = run_cli(
            capsys, "llr", "--background", background, "--score", "1.0", "--config", str(path)
        )
        assert code == 0
        payload = json.loads(out)
        assert isinstance(payload["prior"]["a"], float) and payload["prior"]["a"] == 5.0
        assert isinstance(payload["variance_floor"], float)

    def test_null_values_keep_defaults(self, tmp_path, background, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"prior": {"a": None}, "variance_floor": None}))
        code, out, _ = run_cli(
            capsys, "llr", "--background", background, "--score", "1.0", "--config", str(path)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["prior"]["a"] == 0.01
        assert payload["variance_floor"] == DEFAULT_VARIANCE_FLOOR

    UNREAD_SECTIONS = {
        "generator": ({"sigma1_true": -1}, "sigma1_true must be finite and > 0, got -1.0"),
        "experiment": ({"trials": 0}, "trials must be >= 1, got 0"),
        "confidence": ({"sizes": [[1, 9]]}, "n1 must be >= 2, got 1"),
    }

    @pytest.mark.parametrize(
        "command, section",
        [(c, s) for s in UNREAD_SECTIONS for c in ("llr", "decide", "lr-distribution")
         if (c, s) != ("lr-distribution", "generator")],
    )
    def test_every_command_refuses_an_invalid_unread_section(
        self, command, section, tmp_path, background, capsys
    ):
        """Every command builds every section's record, so a value that
        breaks its record's rule exits 3 even in a section the command does
        not read (``lr-distribution`` reads the generator's)."""
        given, message = self.UNREAD_SECTIONS[section]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({section: given}))
        argv = {"llr": ["llr", "--background", background],
                "decide": ["decide", "--background", background, "--pi1", "0.5"],
                "lr-distribution": ["lr-distribution"]}[command]
        code, out, err = run_cli(capsys, *argv, "--score", "1.0", "--config", str(path))
        assert (code, out) == (3, "")
        assert err == f"error: {message}\n"


class TestTopLevel:
    def test_no_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_invalid_config_json_exits_2(self, tmp_path, background, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, _ = run_cli(
            capsys, "llr", "--background", background, "--score", "1.0",
            "--config", str(cfg),
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--background", "--config"])
    def test_unreadable_input_exits_4(self, flag, tmp_path, background, capsys):
        argv = {"--background": background, "--score": "1.0", flag: str(tmp_path / "missing")}
        code, _, err = run_cli(capsys, "llr", *[x for kv in argv.items() for x in kv])
        assert code == 4
        assert "missing" in err


#: what the load-state child reports at each checkpoint: whether each module is loaded
PROBED_MODULES = ("numpy._core", "numpy.ma", "numpy.polynomial", "scipy", "dataclasses",
                  "inspect", "bayescal._hermite_table", "bayescal._erfc")


@pytest.fixture(scope="module")
def load_states(tmp_path_factory):
    """Run every command in one fresh process and record what it has loaded
    at four checkpoints: after ``import bayescal`` and two ``ExperimentConfig``s
    (one with the default grid, one with a given grid), after ``import
    bayescal.cli``, after ``llr`` and ``decide`` (every method, with and without
    a config file), and after ``simulate``, ``verify`` and ``lr-distribution``.
    At each, every ``PROBED_MODULES`` entry maps to whether it is loaded, and
    ``ran`` to whether the ``experiment`` and ``verification`` bodies have run:
    until then each is still LazyLoader's module type, which becomes
    ``types.ModuleType`` when the body has run. Returns the checkpoints by
    name and the exit codes of the ``cases`` and the ``later`` commands."""
    tmp_path = tmp_path_factory.mktemp("load_states")
    background = tmp_path / "bg.csv"
    background.write_text(SYMMETRIC_CSV)
    cfg = tmp_path / "cfg.json"
    config = {**TestSimulateCommand.SMALL_CONFIG, "prior": {"mu0": 0.5}, "variance_floor": 1e-6}
    cfg.write_text(json.dumps(config))
    common = ["--background", str(background), "--score", "1.0"]
    cases = []
    for config in ([], ["--config", str(cfg)]):
        cases += [["llr", *common, "--method", m, *config] for m in ("plugin", "bayes", "both")]
        cases += [["decide", *common, "--pi1", "0.3", "--method", m, *config]
                  for m in ("plugin", "bayes")]
    later = [
        ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
        TestVerifyCommand.QUICK,
        ["lr-distribution", "--score", "1.0", "--trials", "5"],
    ]
    script = (
        "import contextlib, io, json, sys, types\n"
        "def loaded():\n"
        f"    state = {{m: m in sys.modules for m in {PROBED_MODULES!r}}}\n"
        "    state['ran'] = [type(sys.modules[f'bayescal.{m}']) is types.ModuleType\n"
        "                    for m in ('experiment', 'verification')]\n"
        "    return state\n"
        "import bayescal\n"
        "bayescal.ExperimentConfig()\n"
        "bayescal.ExperimentConfig(prior_grid=[-1, 0.5])\n"
        "states = {'import': loaded()}\n"
        "import bayescal.cli\n"
        "states['cli'] = loaded()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = {{'cases': [bayescal.cli.main(argv) for argv in {cases!r}]}}\n"
        "    states['cases'] = loaded()\n"
        f"    codes['later'] = [bayescal.cli.main(argv) for argv in {later!r}]\n"
        "    states['later'] = loaded()\n"
        "print(json.dumps([states, codes]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bayescal.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _load_states(load_states, probe):
    """``probe`` of the state after ``import bayescal``, the ``llr``/``decide``
    exit codes, ``probe`` of the state after them, the later exit codes and
    ``probe`` of the state at the end."""
    states, codes = load_states
    return [probe(states["import"]), codes["cases"], probe(states["cases"]), codes["later"],
            probe(states["later"])]


def test_no_command_loads_scipy(load_states):
    """bayescal needs numpy and the standard library only: no command loads scipy."""
    states, codes = load_states
    assert codes["cases"] + codes["later"] == [0] * 13
    assert [state["scipy"] for state in states.values()] == [False] * 4


def test_llr_and_decide_load_no_numpy(load_states):
    """``import bayescal`` binds numpy lazily, and ``llr`` and ``decide``
    compute with ``math``, so none of them loads ``numpy._core``, whatever
    the method and with or without a config file. ``simulate``, ``verify``
    and ``lr-distribution`` then load numpy and exit 0."""
    states = _load_states(load_states, lambda state: state["numpy._core"])
    assert states == [False, [0] * 10, False, [0, 0, 0], True]


def test_no_command_loads_numpy_ma(load_states):
    """No command loads ``numpy.ma``: ``verify`` takes the pitfall medians by
    sorting, since ``np.median``'s NaN check imports it."""
    states = _load_states(load_states, lambda state: state["numpy.ma"])
    assert states == [False, [0] * 10, False, [0, 0, 0], False]


def test_llr_and_decide_run_no_experiment_or_oracle(load_states):
    """``import bayescal`` and ``import bayescal.cli`` bind ``experiment``
    and ``verification`` lazily, and ``llr`` and ``decide`` read neither, so
    neither module body runs until ``simulate``, ``verify`` or
    ``lr-distribution`` does."""
    states = _load_states(load_states, lambda state: state["ran"])
    assert states == [[False, False], [0] * 10, [False, False], [0, 0, 0], [True, True]]


def test_llr_and_decide_load_no_dataclasses_or_inspect(load_states):
    """The record types are built without ``dataclasses`` (``_record``), so
    ``import bayescal``, ``llr`` and ``decide`` load neither it nor
    ``inspect``, which it imports. The later commands still exit 0; numpy,
    which they load, may import ``inspect`` itself."""
    states = _load_states(
        load_states, lambda state: [state[m] for m in ("dataclasses", "inspect")]
    )
    assert states[:4] == [[False, False], [0] * 10, [False, False], [0, 0, 0]]


def test_experiment_config_loads_no_numpy(load_states):
    """``ExperimentConfig`` checks its prior grid point by point, as Python
    floats, so building one, with the default grid or a given one, loads no
    numpy."""
    states, _ = load_states
    assert states["import"]["numpy._core"] is False


#: sha256 of each output whose bytes must not move. A change that moves one
#: on purpose updates its digest here and names the change in CHANGES.md.
PINNED_OUTPUTS = {
    "fig1 curve.csv": "7f05709dad864171ad334b0f0a24c894cff533a14a581034d4596ea7072721f1",
    "fig1 confidence.csv": "1cd771cdb3fdd563f6790a4bf4dd476281018685cc49c6dec763c78903f7b2ac",
    "fig1 run_meta.json": "b80b121965d8b1ab35209838e599fbfff881135bf078730e9148267659538f5a",
    "fig2 curve.csv": "8f83488b02f4ba626b5661a43b442187f5c2a831e23f1327bbd5488c366a09f3",
    "fig2 confidence.csv": "1cd771cdb3fdd563f6790a4bf4dd476281018685cc49c6dec763c78903f7b2ac",
    "fig2 run_meta.json": "f2f54d306c5432dcd83d14525501c01ed6042babc2994b3615d4c361642990a6",
    "lr-distribution --score 6.0":
        "0daed45d35d6d5504d1a02e04531be3720f53889745f418f1dd315d84e319747",
    "verify": "923b354eb7f566cd9d437d9d33f9d4f73a62b85da0684996ea66c2da502d075a",
    "verify --grid-mu 401 --grid-lambda 401":
        "c286e449b81a6bf081cd7856812d5e0143fc1ab679502f82a7171856ad1d176d",
}


def test_pinned_outputs_keep_their_bytes(tmp_path, capsys):
    """The bundled fig1 and fig2 runs' three files, and the stdout of
    ``lr-distribution`` and of ``verify`` at the default grid and at 401 x 401,
    each hash to its pinned digest."""
    got = {}
    for fig in ("fig1", "fig2"):
        config, out_dir = REPO_ROOT / "configs" / f"{fig}.json", tmp_path / fig
        code, _, err = run_cli(capsys, "simulate", "--config", str(config), "--out-dir", str(out_dir))
        assert code == 0, err
        for name in ("curve.csv", "confidence.csv", "run_meta.json"):
            got[f"{fig} {name}"] = hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
    for argv in (["lr-distribution", "--score", "6.0"], ["verify"],
                 ["verify", "--grid-mu", "401", "--grid-lambda", "401"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        got[" ".join(argv)] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_OUTPUTS


def test_every_public_name_resolves():
    """The names ``bayescal`` binds lazily resolve, each to the object of
    the module that defines it, ``from bayescal import *`` binds all of
    ``__all__``, and ``dir(bayescal)`` lists them."""
    namespace = {}
    exec("from bayescal import *", namespace)
    for name in bayescal.__all__:
        assert namespace[name] is getattr(bayescal, name)
    assert bayescal.run_experiment is bayescal.experiment.run_experiment
    assert bayescal.run_verification_suite is bayescal.verification.run_verification_suite
    assert bayescal.experiment.ExperimentConfig is bayescal.ExperimentConfig
    assert set(bayescal.__all__) <= set(dir(bayescal))
    assert "lazy" not in dir(bayescal)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bayescal.no_such_name


def test_hermite_rule_is_read_from_its_table(load_states):
    """``import bayescal.cli`` loads neither ``numpy.polynomial``, the
    stored Gauss-Hermite table nor the vectorized erfc, and the ``simulate``,
    ``verify`` and ``lr-distribution`` runs, whose confidence means read the
    table and whose error curves take the erfc, still load no
    ``numpy.polynomial``."""
    states, codes = load_states
    modules = ("numpy.polynomial", "bayescal._hermite_table", "bayescal._erfc")
    loaded = [[states[at][m] for m in modules] for at in ("cli", "later")]
    assert [loaded[0], codes["later"][0], loaded[1]] == [[False, False, False], 0, [False, True, True]]


def test_perfbench_tracer_reaches_every_traced_layer(tmp_path, background):
    """``perfbench/tracer.py`` rebinds each name in its ``_layers`` and runs one
    CLI command in-process. Between them, small llr, simulate and verify runs
    exit 0 and call every traced name, so each one resolves and its count
    function reads arguments that exist."""
    tracer = REPO_ROOT / "perfbench" / "tracer.py"
    layers = runpy.run_path(str(tracer))["_layers"](np)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TestSimulateCommand.SMALL_CONFIG))
    runs = [
        ["llr", "--background", background, "--score", "1.0"],
        ["simulate", "--config", str(cfg), "--trials", "3", "--out-dir", str(tmp_path / "out")],
        ["verify", "--grid-mu", "101", "--grid-lambda", "101", "--posteriors", "1",
         "--e-points", "2", "--joint-cases", "1", "--theta-samples", "2",
         "--theta-datasets", "1", "--pitfall-trials", "2"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(bayescal.__file__).resolve().parents[1]))
    called = set()
    for i, argv in enumerate(runs):
        spans_path = tmp_path / f"spans{i}.json"
        done = subprocess.run(
            [sys.executable, str(tracer), str(spans_path), f"t{i}", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, (argv[0], done.stderr)
        trace = json.loads(spans_path.read_text())
        assert set(layers) <= set(trace["names"])
        called |= {trace["names"][span[0]] for span in trace["spans"]}
    assert set(layers) <= called


class TestProcessEntry:
    """``run`` is the process entry point: ``main``, a flush, then ``os._exit``.
    ``main`` stays the in-process API and always returns."""

    # {name: (exit code, argv)}; {bg}, {bad}, {cfg}, {out} and {tmp} are paths
    RUNS = {
        "llr": (0, ["llr", "--background", "{bg}", "--score", "1.0"]),
        "decide": (0, ["decide", "--background", "{bg}", "--score", "1.0", "--pi1", "0.5"]),
        "simulate": (0, ["simulate", "--config", "{cfg}", "--out-dir", "{out}"]),
        "lr-distribution": (0, ["lr-distribution", "--score", "6.0", "--trials", "20", "--seed", "2"]),
        "verify": (0, [*TestVerifyCommand.QUICK, "--report", "{out}/report.json"]),
        "bad-label-row": (2, ["llr", "--background", "{bad}", "--score", "1.0"]),
        "negative-a": (3, ["llr", "--background", "{bg}", "--score", "1.0", "--a", "-1"]),
        "missing-background": (4, ["llr", "--background", "{tmp}/missing.csv", "--score", "1.0"]),
        "argparse-error": (2, ["llr", "--background", "{bg}", "--score", "many"]),
    }

    @staticmethod
    def _argv(name, tmp_path, background):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(TestSimulateCommand.SMALL_CONFIG))
        bad = tmp_path / "bad.csv"
        bad.write_text("label,score\nH1,1.0\nH3,0.5\nH2,0.0\n")
        (tmp_path / "out").mkdir(exist_ok=True)
        paths = {"bg": background, "bad": bad, "cfg": cfg, "out": tmp_path / "out", "tmp": tmp_path}
        return [arg.format(**paths) for arg in TestProcessEntry.RUNS[name][1]]

    @staticmethod
    def _forbid_exit(monkeypatch):
        def _exit(code):
            raise AssertionError(f"os._exit({code}) called in-process")

        monkeypatch.setattr(os, "_exit", _exit)

    @staticmethod
    def _env(**extra):
        env = dict(os.environ, PYTHONPATH=str(Path(bayescal.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        env.update(extra)
        return env

    @pytest.mark.parametrize("name", RUNS)
    def test_process_matches_in_process(self, name, tmp_path, background, monkeypatch, capsys):
        """stdout, stderr, the exit code and every output file of
        ``python -m bayescal.cli`` equal those of ``main`` in-process, and
        ``main`` returns its int exit code without ending the process
        (``perfbench/tracer.py`` writes its spans after it returns)."""
        argv = self._argv(name, tmp_path, background)
        out_dir = tmp_path / "out"
        # argparse wraps its usage line at the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        self._forbid_exit(monkeypatch)
        sides = []
        for in_process in (False, True):
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir()
            if in_process:
                try:
                    code = main(argv)
                    assert type(code) is int
                except SystemExit as exc:
                    assert name == "argparse-error"
                    code = exc.code
                captured = capsys.readouterr()
                stdout, stderr = captured.out, captured.err
            else:
                done = subprocess.run(
                    [sys.executable, "-m", "bayescal.cli", *argv], env=self._env(),
                    capture_output=True, text=True, timeout=120,
                )
                code, stdout, stderr = done.returncode, done.stdout, done.stderr
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            sides.append((code, stdout, stderr, files))
        assert sides[0] == sides[1]
        code, stdout, stderr, files = sides[0]
        assert code == self.RUNS[name][0]
        assert bool(stdout) == (code == 0 and name != "simulate")
        assert bool(stderr) == (code != 0)
        expected = {"simulate": ["confidence.csv", "curve.csv", "run_meta.json"],
                    "verify": ["report.json"]}
        assert list(files) == expected.get(name, [])

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_broken_pipe(self, unbuffered, background):
        """A reader that closed before the child writes: buffered stdout fails
        at the final flush, which the interpreter's ordinary exit reports in
        two lines (no traceback) with status 120; unbuffered stdout fails in
        the write, which exits 4 as any output error does."""
        env = self._env(**({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "bayescal.cli", "llr", "--background", background,
                 "--score", "1.0"],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        broken = f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"
        if unbuffered:
            assert (done.returncode, done.stderr) == (4, f"error: {broken}\n")
        else:
            first, second = done.stderr.splitlines()
            assert first.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")
            assert (done.returncode, second) == (120, f"BrokenPipeError: {broken}")

    def test_both_launchers_call_run(self):
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["bayescal"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is bayescal.cli.run
        source = inspect.getsource(bayescal.cli)
        assert source.endswith('\nif __name__ == "__main__":\n    run()\n')

    def test_run_exits_through_os_exit(self, background, monkeypatch, capsys):
        exits = []
        monkeypatch.setattr(os, "_exit", exits.append)
        bayescal.cli.run(["llr", "--background", background, "--score", "1.0"])
        assert exits == [0]
        assert json.loads(capsys.readouterr().out)["score"] == 1.0

    def test_run_takes_the_ordinary_exit_after_a_failed_flush(self, background, monkeypatch):
        class Closed(io.StringIO):
            def flush(self):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        self._forbid_exit(monkeypatch)
        monkeypatch.setattr(sys, "stdout", Closed())
        with pytest.raises(SystemExit) as info:
            bayescal.cli.run(["llr", "--background", background, "--score", "1.0", "--a", "-1"])
        assert info.value.code == 3

    def test_run_lets_argparse_exit_and_errors_propagate(self, monkeypatch, capsys):
        self._forbid_exit(monkeypatch)
        with pytest.raises(SystemExit) as info:
            bayescal.cli.run(["llr", "--score", "many"])
        assert info.value.code == 2

        def fail(args):
            raise RuntimeError("internal")

        monkeypatch.setattr(bayescal.cli, "cmd_llr", fail)
        with pytest.raises(RuntimeError, match="internal"):
            bayescal.cli.run(["llr", "--background", "x.csv", "--score", "1.0"])
