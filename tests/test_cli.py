"""End-to-end CLI behavior: outputs, exit codes, and reproducibility."""

import csv
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bayescal
import bayescal.cli
from bayescal import GeneratorConfig, LrDistributionReport, NormalGammaParams
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

    def test_plugin_precondition_exits_3(self, tmp_path, capsys):
        f = tmp_path / "bg.csv"
        f.write_text("label,score\nH1,1.0\nH2,0.0\nH2,1.0\n")
        code, _, err = run_cli(
            capsys, "llr", "--background", str(f), "--score", "1.0", "--method", "plugin"
        )
        assert code == 3
        assert "insufficient data" in err

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
        (["lr-distribution", "--score", "1", "--shift-location", "inf"],
         "shift_location must be finite, got inf"),
        (["lr-distribution", "--score", "1", "--trials", "1"], "trials must be >= 2, got 1"),
        (["simulate", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["verify", "--mu-halfwidth", "0"], "mu_halfwidth_sds must be finite and > 0, got 0.0"),
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

    @pytest.mark.parametrize(
        "flags, expected",
        [
            ([], {"spec": QuadratureSpec()}),
            (["--seed", "5", "--grid-mu", "301"], {"seed": 5, "spec": QuadratureSpec(grid_mu=301)}),
            (
                ["--posteriors", "2", "--e-points", "3", "--joint-cases", "4",
                 "--theta-samples", "5", "--theta-datasets", "6", "--pitfall-trials", "7",
                 "--mu-halfwidth", "8", "--lambda-quantile-eps", "1e-9",
                 "--grid-lambda", "303"],
                {"n_posteriors": 2, "n_e": 3, "n_joint_cases": 4, "n_theta_samples": 5,
                 "n_theta_datasets": 6, "n_pitfall_trials": 7,
                 "spec": QuadratureSpec(8.0, 1e-9, 2001, 303)},
            ),
        ],
    )
    def test_flags_not_given_keep_library_defaults(self, flags, expected, monkeypatch, capsys):
        calls = []

        def fake_suite(**kwargs):
            calls.append(kwargs)
            return VerificationReport(checks=(), config={})

        monkeypatch.setattr(bayescal.cli, "run_verification_suite", fake_suite)
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

    @pytest.mark.parametrize("score", ["1e150", "1e200"])
    def test_non_finite_result_exits_3(self, score, capsys):
        # as llr does: a log-LR or summary that overflows is an error, never
        # a bare NaN or Infinity in the JSON
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(
                capsys, "lr-distribution", "--score", score, "--trials", "5", "--seed", "0"
            )
        assert code == 3
        assert out == ""
        assert "not finite" in err


class TestFlagsReachLibrary:
    """Each flag's dest is the config key it sets; the library is called with
    the resolved values, and a flag not given leaves the default in place."""

    @staticmethod
    def _record(monkeypatch, name, result=None):
        """Replace ``bayescal.cli.<name>`` by a recorder of its bound arguments
        that returns ``result``, or the real function's result if None."""
        real = getattr(bayescal.cli, name)
        calls = []

        def recorder(*args, **kwargs):
            calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
            return real(*args, **kwargs) if result is None else result

        monkeypatch.setattr(bayescal.cli, name, recorder)
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
            ({"sizes": [[9, 27], [1, 9]]}, "every trial at size (1, 9) is degenerate"),
            ({"sizes": [[9, 1]]}, "every trial at size (9, 1) is degenerate"),
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


def test_scoring_commands_load_no_scipy(tmp_path, background):
    """Only the quadrature oracles need scipy; scoring runs without loading it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(TestSimulateCommand.SMALL_CONFIG))
    runs = [
        ["llr", "--background", background, "--score", "1.0"],
        ["decide", "--background", background, "--score", "1.0", "--pi1", "0.5"],
        ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "out")],
        ["lr-distribution", "--score", "1.0", "--trials", "5"],
    ]
    script = (
        "import contextlib, io, json, sys\n"
        "import bayescal.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [bayescal.cli.main(argv) for argv in {runs!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bayescal.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    codes, scipy_modules = json.loads(done.stdout)
    assert codes == [0, 0, 0, 0]
    assert scipy_modules == []
