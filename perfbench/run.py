#!/usr/bin/env python3
"""Closed-loop benchmark of the bayescal command line.

    python3 perfbench/run.py --workload casework --seed 1 --seconds 25 --trace 0

One client starts one ``python -m bayescal.cli`` process at a time and waits
for it to exit (closed loop, one client, sequential). The inputs are made
from ``--seed``; every output is checked against a reference computed here,
and a failed check is counted, never fatal. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced units of
work (see ``tracer.py``) and reports the per-layer metrics plus the tracing
overhead. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. README.md in this
directory lists every metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"

#: A run stops starting work this long after it began, so it exits in time.
HARD_LIMIT_S = 160.0
SETUP_ARGS = ["-c", "import bayescal.cli"]
#: The reference job: a fresh interpreter loading the numpy and scipy that
#: bayescal loads, but no bayescal code. On a shared host the speed of one
#: core drifts by tens of percent within minutes, and it slows this job as it
#: slows the CLI. So each timed call is divided by the median reference wall
#: time measured just before and after it, and each setup sample by the one
#: just before it. Times are reported as that ratio times REF_NOMINAL_S, the
#: reference time on a quiet host.
REF_ARGS = ["-c", "import numpy, scipy.special"]
REF_NOMINAL_S = 0.30
#: workload: (reference samples between two timed calls, setup samples per
#: reference sample), chosen so that a run gets 9 to 16 setup samples.
PAIRING = {"casework": (1, 0.34), "simulate": (1, 1.0), "verify": (3, 1.0)}
LN10 = math.log(10.0)

# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """The environment of every child: source on the path, one BLAS thread."""
    env = dict(os.environ)
    # bytecode caches must be written, as they are for an installed user
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


class Child(NamedTuple):
    wall: float  # seconds from spawn to exit
    rc: int
    stdout: str
    stderr: str
    peak_rss_kb: int


class Runner:
    """Runs children one at a time and keeps the run inside its time limit."""

    def __init__(self, work: Path) -> None:
        self.env = child_env()
        self.work = work
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def run(self, args: list[str]) -> Child:
        """Run ``python ARGS`` to its end; ``wait4`` gives its own peak RSS."""
        timeout = max(1.0, HARD_LIMIT_S + 15.0 - self.elapsed())
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(errors="replace")
        if proc.returncode == -signal.SIGKILL:
            stderr += f"\nkilled after {timeout:.0f} s"
        return Child(wall, proc.returncode, out_path.read_text(errors="replace"), stderr,
                     usage.ru_maxrss)


# ---------------------------------------------------------------------------
# Workloads. Each builds its inputs from the seed and returns `unit(i)`, the
# i-th unit of work: a list of (cli args, check) pairs. check(stdout) runs
# after a call that exited 0 and returns the problems found in its output,
# none when it is right. Unit 0 is the untimed warm-up; only its first call
# runs.
# ---------------------------------------------------------------------------

#: (n1, n2) of the casework background files: 36, 435, 4350 and 55000 rows.
CASE_SIZES = ((9, 27), (30, 405), (300, 4050), (5000, 50000))
#: Trial scores per file and cycle. The 55k-row file gets two, so its six calls
#: are 40% of a 15-call cycle: p50 falls among the small-file calls and p75
#: among the 55k-row calls, each a few ranks away from the boundary.
CASE_SCORES_PER_FILE = (1, 1, 1, 2)
PRIOR = {"mu0": 0.0, "beta": 0.01, "a": 0.01, "b": 0.01}
VARIANCE_FLOOR = 1e-12
LLR_TOL = 1e-9


def _reference_llrs(h1, h2, e: float) -> dict:
    """Plugin and Bayesian log-LRs from the raw scores, through scipy.stats."""
    from scipy import stats

    def moments(x):
        n = len(x)
        mean = math.fsum(x) / n
        return n, mean, math.fsum((v - mean) ** 2 for v in x)

    plugin = bayes = 0.0
    for sign, scores in ((1.0, h1), (-1.0, h2)):
        n, mean, ssd = moments(scores)
        plugin += sign * stats.norm.logpdf(e, mean, math.sqrt(max(ssd / n, VARIANCE_FLOOR)))
        beta_n = PRIOR["beta"] + n
        mu_n = (PRIOR["beta"] * PRIOR["mu0"] + n * mean) / beta_n
        a_n = PRIOR["a"] + 0.5 * n
        b_n = PRIOR["b"] + 0.5 * ssd + PRIOR["beta"] * n * (mean - PRIOR["mu0"]) ** 2 / (2 * beta_n)
        scale = math.sqrt(b_n * (beta_n + 1.0) / (a_n * beta_n))
        bayes += sign * stats.t.logpdf(e, 2.0 * a_n, mu_n, scale)
    return {"plugin": float(plugin), "bayes": float(bayes)}


def _check_llr(doc: dict, method: str, key: str, ref: dict, problems: list[str]) -> float:
    ln, log10 = doc[f"log_lr{key}"], doc[f"log10_lr{key}"]
    if not abs(ln - ref[method]) <= LLR_TOL:
        problems.append(f"{method} log-LR {ln!r} differs from reference {ref[method]!r}")
    if not math.isclose(log10, ln / LN10, rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"log10 {log10!r} is not ln/ln10 of {ln!r}")
    return ln


def casework(seed: int, work: Path):
    import numpy as np

    rng = np.random.default_rng(seed)
    cycle = []
    for (n1, n2), n_scores in zip(CASE_SIZES, CASE_SCORES_PER_FILE):
        h1 = rng.normal(rng.uniform(1.0, 3.0), rng.uniform(0.5, 1.5), n1)
        h2 = rng.normal(rng.uniform(-3.0, -1.0), rng.uniform(0.5, 1.5), n2)
        labels = np.array(["H1"] * n1 + ["H2"] * n2)
        order = rng.permutation(n1 + n2)
        path = work / f"background-{n1 + n2}.csv"
        with open(path, "w", newline="") as fh:
            fh.write("label,score\n")
            fh.writelines(f"{lab},{val!r}\n" for lab, val in zip(labels[order], np.concatenate([h1, h2])[order].tolist()))
        # repr round-trips, so these are exactly the values in the file
        h1, h2 = h1.tolist(), h2.tolist()
        for _ in range(n_scores):
            e = float(rng.uniform(-4.0, 4.0))
            pi1 = float(rng.uniform(0.05, 0.95))
            cost = float(10.0 ** rng.uniform(-2.0, 2.0))
            ref = _reference_llrs(h1, h2, e)
            common = ["--background", str(path), "--score", repr(e)]
            cycle.append((["llr", *common, "--method", "both"], _llr_check(ref, n1, n2)))
            for method in ("bayes", "plugin"):
                args = ["decide", *common, "--method", method, "--pi1", repr(pi1),
                        "--cost-false-convict", repr(cost), "--cost-false-acquit", "1"]
                cycle.append((args, _decide_check(ref, method, pi1, cost)))
    return lambda i: cycle


def _llr_check(ref: dict, n1: int, n2: int):
    def check(stdout: str) -> list[str]:
        doc, problems = json.loads(stdout), []
        if (doc["n1"], doc["n2"]) != (n1, n2):
            problems.append(f"class sizes {(doc['n1'], doc['n2'])} != {(n1, n2)}")
        for method in ("plugin", "bayes"):
            _check_llr(doc, method, f"_{method}", ref, problems)
        return problems

    return check


def _decide_check(ref: dict, method: str, pi1: float, cost: float):
    def check(stdout: str) -> list[str]:
        doc, problems = json.loads(stdout), []
        llr = _check_llr(doc, method, "", ref, problems)
        post, threshold = doc["posterior_log_odds"], doc["threshold_log"]
        if not abs(post - (llr + math.log(pi1) - math.log1p(-pi1))) <= LLR_TOL:
            problems.append(f"posterior log-odds {post!r} is not log-LR + prior log-odds")
        if not math.isclose(threshold, math.log(cost), rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"threshold {threshold!r} is not log({cost!r})")
        if doc["decision"] != ("convict" if post > threshold else "acquit"):
            problems.append(f"decision {doc['decision']!r} disagrees with {post!r} > {threshold!r}")
        return problems

    return check


#: configs/fig1.json with the seeds left to the workload seed.
FIG1 = {
    "generator": {"mu1_true": 2.0, "mu2_true": -2.0, "sigma1_true": 1.0,
                  "sigma2_true": 1.0, "shift_location": 0.0, "shift_scale": 1.0},
    "experiment": {"n1": 9, "n2": 27, "trials": 1000, "n_test_per_class": 10000},
    "confidence": {"sizes": [[9, 27], [30, 405], [300, 4050]], "trials": 200,
                   "n_test_per_class": 2000},
}
#: Bayes error of the true model at equal priors, Phi(-2), and how far a
#: 9/27-score calibration may sit from it at prior log-odds 0.
BAYES_ERROR = 0.5 * math.erfc(2.0 / math.sqrt(2.0))
ERROR_AT_ZERO_TOL = 0.01
SIM_FILES = ("curve.csv", "confidence.csv", "run_meta.json")


def simulate(seed: int, work: Path):
    import numpy as np

    exp_seed, conf_seed = (int(s) for s in np.random.default_rng(seed).integers(0, 2**31, 2))
    config = json.loads(json.dumps(FIG1))
    config["experiment"]["seed"] = exp_seed
    config["confidence"]["seed"] = conf_seed
    config_path = work / "simulate.json"
    config_path.write_text(json.dumps(config, indent=2))
    first_digests: list[dict] = []

    def unit(i: int):
        out = work / f"simulate-{i}"
        return [(["simulate", "--config", str(config_path), "--out-dir", str(out)],
                 lambda stdout: _simulate_check(out, first_digests))]

    return unit


def _simulate_check(out: Path, first_digests: list[dict]) -> list[str]:
    missing = [name for name in SIM_FILES if not (out / name).is_file()]
    if missing:
        return [f"missing {missing}"]
    problems = []
    with open(out / "curve.csv", newline="") as fh:
        curve = list(csv.DictReader(fh))
    if len(curve) != 41:
        problems.append(f"curve.csv has {len(curve)} rows, expected 41")
    for row in curve:
        for col in ("error_plugin", "error_bayes", "error_prior_only"):
            if not 0.0 <= float(row[col]) <= 0.5:
                problems.append(f"{col} {row[col]} outside [0, 0.5]")
    at_zero = [row for row in curve if float(row["prior_log_odds"]) == 0.0]
    if len(at_zero) != 1:
        problems.append("curve.csv has no single row at prior log-odds 0")
    for row in at_zero:
        for col in ("error_plugin", "error_bayes"):
            if not abs(float(row[col]) - BAYES_ERROR) <= ERROR_AT_ZERO_TOL:
                problems.append(f"{col} at prior log-odds 0 is {row[col]}, not within "
                                f"{ERROR_AT_ZERO_TOL} of Phi(-2) = {BAYES_ERROR:.4f}")
    meta = json.loads((out / "run_meta.json").read_text())
    if meta["trials_used"] + meta["degenerate_trials"] != meta["experiment"]["trials"]:
        problems.append("trials_used + degenerate_trials != trials")
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SIM_FILES}
    first_digests[:] = first_digests or [digests]
    if digests != first_digests[0]:
        problems.append("outputs differ from the first run with the same config")
    shutil.rmtree(out, ignore_errors=True)
    return problems


#: ``verify`` at a 401 x 401 quadrature grid with every default sweep count.
VERIFY_GRID = "401"
#: The warm-up: the same code paths at a tenth of a second's work, with the
#: CLI's default seed, on which these small sweeps pass.
VERIFY_WARMUP = ["verify", "--grid-mu", "101", "--grid-lambda", "101", "--posteriors", "2",
                 "--e-points", "3", "--joint-cases", "2", "--theta-samples", "100",
                 "--theta-datasets", "2", "--pitfall-trials", "20"]


def verify(seed: int, work: Path):
    import numpy as np

    verify_seed = int(np.random.default_rng(seed).integers(0, 2**31))
    args = ["verify", "--grid-mu", VERIFY_GRID, "--grid-lambda", VERIFY_GRID, "--seed", str(verify_seed)]

    def check(stdout: str) -> list[str]:
        doc = json.loads(stdout)
        if doc["ok"] is True:
            return []
        return [f"verification failed: {[c['name'] for c in doc['checks'] if not c['passed']]}"]

    return lambda i: [(VERIFY_WARMUP if i == 0 else args, check)]


WORKLOADS = {"casework": casework, "simulate": simulate, "verify": verify}
#: Units a run completes even when --seconds would stop it earlier: three
#: 15-call casework cycles give 45 calls, at least 10 of them beyond p75.
MIN_UNITS = 3

# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one unit of work
# ---------------------------------------------------------------------------


class Layers:
    """Busy time, self time, calls and counts per span name, over span files."""

    def __init__(self, span_paths) -> None:
        self.busy = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(lambda: defaultdict(int))
        for path in span_paths:
            if not path.is_file():
                continue  # the call was killed; it already counts as failed
            doc = json.loads(path.read_text())
            spans = doc["spans"]
            covered = [0] * len(spans)
            for _, start, end, parent, _ in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for i, (name_i, start, end, _, counts) in enumerate(spans):
                name = doc["names"][name_i]
                self.busy[name] += end - start
                self.self_ns[name] += end - start - covered[i]
                self.calls[name] += 1
                for k, c in enumerate(counts):
                    self.counts[name][k] += c

    def ms(self, name: str) -> float:
        return self.busy[name] / 1e6

    def per_count(self, name: str, ns_per_unit: float) -> float:
        total = self.counts[name][0]
        return self.busy[name] / ns_per_unit / total if total else 0.0

    def per_call(self, name: str, ns_per_unit: float) -> float:
        calls = self.calls[name]
        return self.busy[name] / ns_per_unit / calls if calls else 0.0


def _frac(num: int, den: int) -> float:
    return num / den if den else 0.0


#: (metric, unit, value from Layers). Times are per unit of work: one
#: casework cycle of 15 calls, or one simulate or verify run.
PER_LAYER = [
    ("import.bayescal.ms_per_call", "ms/call", lambda a: a.per_call("import.bayescal", 1e6)),
    ("cli.main.self_ms", "ms", lambda a: a.self_ns["cli.main"] / 1e6),
    ("scores.load_background_csv.busy_ms", "ms", lambda a: a.ms("scores.load_background_csv")),
    ("scores.load_background_csv.us_per_row", "us/row",
     lambda a: a.per_count("scores.load_background_csv", 1e3)),
    ("scores.BackgroundData.busy_ms", "ms", lambda a: a.ms("scores.BackgroundData")),
    ("scores.collect_stats.calls", "count", lambda a: a.calls["scores.collect_stats"]),
    ("scores.collect_stats.busy_ms", "ms", lambda a: a.ms("scores.collect_stats")),
    ("scores.fit_plugin.busy_ms", "ms", lambda a: a.ms("scores.fit_plugin")),
    ("conjugate.posterior_update.calls", "count", lambda a: a.calls["conjugate.posterior_update"]),
    ("conjugate.posterior_update.busy_ms", "ms", lambda a: a.ms("conjugate.posterior_update")),
    ("conjugate.normal_gamma_log_density.calls", "count",
     lambda a: a.calls["conjugate.normal_gamma_log_density"]),
    ("conjugate.normal_gamma_log_density.busy_ms", "ms",
     lambda a: a.ms("conjugate.normal_gamma_log_density")),
    ("conjugate.student_t_log_density.scores", "count",
     lambda a: a.counts["conjugate.student_t_log_density"][0]),
    ("conjugate.student_t_log_density.ns_per_score", "ns/score",
     lambda a: a.per_count("conjugate.student_t_log_density", 1.0)),
    ("conjugate.sample_params.busy_ms", "ms", lambda a: a.ms("conjugate.sample_params")),
    ("lr.bayes_log_lr_array.ns_per_score", "ns/score",
     lambda a: a.per_count("lr.bayes_log_lr_array", 1.0)),
    ("lr.plugin_log_lr_array.ns_per_score", "ns/score",
     lambda a: a.per_count("lr.plugin_log_lr_array", 1.0)),
    ("lr.class_predictives.us_per_call", "us/call", lambda a: a.per_call("lr.class_predictives", 1e3)),
    ("lr.decomposition_residual.calls", "count", lambda a: a.calls["lr.decomposition_residual"]),
    ("lr.decomposition_residual.us_per_call", "us/call",
     lambda a: a.per_call("lr.decomposition_residual", 1e3)),
    ("lr.bayes_log_lr.us_per_call", "us/call", lambda a: a.per_call("lr.bayes_log_lr", 1e3)),
    ("lr.plugin_log_lr.us_per_call", "us/call", lambda a: a.per_call("lr.plugin_log_lr", 1e3)),
    ("synthetic.generate_scores.scores", "count", lambda a: a.counts["synthetic.generate_scores"][0]),
    ("synthetic.generate_scores.ns_per_score", "ns/score",
     lambda a: a.per_count("synthetic.generate_scores", 1.0)),
    ("synthetic.generate_scores.busy_ms", "ms", lambda a: a.ms("synthetic.generate_scores")),
    ("experiment.run_experiment.self_ms", "ms", lambda a: a.self_ns["experiment.run_experiment"] / 1e6),
    ("experiment.run_experiment.ms_per_trial", "ms/trial",
     lambda a: a.per_count("experiment.run_experiment", 1e6)),
    ("experiment.confidence_curve.self_ms", "ms",
     lambda a: a.self_ns["experiment.confidence_curve"] / 1e6),
    ("experiment.confidence_curve.ms_per_trial", "ms/trial",
     lambda a: a.per_count("experiment.confidence_curve", 1e6)),
    ("experiment.trials_used_frac", "ratio",
     lambda a: _frac(a.counts["experiment.run_experiment"][1], a.counts["experiment.run_experiment"][0])),
    ("verification.quadrature_predictive.calls", "count",
     lambda a: a.calls["verification.quadrature_predictive"]),
    ("verification.quadrature_predictive.ms_per_call", "ms/call",
     lambda a: a.per_call("verification.quadrature_predictive", 1e6)),
    ("verification.quadrature_joint_evidence.calls", "count",
     lambda a: a.calls["verification.quadrature_joint_evidence"]),
    ("verification.quadrature_joint_evidence.ms_per_call", "ms/call",
     lambda a: a.per_call("verification.quadrature_joint_evidence", 1e6)),
    ("verification.quadrature.nodes", "count",
     lambda a: a.counts["verification.quadrature_predictive"][0]
     + a.counts["verification.quadrature_joint_evidence"][0]),
    # computed, not measured: one float64 integrand value per quadrature node
    ("verification.quadrature.bytes_computed", "B",
     lambda a: 8 * (a.counts["verification.quadrature_predictive"][0]
                    + a.counts["verification.quadrature_joint_evidence"][0])),
    ("verification.predictive_oracle_sweep.busy_s", "s",
     lambda a: a.busy["verification.predictive_oracle_sweep"] / 1e9),
    ("verification.joint_evidence_sweep.busy_s", "s",
     lambda a: a.busy["verification.joint_evidence_sweep"] / 1e9),
    ("verification.decomposition_sweep.busy_s", "s",
     lambda a: a.busy["verification.decomposition_sweep"] / 1e9),
    ("verification.pitfall_divergence.busy_s", "s",
     lambda a: a.busy["verification.pitfall_divergence"] / 1e9),
]
#: Tracing overhead: median over calls of traced wall / untraced wall.
TRACE_RATIO = "trace.wall_ratio"

# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


class Tally:
    """Program calls attempted and failed, and their peak RSS.

    A failure is reported, never raised.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0

    def call(self, runner: Runner, args: list[str], check) -> float:
        wall, rc, stdout, stderr, rss_kb = runner.run(args)
        self.attempted += 1
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        try:
            problems = check(stdout) if rc == 0 else [f"exit code {rc}"]
        except (KeyError, TypeError, ValueError, OSError) as exc:
            problems = [f"output check raised {exc!r}"]
        if problems:
            self.failed += 1
            print(f"FAILED {' '.join(args[:3])}: {'; '.join(problems)}", file=sys.stderr)
            if stderr.strip():
                print(stderr.strip()[-2000:], file=sys.stderr)
        return wall


def _median_of_dicts(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def _environment(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass  # no git
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": commit,
    }


def run(workload: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    runner = Runner(work)
    tally = Tally()
    unit = WORKLOADS[workload](seed, work)
    refs_per_call, setups_per_ref = PAIRING[workload]
    scaled_calls: list[float] = []  # call wall / adjacent reference wall
    scaled_setup: list[float] = []  # setup wall / the reference just before it
    raw_calls: list[float] = []
    raw_setup: list[float] = []
    setups_owed = 0.0

    def references() -> list[float]:
        """Reference walls, each followed by a setup sample when one is due."""
        nonlocal setups_owed
        refs = []
        for _ in range(refs_per_call):
            ref, rc, _, stderr, _ = runner.run(REF_ARGS)
            if rc != 0:
                raise RuntimeError(f"reference job failed: {stderr.strip()[-500:]}")
            refs.append(ref)
            setups_owed += setups_per_ref
            if setups_owed >= 1.0:
                setups_owed -= 1.0
                raw_setup.append(tally.call(runner, SETUP_ARGS, lambda stdout: []))
                scaled_setup.append(raw_setup[-1] / ref)
        return refs

    refs_before: list[float] = []

    def timed(wall: float) -> None:
        """Scale one timed call by the reference samples just before and after it."""
        nonlocal refs_before
        refs_after = references()
        raw_calls.append(wall)
        scaled_calls.append(wall / statistics.median(refs_before + refs_after))
        refs_before = refs_after

    def cli(args: list[str]) -> list[str]:
        return ["-m", "bayescal.cli", *args]

    # untimed warm-up: the first call writes the bytecode caches
    args, check = unit(0)[0]
    tally.call(runner, cli(args), check)

    timed_from = runner.elapsed()
    i = 0
    if not trace:
        refs_before = references()
        while runner.elapsed() < HARD_LIMIT_S and (
            i < MIN_UNITS or runner.elapsed() - timed_from < seconds
        ):
            i += 1
            for args, check in unit(i):
                timed(tally.call(runner, cli(args), check))
        q = statistics.quantiles(scaled_calls, n=4, method="inclusive")
        q_raw = statistics.quantiles(raw_calls, n=4, method="inclusive")
        metrics = {
            "setup_s": (REF_NOMINAL_S * statistics.median(scaled_setup), "s"),
            "call_ms_p50": (1e3 * REF_NOMINAL_S * q[1], "ms"),
            "call_ms_p75": (1e3 * REF_NOMINAL_S * q[2], "ms"),
            "peak_rss_mb": (tally.peak_rss_kb / 1024.0, "MB"),
        }
        print(f"# {len(raw_calls)} timed calls in {i} units of work, {len(raw_setup)} setup "
              f"samples; unscaled setup_s {statistics.median(raw_setup):.4f} s, call p50 "
              f"{1e3 * q_raw[1]:.2f} ms, call p75 {1e3 * q_raw[2]:.2f} ms")
    else:
        # each call runs untraced, then traced right after it, so the pair
        # sees the same host speed and their ratio is the tracing overhead
        overhead, layers = [], []
        while i < 1 or (runner.elapsed() - timed_from < seconds and runner.elapsed() < HARD_LIMIT_S):
            i += 1
            span_paths = []
            for j, (args, check) in enumerate(unit(i)):
                plain = tally.call(runner, cli(args), check)
                span_paths.append(work / f"spans-{i}-{j}.json")
                tracer_args = [str(HERE / "tracer.py"), str(span_paths[-1]), f"{workload}-{seed}-{i}-{j}"]
                overhead.append(tally.call(runner, tracer_args + args, check) / plain)
            layers.append({name: float(fn(Layers(span_paths))) for name, _, fn in PER_LAYER})
            for path in span_paths:
                path.unlink(missing_ok=True)
        units = {name: unit_ for name, unit_, _ in PER_LAYER}
        metrics = {name: (value, units[name]) for name, value in _median_of_dicts(layers).items()}
        metrics[TRACE_RATIO] = (statistics.median(overhead), "ratio")
        print(f"# {i} traced units of work, {len(overhead)} traced and untraced call pairs")

    frac = tally.failed / tally.attempted
    print(f"# ops_failed_frac {frac:.6g} ({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit_) in metrics.items():
        print(f"{name:<55} {value:>16.6f} {unit_}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_} for name, (value, unit_) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "bayescal" / "cli.py").is_file():
        print(f"error: no bayescal source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = _environment(args.workload, args.seed, args.seconds, args.trace)
    print("# environment " + json.dumps(env, sort_keys=True))
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
