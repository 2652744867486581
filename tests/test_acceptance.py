"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The Monte-Carlo criteria use frozen seeds; the qualitative patterns
they check are stable across seeds (the experiments average 1000 trials),
and the seeds make every number bit-reproducible.
"""

import json
import math
import time

import numpy as np
import pytest

from bayescal import (
    BackgroundData,
    ExperimentConfig,
    GeneratorConfig,
    Hypothesis,
    LrMethod,
    QuadratureSpec,
    bayes_log_lr_array,
    class_predictives,
    confidence_curve,
    fit_plugin,
    generate_scores,
    lr_distribution_demo,
    plugin_log_lr_array,
    run_experiment,
)
from bayescal.conjugate import NONINFORMATIVE_PRIOR
from bayescal.cli import main as cli_main
from bayescal.verification import (
    decomposition_sweep,
    joint_evidence_sweep,
    predictive_oracle_sweep,
)

GEN = GeneratorConfig()  # means +-2, unit sigmas, identity shift

# A grid finer than the 101^2 default, so that the acceptance sweeps also
# reach the oracle at a second resolution, well inside their time budget.
SWEEP_SPEC = QuadratureSpec(grid_mu=1201, grid_lambda=1201)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {num:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


@pytest.fixture(scope="module")
def fig1_curve():
    return run_experiment(GEN, ExperimentConfig(n1=9, n2=27, trials=1000, seed=101))


@pytest.fixture(scope="module")
def fig2_curve():
    return run_experiment(GEN, ExperimentConfig(n1=30, n2=405, trials=1000, seed=101))


def test_criterion_01_oracle_equivalence():
    start = time.time()
    worst = predictive_oracle_sweep(n_posteriors=50, n_e=17, seed=20260810, spec=SWEEP_SPEC)
    elapsed = time.time() - start
    report(
        1,
        "oracle-equivalence",
        worst <= 1e-6 and elapsed < 120.0,
        f"max |log closed - log quadrature| = {worst:.2e} (tol 1e-06), {elapsed:.0f}s",
    )


def test_criterion_02_joint_evidence_route():
    worst = joint_evidence_sweep(n_cases=20, seed=20260810, spec=SWEEP_SPEC)
    report(
        2,
        "joint-evidence-route",
        worst <= 1e-6,
        f"max |llr gap| over 20 cases = {worst:.2e} (tol 1e-06)",
    )


def test_criterion_03_decomposition_identity():
    worst = decomposition_sweep(n_samples=10_000, n_datasets=5, seed=20260810)
    report(
        3,
        "plugin-plus-correction-identity",
        worst < 1e-9,
        f"max |residual| over 10000 sampled thetas = {worst:.2e} (tol 1e-09)",
    )


def test_criterion_04_small_background_error_curves(fig1_curve):
    start = time.time()
    curve = fig1_curve
    elapsed = time.time() - start  # fixture may have been built already
    tail = np.abs(curve.prior_log_odds) >= 4.0
    bayes_no_worse = bool(np.all(curve.error_bayes[tail] <= curve.error_plugin[tail]))
    plugin_exceeds = int(np.sum(curve.error_plugin > curve.error_prior_only))
    bayes_exceeds = int(np.sum(curve.error_bayes > curve.error_prior_only))
    ok = (
        bayes_no_worse
        and plugin_exceeds >= 1
        and bayes_exceeds < plugin_exceeds
        and elapsed < 300.0
    )
    report(
        4,
        "error-curve-9-27",
        ok,
        f"bayes<=plugin at |log-odds|>=4: {bayes_no_worse}; "
        f"baseline exceeded at {plugin_exceeds} (plugin) vs {bayes_exceeds} (bayes) grid points",
    )


def test_criterion_05_gap_closes_with_more_data(fig1_curve, fig2_curve):
    gap_small = float(np.max(fig1_curve.error_plugin - fig1_curve.error_bayes))
    gap_large = float(np.max(fig2_curve.error_plugin - fig2_curve.error_bayes))
    ok = gap_large <= gap_small / 2.0
    report(
        5,
        "gap-closes-30-405",
        ok,
        f"max gap {gap_small:.4f} (9/27) vs {gap_large:.4f} (30/405), "
        f"shrink factor {gap_small / gap_large:.1f}x (need >= 2x)",
    )


def test_criterion_06_confidence_moderation():
    sizes = [(9, 27), (30, 405), (300, 4050)]
    points = confidence_curve(GEN, sizes, trials=200, seed=42)
    bayes_h1 = [
        next(
            p for p in points
            if p.method is LrMethod.BAYESIAN and p.hypothesis is Hypothesis.H1
            and (p.n1, p.n2) == size
        )
        for size in sizes
    ]
    plugin_small = next(
        p for p in points
        if p.method is LrMethod.PLUGIN and p.hypothesis is Hypothesis.H1
        and (p.n1, p.n2) == sizes[0]
    )
    nondecreasing = all(
        nxt.mean_log_lr - cur.mean_log_lr
        >= -2.0 * math.sqrt(cur.stderr**2 + nxt.stderr**2)
        for cur, nxt in zip(bayes_h1, bayes_h1[1:])
    )
    plugin_overconfident = plugin_small.mean_log_lr > bayes_h1[0].mean_log_lr
    means = ", ".join(f"{p.mean_log_lr:.2f}" for p in bayes_h1)
    report(
        6,
        "confidence-vs-data-size",
        nondecreasing and plugin_overconfident,
        f"bayes E[log LR|H1] = [{means}] nondecreasing: {nondecreasing}; "
        f"plugin {plugin_small.mean_log_lr:.2f} > bayes {bayes_h1[0].mean_log_lr:.2f} at (9,27)",
    )


def test_criterion_07_tail_moderation():
    prior = NONINFORMATIVE_PRIOR
    n_per_class, n_datasets = 400, 20
    worst_margin = math.inf
    for d in range(n_datasets):
        rng = np.random.default_rng([0, d])
        data = BackgroundData(
            generate_scores(GEN, Hypothesis.H1, n_per_class, rng),
            generate_scores(GEN, Hypothesis.H2, n_per_class, rng),
        )
        theta = fit_plugin(data)
        pred1, pred2 = class_predictives(data, prior)
        pooled = np.concatenate([data.h1_scores, data.h2_scores])
        std = float(pooled.std())
        hi = float(pooled.max()) + 5.0 * std
        lo = float(pooled.min()) - 5.0 * std
        e = np.concatenate(
            [np.linspace(lo - 3.0 * std, lo, 25), np.linspace(hi, hi + 3.0 * std, 25)]
        )
        margin = float(
            np.min(
                np.abs(plugin_log_lr_array(e, theta))
                - np.abs(bayes_log_lr_array(e, pred1, pred2))
            )
        )
        worst_margin = min(worst_margin, margin)
    report(
        7,
        "tail-moderation",
        worst_margin > 0.0,
        f"min(|plugin llr| - |bayes llr|) beyond range+5sd on {n_datasets} datasets "
        f"= {worst_margin:.2f} nats (need > 0)",
    )


def test_criterion_08_large_n_convergence():
    rng = np.random.default_rng(7)
    n = 10**5
    data = BackgroundData(
        rng.normal(GEN.mu1_true, GEN.sigma1_true, n),
        rng.normal(GEN.mu2_true, GEN.sigma2_true, n),
    )
    theta = fit_plugin(data)
    pred1, pred2 = class_predictives(data, NONINFORMATIVE_PRIOR)
    e = np.linspace(-5.0, 5.0, 201)
    worst = float(
        np.max(np.abs(bayes_log_lr_array(e, pred1, pred2) - plugin_log_lr_array(e, theta)))
    )
    report(
        8,
        "large-n-convergence",
        worst < 0.02,
        f"max |bayes - plugin| over e in +-5 sigma at n=1e5 per class = {worst:.4f} (tol 0.02)",
    )


def test_criterion_09_spread_summary_fallacy():
    trials = 1000
    demo = lr_distribution_demo(6.0, GEN, n1=9, n2=27, trials=trials, seed=3)
    sem = demo.sigma / math.sqrt(trials)
    gap = abs(demo.mu - float(demo.bayes_log_lr_per_trial.mean()))
    report(
        9,
        "spread-summary-fallacy",
        gap > 3.0 * sem,
        f"|mu - mean bayes llr| = {gap:.2f} vs 3 sem = {3 * sem:.2f} "
        f"(mu {demo.mu:.2f}, mean bayes {demo.bayes_log_lr_per_trial.mean():.2f})",
    )


def test_criterion_10_byte_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": {
                    "n1": 9, "n2": 27, "trials": 5, "n_test_per_class": 500, "seed": 13,
                    "prior_grid": [-6.0, -3.0, 0.0, 3.0, 6.0],
                },
                "confidence": {
                    "sizes": [[9, 27]], "trials": 2, "n_test_per_class": 200, "seed": 4,
                },
            }
        )
    )
    bg_path = tmp_path / "bg.csv"
    bg_path.write_text("label,score\nH1,0.0\nH1,2.0\nH2,-2.0\nH2,0.0\n")

    def simulate(out_name):
        out = tmp_path / out_name
        assert cli_main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        capsys.readouterr()
        return {
            name: (out / name).read_bytes()
            for name in ("curve.csv", "confidence.csv", "run_meta.json")
        }

    def stdout_of(argv):
        assert cli_main(argv) == 0
        return capsys.readouterr().out

    sim_same = simulate("a") == simulate("b")
    llr_args = ["llr", "--background", str(bg_path), "--score", "1.25"]
    llr_same = stdout_of(llr_args) == stdout_of(llr_args)
    demo_args = ["lr-distribution", "--score", "5.0", "--trials", "20", "--seed", "6"]
    demo_same = stdout_of(demo_args) == stdout_of(demo_args)
    verify_args = [
        "verify", "--posteriors", "1", "--e-points", "3", "--joint-cases", "1",
        "--theta-samples", "20", "--theta-datasets", "1", "--pitfall-trials", "4",
        "--grid-mu", "301", "--grid-lambda", "301",
    ]
    verify_same = stdout_of(verify_args) == stdout_of(verify_args)

    ok = sim_same and llr_same and demo_same and verify_same
    report(
        10,
        "byte-determinism",
        ok,
        f"simulate {sim_same}, llr {llr_same}, lr-distribution {demo_same}, verify {verify_same}",
    )
