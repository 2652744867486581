"""Per-layer timings: CSV ingestion, background summary and fit, the
resampling layer, resampling trials, the quadrature oracle, the
decomposition sweep, the peak-only pitfall and a whole CLI process.

    python -m pytest benchmarks/bench_oracles.py --benchmark-json BENCH_oracles.json

Cases:

- ``load_background_csv`` on a 55 000-row file (5 000 H1, 50 000 H2 scores);
- ``BackgroundData`` on that file's two classes, as ``array('d')``
  (``plain``) and as numpy arrays (``numpy``), both summarized by the one
  correctly rounded route, numpy already loaded;
- ``BackgroundData`` + ``fit_plugin`` + ``class_predictives`` on fresh draws
  at 9/27 and at 300/4 050 scores per class, the smallest and largest
  background of the fig1 confidence experiment;
- ``_calibrated_blocks``, the resampling layer (each trial's background
  stats drawn, then calibrated both ways), on 1 000 trials of a 9/27
  background, as fig1 ``run_experiment`` reads it, and on 200 trials of a
  300/4 050 background, the largest fig1 confidence size;
- ``_bayes_exceedance`` and ``_plugin_exceedance``, the exact-rate engine, on
  one block of fig1's first 100 trials (9/27, seed 101) at the 41 default
  prior log-odds points;
- ``_upper_tail`` on the crossing offsets of that block's Bayesian log-LR
  under both test laws (about 14 000), as ``_bayes_exceedance`` takes them;
- the full fig1 ``run_experiment`` (1 000 trials of a 9/27 background, exact
  error rates at 41 prior log-odds points);
- ``_hermite_rule``, the 256-node Gauss-Hermite rule that each
  ``confidence_curve`` call takes (after its first call, which imports the
  stored table);
- the full fig1 ``confidence_curve`` (200 trials at each of 9/27, 30/405 and
  300/4 050, exact mean log-LRs);
- one ``quadrature_predictive`` at 401^2 and 1201^2, one at 401^2 with the
  17-point e-grid that the oracle sweep probes for a posterior, one
  ``quadrature_joint_evidence`` of 9 class scores and a trial score at 401^2,
  and one of a block of 7 lists of 10 scores at 401^2, about the size of one
  block call of the joint-evidence sweep;
- ``predictive_oracle_sweep(50, 17)`` and ``joint_evidence_sweep(20)`` at
  401^2, as ``verify`` runs them there;
- ``decomposition_sweep(10_000, 5)``, as ``verify`` runs it;
- ``lr_distribution_demo`` at score 6.0 with the ``lr-distribution`` defaults
  (1 000 trials of a 9/27 background);
- ``pitfall_divergence(200)``, as ``verify`` runs it;
- four fresh processes, 10 rounds each after one warm-up, with one BLAS
  thread: ``python -m bayescal.cli llr`` on a 36-row (9/27) background, the
  casework call whose time is interpreter start, imports, ingestion and
  exit; ``python -m bayescal.cli decide`` on the 55 000-row file, the
  casework call at its 75th percentile, where the class summaries weigh
  most; ``python -c "import bayescal.cli"``, the same start and imports
  ending through the interpreter's ordinary teardown, which ``cli.run``
  skips; and ``python -c "import bayescal"``, the package alone, which
  loads no numpy and runs neither ``experiment`` nor ``verification``.

Outside ``testpaths``, so the test suite never runs it. Uses pytest-benchmark.
"""

import os
import subprocess
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

import bayescal
from bayescal import (
    BackgroundData,
    ExperimentConfig,
    GeneratorConfig,
    Hypothesis,
    NormalGammaParams,
    QuadratureSpec,
    class_predictives,
    confidence_curve,
    fit_plugin,
    generate_scores,
    load_background_csv,
    lr_distribution_demo,
    predictive,
    quadrature_joint_evidence,
    quadrature_predictive,
    run_experiment,
)
from bayescal import experiment
from bayescal.conjugate import NONINFORMATIVE_PRIOR
from bayescal.experiment import (
    DEFAULT_PRIOR_GRID,
    _BlockStats,
    _bayes_exceedance,
    _calibrated_blocks,
    _hermite_rule,
    _plugin_exceedance,
    _upper_tail,
)
from bayescal.scores import DEFAULT_VARIANCE_FLOOR
from bayescal.synthetic import background_stats
from bayescal.verification import (
    decomposition_sweep,
    joint_evidence_sweep,
    pitfall_divergence,
    predictive_oracle_sweep,
)

# a small-n posterior like the oracle sweep draws, probed two scales out
POSTERIOR = NormalGammaParams(-1.2, 12.0, 6.5, 9.0)
GRID_401 = QuadratureSpec(grid_mu=401, grid_lambda=401)
# 8 predictive scales each side, as predictive_oracle_sweep probes a posterior
_PRED = predictive(POSTERIOR)
E_GRID = np.linspace(_PRED.location - 8.0 * _PRED.scale, _PRED.location + 8.0 * _PRED.scale, 17)


@pytest.fixture(scope="module")
def classes_55k():
    rng = np.random.default_rng(55_000)
    return rng.normal(2.0, 1.0, 5_000), rng.normal(-2.0, 1.0, 50_000)


@pytest.fixture(scope="module")
def csv_55k(tmp_path_factory, classes_55k):
    path = tmp_path_factory.mktemp("csv") / "background.csv"
    with open(path, "w") as fh:
        fh.write("label,score\n")
        for label, scores in zip(("H1", "H2"), classes_55k):
            fh.writelines(f"{label},{v!r}\n" for v in scores.tolist())
    return path


def test_load_background_csv_55k(benchmark, csv_55k):
    data = benchmark(load_background_csv, csv_55k)
    assert (data.n1, data.n2) == (5_000, 50_000)


@pytest.mark.parametrize("container", ["plain", "numpy"])
def test_background_data_55k(benchmark, classes_55k, container):
    h1, h2 = (array("d", c.tolist()) if container == "plain" else c for c in classes_55k)
    data = benchmark(BackgroundData, h1, h2)
    assert (data.n1, data.n2) == (5_000, 50_000)


def _summarize_and_fit(h1, h2):
    data = BackgroundData(h1, h2)
    return fit_plugin(data), class_predictives(data, NONINFORMATIVE_PRIOR)


@pytest.mark.parametrize("n1, n2", [(9, 27), (300, 4050)], ids=["9x27", "300x4050"])
def test_background_fit_predictives(benchmark, n1, n2):
    world = GeneratorConfig()
    rng = np.random.default_rng([n1, n2])
    h1 = generate_scores(world, Hypothesis.H1, n1, rng)
    h2 = generate_scores(world, Hypothesis.H2, n2, rng)
    benchmark(_summarize_and_fit, h1, h2)


def _calibrate_all(n1, n2, trials):
    return list(_calibrated_blocks(
        GeneratorConfig(), n1, n2, trials, 42, 0, NONINFORMATIVE_PRIOR, DEFAULT_VARIANCE_FLOOR
    ))


@pytest.mark.parametrize(
    "n1, n2, trials", [(9, 27, 1000), (300, 4050, 200)], ids=["1000x9x27", "200x300x4050"]
)
def test_calibrated_blocks(benchmark, n1, n2, trials):
    blocks = benchmark(_calibrate_all, n1, n2, trials)
    assert sum(theta.mu1.size for theta, _ in blocks) == trials


@pytest.fixture(scope="module")
def fig1_block():
    """Fig1's first 100 trials as one calibrated block, and the test laws."""
    world = GeneratorConfig()
    stats = _BlockStats(*background_stats(world, 9, 27, 100, 101, 0))
    calibration = fit_plugin(stats), class_predictives(stats, NONINFORMATIVE_PRIOR)
    return calibration, [world.test_law(h) for h in Hypothesis]


def test_bayes_exceedance_fig1_block(benchmark, fig1_block):
    (_, preds), laws = fig1_block
    benchmark(_bayes_exceedance, preds, -np.asarray(DEFAULT_PRIOR_GRID), laws)


def test_plugin_exceedance_fig1_block(benchmark, fig1_block):
    (theta, _), laws = fig1_block
    benchmark(_plugin_exceedance, theta, -np.asarray(DEFAULT_PRIOR_GRID), laws)


@pytest.fixture(scope="module")
def fig1_block_offsets(fig1_block):
    """The standardized crossing offsets whose tails ``_bayes_exceedance``
    takes on the fig1 block, both laws' in one 1-D array."""
    (_, preds), laws = fig1_block
    taken = []
    real = experiment._upper_tail
    experiment._upper_tail = lambda z: taken.append(np.ravel(z)) or real(z)
    try:
        _bayes_exceedance(preds, -np.asarray(DEFAULT_PRIOR_GRID), laws)
    finally:
        experiment._upper_tail = real
    return np.concatenate(taken)


def test_upper_tail_fig1_block(benchmark, fig1_block_offsets):
    benchmark(_upper_tail, fig1_block_offsets)


def test_run_experiment_fig1(benchmark):
    exp = ExperimentConfig(n1=9, n2=27, trials=1000, seed=101)
    benchmark(run_experiment, GeneratorConfig(), exp)


def test_hermite_rule(benchmark):
    nodes, weights = benchmark(_hermite_rule)
    assert nodes.size == weights.size == 256


def test_confidence_curve_fig1(benchmark):
    sizes = [(9, 27), (30, 405), (300, 4050)]
    benchmark(confidence_curve, GeneratorConfig(), sizes, trials=200, seed=42)


@pytest.mark.parametrize("grid", [401, 1201])
def test_quadrature_predictive(benchmark, grid):
    spec = QuadratureSpec(grid_mu=grid, grid_lambda=grid)
    benchmark(quadrature_predictive, POSTERIOR, 0.5, spec)


def test_quadrature_predictive_e_grid_401(benchmark):
    benchmark(quadrature_predictive, POSTERIOR, E_GRID, GRID_401)


def test_quadrature_joint_evidence_401(benchmark):
    # nine class scores and the trial score 2.5
    scores = (-0.3, 1.9, 0.4, 2.2, -1.1, 0.8, 1.5, 0.2, 1.1, 2.5)
    benchmark(quadrature_joint_evidence, NONINFORMATIVE_PRIOR, scores, GRID_401)


def test_quadrature_joint_evidence_block_401(benchmark):
    lists = np.random.default_rng(710).normal(1.5, 2.0, size=(7, 10))
    got = benchmark(quadrature_joint_evidence, NONINFORMATIVE_PRIOR, lists, GRID_401)
    assert got.shape == (7,)


def test_predictive_oracle_sweep_401(benchmark):
    benchmark.pedantic(predictive_oracle_sweep, (50, 17), {"spec": GRID_401}, rounds=20)


def test_joint_evidence_sweep_401(benchmark):
    benchmark.pedantic(joint_evidence_sweep, (20,), {"spec": GRID_401}, rounds=20)


def test_decomposition_sweep(benchmark):
    benchmark(decomposition_sweep, 10_000, 5)


def test_lr_distribution_demo_fig1(benchmark):
    benchmark(lr_distribution_demo, 6.0, GeneratorConfig(), 9, 27, 1000, 0)


def test_pitfall_divergence_200(benchmark):
    benchmark(pitfall_divergence, 200)


@pytest.fixture(scope="module")
def csv_36(tmp_path_factory):
    rng = np.random.default_rng(36)
    path = tmp_path_factory.mktemp("csv") / "background.csv"
    with open(path, "w") as fh:
        fh.write("label,score\n")
        fh.writelines(f"H1,{v!r}\n" for v in rng.normal(2.0, 1.0, 9).tolist())
        fh.writelines(f"H2,{v!r}\n" for v in rng.normal(-2.0, 1.0, 27).tolist())
    return path


def _fresh_process(benchmark, *args):
    """Time ``python ARGS`` in a new interpreter on this checkout's source."""
    env = dict(os.environ, PYTHONPATH=str(Path(bayescal.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1")
    benchmark.pedantic(
        subprocess.run, ([sys.executable, *args],),
        {"env": env, "check": True, "stdout": subprocess.DEVNULL}, rounds=10, warmup_rounds=1,
    )


def test_process_llr_36(benchmark, csv_36):
    _fresh_process(benchmark, "-m", "bayescal.cli", "llr", "--background", str(csv_36),
                   "--score", "1.0")


def test_process_decide_55k(benchmark, csv_55k):
    _fresh_process(benchmark, "-m", "bayescal.cli", "decide", "--background", str(csv_55k),
                   "--score", "1.0", "--pi1", "0.3")


def test_process_import_cli(benchmark):
    _fresh_process(benchmark, "-c", "import bayescal.cli")


def test_process_import_bayescal(benchmark):
    """The package alone: it binds numpy, ``experiment`` and ``verification``
    without running them, so this times the modules ``llr`` and ``decide``
    run, apart from ``cli``."""
    _fresh_process(benchmark, "-c", "import bayescal")
