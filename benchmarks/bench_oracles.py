"""Per-layer timings: CSV ingestion, background summary and fit, resampling
trials, the quadrature oracle, the decomposition sweep and the peak-only
pitfall.

    PYTHONPATH=src python -m pytest benchmarks/bench_oracles.py \
        --benchmark-json BENCH_oracles.json

Cases:

- ``load_background_csv`` on a 55 000-row file (5 000 H1, 50 000 H2 scores);
- ``BackgroundData`` + ``fit_plugin`` + ``class_predictives`` on fresh draws
  at 9/27 and at 300/4 050 scores per class, the smallest and largest
  background of the fig1 confidence experiment;
- the full fig1 ``run_experiment`` (1 000 trials of a 9/27 background, exact
  error rates at 41 prior log-odds points);
- the full fig1 ``confidence_curve`` (200 trials at each of 9/27, 30/405 and
  300/4 050, exact mean log-LRs);
- one ``quadrature_predictive`` at 401^2 and 1201^2, and one
  ``quadrature_joint_evidence`` of 9 scores plus a trial score at 401^2
  (repeated calls: the gamma quantiles come from the cache after the first);
- ``predictive_oracle_sweep(50, 17)`` at 401^2, as ``verify`` runs it there;
- ``decomposition_sweep()`` at its defaults;
- ``lr_distribution_demo`` at score 6.0 with the ``lr-distribution`` defaults
  (1 000 trials of a 9/27 background);
- ``pitfall_divergence(200)``, as ``verify`` runs it.

Outside ``testpaths``, so the test suite never runs it. Uses pytest-benchmark.
"""

import numpy as np
import pytest

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
    quadrature_joint_evidence,
    quadrature_predictive,
    run_experiment,
)
from bayescal.conjugate import NONINFORMATIVE_PRIOR
from bayescal.verification import decomposition_sweep, pitfall_divergence, predictive_oracle_sweep

# a small-n posterior like the oracle sweep draws, probed two scales out
POSTERIOR = NormalGammaParams(-1.2, 12.0, 6.5, 9.0)
GRID_401 = QuadratureSpec(grid_mu=401, grid_lambda=401)


@pytest.fixture(scope="module")
def csv_55k(tmp_path_factory):
    rng = np.random.default_rng(55_000)
    path = tmp_path_factory.mktemp("csv") / "background.csv"
    with open(path, "w") as fh:
        fh.write("label,score\n")
        fh.writelines(f"H1,{v!r}\n" for v in rng.normal(2.0, 1.0, 5_000).tolist())
        fh.writelines(f"H2,{v!r}\n" for v in rng.normal(-2.0, 1.0, 50_000).tolist())
    return path


def test_load_background_csv_55k(benchmark, csv_55k):
    data = benchmark(load_background_csv, csv_55k)
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


def test_run_experiment_fig1(benchmark):
    exp = ExperimentConfig(n1=9, n2=27, trials=1000, seed=101)
    benchmark(run_experiment, GeneratorConfig(), exp)


def test_confidence_curve_fig1(benchmark):
    sizes = [(9, 27), (30, 405), (300, 4050)]
    benchmark(confidence_curve, GeneratorConfig(), sizes, trials=200, seed=42)


@pytest.mark.parametrize("grid", [401, 1201])
def test_quadrature_predictive(benchmark, grid):
    spec = QuadratureSpec(grid_mu=grid, grid_lambda=grid)
    benchmark(quadrature_predictive, POSTERIOR, 0.5, spec)


def test_quadrature_joint_evidence_401(benchmark):
    scores = (-0.3, 1.9, 0.4, 2.2, -1.1, 0.8, 1.5, 0.2, 1.1)
    benchmark(quadrature_joint_evidence, NONINFORMATIVE_PRIOR, scores, 2.5, GRID_401)


def test_predictive_oracle_sweep_401(benchmark):
    benchmark.pedantic(predictive_oracle_sweep, (50, 17), {"spec": GRID_401}, rounds=5)


def test_decomposition_sweep(benchmark):
    benchmark(decomposition_sweep)


def test_lr_distribution_demo_fig1(benchmark):
    benchmark(lr_distribution_demo, 6.0, GeneratorConfig(), 9, 27, 1000, 0)


def test_pitfall_divergence_200(benchmark):
    benchmark(pitfall_divergence, 200)
