"""Timings of the quadrature oracle and the decomposition sweep.

    PYTHONPATH=src python -m pytest benchmarks/bench_oracles.py \
        --benchmark-json BENCH_oracles.json

Outside ``testpaths``, so the test suite never runs it. Uses pytest-benchmark.
"""

import pytest

from bayescal import NormalGammaParams, QuadratureSpec, quadrature_predictive
from bayescal.verification import decomposition_sweep

# a small-n posterior like the oracle sweep draws, probed two scales out
POSTERIOR = NormalGammaParams(-1.2, 12.0, 6.5, 9.0)


@pytest.mark.parametrize("grid", [401, 1201])
def test_quadrature_predictive(benchmark, grid):
    spec = QuadratureSpec(grid_mu=grid, grid_lambda=grid)
    benchmark(quadrature_predictive, POSTERIOR, 0.5, spec)


def test_decomposition_sweep(benchmark):
    benchmark(decomposition_sweep)
