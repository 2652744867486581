"""The per-layer benchmarks import private names of ``bayescal.experiment``.

``benchmarks/bench_oracles.py`` sits outside ``testpaths``, so a rename of
a name it imports would break it without any test failing. Collecting it in
a fresh interpreter imports it and builds every case, without timing any;
no bytecode or cache is written next to it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def test_bench_oracles_collects():
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         "benchmarks/bench_oracles.py"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "bench_oracles.py::" in done.stdout
