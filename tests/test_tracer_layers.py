"""The traced benchmark run rebinds bayescal functions by name.

``perfbench/tracer.py`` looks each name of its ``_layers`` up in its
``bayescal`` module and binds the oracles' ``spec`` argument to count
quadrature nodes; its count functions read the results' trial fields. A
rename would break only ``--trace 1`` runs, so it is caught here. The
tracer's source is read and executed in a namespace of its own; nothing is
written next to it.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from bayescal import verification

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves(tracer):
    names = list(tracer["_layers"](np))
    assert names
    for name in names:
        module_name, attr = name.split(".")
        module = importlib.import_module(f"bayescal.{module_name}")
        assert callable(getattr(module, attr, None)), name


@pytest.mark.parametrize("oracle", ["quadrature_predictive", "quadrature_joint_evidence"])
def test_oracles_keep_their_spec_parameter(oracle):
    assert "spec" in inspect.signature(getattr(verification, oracle)).parameters


def test_work_counts_on_real_results(tracer, tmp_path):
    """Each count function, applied to a tiny real call, counts its work, so a
    change to the fields or parameters it reads fails here and not only in a
    traced run."""
    from bayescal import ExperimentConfig, GeneratorConfig, NormalGammaParams

    background = tmp_path / "bg.csv"
    background.write_text("label,score\nH1,0.0\nH1,2.0\nH2,-2.0\nH2,0.0\n")
    posterior = NormalGammaParams(0.0, 2.0, 3.0, 2.0)
    calls = {
        "experiment.run_experiment": ((GeneratorConfig(), ExperimentConfig(trials=3)), [3, 3]),
        "experiment.confidence_curve": ((GeneratorConfig(), [(9, 27), (30, 405)], 3, 0), [6]),
        "verification.quadrature_predictive": ((posterior, 0.5), [10201]),
        "scores.load_background_csv": ((background,), [4]),
    }
    layers = tracer["_layers"](np)
    for name, (args, counts) in calls.items():
        module_name, attr = name.split(".")
        fn = getattr(importlib.import_module(f"bayescal.{module_name}"), attr)
        assert layers[name](fn, args, {}, fn(*args)) == counts, name
