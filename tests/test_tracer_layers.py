"""The traced benchmark run rebinds bayescal functions by name.

``perfbench/tracer.py`` looks each name of its ``_layers`` up in its
``bayescal`` module and binds the oracles' ``spec`` argument to count
quadrature nodes. A rename would break only ``--trace 1`` runs, so it is
caught here. The tracer's source is read and executed in a namespace of its
own; nothing is written next to it.
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
