"""Frozen records: bayescal's value classes behave as frozen dataclasses do,
and no bayescal module imports ``dataclasses``."""

import dataclasses
import math
import re
from array import array
from pathlib import Path

import pytest

import bayescal
from bayescal import (
    BackgroundData,
    GeneratorConfig,
    NormalGammaParams,
    QuadratureSpec,
    ValidationError,
    VerificationReport,
    asdict,
    fields,
    replace,
)
from bayescal._record import record
from bayescal.conjugate import NONINFORMATIVE_PRIOR
from bayescal.verification import CheckResult

CHECKS = (
    CheckResult("predictive", 2e-9, 1e-6, "<=", True),
    CheckResult("divergence", math.nan, 0.5, ">=", False),
)
HASHABLE = [
    NormalGammaParams(0.5, 1.0, 2.0, 3.0),
    BackgroundData([1.0, 2.0], [-1.0]),
    GeneratorConfig(shift_location=1.5),
    QuadratureSpec(grid_lambda=201),
]
RECORDS = [*HASHABLE, VerificationReport(CHECKS, {"seed": 1})]


@pytest.mark.parametrize("obj", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_can_be_neither_assigned_nor_deleted(obj):
    for name in (*fields(obj), "unknown"):
        before = getattr(obj, name, None)
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name, None) is before


@pytest.mark.parametrize("obj", RECORDS, ids=lambda r: type(r).__name__)
def test_equal_fields_give_equal_records(obj):
    twin = type(obj)(*(getattr(obj, n) for n in fields(obj)))
    assert twin is not obj
    assert twin == obj and not twin != obj
    assert replace(obj) == obj
    if obj in HASHABLE:
        assert hash(twin) == hash(obj)
        assert len({obj, twin}) == 1


@pytest.mark.parametrize("obj", HASHABLE, ids=lambda r: type(r).__name__)
def test_another_class_is_never_equal(obj):
    names = fields(obj)
    twin_class = record(type("Twin", (), {"__annotations__": dict.fromkeys(names, "float")}))
    twin = twin_class(*(getattr(obj, n) for n in names))
    assert twin != obj and obj != twin
    assert obj != asdict(obj)
    assert obj != tuple(getattr(obj, n) for n in names)


def test_a_changed_field_breaks_equality():
    prior = NormalGammaParams(0.5, 1.0, 2.0, 3.0)
    assert replace(prior, b=3.5) != prior
    assert replace(prior, b=3.5) == NormalGammaParams(0.5, 1.0, 2.0, 3.5)


def test_background_stats_are_neither_fields_nor_compared_nor_shown():
    data = BackgroundData([1.0, 2.0], array("d", [-1.0]))
    assert fields(BackgroundData) == ("h1_scores", "h2_scores")
    assert data.h1_stats.n == 2 and data.h2_stats.mean == -1.0
    assert repr(data) == "BackgroundData(h1_scores=(1.0, 2.0), h2_scores=(-1.0,))"
    assert asdict(data) == {"h1_scores": (1.0, 2.0), "h2_scores": (-1.0,)}
    assert data == BackgroundData((1, 2), [-1])
    with pytest.raises(TypeError):
        BackgroundData([1.0], [2.0], h1_stats=data.h1_stats)


def test_repr_is_the_dataclass_repr():
    assert repr(NONINFORMATIVE_PRIOR) == "NormalGammaParams(mu0=0.0, beta=0.01, a=0.01, b=0.01)"
    names = fields(GeneratorConfig)
    annotations = dict.fromkeys(names, float)
    defaults = {n: getattr(GeneratorConfig, n) for n in names}
    standard = dataclasses.dataclass(frozen=True)(
        type("GeneratorConfig", (), {"__annotations__": annotations, **defaults})
    )
    for changes in ({}, {"mu1_true": 3.25, "shift_scale": 1e-300}):
        assert repr(replace(GeneratorConfig(), **changes)) == repr(standard(**changes))


def test_init_takes_fields_by_position_or_keyword_with_defaults():
    assert QuadratureSpec(50.0, grid_lambda=201) == QuadratureSpec(50.0, 101, 201)
    assert QuadratureSpec() == QuadratureSpec(40.0, 101, 101)
    for args, kwargs in [((1.0, 2.0, 3.0, 4.0, 5.0), {}), ((1.0,), {"mu0": 1.0}),
                         ((1.0, 2.0, 3.0), {}), ((), {"mu0": 0.0, "beta": 1.0, "a": 1.0}),
                         ((0.0, 1.0, 1.0, 1.0), {"c": 1.0})]:
        with pytest.raises(TypeError):
            NormalGammaParams(*args, **kwargs)


def test_replace_validates_anew():
    with pytest.raises(ValidationError, match="^b must be finite and > 0, got 0.0$"):
        replace(NONINFORMATIVE_PRIOR, b=0.0)
    with pytest.raises(ValidationError):
        replace(QuadratureSpec(), grid_mu=100)
    with pytest.raises(TypeError):
        replace(NONINFORMATIVE_PRIOR, c=1.0)


def test_asdict_converts_nested_records():
    report = VerificationReport(CHECKS, {"seed": 1, "quadrature": asdict(QuadratureSpec())})
    converted = asdict(report)
    assert type(converted["checks"]) is tuple
    assert converted["checks"][0] == {
        "name": "predictive", "value": 2e-9, "threshold": 1e-6, "comparison": "<=",
        "passed": True,
    }


def test_verification_report_to_dict():
    spec = QuadratureSpec(grid_mu=201)
    report = VerificationReport(CHECKS, {"seed": 1, "quadrature": asdict(spec)})
    payload = report.to_dict()
    assert payload == {
        "ok": False,
        "checks": [
            {"name": "predictive", "value": 2e-9, "threshold": 1e-6, "comparison": "<=",
             "passed": True},
            {"name": "divergence", "value": None, "threshold": 0.5, "comparison": ">=",
             "passed": False},
        ],
        "config": {"seed": 1, "quadrature": {"lambda_tail_nats": 40.0, "grid_mu": 201,
                                              "grid_lambda": 101}},
    }
    assert [list(c) for c in payload["checks"]] == [list(fields(CheckResult))] * 2
    assert math.isnan(report.checks[1].value)


def test_no_module_imports_dataclasses():
    for path in Path(bayescal.__file__).parent.glob("*.py"):
        assert not re.search(r"^(import|from) dataclasses", path.read_text(), re.M), path.name
