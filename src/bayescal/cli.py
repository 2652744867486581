"""Command-line interface: llr, decide, verify, simulate, lr-distribution.

Structured results go to stdout as JSON (or CSV files for curves); every run
echoes its fully resolved configuration so outputs are regenerable. Config
precedence is flags > config file > built-in defaults.

Exit codes: 0 success, 2 input parsing, 3 validation, precondition or a
solve that did not converge, 4 file I/O (an input that cannot be read or an
output that cannot be written), 5 verification tolerance breach.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path
from typing import NoReturn

from . import __version__, experiment, verification
from ._record import asdict, fields
from .conjugate import NONINFORMATIVE_PRIOR, NormalGammaParams
from .errors import (
    BayescalError, ScoreFileError, ValidationError,
    check_at_least, check_finite, check_positive, check_utf8,
)
from .lr import (
    DecisionPolicy,
    LogLR,
    TrialPrior,
    bayes_log_lr,
    decide,
    plugin_log_lr,
    posterior_log_odds,
)
from .scores import DEFAULT_VARIANCE_FLOOR, fit_plugin, load_background_csv
from .synthetic import ConfidenceConfig, ExperimentConfig, GeneratorConfig

_LOG10 = math.log(10.0)

#: the exit code of each error a command reports; the first kind that matches wins
_EXIT_CODES = {ScoreFileError: 2, BayescalError: 3, OSError: 4}

#: the experiment keys that simulate and lr-distribution also take as flags
_RUN_FLAGS = ("n1", "n2", "trials", "seed")

#: The test-set size the experiment and confidence sections once took. The
#: rates and means are now exact, so no test set is drawn; a config file
#: that still sets it must give an integer >= 1, which is then ignored.
_IGNORED_KEY = "n_test_per_class"

#: each config section's defaults, as its record
_SECTIONS = {"prior": NONINFORMATIVE_PRIOR, "generator": GeneratorConfig(),
             "experiment": ExperimentConfig(), "confidence": ConfidenceConfig()}

# the top level of a config file: one object per section, and the floor
_CONFIG_DEFAULTS = {**{n: asdict(r) for n, r in _SECTIONS.items()},
                    "variance_floor": DEFAULT_VARIANCE_FLOOR}
_EXPERIMENT_DEFAULTS = _CONFIG_DEFAULTS["experiment"]


def _print_json(payload: dict, out=None) -> str:
    """Write ``payload`` as strict JSON (no bare NaN) to ``out`` or stdout; return the text."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    (out or sys.stdout).write(text)
    return text


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScoreFileError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    except UnicodeDecodeError:
        check_utf8(path)
        raise
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    return cfg


def _coerce(default, value):
    """``value`` as the type of ``default``: a section stays an object, a
    tuple is coerced element by element (inner tuples, the pairs, keep the
    default's length), a number is converted; an integer must be integral
    (9.0, not 9.5), and neither a boolean nor a string is a number. Raises
    TypeError, ValueError or OverflowError."""
    if isinstance(default, dict) and isinstance(value, dict):
        return value
    if isinstance(default, tuple) and isinstance(value, (list, tuple)):
        items = tuple(_coerce(default[0], v) for v in value)
        if all(len(v) == len(default[0]) for v in items if isinstance(v, tuple)):
            return items
    if isinstance(default, (int, float)) and type(value) in (int, float):
        number = type(default)(value)
        if isinstance(default, int) and isinstance(value, float) and number != value:
            raise ValueError(value)  # a fraction in an integer field
        return number
    raise TypeError(value)


def _kind(default) -> str:
    """What a config value must be, as its error message names it."""
    if isinstance(default, tuple):
        return "a list of [n1, n2] pairs" if isinstance(default[0], tuple) else "a list of numbers"
    return {dict: "a JSON object", int: "an integer"}.get(type(default), "a number")


def _resolve(defaults: dict, given: dict, flags: dict, where: str) -> dict:
    """``defaults``, overridden by the config-file object ``given``, then by
    the ``flags`` that are not None; each value coerced to its default's type.

    ``where`` prefixes error messages (the file and the section).
    """
    unknown = sorted(given.keys() - defaults.keys())
    if unknown:
        raise ValidationError(
            f"{where}{unknown[0]}: unknown key; expected one of {', '.join(sorted(defaults))}"
        )
    out = dict(defaults)
    for key, value in [*given.items(), *((k, flags.get(k)) for k in defaults)]:
        if value is None:
            continue
        try:
            out[key] = _coerce(defaults[key], value)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(
                f"{where}{key}: expected {_kind(defaults[key])}, got {json.dumps(value)}"
            ) from None
    return out


def _without_ignored_key(name: str, given: dict, where: str) -> dict:
    """Section ``name`` of a config file without ``_IGNORED_KEY``, which the
    experiment and confidence sections may carry as an integer >= 1."""
    if name not in ("experiment", "confidence") or _IGNORED_KEY not in given:
        return given
    given = dict(given)
    ignored = _resolve({_IGNORED_KEY: 1}, {_IGNORED_KEY: given.pop(_IGNORED_KEY)}, {}, where)
    check_at_least(1, **ignored)
    return given


def _configure(args) -> tuple[dict, dict]:
    """Every section and the variance floor: defaults < config file < flags.

    Returns the resolved values, which a command echoes, and each section's
    record, built from them. The whole file is checked, whichever sections
    the command reads: each section's keys and types, its record's rules,
    and the floor. Flag dests are the keys they set; no flag sets
    ``confidence`` (simulate's --seed and --trials are the experiment's).
    """
    where = f"{args.config}: "
    flags = vars(args)
    cfg = _resolve(_CONFIG_DEFAULTS, _load_config(args.config), flags, where)
    for name in _SECTIONS:
        section_flags = {} if name == "confidence" else flags
        given = _without_ignored_key(name, cfg[name], f"{where}{name}.")
        cfg[name] = _resolve(_CONFIG_DEFAULTS[name], given, section_flags, f"{where}{name}.")
    records = {name: type(default)(**cfg[name]) for name, default in _SECTIONS.items()}
    check_positive(variance_floor=cfg["variance_floor"])
    return cfg, records


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu0", type=float, help="prior location")
    p.add_argument("--beta", type=float, help="prior location-precision scaling")
    p.add_argument("--a", type=float, help="prior gamma shape")
    p.add_argument("--b", type=float, help="prior gamma rate")
    p.add_argument("--variance-floor", type=float, help="plugin ML variance floor")
    p.add_argument("--config", help="JSON config file")


def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gen-mu1", type=float, dest="mu1_true", help="true H1 score mean")
    p.add_argument("--gen-mu2", type=float, dest="mu2_true", help="true H2 score mean")
    p.add_argument("--gen-sigma1", type=float, dest="sigma1_true", help="true H1 score std")
    p.add_argument("--gen-sigma2", type=float, dest="sigma2_true", help="true H2 score std")
    p.add_argument("--shift-location", type=float, help="test-set shift offset")
    p.add_argument("--shift-scale", type=float, help="test-set shift scale")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    for name in _RUN_FLAGS:
        p.add_argument(f"--{name}", type=int)


def _log_lr(method: str, score: float, data, prior: NormalGammaParams, floor: float) -> LogLR:
    """The ``method`` ("plugin" or "bayes") log-LR of ``score`` against ``data``."""
    check_finite(score=score)
    if method == "plugin":
        return plugin_log_lr(score, fit_plugin(data, floor))
    return bayes_log_lr(score, data, prior)


def cmd_llr(args) -> int:
    cfg, records = _configure(args)
    data = load_background_csv(args.background)
    payload: dict = {
        "score": float(args.score),
        "method": args.method,
        "n1": data.n1,
        "n2": data.n2,
        "prior": cfg["prior"],
        "variance_floor": cfg["variance_floor"],
    }
    for method in ("plugin", "bayes"):
        if args.method in (method, "both"):
            llr = _log_lr(method, args.score, data, records["prior"], cfg["variance_floor"])
            payload[f"log_lr_{method}"] = llr.value
            payload[f"log10_lr_{method}"] = llr.log10
    _print_json(payload)
    return 0


def cmd_decide(args) -> int:
    cfg, records = _configure(args)
    trial_prior = TrialPrior(args.pi1)
    policy = DecisionPolicy(**_resolve(asdict(DecisionPolicy()), {}, vars(args), ""))
    data = load_background_csv(args.background)
    llr = _log_lr(args.method, args.score, data, records["prior"], cfg["variance_floor"])
    post = posterior_log_odds(llr, trial_prior)
    verdict = decide(post, policy)
    _print_json(
        {
            "score": float(args.score),
            "method": args.method,
            "pi1": trial_prior.pi1,
            "cost_false_convict": policy.cost_false_convict,
            "cost_false_acquit": policy.cost_false_acquit,
            "prior": cfg["prior"],
            "variance_floor": cfg["variance_floor"],
            "log_lr": llr.value,
            "log10_lr": llr.log10,
            "posterior_log_odds": post,
            "threshold_log": policy.log_threshold,
            "decision": verdict.value,
        }
    )
    return 0


def cmd_verify(args) -> int:
    # only the flags given are in ``args``; the rest keep the library defaults
    options = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    report_path = options.pop("report", None)
    spec_fields = options.keys() & fields(verification.QuadratureSpec)
    spec = verification.QuadratureSpec(**{k: options.pop(k) for k in spec_fields})
    report = verification.run_verification_suite(spec=spec, **options)
    text = _print_json(report.to_dict())
    if report_path is not None:
        with open(report_path, "w") as fh:
            fh.write(text)
    return 0 if report.ok else 5


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write ``rows`` under ``header``, each float cell (numpy's too) as its repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in r] for r in rows)


def cmd_simulate(args) -> int:
    cfg, records = _configure(args)
    floor, gen, prior = cfg["variance_floor"], records["generator"], records["prior"]
    curve = experiment.run_experiment(gen, records["experiment"], prior, floor)
    conf = records["confidence"]
    points = experiment.confidence_curve(gen, conf.sizes, conf.trials, conf.seed, prior, floor)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "curve.csv",
        ["prior_log_odds", "prior_log10_odds", "error_plugin", "error_bayes",
         "error_prior_only", "stderr_plugin", "stderr_bayes"],
        zip(curve.prior_log_odds, curve.prior_log_odds / _LOG10, curve.error_plugin,
            curve.error_bayes, curve.error_prior_only, curve.stderr_plugin, curve.stderr_bayes),
    )
    _write_csv(
        out_dir / "confidence.csv",
        ["n1", "n2", "method", "hypothesis", "mean_log_lr", "mean_log10_lr", "stderr"],
        ([p.n1, p.n2, p.method.value, p.hypothesis.value,
          p.mean_log_lr, p.mean_log_lr / _LOG10, p.stderr] for p in points),
    )
    meta = {"version": __version__, **cfg, "trials_used": curve.trials_used,
            "degenerate_trials": curve.degenerate_trials}
    with open(out_dir / "run_meta.json", "w") as fh:
        _print_json(meta, fh)
    return 0


def cmd_lr_distribution(args) -> int:
    cfg, records = _configure(args)
    check_finite(score=args.score)
    # simulate's experiment defaults, then flags; the file's experiment
    # section belongs to simulate alone
    runs = _resolve({k: _EXPERIMENT_DEFAULTS[k] for k in _RUN_FLAGS}, {}, vars(args), "")
    report = experiment.lr_distribution_demo(
        e=args.score,
        world=records["generator"],
        **runs,
        prior=records["prior"],
        variance_floor=cfg["variance_floor"],
    )
    _print_json(
        {
            "score": float(args.score),
            "generator": cfg["generator"],
            "prior": cfg["prior"],
            "variance_floor": cfg["variance_floor"],
            **runs,
            "mu": report.mu,
            "sigma": report.sigma,
            "mean_bayes_log_lr": float(report.bayes_log_lr_per_trial.mean()),
            "bayes_log_lr_per_trial": report.bayes_log_lr_per_trial.tolist(),
        }
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayescal",
        description="Likelihood-ratio calibration for recognizer scores: "
        "plugin and fully Bayesian, with decisions, verification and simulation.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("llr", help="log likelihood-ratio(s) for one score")
    p.add_argument("--background", required=True, help="CSV of labeled scores")
    p.add_argument("--score", type=float, required=True, help="trial score")
    p.add_argument("--method", choices=["plugin", "bayes", "both"], default="both")
    _add_prior_flags(p)
    p.set_defaults(func=cmd_llr)

    p = sub.add_parser("decide", help="posterior-odds Bayes decision for one score")
    p.add_argument("--background", required=True)
    p.add_argument("--score", type=float, required=True)
    p.add_argument("--method", choices=["plugin", "bayes"], default="bayes")
    p.add_argument("--pi1", type=float, required=True, help="prior P(H1), in (0,1)")
    p.add_argument("--cost-false-convict", type=float)
    p.add_argument("--cost-false-acquit", type=float)
    _add_prior_flags(p)
    p.set_defaults(func=cmd_decide)

    # dests are the keyword names of run_verification_suite and QuadratureSpec
    p = sub.add_parser(
        "verify", help="run the quadrature oracle suite", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--report", help="write the JSON report here too")
    p.add_argument("--seed", type=int)
    p.add_argument("--posteriors", type=int, dest="n_posteriors")
    p.add_argument("--e-points", type=int, dest="n_e")
    p.add_argument("--joint-cases", type=int, dest="n_joint_cases")
    p.add_argument("--theta-samples", type=int, dest="n_theta_samples")
    p.add_argument("--theta-datasets", type=int, dest="n_theta_datasets")
    p.add_argument("--pitfall-trials", type=int, dest="n_pitfall_trials")
    p.add_argument("--grid-mu", type=int)
    p.add_argument("--grid-lambda", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="error-rate and confidence experiments")
    p.add_argument("--out-dir", required=True, help="directory for curve.csv etc.")
    _add_run_flags(p)
    _add_generator_flags(p)
    _add_prior_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "lr-distribution",
        help="plugin log-LR spread over resampled backgrounds vs Bayesian log-LR",
    )
    p.add_argument("--score", type=float, required=True)
    _add_run_flags(p)
    _add_generator_flags(p)
    _add_prior_flags(p)
    p.set_defaults(func=cmd_lr_distribution)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


def run(argv=None) -> NoReturn:
    """``main``, then an exit that skips the interpreter's teardown and atexit
    handlers. An exception, argparse's exit or a failed flush exits as usual."""
    code = main(argv)
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
