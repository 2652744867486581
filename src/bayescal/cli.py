"""Command-line interface: llr, decide, verify, simulate, lr-distribution.

Structured results go to stdout as JSON (or CSV files for curves); every run
echoes its fully resolved configuration so outputs are regenerable. Config
precedence is flags > config file > built-in defaults.

Exit codes: 0 success, 2 input parsing, 3 validation or precondition,
4 file I/O (an input that cannot be read or an output that cannot be
written), 5 verification tolerance breach.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .conjugate import NONINFORMATIVE_PRIOR, NormalGammaParams
from .errors import ScoreFileError, ValidationError, check_at_least, check_positive
from .experiment import (
    ExperimentConfig,
    check_confidence,
    confidence_curve,
    lr_distribution_demo,
    run_experiment,
)
from .lr import (
    DecisionPolicy,
    TrialPrior,
    bayes_log_lr,
    decide,
    plugin_log_lr,
    posterior_log_odds,
)
from .scores import DEFAULT_VARIANCE_FLOOR, fit_plugin, load_background_csv
from .synthetic import GeneratorConfig
from .verification import QuadratureSpec, run_verification_suite

_LOG10 = math.log(10.0)

_EXPERIMENT_DEFAULTS = dataclasses.asdict(ExperimentConfig(n1=9, n2=27))

_CONFIDENCE_DEFAULTS = {
    "sizes": [[9, 27], [30, 405], [300, 4050]],
    "trials": 200,
    "seed": 1,
}

#: The test-set size the experiment and confidence sections once took. The
#: rates and means are now exact, so no test set is drawn; a config file
#: that still sets it must give an integer >= 1, which is then ignored.
_IGNORED_KEY = "n_test_per_class"

_SECTIONS = {
    "prior": dataclasses.asdict(NONINFORMATIVE_PRIOR),
    "generator": dataclasses.asdict(GeneratorConfig()),
    "experiment": _EXPERIMENT_DEFAULTS,
    "confidence": _CONFIDENCE_DEFAULTS,
}

# the top level of a config file: one object per section, and the floor
_CONFIG_DEFAULTS = {**_SECTIONS, "variance_floor": DEFAULT_VARIANCE_FLOOR}


def _print_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScoreFileError(path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object")
    return cfg


def _coerce(default, value):
    """``value`` as the type of ``default``: a section stays an object, a
    sequence is coerced element by element (inner lists keep the default's
    length), a number is converted; an integer must be integral (9.0, not
    9.5), and a boolean is not a number. Raises TypeError, ValueError or
    OverflowError."""
    if isinstance(default, dict) and isinstance(value, dict):
        return value
    if isinstance(default, (list, tuple)) and isinstance(value, (list, tuple)):
        items = [_coerce(default[0], v) for v in value]
        if all(len(v) == len(default[0]) for v in items if isinstance(v, list)):
            return type(default)(items)
    if isinstance(default, (int, float)) and not isinstance(value, bool):
        number = type(default)(value)
        if isinstance(default, int) and isinstance(value, float) and number != value:
            raise ValueError(value)  # a fraction in an integer field
        return number
    raise TypeError(value)


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
            kind = {dict: "a JSON object", list: "a list of [n1, n2] pairs",
                    tuple: "a list of numbers", int: "an integer"}
            raise ValidationError(
                f"{where}{key}: expected {kind.get(type(defaults[key]), 'a number')}, "
                f"got {json.dumps(value)}"
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


def _configure(args) -> dict:
    """Every section and the variance floor: defaults < config file < flags.

    The whole file is checked, whichever sections the command reads, and
    so are the prior and the floor, which every command echoes. Flag dests
    are the keys they set; no flag sets ``confidence`` (simulate's --seed
    and --trials are the experiment's).
    """
    where = f"{args.config}: "
    flags = vars(args)
    cfg = _resolve(_CONFIG_DEFAULTS, _load_config(args.config), flags, where)
    for name, defaults in _SECTIONS.items():
        section_flags = {} if name == "confidence" else flags
        given = _without_ignored_key(name, cfg[name], f"{where}{name}.")
        cfg[name] = _resolve(defaults, given, section_flags, f"{where}{name}.")
    NormalGammaParams(**cfg["prior"])
    check_positive(variance_floor=cfg["variance_floor"])
    return cfg


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


def cmd_llr(args) -> int:
    cfg = _configure(args)
    floor = cfg["variance_floor"]
    data = load_background_csv(args.background)
    payload: dict = {
        "score": float(args.score),
        "method": args.method,
        "n1": data.n1,
        "n2": data.n2,
        "prior": cfg["prior"],
        "variance_floor": floor,
    }
    if args.method in ("plugin", "both"):
        llr_p = plugin_log_lr(args.score, fit_plugin(data, floor))
        payload["log_lr_plugin"] = llr_p.value
        payload["log10_lr_plugin"] = llr_p.log10
    if args.method in ("bayes", "both"):
        llr_b = bayes_log_lr(args.score, data, NormalGammaParams(**cfg["prior"]))
        payload["log_lr_bayes"] = llr_b.value
        payload["log10_lr_bayes"] = llr_b.log10
    _print_json(payload)
    return 0


def cmd_decide(args) -> int:
    cfg = _configure(args)
    floor = cfg["variance_floor"]
    trial_prior = TrialPrior(args.pi1)
    policy = DecisionPolicy(**_resolve(dataclasses.asdict(DecisionPolicy()), {}, vars(args), ""))
    data = load_background_csv(args.background)
    if args.method == "plugin":
        llr = plugin_log_lr(args.score, fit_plugin(data, floor))
    else:
        llr = bayes_log_lr(args.score, data, NormalGammaParams(**cfg["prior"]))
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
            "variance_floor": floor,
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
    spec_fields = {f.name for f in dataclasses.fields(QuadratureSpec)}
    spec = QuadratureSpec(**{k: options.pop(k) for k in spec_fields & options.keys()})
    report = run_verification_suite(spec=spec, **options)
    # strict JSON: a failed check's non-finite value is null, never a bare NaN
    text = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    sys.stdout.write(text)
    if report_path is not None:
        with open(report_path, "w") as fh:
            fh.write(text)
    return 0 if report.ok else 5


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def cmd_simulate(args) -> int:
    cfg = _configure(args)
    floor = cfg["variance_floor"]
    gen = GeneratorConfig(**cfg["generator"])
    exp = ExperimentConfig(**cfg["experiment"])
    prior = NormalGammaParams(**cfg["prior"])
    # the whole confidence section is checked before the curve's trials run
    check_confidence(**cfg["confidence"])

    curve = run_experiment(gen, exp, prior, floor)
    points = confidence_curve(gen, **cfg["confidence"], prior=prior, variance_floor=floor)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "curve.csv",
        ["prior_log_odds", "prior_log10_odds", "error_plugin", "error_bayes",
         "error_prior_only", "stderr_plugin", "stderr_bayes"],
        (
            [repr(float(plo)), repr(float(plo) / _LOG10), repr(float(ep)), repr(float(eb)),
             repr(float(e0)), repr(float(sp)), repr(float(sb))]
            for plo, ep, eb, e0, sp, sb in zip(
                curve.prior_log_odds, curve.error_plugin, curve.error_bayes,
                curve.error_prior_only, curve.stderr_plugin, curve.stderr_bayes,
            )
        ),
    )
    _write_csv(
        out_dir / "confidence.csv",
        ["n1", "n2", "method", "hypothesis", "mean_log_lr", "mean_log10_lr", "stderr"],
        (
            [p.n1, p.n2, p.method.value, p.hypothesis.value,
             repr(p.mean_log_lr), repr(p.mean_log_lr / _LOG10), repr(p.stderr)]
            for p in points
        ),
    )
    meta = {
        "version": __version__,
        **cfg,
        "trials_used": curve.trials_used,
        "degenerate_trials": curve.degenerate_trials,
    }
    with open(out_dir / "run_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_lr_distribution(args) -> int:
    cfg = _configure(args)
    # simulate's experiment defaults, then flags; the file's experiment
    # section belongs to simulate alone
    exp = _resolve(_EXPERIMENT_DEFAULTS, {}, vars(args), "")
    runs = {k: exp[k] for k in ("n1", "n2", "trials", "seed")}
    report = lr_distribution_demo(
        e=args.score,
        world=GeneratorConfig(**cfg["generator"]),
        **runs,
        prior=NormalGammaParams(**cfg["prior"]),
        variance_floor=cfg["variance_floor"],
    )
    bayes_vals = [float(v) for v in report.bayes_log_lr_per_trial]
    _print_json(
        {
            "score": float(args.score),
            "generator": cfg["generator"],
            "prior": cfg["prior"],
            "variance_floor": cfg["variance_floor"],
            **runs,
            "mu": report.mu,
            "sigma": report.sigma,
            "mean_bayes_log_lr": float(np.mean(bayes_vals)),
            "bayes_log_lr_per_trial": bayes_vals,
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
    p.add_argument("--mu-halfwidth", type=float, dest="mu_halfwidth_sds")
    p.add_argument("--lambda-quantile-eps", type=float)
    p.add_argument("--grid-mu", type=int)
    p.add_argument("--grid-lambda", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="error-rate and confidence experiments")
    p.add_argument("--out-dir", required=True, help="directory for curve.csv etc.")
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    _add_generator_flags(p)
    _add_prior_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "lr-distribution",
        help="plugin log-LR spread over resampled backgrounds vs Bayesian log-LR",
    )
    p.add_argument("--score", type=float, required=True)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
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
    # these reject a non-finite log-LR, rate or mean anyway: numpy's warnings
    # would precede the error line
    quiet = args.func in (cmd_llr, cmd_decide, cmd_lr_distribution, cmd_simulate)
    try:
        with np.errstate(all="ignore" if quiet else None):
            return args.func(args)
    except ScoreFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
