"""Run one bayescal CLI command with a span recorded around each layer call.

    python perfbench/tracer.py SPANS_JSON TRACE_ID CLI_ARG...

Times ``import bayescal.cli`` as a span of its own, then rebinds every
function named in ``_layers`` to a recording wrapper, in each ``bayescal``
module namespace that holds it, and runs ``bayescal.cli.main(CLI_ARGS)``.
Python resolves module globals at call time, so rebinding the names also
catches calls inside one module, such as ``run_verification_suite`` calling
``predictive_oracle_sweep``. Nothing under ``src/`` is modified.

Spans stay in memory and are written once, when the command ends, as
``{"trace_id", "names", "spans"}``; each span is
``[name index, start ns, end ns, parent span index or -1, [counts...]]``.
"""

from __future__ import annotations

# Only these two before the import span; anything more imported here would
# leave the span without the cost of loading it for bayescal.
import sys
import time


class Tracer:
    """Collects nested spans for one process; the call stack gives the parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._intern(name), start_ns, end_ns, parent, []])

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span around every call; ``count`` maps a call to counts."""
        name_i = self._intern(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            span = [name_i, 0, 0, stack[-1] if stack else -1, []]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(fn, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str, trace_id: str) -> None:
        import json

        with open(path, "w") as fh:
            json.dump(
                {"trace_id": trace_id, "names": self.names, "spans": self.spans},
                fh,
                separators=(",", ":"),
            )


def _layers(np) -> dict:
    """Traced names, ``module.function``, each with its count function or None.

    A count function maps ``(fn, args, kwargs, result)`` of one call to a list
    of counts of work done: rows read, scores evaluated, quadrature nodes,
    trials. Counts depend only on the inputs, so they repeat exactly.
    """
    import inspect

    def size_of_arg(i):
        return lambda fn, args, kwargs, result: [int(np.size(args[i]))]

    def size_of_result(fn, args, kwargs, result):
        return [int(np.size(result))]

    def arguments(fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    def rows(fn, args, kwargs, result):
        return [result.n1 + result.n2]

    def experiment_trials(fn, args, kwargs, result):
        # [trials attempted, trials whose background supported a plugin fit]
        return [result.trials_used + result.degenerate_trials, result.trials_used]

    def confidence_trials(fn, args, kwargs, result):
        a = arguments(fn, args, kwargs)
        return [int(a["trials"]) * len(list(a["sizes"]))]

    def quadrature_nodes(fn, args, kwargs, result):
        spec = arguments(fn, args, kwargs)["spec"]
        return [spec.grid_mu * spec.grid_lambda]

    return {
        "cli.main": None,
        "scores.load_background_csv": rows,
        "scores.BackgroundData": None,
        "scores.collect_stats": None,
        "scores.fit_plugin": None,
        "conjugate.posterior_update": None,
        "conjugate.normal_gamma_log_density": None,
        "conjugate.student_t_log_density": size_of_arg(1),
        "conjugate.sample_params": None,
        "lr.bayes_log_lr_array": size_of_arg(0),
        "lr.plugin_log_lr_array": size_of_arg(0),
        "lr.class_predictives": None,
        "lr.decomposition_residual": None,
        "lr.bayes_log_lr": None,
        "lr.plugin_log_lr": None,
        "synthetic.generate_scores": size_of_result,
        "experiment.run_experiment": experiment_trials,
        "experiment.confidence_curve": confidence_trials,
        "verification.run_verification_suite": None,
        "verification.predictive_oracle_sweep": None,
        "verification.joint_evidence_sweep": None,
        "verification.decomposition_sweep": None,
        "verification.pitfall_divergence": None,
        "verification.quadrature_predictive": quadrature_nodes,
        "verification.quadrature_joint_evidence": quadrature_nodes,
    }


def install(tracer: Tracer) -> None:
    """Rebind each traced name wherever a bayescal module holds it."""
    import numpy as np

    modules = [m for k, m in sys.modules.items() if k == "bayescal" or k.startswith("bayescal.")]
    for name, count in _layers(np).items():
        module_name, attr = name.split(".")
        original = getattr(sys.modules["bayescal." + module_name], attr)
        if isinstance(original, type):
            # a class: time construction (its validation) without replacing
            # the type, so isinstance and dataclass behaviour are untouched
            original.__init__ = tracer.wrap(name, original.__init__, count)
            continue
        wrapper = tracer.wrap(name, original, count)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, trace_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    start = time.perf_counter_ns()
    import bayescal.cli

    tracer.record("import.bayescal", start, time.perf_counter_ns())
    install(tracer)
    try:
        return bayescal.cli.main(cli_args)
    finally:
        tracer.dump(spans_path, trace_id)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
