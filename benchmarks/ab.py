#!/usr/bin/env python3
"""A/B runs of perfbench: a parent tree against a changed tree, in pairs.

    python3 benchmarks/ab.py PARENT_TREE CHANGE_TREE --workloads casework simulate verify \\
        --seed 2901 --out BENCH_29.json \\
        --oracle-rows predictive_oracle_sweep_401 pitfall_divergence_200

Each of ``PAIRS`` pairs runs ``perfbench/run.py --trace 0`` of both trees on
one workload seed, one after the other: the parent first in odd pairs, the
change first in even ones. Each tree runs its own perfbench against its own
source for the ``run_seconds`` of its own BENCHMARK.json; the runner refuses
trees whose perfbench files or ``run_seconds`` differ. Pair k of the i-th
workload takes seed ``SEED + i * PAIRS + k``. After a workload's pairs,
``TRACE_RUNS`` runs of ``perfbench/run.py --trace 1`` per tree give its
per-layer metrics, alternating in the same way on the seeds of its first
pairs.

The JSON written holds the environment, each tree's git commit (``-dirty``
when its work tree differs from it) and a hash of its ``src/``, one row per
pair and per traced run (each side's metrics, ``correct`` flag, operations
attempted and failed) and, per workload and metric, untraced and traced
apart, each side's median and quartiles, the distance between the parent's
quartiles, and in how many runs the change read lower and higher (a tie
counts for neither). A metric that some run of a side did not report is
listed as missing on that side instead. A run that reports
``correct: false`` is counted per side, and the runner then exits 1.

``--oracle-rows`` names rows of ``benchmarks/bench_oracles.py`` without
their ``test_`` prefix (``quadrature_predictive[401]``, say). Before the
first pair, the runner refuses a row that pytest does not collect from
either tree's file. Each tree runs its own file on its own source, each row
in a pytest invocation of its own, so that no row runs on a heap that other
rows left: ``ORACLE_INVOCATIONS`` rounds, in each of which every row runs
on both trees back to back, alternating as the pairs do. The JSON then
holds, under ``bench_oracles_rows``, each invocation's pytest-benchmark min
and median per row, and per row each tree's median and quartiles of those
medians.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
TRACE_RUNS = 5
#: pytest invocations per tree and row for ``--oracle-rows``: a row's medians shift
#: as a whole between invocations on a shared host, so a 5% move needs this many
ORACLE_INVOCATIONS = 11


def spread(values_by_side: dict) -> dict:
    """Each side's median and quartiles of its values (one per pair, in
    order), the parent's quartile distance, and in how many pairs the
    change read lower and higher than the parent."""
    entry = {}
    for side in SIDES:
        q1, median, q3 = statistics.quantiles(values_by_side[side], n=4, method="inclusive")
        entry[f"{side}_median"] = median
        entry[f"{side}_quartiles"] = [q1, q3]
    q1, q3 = entry["parent_quartiles"]
    entry["parent_iqr"] = q3 - q1
    pairs = list(zip(values_by_side["parent"], values_by_side["change"]))
    entry["change_lower_in"] = f"{sum(b < a for a, b in pairs)} of {len(pairs)}"
    entry["change_higher_in"] = f"{sum(b > a for a, b in pairs)} of {len(pairs)}"
    return entry


def summarize(rows: list[dict]) -> dict:
    """``operations``: each side's operations attempted and failed, summed
    over ``rows`` (one per pair or traced run, each side's ``metrics``
    mapping a name to ``{"value", "unit"}``), and its runs not ``correct``.
    ``metrics``: per metric, the unit, each side's median and quartiles, the
    parent's quartile distance, and in how many rows the change read lower
    and higher than the parent; or, for a metric that some row of a side
    lacks, the sides it is ``missing_on``."""
    metrics = {}
    names = dict.fromkeys(name for row in rows for side in SIDES for name in row[side]["metrics"])
    for name in names:
        found = {side: [row[side]["metrics"].get(name) for row in rows] for side in SIDES}
        unit = next(m["unit"] for side in SIDES for m in found[side] if m is not None)
        missing = [side for side in SIDES if None in found[side]]
        if missing:
            metrics[name] = {"unit": unit, "missing_on": missing}
        else:
            values = {side: [m["value"] for m in found[side]] for side in SIDES}
            metrics[name] = {"unit": unit, **spread(values)}
    operations = {
        side: {"attempted": sum(row[side]["attempted"] for row in rows),
               "failed": sum(row[side]["failed"] for row in rows),
               "runs_not_correct": sum(not row[side]["correct"] for row in rows)}
        for side in SIDES
    }
    return {"operations": operations, "metrics": metrics}


def describe(entry: dict) -> str:
    """One line for a metric's entry of ``summarize`` or ``oracle_rows``."""
    if "missing_on" in entry:
        return f"missing on {' and '.join(entry['missing_on'])}"
    return (f"parent {entry['parent_median']:.6g} change {entry['change_median']:.6g} "
            f"{entry['unit']}, lower in {entry['change_lower_in']}, "
            f"parent IQR {entry['parent_iqr']:.3g}")


def digest(folder: Path, pattern: str) -> str:
    """sha256 over the relative paths and bytes of the files in ``folder``
    matching ``pattern``, outside ``__pycache__``."""
    sha = hashlib.sha256()
    for path in sorted(folder.rglob(pattern)):
        if path.is_file() and "__pycache__" not in path.parts:
            sha.update(str(path.relative_to(folder)).encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def commit(tree: Path) -> str | None:
    """The tree's git HEAD, with ``-dirty`` when its work tree differs."""
    if not (tree / ".git").exists():
        return None
    git = ["git", "-C", str(tree)]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True)
    status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True)
    if head.returncode != 0:
        return None
    return head.stdout.strip() + ("-dirty" if status.stdout.strip() else "")


def run_side(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One perfbench run of ``tree``, ``--trace`` 0 or 1: its result (the
    last stdout line) and the environment line it printed."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {tree} exited {done.returncode}: {done.stderr[-2000:]}")
    marker = "# environment "
    environment = next((json.loads(ln[len(marker):]) for ln in lines if ln.startswith(marker)), {})
    return json.loads(lines[-1]), environment


def alternate(trees: dict, workload: str, seeds: list[int], seconds: int, trace: int,
              environments: dict) -> list[dict]:
    """One ``run_side`` of each tree per seed, the parent first in odd runs:
    a row per seed with each side's result. ``environments`` receives each
    side's environment line."""
    key = "traced run" if trace else "pair"
    rows = []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        row = {key: k + 1, "seed": seed, "first": order[0]}
        for side in order:
            row[side], environments[side] = run_side(trees[side], workload, seed, seconds, trace)
            values = {m: round(v["value"], 4) for m, v in row[side]["metrics"].items()}
            print(f"{workload} {key} {k + 1} {side}: {json.dumps(values)}", file=sys.stderr)
        rows.append(row)
    return rows


#: pytest, run in a tree, on its bench_oracles.py; the tree's
#: ``pythonpath`` setting puts its own source first.
ORACLE_PYTEST = ["-m", "pytest", "-q", "-p", "no:cacheprovider"]
ORACLE_FILE = "benchmarks/bench_oracles.py"


def pytest_in(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    """``ORACLE_PYTEST`` with ``args``, run in ``tree``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *ORACLE_PYTEST, *args],
                          cwd=tree, env=env, capture_output=True, text=True)


def collected_rows(tree: Path) -> set[str]:
    """The rows that ``pytest --collect-only`` finds in ``tree``'s
    bench_oracles.py: its node ids without the file and ``test_`` prefix."""
    prefix = f"{ORACLE_FILE}::test_"
    lines = pytest_in(tree, ["--collect-only", ORACLE_FILE]).stdout.splitlines()
    return {line[len(prefix):] for line in lines if line.startswith(prefix)}


def run_oracle_row(tree: Path, row: str, out: Path) -> dict:
    """One pytest invocation of ``tree``'s own bench_oracles.py selecting
    ``row`` alone: its pytest-benchmark min and median in ms and rounds."""
    done = pytest_in(tree, [f"{ORACLE_FILE}::test_{row}", "--benchmark-json", str(out)])
    if done.returncode != 0:
        raise RuntimeError(f"bench_oracles.py in {tree} exited {done.returncode}: "
                           f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    stats = json.loads(out.read_text())["benchmarks"][0]["stats"]
    return {"min": round(stats["min"] * 1e3, 4), "median": round(stats["median"] * 1e3, 4),
            "rounds": stats["rounds"]}


def oracle_rows(trees: dict, rows: list[str], scratch: Path) -> dict:
    """``ORACLE_INVOCATIONS`` rounds of ``run_oracle_row``, each row on both
    trees back to back, the parent first in odd rounds, and per row each
    tree's median and quartiles of the invocation medians."""
    runs = {row: {side: [] for side in SIDES} for row in rows}
    for k in range(ORACLE_INVOCATIONS):
        for i, row in enumerate(rows):
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                got = run_oracle_row(trees[side], row, scratch / f"{side}-{k + 1}-{i}.json")
                runs[row][side].append({"invocation": k + 1, **got})
                print(f"bench_oracles invocation {k + 1} {side} {row}: {got['median']} ms",
                      file=sys.stderr)
    summary = {}
    for row in rows:
        medians = {side: [run["median"] for run in runs[row][side]] for side in SIDES}
        summary[row] = {"unit": "ms", **runs[row], **spread(medians)}
    return {
        "command": "PYTHONDONTWRITEBYTECODE=1 OPENBLAS_NUM_THREADS=1 python "
                   + " ".join(ORACLE_PYTEST)
                   + " benchmarks/bench_oracles.py::test_ROW --benchmark-json OUT",
        "method": f"{ORACLE_INVOCATIONS} rounds, each row in its own pytest invocation per "
                  "tree, its two trees back to back, the parent first in odd rounds; each "
                  "invocation's pytest-benchmark min and median",
        "rows": summary,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the parent tree")
    parser.add_argument("change", type=Path, help="the changed tree")
    parser.add_argument("--workloads", nargs="*", default=[])
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    parser.add_argument("--oracle-rows", nargs="*", default=[],
                        help="bench_oracles.py rows to repeat, without the test_ prefix")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} holds no perfbench/run.py")
    if len({digest(tree / "perfbench", "*") for tree in trees.values()}) > 1:
        parser.error("the two trees hold different perfbench files")
    run_seconds = {json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"]
                   for tree in trees.values()}
    if len(run_seconds) > 1:
        parser.error(f"the two trees' BENCHMARK.json differ in run_seconds: {sorted(run_seconds)}")
    seconds = run_seconds.pop()
    # checked before any pair: the rows run last, and a missing one would lose the run
    for side, tree in trees.items() if args.oracle_rows else ():
        found = collected_rows(tree)
        missing = [row for row in args.oracle_rows if row not in found]
        if missing:
            parser.error(f"the {side} tree's {ORACLE_FILE} has no row {', '.join(missing)}")

    environments: dict = {}
    workloads: dict = {}
    for i, workload in enumerate(args.workloads):
        seeds = [args.seed + i * PAIRS + k for k in range(PAIRS)]
        pairs = alternate(trees, workload, seeds, seconds, 0, environments)
        traced = alternate(trees, workload, seeds[:TRACE_RUNS], seconds, 1, environments)
        workloads[workload] = {**summarize(pairs), "pairs": pairs,
                               "traced": {**summarize(traced), "runs": traced}}

    bench_rows = None
    if args.oracle_rows:
        with tempfile.TemporaryDirectory() as scratch:
            bench_rows = oracle_rows(trees, args.oracle_rows, Path(scratch))

    host = environments.get("parent", {})
    result = {
        "script": "benchmarks/ab.py",
        "method": f"perfbench/run.py --trace 0 --seconds {seconds}, {PAIRS} pairs per "
                  "workload on a shared seed, the parent first in odd pairs; then, under "
                  f"'traced', --trace 1 on the seeds of its first {TRACE_RUNS} pairs, alike",
        "environment": {key: host.get(key) for key in ("cpu", "nproc", "python", "numpy", "scipy")},
        "trees": {
            side: {"commit": commit(tree), "src_sha256": digest(tree / "src", "*.py")}
            for side, tree in trees.items()
        },
        "workloads": workloads,
    }
    if bench_rows is not None:
        result["bench_oracles_rows"] = bench_rows
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for workload, body in workloads.items():
        for name, entry in [*body["metrics"].items(), *body["traced"]["metrics"].items()]:
            print(f"{workload:<9} {name:<12} {describe(entry)}")
    for row, entry in (bench_rows or {"rows": {}})["rows"].items():
        print(f"{row}: {describe(entry)}")
    not_correct = {side: sum(summary["operations"][side]["runs_not_correct"]
                             for body in workloads.values() for summary in (body, body["traced"]))
                   for side in SIDES}
    if any(not_correct.values()):
        print(f"runs not correct: {not_correct}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
