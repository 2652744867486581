"""``benchmarks/ab.py``'s summary of paired perfbench runs, on fixed rows,
and its repeats of bench_oracles.py rows, with pytest stubbed."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

AB = Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side(call_ms, attempted=45, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"call_ms_p50": {"value": call_ms, "unit": "ms"}}}


def test_summary_of_fixed_pairs(ab):
    # five pairs: the change reads lower in three, higher in one, and ties one
    parent = [70.0, 72.0, 71.0, 75.0, 73.0]
    change = [65.0, 72.0, 66.0, 76.0, 64.0]
    rows = [{"pair": k + 1, "seed": k, "first": "parent" if k % 2 == 0 else "change",
             "parent": _side(p), "change": _side(c, failed=int(k == 3))}
            for k, (p, c) in enumerate(zip(parent, change))]
    summary = ab.summarize(rows)
    assert summary["operations"] == {
        "parent": {"attempted": 225, "failed": 0, "runs_not_correct": 0},
        "change": {"attempted": 225, "failed": 1, "runs_not_correct": 1},
    }
    assert summary["metrics"] == {"call_ms_p50": {
        "unit": "ms",
        # inclusive quartiles of 70, 71, 72, 73, 75 and of 64, 65, 66, 72, 76
        "parent_median": 72.0, "parent_quartiles": [71.0, 73.0],
        "change_median": 66.0, "change_quartiles": [65.0, 72.0],
        "parent_iqr": 2.0,
        "change_lower_in": "3 of 5", "change_higher_in": "1 of 5",
    }}


def _tree(root, run_py, run_seconds):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(run_py)
    (root / "BENCHMARK.json").write_text(f'{{"run_seconds": {run_seconds}}}')
    return str(root)


@pytest.mark.parametrize("change, message", [
    (("# changed\n", 20), "the two trees hold different perfbench files"),
    (("", 25), "the two trees' BENCHMARK.json differ in run_seconds: [20, 25]"),
])
def test_trees_that_would_not_compare_refused(ab, tmp_path, capsys, change, message):
    parent = _tree(tmp_path / "parent", "", 20)
    changed = _tree(tmp_path / "change", *change)
    with pytest.raises(SystemExit) as exit_:
        ab.main([parent, changed, "--workloads", "casework", "--seed", "1",
                 "--out", str(tmp_path / "unused.json")])
    assert exit_.value.code == 2
    assert message in capsys.readouterr().err


ROWS = ("pitfall_divergence_200", "quadrature_predictive[401]")


def test_oracle_row_missing_from_a_tree_refused_before_the_first_pair(
        ab, tmp_path, monkeypatch, capsys):
    calls = _stub_pytest(monkeypatch, ab, {"parent": [], "change": []},
                         collected={"parent": ROWS, "change": ROWS[:1]})
    trees = {side: _tree(tmp_path / side, "", 20) for side in ("parent", "change")}
    out = tmp_path / "unused.json"
    with pytest.raises(SystemExit) as exit_:
        ab.main([trees["parent"], trees["change"], "--workloads", "casework", "--seed", "1",
                 "--out", str(out), "--oracle-rows", *ROWS])
    assert exit_.value.code == 2
    assert ("the change tree's benchmarks/bench_oracles.py has no row quadrature_predictive[401]"
            in capsys.readouterr().err)
    assert calls == [] and not out.exists()


def _stub_pytest(monkeypatch, ab, medians, collected=None):
    """Replace the runner's pytest call by one that writes pytest-benchmark's
    JSON for the requested nodes: each node's next median in ms on that
    side, from ``medians``. A ``--collect-only`` call lists the side's
    rows in ``collected``, by default ``ROWS``. Returns each benchmark
    call's side and the rows it selects, in the order called."""
    calls = []
    values = {}
    collected = collected or {side: ROWS for side in medians}

    def run(cmd, cwd, **kwargs):
        side = Path(cwd).name
        if "--collect-only" in cmd:
            nodes = "".join(f"benchmarks/bench_oracles.py::test_{row}\n" for row in collected[side])
            return subprocess.CompletedProcess(cmd, 0, nodes + "\n2 tests collected\n", "")
        nodes = [node for node in cmd if "::" in node]
        calls.append((side, *(node.split("::test_")[1] for node in nodes)))
        benchmarks = []
        for node in nodes:
            seconds = next(values.setdefault((side, node), iter(medians[side]))) / 1e3
            benchmarks.append({"name": node.split("::")[1],
                               "stats": {"min": 0.5 * seconds, "median": seconds, "rounds": 7}})
        out = Path(cmd[cmd.index("--benchmark-json") + 1])
        out.write_text(json.dumps({"benchmarks": benchmarks}))
        return subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(ab.subprocess, "run", run)
    return calls


def test_oracle_rows_alternate_and_summarize(ab, tmp_path, monkeypatch, capsys):
    parent = [20.0, 21.0, 19.0, 22.0, 20.5, 19.5, 21.5, 20.0, 22.5, 18.5, 21.0]
    change = [15.0, 16.0, 14.0, 23.0, 15.5, 14.5, 16.5, 15.0, 17.0, 13.5, 21.5]
    calls = _stub_pytest(monkeypatch, ab, {"parent": parent, "change": change})
    trees = {side: _tree(tmp_path / side, "", 20) for side in ("parent", "change")}
    out = tmp_path / "bench.json"
    assert ab.main([trees["parent"], trees["change"], "--seed", "1", "--out", str(out),
                    "--oracle-rows", *ROWS]) == 0
    # each row in an invocation of its own, on both trees back to back
    odd, even = ([(side, row) for row in ROWS for side in order]
                 for order in (("parent", "change"), ("change", "parent")))
    assert calls == (odd + even) * 5 + odd
    written = json.loads(out.read_text())
    assert written["workloads"] == {}
    rows = written["bench_oracles_rows"]["rows"]
    assert list(rows) == ["pitfall_divergence_200", "quadrature_predictive[401]"]
    for entry in rows.values():
        assert [run["median"] for run in entry["parent"]] == parent
        assert entry["change"][0] == {"invocation": 1, "min": 7.5, "median": 15.0, "rounds": 7}
        # inclusive quartiles, between the 3rd and 4th and the 8th and 9th of
        # 18.5 19 19.5 20 20 20.5 21 21 21.5 22 22.5 and of
        # 13.5 14 14.5 15 15 15.5 16 16.5 17 21.5 23
        assert {k: v for k, v in entry.items() if k not in ("parent", "change")} == {
            "unit": "ms",
            "parent_median": 20.5, "parent_quartiles": [19.75, 21.25],
            "change_median": 15.5, "change_quartiles": [14.75, 16.75],
            "parent_iqr": 1.5,
            "change_lower_in": "9 of 11", "change_higher_in": "2 of 11",
        }
    printed = capsys.readouterr().out
    assert "pitfall_divergence_200: parent 20.5 change 15.5 ms, lower in 9 of 11" in printed


def test_traced_runs_alternate_and_summarize(ab, tmp_path, monkeypatch, capsys):
    # each tree's traced runs read these, one per seed; trace.wall_ratio is
    # missing on the change side
    traced = {"parent": [30.0, 32.0, 31.0, 35.0, 29.0], "change": [28.0, 30.0, 29.0, 33.0, 27.0]}
    calls = []

    def run_side(tree, workload, seed, seconds, trace):
        side = Path(tree).name
        calls.append((side, seed, trace))
        if not trace:
            return _side(50.0), {"cpu": "stub"}
        metrics = {"lr.bayes_log_lr.us_per_call": {"value": traced[side][seed - 1], "unit": "us/call"}}
        if side == "parent":
            metrics["trace.wall_ratio"] = {"value": 1.1, "unit": "ratio"}
        return {"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}, {"cpu": "stub"}

    monkeypatch.setattr(ab, "run_side", run_side)
    trees = {side: _tree(tmp_path / side, "", 20) for side in ("parent", "change")}
    out = tmp_path / "bench.json"
    assert ab.main([trees["parent"], trees["change"], "--workloads", "casework", "--seed", "1",
                    "--out", str(out)]) == 0
    assert [trace for _, _, trace in calls] == [0] * 2 * ab.PAIRS + [1] * 2 * ab.TRACE_RUNS
    assert [(side, seed) for side, seed, trace in calls if trace] == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2), ("parent", 3),
        ("change", 3), ("change", 4), ("parent", 4), ("parent", 5), ("change", 5),
    ]
    written = json.loads(out.read_text())["workloads"]["casework"]["traced"]
    assert [run["traced run"] for run in written["runs"]] == [1, 2, 3, 4, 5]
    assert written["metrics"] == {
        # inclusive quartiles of 29, 30, 31, 32, 35 and of 27, 28, 29, 30, 33
        "lr.bayes_log_lr.us_per_call": {
            "unit": "us/call",
            "parent_median": 31.0, "parent_quartiles": [30.0, 32.0],
            "change_median": 29.0, "change_quartiles": [28.0, 30.0],
            "parent_iqr": 2.0,
            "change_lower_in": "5 of 5", "change_higher_in": "0 of 5",
        },
        "trace.wall_ratio": {"unit": "ratio", "missing_on": ["change"]},
    }
    assert "trace.wall_ratio missing on change" in capsys.readouterr().out
