"""tools/bench_pair.py's pair order, run parsing and summary, on canned
result lines: no benchmark runs here."""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pair  # noqa: E402

METRICS = [{"name": "op_s_p50", "better": "lower", "bound": 0.25},
           {"name": "world_steps_per_s", "better": "higher", "bound": 0.25}]


def result(failed=0, **metrics):
    """A run's result line as perfbench/run.py prints it: no metrics when
    an operation failed."""
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"}
                        for name, value in metrics.items() if not failed}}


def test_parent_runs_first_on_odd_seeds():
    assert [bench_pair.pair_order(s) for s in (1, 2, 3, 4)] == [
        ("parent", "change"), ("change", "parent")] * 2


def test_pairs_alternate_and_a_failed_run_fails_the_whole():
    calls = []

    def run(side, workload, seed):
        calls.append((workload, seed, side))
        bad = (side, seed) == ("change", 3)
        return {"exit": 0, "env": {},
                "result": result(failed=int(bad), op_s_p50=1.0)}

    runs, ok = bench_pair.run_pairs(["a", "b"], 3, run)
    assert calls == [(w, s, side) for w in "ab" for s in (1, 2, 3)
                     for side in bench_pair.pair_order(s)]
    assert [(r["workload"], r["seed"], r["side"]) for r in runs] == calls
    assert not ok
    runs, ok = bench_pair.run_pairs(["a"], 2, lambda side, w, s: {
        "exit": 1 if side == "parent" else 0, "env": None,
        "result": result(op_s_p50=1.0)})
    assert not ok
    assert bench_pair.run_pairs(["a"], 2, lambda side, w, s: {
        "exit": 0, "env": None, "result": result(op_s_p50=1.0)})[1]


def test_run_output_parses_into_env_and_result():
    env = {"nproc": 2, "op_s": [0.1, 0.2], "seed": 3}
    line = result(op_s_p50=0.5)
    stdout = f"noise\n{json.dumps({'env': env})}\n{json.dumps(line)}\n"
    assert bench_pair.parse_run(stdout) == ({"nproc": 2, "seed": 3}, line)
    assert bench_pair.parse_run("") == (None, None)
    assert bench_pair.parse_run("Traceback\nError: boom\n") == (None, None)
    assert bench_pair.parse_run(json.dumps(line)) == (None, line)


def run_record(workload, seed, side, res):
    return {"workload": workload, "seed": seed, "side": side, "exit": 0,
            "env": {}, "result": res}


def test_summary_compares_each_metric_pair_by_pair():
    # Seed 4's change run failed and seed 11 has no change run: 9 pairs
    # read each metric. op_s_p50: the change is lower in 8 of them;
    # world_steps_per_s: higher in 5.
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    change = [p - 0.5 for p in parent[:9]] + [2.0]
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change), start=1):
        runs.append(run_record("w", seed, "parent", result(
            op_s_p50=p, world_steps_per_s=10.0)))
        runs.append(run_record("w", seed, "change", result(
            failed=int(seed == 4), op_s_p50=c,
            world_steps_per_s=11.0 if seed % 2 else 9.0)))
    runs.append(run_record("w", 11, "parent", result(op_s_p50=9.0)))  # alone
    summary = bench_pair.summarise(runs, METRICS)["w"]
    assert summary["pairs"] == 11 - 1
    assert summary["failed_ops"] == {"parent": 0, "change": 1}
    op = summary["op_s_p50"]
    assert op["pairs"] == 9  # the failed run printed no metrics
    assert op["parent_median"] == pytest.approx(1.5)
    assert op["parent_quartiles"] == pytest.approx([1.2, 1.7])
    assert op["parent_quartile_distance"] == pytest.approx(0.5)
    assert op["parent_range"] == [1.0, 1.9]
    assert op["change_range"] == [pytest.approx(0.5), 2.0]
    assert op["pairs_change_better"] == 8
    assert not op["gain_shown"]  # 8 of 9
    assert op["change_over_parent"] == pytest.approx(
        op["change_median"] / op["parent_median"])
    steps = summary["world_steps_per_s"]
    assert steps["pairs_change_better"] == 5
    assert steps["parent_quartile_distance"] == 0
    assert not steps["gain_shown"]


@pytest.mark.parametrize("better, shift, shown", [
    (9, 0.5, True),    # 9 of 10, a median gap beyond the quartile distance
    (8, 0.5, False),   # 8 of 10
    (9, 0.1, False),   # a median gap inside the quartile distance
])
def test_gain_rule(better, shift, shown):
    parent = [1.0 + 0.05 * i for i in range(10)]
    change = [p - shift if i < better else p + 1.0
              for i, p in enumerate(parent)]
    runs = [run_record("w", seed, side, result(op_s_p50=value))
            for seed, pc in enumerate(zip(parent, change), start=1)
            for side, value in zip(("parent", "change"), pc)]
    op = bench_pair.summarise(runs, METRICS)["w"]["op_s_p50"]
    assert op["pairs_change_better"] == better
    assert op["gain_shown"] is shown


@pytest.mark.parametrize("name, parent, change, worse, unresolved", [
    # medians 1.0 and 1.2: worse, but within the bound of 25%
    ("op_s_p50", [0.9, 1.0, 1.1], [1.1, 1.2, 1.3], False, False),
    # medians 1.0 and 1.3: worse by more than the bound
    ("op_s_p50", [0.9, 1.0, 1.1], [1.2, 1.3, 1.4], True, False),
    # the parent's quartile distance (0.6) above the bound (0.25 of 1.0)
    ("op_s_p50", [0.4, 1.0, 1.6], [0.5, 0.9, 1.5], False, True),
    # as wide, yet every change run beats every parent run
    ("op_s_p50", [1.0, 1.6, 2.2], [0.3, 0.6, 0.9], False, False),
    # higher is better: medians 10 and 7 fall by more than the bound
    ("world_steps_per_s", [9.0, 10.0, 11.0], [6.0, 7.0, 8.0], True, False),
    # and a spread of 8 around 10 is unresolved
    ("world_steps_per_s", [6.0, 10.0, 14.0], [7.0, 10.0, 13.0], False, True),
], ids=["within-bound", "worse-than-bound", "unresolved", "beats-every-run",
        "higher-worse-than-bound", "higher-unresolved"])
def test_no_regression_rule(name, parent, change, worse, unresolved):
    runs = [run_record("w", seed, side, result(**{name: value}))
            for seed, pc in enumerate(zip(parent, change), start=1)
            for side, value in zip(("parent", "change"), pc)]
    verdict = bench_pair.summarise(runs, METRICS)["w"][name]
    assert verdict["worse_than_bound"] is worse
    assert verdict["unresolved"] is unresolved


def test_pair_ratios_cancel_drift_between_pairs():
    # The host drifts: each pair runs at its own speed, and the change
    # takes 0.9 of its parent in every pair. The sides' medians overlap,
    # so no gain is shown, but the per-pair ratios read 0.9 throughout.
    parent = [1.0, 2.0, 3.0]
    runs = [run_record("w", seed, side, result(op_s_p50=value))
            for seed, p in enumerate(parent, start=1)
            for side, value in (("parent", p), ("change", 0.9 * p))]
    op = bench_pair.summarise(runs, METRICS)["w"]["op_s_p50"]
    assert op["pair_ratio_median"] == pytest.approx(0.9)
    assert op["pair_ratio_quartiles"] == pytest.approx([0.9, 0.9])
    assert op["gain_shown"] is False
