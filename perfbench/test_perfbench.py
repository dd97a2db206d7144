"""Smoke-size self-check of the benchmark harness.

    python3 -m pytest -q perfbench

Runs each workload briefly in-process and checks that every metric named in
BENCHMARK.json is printed with its unit, that counts come out exact, and
that a corrupted reference is reported as a failed operation.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# One cached run per scenario: ga-emergent evolves run 0, replays cover 3
# genomes.
SMOKE_REPLAYS = 3


@pytest.fixture(scope="module", autouse=True)
def smoke_size():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "SETUP_PROBES", 1)
        mp.setattr(workloads, "MIN_REPLAYS", SMOKE_REPLAYS)
        mp.setattr(workloads, "WARMUP_S", 0)
        mp.setattr(workloads, "RUNS_PER_SCENARIO", 1)
        yield


def bench(workload, trace):
    """Run the command in-process; return exit code, env record, result."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(["--workload", workload, "--seed", "0",
                         "--seconds", "0", "--trace", str(trace)])
    lines = stdout.getvalue().strip().splitlines()
    return code, json.loads(lines[-2])["env"], json.loads(lines[-1])


def assert_named_metrics(result, spec):
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_end_to_end_metrics_are_emitted(workload):
    code, env, result = bench(workload, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert_named_metrics(result, BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert env["nproc"] >= 1 and env["numpy"] and env["failed_ratio"] == 0


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in ("ga-emergent", "posteval-replay"):
        code, env, result = bench(workload, trace=1)
        assert code == 0 and result["correct"], workload
        assert (ROOT / env["spans_file"]).is_file()
        out[workload] = result
    return out


def test_per_layer_metrics_are_emitted(traced):
    for result in traced.values():
        assert_named_metrics(result, BENCH["per_layer"])
        values = {k: v["value"] for k, v in result["metrics"].items()}
        layers = sum(v for k, v in values.items() if k.endswith(".self_s"))
        assert layers == pytest.approx(values["trace.wall_s"], rel=1e-9)
    # every per-layer metric is exercised by at least one workload
    for m in BENCH["per_layer"]:
        assert any(r["metrics"][m["name"]]["value"] > 0
                   for r in traced.values()), m["name"]


def test_counts_are_exact(traced):
    ga = {k: v["value"] for k, v in traced["ga-emergent"]["metrics"].items()}
    replay = {k: v["value"]
              for k, v in traced["posteval-replay"]["metrics"].items()}
    gens = workloads.TRACE_GENERATIONS
    worlds = 50 * 10 * gens
    assert ga["evolution.generations"] == gens
    assert ga["simulation.world_steps"] == worlds * 1000
    assert ga["simulation.robot_steps"] == worlds * 1000 * 10
    assert ga["world.sample_placement_calls"] == worlds
    # action net: 2 matmuls every step; prediction net: 2 on all but the last
    assert ga["networks.matmul_calls"] == gens * (2 * 1000 + 2 * 999)
    assert replay["experiment.replays"] == SMOKE_REPLAYS
    assert replay["simulation.world_steps"] == SMOKE_REPLAYS * 1000
    assert replay["world.sample_placement_calls"] == SMOKE_REPLAYS


@pytest.fixture
def corrupt_cache(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    shutil.copytree(ROOT / ".acceptance_cache", cache)
    monkeypatch.setattr(run, "CACHE", cache)
    return cache


def test_corrupted_fitness_row_fails(corrupt_cache):
    path = corrupt_cache / "emergent" / "row0_run0" / "fitness_history.csv"
    lines = path.read_text().splitlines(keepends=True)
    lines[1] = lines[1].replace(",0.", ",1.", 1)
    path.write_text("".join(lines))
    code, env, result = bench("ga-emergent", trace=0)
    assert code == 1 and not result["correct"]
    # generation 0 runs twice: as the untimed warm-up and as the first timed
    assert result["failed"] == result["attempted"] == 2
    assert env["failed_ratio"] == 1.0


def test_corrupted_posteval_row_fails(corrupt_cache):
    path = corrupt_cache / "clusters" / "row0_run0" / "run.json"
    record = json.loads(path.read_text())
    record["posteval_row"] = record["posteval_row"].replace(",clusters,",
                                                            ",empty,")
    path.write_text(json.dumps(record))
    code, env, result = bench("posteval-replay", trace=0)
    assert code == 1 and not result["correct"]
    # one untimed warm-up pass and one timed pass, each replaying it once
    assert result["failed"] == 2 and result["attempted"] == 2 * SMOKE_REPLAYS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ga-emergent",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
