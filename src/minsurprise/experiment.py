"""Batch experiment orchestration: config parsing, run execution, CSV and
snapshot emission, and deterministic replay.

Every (row, run) job is a pure function of the plan's master seed, so a
rerun with the same configuration reproduces every artifact byte for byte.
A finished run is its run.json record: the batch's CSVs are built from the
records alone, whether a run was computed now or on an earlier call. A
completed run is skipped on resume, a record that cannot be read is
recomputed, and a run directory that holds a run of a different plan is
refused rather than reused. Output layout:

    <out>/row{i}_run{j}/fitness_history.csv   per-generation stats
    <out>/row{i}_run{j}/best.genome           best-ever genome, text format
    <out>/row{i}_run{j}/start_snapshot.txt    post-evaluation world at t=0
    <out>/row{i}_run{j}/end_snapshot.txt      post-evaluation world at t=T
    <out>/row{i}_run{j}/run.json              the run's result record
    <out>/posteval.csv                        one metrics row per run
    <out>/summary.csv                         per-row medians
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .evolution import (
    STREAM_POSTEVAL,
    EvolutionConfig,
    evolve,
    mix64,
)
from .metrics import (
    MetricsRow,
    StructureLabel,
    metrics_from_trace,
    scene_label,
)
from .networks import Genome, Scenario, save_genome, write_text_atomic
from .simulation import RunTrace, simulate_traced
from .world import SimConfig, metrics_window

DEFAULT_SIM = SimConfig(side_length=16, swarm_size=10, block_count=32)

# The experiment matrix at 12.5% block density plus the denser final row.
MATRIX_ROWS: tuple[tuple[int, int, int], ...] = (
    (16, 10, 32),
    (16, 16, 32),
    (16, 32, 32),
    (20, 20, 50),
    (20, 25, 50),
    (20, 50, 50),
    (20, 25, 75),
)


@dataclass(frozen=True)
class ExperimentPlan:
    """runs_per_row runs per row; each row is its runs' EvolutionConfig."""

    rows: tuple[EvolutionConfig, ...]
    runs_per_row: int = 20

    def evolution_config(self, row: EvolutionConfig) -> EvolutionConfig:
        """The row itself; perfbench/workloads.py::GaWorkload calls it."""
        return row


def matrix_plan() -> ExperimentPlan:
    """The default experiment matrix (six 12.5%-density rows plus 18.75%)."""
    return ExperimentPlan(rows=tuple(
        EvolutionConfig(SimConfig(L, N, B)) for L, N, B in MATRIX_ROWS))


class ConfigError(ValueError):
    pass


# Each numeric config key: the SimConfig, EvolutionConfig or ExperimentPlan
# field it sets, the type of its value and its range. A field the file does
# not set keeps its default (DEFAULT_SIM's for the SimConfig). Command line
# flags that stand for a key take its range too.
NUMERIC_KEYS: dict[str, tuple[type, str, type, int, int]] = {
    "grid": (SimConfig, "side_length", int, 3, 10_000),
    "robots": (SimConfig, "swarm_size", int, 1, 100_000_000),
    "blocks": (SimConfig, "block_count", int, 0, 100_000_000),
    "steps": (SimConfig, "steps", int, 1, 100_000_000),
    "population": (EvolutionConfig, "population_size", int, 1, 1_000_000),
    "generations": (EvolutionConfig, "generations", int, 1, 1_000_000),
    "eval_runs": (EvolutionConfig, "eval_runs", int, 1, 1_000_000),
    "runs": (ExperimentPlan, "runs_per_row", int, 1, 1_000_000),
    "seed": (EvolutionConfig, "master_seed", int, 0, 2**64 - 1),
    "mutation_rate": (EvolutionConfig, "mutation_rate", float, 0, 1),
}

_TYPE_NAMES = {int: "an integer", float: "a number"}


def parse_config(text: str) -> ExperimentPlan:
    """Parse a key=value experiment config into a single-row plan.

    Missing keys keep their defaults: DEFAULT_SIM's, EvolutionConfig's
    (the emergent scenario among them) and ExperimentPlan's. '#' starts a
    comment. Unknown keys, out-of-range values and runs shorter than the
    grid's metrics window are rejected with the offending line number.
    """
    values: dict[str, object] = {}
    lines_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key in NUMERIC_KEYS:
            _, _, kind, lo, hi = NUMERIC_KEYS[key]
            try:
                number = kind(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: {key} must be {_TYPE_NAMES[kind]}, "
                    f"got {value!r}"
                ) from None
            if not lo <= number <= hi:
                raise ConfigError(
                    f"line {lineno}: {key}={number} out of range [{lo}, {hi}]"
                )
            values[key] = number
        elif key == "scenario":
            try:
                values[key] = Scenario(value.lower())
            except ValueError:
                names = ", ".join(s.value for s in Scenario)
                raise ConfigError(
                    f"line {lineno}: unknown scenario {value!r} (expected one "
                    f"of: {names})"
                ) from None
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        lines_of[key] = lineno

    def fields(owner: type) -> dict[str, object]:
        return {NUMERIC_KEYS[key][1]: v for key, v in values.items()
                if key in NUMERIC_KEYS and NUMERIC_KEYS[key][0] is owner}

    try:
        sim = replace(DEFAULT_SIM, **fields(SimConfig))
    except ValueError as exc:
        # the one SimConfig check NUMERIC_KEYS does not make: N + B <= L * L
        lineno = max(lines_of.get(key, 0)
                     for key in ("grid", "robots", "blocks"))
        raise ConfigError(f"line {lineno}: {exc}") from None
    tau = metrics_window(sim.side_length)
    if sim.steps < tau:
        lineno = max(lines_of.get("grid", 0), lines_of.get("steps", 0))
        raise ConfigError(f"line {lineno}: a run of {sim.steps} steps is "
                          f"shorter than the metrics window tau={tau}")
    row = EvolutionConfig(sim, values.get("scenario", Scenario.EMERGENT),
                          **fields(EvolutionConfig))
    return ExperimentPlan(rows=(row,), **fields(ExperimentPlan))


def run_index_for(row: int, run: int) -> int:
    """Stable run_index for seed derivation, independent of runs_per_row."""
    return row * 1_000_000 + run


def posteval_seed_for(master_seed: int, run_index: int) -> int:
    """World seed of a run's post-evaluation of its best genome."""
    return mix64(master_seed, run_index, STREAM_POSTEVAL, 0, 0)


# posteval.csv's block-count columns: one per StructureLabel, in its order,
# at the start and at the end of the post-evaluation.
_COUNT_STEMS = ("lines", "pairs", "clusters", "dispersed", "other")
_TIMES = ("start", "end")

POSTEVAL_COLUMNS = (
    "run_id", "scenario", "L", "N", "B", "fitness", "similarity",
    "block_movement", "robot_movement",
    *(f"{stem}_{when}" for when in _TIMES for stem in _COUNT_STEMS),
    *(f"scene_{when}" for when in _TIMES),
)


def posteval_csv_row(run_id: str, scenario: Scenario, sim: SimConfig,
                     row: MetricsRow) -> str:
    cells = {
        "run_id": run_id, "scenario": scenario.value,
        "L": str(sim.side_length), "N": str(sim.swarm_size),
        "B": str(sim.block_count), "fitness": repr(row.fitness),
        "similarity": repr(row.similarity),
        "block_movement": repr(row.block_movement),
        "robot_movement": repr(row.robot_movement),
    }
    for when, counts in zip(_TIMES, (row.start_counts, row.end_counts)):
        for stem, label in zip(_COUNT_STEMS, StructureLabel, strict=True):
            cells[f"{stem}_{when}"] = str(counts[label])
        cells[f"scene_{when}"] = scene_label(counts).value
    return ",".join(cells[name] for name in POSTEVAL_COLUMNS)


def _posteval_cells(posteval_row: str) -> dict[str, str]:
    """A stored posteval_row's cells by column name. Raises ValueError
    unless the row has exactly one cell per column."""
    return dict(zip(POSTEVAL_COLUMNS, posteval_row.split(","), strict=True))


def _ratio(n: int, b: int) -> str:
    g = math.gcd(n, b) or 1
    return f"{n // g}:{b // g}"


def _write_text(path: Path, text: str) -> None:
    write_text_atomic(path, text)


def _plan_record(plan: ExperimentPlan, row_idx: int, run_idx: int) -> dict:
    """The part of run.json that fixes which run it is and what it
    computes: its run id, row and run, EvolutionConfig and run_index.
    Resume reuses a stored run only if this part matches the current plan."""
    row = plan.rows[row_idx]
    return {"run_id": f"row{row_idx}_run{run_idx}", "row": row_idx,
            "run": run_idx, **asdict(row),
            "scenario": row.scenario.value,
            "run_index": run_index_for(row_idx, run_idx)}


def _execute_run(plan: ExperimentPlan, row_idx: int, run_idx: int,
                 out_dir: Path) -> dict:
    """Evolve one (row, run) job, write its artifacts and return its
    run.json record."""
    row = plan.rows[row_idx]
    planned = _plan_record(plan, row_idx, run_idx)
    run_id, run_index = planned["run_id"], planned["run_index"]
    run_dir = out_dir / run_id
    run_dir.mkdir(parents=True, exist_ok=True)

    best, history = evolve(row, run_index=run_index)
    posteval_seed = posteval_seed_for(row.master_seed, run_index)
    snapshots, metrics_row, _ = replay(best.genome, row.sim, row.scenario,
                                       posteval_seed, every=row.sim.steps)

    _write_text(run_dir / "fitness_history.csv", history.to_csv())
    save_genome(run_dir / "best.genome", best.genome)
    _write_text(run_dir / "start_snapshot.txt", snapshots[0][1])
    _write_text(run_dir / "end_snapshot.txt", snapshots[-1][1])
    record = {
        **planned,
        "posteval_seed": posteval_seed,
        "best_fitness": best.fitness,
        "best_per_run": list(best.per_run),
        "best_generation": best.generation,
        "posteval_row": posteval_csv_row(run_id, row.scenario, row.sim,
                                         metrics_row),
        "complete": True,
    }
    _write_text(run_dir / "run.json",
                json.dumps(record, sort_keys=True, indent=2) + "\n")
    return record


def _load_completed(plan: ExperimentPlan, row_idx: int, run_idx: int,
                    out_dir: Path) -> Optional[dict]:
    """A finished run's stored run.json record, or None if the run must be
    (re)computed: no record, one that is not UTF-8 JSON of an object, not
    complete, missing an artifact, or whose results cannot be read.

    Raises ConfigError if the stored run was made with a different plan or
    is another run's record.
    """
    planned = _plan_record(plan, row_idx, run_idx)
    run_dir = out_dir / planned["run_id"]
    try:
        record = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(record, dict) or not record.get("complete"):
        return None
    for key, wanted in planned.items():
        if record.get(key) != wanted:
            raise ConfigError(
                f"{run_dir} holds a run made with {key}={record.get(key)!r}, "
                f"this plan has {key}={wanted!r}; use another output "
                f"directory or remove it"
            )
    for name in ("fitness_history.csv", "best.genome", "start_snapshot.txt",
                 "end_snapshot.txt"):
        if not (run_dir / name).exists():
            return None
    try:
        summary_csv(plan, [record])
    except (AttributeError, LookupError, TypeError, ValueError):
        return None
    return record


# summary.csv's structure columns take their names from posteval.csv's
# count columns; "other" blocks get no column.
_SHARE_COLUMNS = tuple(f"{stem}_{when}" for when in _TIMES
                       for stem in _COUNT_STEMS if stem != "other")

SUMMARY_COLUMNS = (
    "row", "robots", "blocks", "ratio", "grid", "scenario", "runs",
    "median_fitness", "altered_qty", "median_similarity_altered",
    "median_block_movement", "median_robot_movement", *_SHARE_COLUMNS,
)


def _median(values: Sequence[float]) -> str:
    return repr(float(np.median(values)))


def _share_percent(cells: dict[str, str], column: str) -> float:
    """A count column's share, in percent, of all blocks counted at the
    same time (start or end) of the run's post-evaluation."""
    when = column.rpartition("_")[2]
    total = sum(int(cells[f"{stem}_{when}"]) for stem in _COUNT_STEMS)
    return 100.0 * (int(cells[column]) / total) if total else 0.0


def summary_csv(plan: ExperimentPlan, records: Sequence[dict]) -> str:
    """Per-row medians over run.json records; structure columns are median
    per-run block shares in percent."""
    runs = [(r["row"], float(r["best_fitness"]),
             _posteval_cells(r["posteval_row"])) for r in records]
    lines = [",".join(SUMMARY_COLUMNS)]
    for row_idx, row in enumerate(plan.rows):
        fits = [f for i, f, _ in runs if i == row_idx]
        cells = [c for i, _, c in runs if i == row_idx]
        if not cells:
            continue
        similarity = [float(c["similarity"]) for c in cells]
        altered = [x for x in similarity if x < 1.0]
        line = [
            str(row_idx), str(row.sim.swarm_size), str(row.sim.block_count),
            _ratio(row.sim.swarm_size, row.sim.block_count),
            f"{row.sim.side_length}x{row.sim.side_length}",
            row.scenario.value, str(len(cells)), _median(fits),
            str(len(altered)), _median(altered) if altered else repr(1.0),
            _median([float(c["block_movement"]) for c in cells]),
            _median([float(c["robot_movement"]) for c in cells]),
        ]
        line += [_median([_share_percent(c, name) for c in cells])
                 for name in _SHARE_COLUMNS]
        lines.append(",".join(line))
    return "\n".join(lines) + "\n"


def _pool_outcomes(plan: ExperimentPlan, jobs: list[tuple[int, int]],
                   out: Path, workers: int):
    """Yield (job, run.json record or exception) for each (row, run) job as
    it ends. Each job runs in its own one-process pool; at most ``workers``
    of these, and no more than the CPUs this process may use, are open at
    once. A job that kills its process breaks only its own pool."""
    # imported here: they cost a noticeable share of every CLI start-up
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    slots = min(workers, len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    waiting = jobs[::-1]  # popped from the end: started in job order
    running = {}  # each open pool's future: (job, pool)
    try:
        while waiting or running:
            while waiting and len(running) < slots:
                job, pool = waiting.pop(), ProcessPoolExecutor(max_workers=1)
                running[pool.submit(_execute_run, plan, *job, out)] = job, pool
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                job, pool = running.pop(future)
                pool.shutdown()
                yield job, future.exception() or future.result()
    finally:
        for _, pool in running.values():
            pool.shutdown(cancel_futures=True)


def run_experiment(plan: ExperimentPlan, out_dir, workers: int = 1) -> int:
    """Execute all (row, run) jobs, skipping completed ones; emit CSVs.

    Each pending run executes in its own one-process pool, at most
    ``workers`` >= 1 at once. A failing run, also one that kills its
    process, is reported as it ends and skipped; the others are neither
    recomputed nor run one at a time, and the exit status becomes 1.
    Failures go to the current ``sys.stderr``. A completed run in
    ``out_dir`` made with a different plan, or an ``out_dir`` that cannot be
    created, raises ConfigError before any run starts.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {out}: {exc.strerror}") from None
    jobs: list[tuple[int, int]] = [
        (i, j) for i in range(len(plan.rows)) for j in range(plan.runs_per_row)
    ]
    # each job's run.json record in job order; None until it has one
    records = {job: _load_completed(plan, *job, out) for job in jobs}
    pending = [job for job in jobs if records[job] is None]

    failures = 0
    for (i, j), outcome in _pool_outcomes(plan, pending, out, workers):
        if isinstance(outcome, BaseException):
            failures += 1
            print(f"row{i}_run{j} failed: {outcome}", file=sys.stderr)
        else:
            records[i, j] = outcome

    done = [r for r in records.values() if r is not None]
    posteval_lines = [",".join(POSTEVAL_COLUMNS)]
    posteval_lines += [r["posteval_row"] for r in done]
    _write_text(out / "posteval.csv", "\n".join(posteval_lines) + "\n")
    _write_text(out / "summary.csv", summary_csv(plan, done))
    return 1 if failures else 0


def replay(genome: Genome, sim: SimConfig, scenario: Scenario, seed: int,
           every: int) -> tuple[list[tuple[int, str]], MetricsRow, RunTrace]:
    """Post-evaluate a genome: one recorded simulation at ``seed``, with a
    snapshot every ``every`` >= 1 steps and at the last one, and its metrics.

    The batch runner, ``posteval`` and ``replay`` all go through here.
    """
    trace = simulate_traced(genome, sim, scenario, seed, snapshot_every=every)
    return trace.snapshots, metrics_from_trace(trace), trace

