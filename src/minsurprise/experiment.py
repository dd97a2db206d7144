"""Batch experiment orchestration: config parsing, run execution, CSV and
snapshot emission, and deterministic replay.

Every (row, run) job is a pure function of the plan's master seed, so a
rerun with the same configuration reproduces every artifact byte for byte,
and completed runs are skipped on resume; a run directory that holds a run
of a different plan is refused rather than reused. Output layout:

    <out>/row{i}_run{j}/fitness_history.csv   per-generation stats
    <out>/row{i}_run{j}/best.genome           best-ever genome, text format
    <out>/row{i}_run{j}/start_snapshot.txt    post-evaluation world at t=0
    <out>/row{i}_run{j}/end_snapshot.txt      post-evaluation world at t=T
    <out>/row{i}_run{j}/run.json              seeds, fitness, metrics record
    <out>/posteval.csv                        one metrics row per run
    <out>/summary.csv                         per-row medians
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .evolution import (
    STREAM_POSTEVAL,
    EvolutionConfig,
    evolve,
    mix64,
)
from .metrics import MetricsRow, StructureLabel, metrics_from_trace
from .networks import Genome, Scenario, save_genome, write_text_atomic
from .simulation import RunTrace, simulate_traced
from .world import SimConfig

DEFAULT_SIM = SimConfig(side_length=16, swarm_size=10, block_count=32,
                        steps=1000)

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
class PlanRow:
    sim: SimConfig
    scenario: Scenario


@dataclass(frozen=True)
class ExperimentPlan:
    rows: tuple[PlanRow, ...]
    runs_per_row: int = 20
    master_seed: int = 0
    population_size: int = 50
    generations: int = 100
    eval_runs: int = 10
    mutation_rate: float = 0.1

    def evolution_config(self, row: PlanRow) -> EvolutionConfig:
        return EvolutionConfig(
            sim=row.sim,
            scenario=row.scenario,
            population_size=self.population_size,
            generations=self.generations,
            eval_runs=self.eval_runs,
            mutation_rate=self.mutation_rate,
            master_seed=self.master_seed,
        )


def matrix_plan() -> ExperimentPlan:
    """The default experiment matrix (six 12.5%-density rows plus 18.75%)."""
    rows = tuple(
        PlanRow(SimConfig(L, N, B, steps=1000), Scenario.EMERGENT)
        for L, N, B in MATRIX_ROWS
    )
    return ExperimentPlan(rows=rows)


class ConfigError(ValueError):
    pass


_INT_KEYS = {
    "grid": (3, 10_000),
    "robots": (1, 100_000_000),
    "blocks": (0, 100_000_000),
    "steps": (1, 100_000_000),
    "population": (1, 1_000_000),
    "generations": (1, 1_000_000),
    "eval_runs": (1, 1_000_000),
    "runs": (1, 1_000_000),
    "seed": (0, 2**64 - 1),
}


def parse_config(text: str) -> ExperimentPlan:
    """Parse a key=value experiment config into a single-row plan.

    Missing keys take the defaults (16x16 grid, 10 robots, 32 blocks, 1000
    steps, emergent scenario, population 50, 100 generations, 10 evaluation
    runs, mutation rate 0.1, 20 runs, seed 0). '#' starts a comment. Unknown
    keys and out-of-range values are rejected with the offending line number.
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
        if key in _INT_KEYS:
            lo, hi = _INT_KEYS[key]
            try:
                number = int(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: {key} must be an integer, got {value!r}"
                ) from None
            if not lo <= number <= hi:
                raise ConfigError(
                    f"line {lineno}: {key}={number} out of range [{lo}, {hi}]"
                )
            values[key] = number
        elif key == "mutation_rate":
            try:
                rate = float(value)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: mutation_rate must be a number, got {value!r}"
                ) from None
            if not 0.0 <= rate <= 1.0:
                raise ConfigError(
                    f"line {lineno}: mutation_rate={rate} out of range [0, 1]"
                )
            values[key] = rate
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

    grid = int(values.get("grid", DEFAULT_SIM.side_length))
    robots = int(values.get("robots", DEFAULT_SIM.swarm_size))
    blocks = int(values.get("blocks", DEFAULT_SIM.block_count))
    steps = int(values.get("steps", DEFAULT_SIM.steps))
    if robots + blocks > grid * grid:
        lineno = max(
            lines_of.get("grid", 0), lines_of.get("robots", 0),
            lines_of.get("blocks", 0),
        )
        raise ConfigError(
            f"line {lineno}: cannot place {robots} robots and {blocks} blocks "
            f"on a {grid}x{grid} grid"
        )
    sim = SimConfig(grid, robots, blocks, steps=steps)
    row = PlanRow(sim, values.get("scenario", Scenario.EMERGENT))
    return ExperimentPlan(
        rows=(row,),
        runs_per_row=int(values.get("runs", 20)),
        master_seed=int(values.get("seed", 0)),
        population_size=int(values.get("population", 50)),
        generations=int(values.get("generations", 100)),
        eval_runs=int(values.get("eval_runs", 10)),
        mutation_rate=float(values.get("mutation_rate", 0.1)),
    )


def run_index_for(row: int, run: int) -> int:
    """Stable run_index for seed derivation, independent of runs_per_row."""
    return row * 1_000_000 + run


def posteval_seed_for(master_seed: int, run_index: int) -> int:
    """World seed of a run's post-evaluation of its best genome."""
    return mix64(master_seed, run_index, STREAM_POSTEVAL, 0, 0)


POSTEVAL_COLUMNS = (
    "run_id,scenario,L,N,B,fitness,similarity,block_movement,robot_movement,"
    "lines_start,pairs_start,clusters_start,dispersed_start,other_start,"
    "lines_end,pairs_end,clusters_end,dispersed_end,other_end,"
    "scene_start,scene_end"
)

_LABELS = (StructureLabel.LINE, StructureLabel.PAIR, StructureLabel.CLUSTER,
           StructureLabel.DISPERSED, StructureLabel.OTHER)


def posteval_csv_row(run_id: str, scenario: Scenario, sim: SimConfig,
                     row: MetricsRow) -> str:
    cells = [
        run_id, scenario.value, str(sim.side_length), str(sim.swarm_size),
        str(sim.block_count), repr(row.fitness), repr(row.similarity),
        repr(row.block_movement), repr(row.robot_movement),
    ]
    cells += [str(row.start_report.counts[lab]) for lab in _LABELS]
    cells += [str(row.end_report.counts[lab]) for lab in _LABELS]
    cells += [row.start_report.scene_label.value, row.end_report.scene_label.value]
    return ",".join(cells)


def _ratio(n: int, b: int) -> str:
    g = math.gcd(n, b) or 1
    return f"{n // g}:{b // g}"


def _write_text(path: Path, text: str) -> None:
    write_text_atomic(path, text)


@dataclass
class RunResult:
    row: int
    run: int
    run_id: str
    best_fitness: float
    metrics: MetricsRow
    posteval_row: str


def _plan_record(plan: ExperimentPlan, row_idx: int, run_idx: int) -> dict:
    """The part of run.json that fixes what a run computes; resume reuses a
    stored run only if this part matches the current plan."""
    row = plan.rows[row_idx]
    return {
        "run_index": run_index_for(row_idx, run_idx),
        "master_seed": plan.master_seed,
        "scenario": row.scenario.value,
        "sim": {
            "side_length": row.sim.side_length,
            "swarm_size": row.sim.swarm_size,
            "block_count": row.sim.block_count,
            "steps": row.sim.steps,
        },
        "population_size": plan.population_size,
        "generations": plan.generations,
        "eval_runs": plan.eval_runs,
        "mutation_rate": plan.mutation_rate,
    }


def _execute_run(plan: ExperimentPlan, row_idx: int, run_idx: int,
                 out_dir: Path) -> RunResult:
    """Evolve one (row, run) job and write its artifacts."""
    row = plan.rows[row_idx]
    run_id = f"row{row_idx}_run{run_idx}"
    run_dir = out_dir / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    planned = _plan_record(plan, row_idx, run_idx)
    run_index = planned["run_index"]

    best, history = evolve(plan.evolution_config(row), run_index=run_index)
    posteval_seed = posteval_seed_for(plan.master_seed, run_index)
    snapshots, metrics_row, _ = replay(best.genome, row.sim, row.scenario,
                                       posteval_seed, every=row.sim.steps)

    _write_text(run_dir / "fitness_history.csv", history.to_csv())
    save_genome(run_dir / "best.genome", best.genome)
    _write_text(run_dir / "start_snapshot.txt", snapshots[0][1])
    _write_text(run_dir / "end_snapshot.txt", snapshots[-1][1])
    pe_row = posteval_csv_row(run_id, row.scenario, row.sim, metrics_row)
    record = {
        **planned,
        "run_id": run_id,
        "row": row_idx,
        "run": run_idx,
        "posteval_seed": posteval_seed,
        "best_fitness": best.fitness,
        "best_per_run": list(best.per_run),
        "best_generation": best.generation,
        "posteval_row": pe_row,
        "complete": True,
    }
    _write_text(run_dir / "run.json",
                json.dumps(record, sort_keys=True, indent=2) + "\n")
    return RunResult(row_idx, run_idx, run_id, best.fitness, metrics_row, pe_row)


def _load_completed(plan: ExperimentPlan, row_idx: int, run_idx: int,
                    out_dir: Path) -> Optional[RunResult]:
    """Reload a finished run's results, or None if it must be (re)computed.

    Raises ConfigError if the stored run was made with a different plan.
    """
    run_id = f"row{row_idx}_run{run_idx}"
    run_dir = out_dir / run_id
    record_path = run_dir / "run.json"
    if not record_path.exists():
        return None
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError:
        return None
    if not record.get("complete"):
        return None
    for key, wanted in _plan_record(plan, row_idx, run_idx).items():
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
    pe_row = record["posteval_row"]
    metrics_row = _metrics_from_posteval_row(pe_row)
    return RunResult(row_idx, run_idx, run_id, float(record["best_fitness"]),
                     metrics_row, pe_row)


def _metrics_from_posteval_row(pe_row: str) -> MetricsRow:
    from .metrics import StructureReport

    parts = pe_row.split(",")
    start_counts = {lab: int(parts[9 + i]) for i, lab in enumerate(_LABELS)}
    end_counts = {lab: int(parts[14 + i]) for i, lab in enumerate(_LABELS)}
    return MetricsRow(
        fitness=float(parts[5]),
        similarity=float(parts[6]),
        block_movement=float(parts[7]),
        robot_movement=float(parts[8]),
        start_report=StructureReport(start_counts),
        end_report=StructureReport(end_counts),
    )


SUMMARY_COLUMNS = (
    "row,robots,blocks,ratio,grid,scenario,runs,median_fitness,"
    "altered_qty,median_similarity_altered,"
    "median_block_movement,median_robot_movement,"
    "lines_start,pairs_start,clusters_start,dispersed_start,"
    "lines_end,pairs_end,clusters_end,dispersed_end"
)


def summary_csv(plan: ExperimentPlan, results: Sequence[RunResult]) -> str:
    """Per-row medians; structure columns are median per-run block shares
    in percent."""
    lines = [SUMMARY_COLUMNS]
    for row_idx, row in enumerate(plan.rows):
        row_results = [r for r in results if r.row == row_idx]
        if not row_results:
            continue
        fits = [r.best_fitness for r in row_results]
        altered = [r for r in row_results if r.metrics.similarity < 1.0]
        med_sim_altered = (
            float(np.median([r.metrics.similarity for r in altered]))
            if altered else 1.0
        )
        blk = [r.metrics.block_movement for r in row_results]
        rob = [r.metrics.robot_movement for r in row_results]
        cells = [
            str(row_idx), str(row.sim.swarm_size), str(row.sim.block_count),
            _ratio(row.sim.swarm_size, row.sim.block_count),
            f"{row.sim.side_length}x{row.sim.side_length}",
            row.scenario.value, str(len(row_results)),
            repr(float(np.median(fits))), str(len(altered)),
            repr(med_sim_altered),
            repr(float(np.median(blk))), repr(float(np.median(rob))),
        ]
        for which in ("start_report", "end_report"):
            for lab in _LABELS[:4]:
                shares = [
                    100.0 * getattr(r.metrics, which).share(lab)
                    for r in row_results
                ]
                cells.append(repr(float(np.median(shares))))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _outcome(call, *args):
    """call(*args), or the exception it raised."""
    try:
        return call(*args)
    except Exception as exc:  # noqa: BLE001 - isolate per run
        return exc


def _pool_outcomes(plan: ExperimentPlan, jobs: list[tuple[int, int]],
                   out: Path, workers: int):
    """Run (row, run) jobs in a new process pool; yield each one's RunResult
    or exception, in job order. A worker that dies breaks its pool and fails
    every job left in it; each such job is retried alone in another pool,
    so only a job that breaks its own pool fails."""
    # imported here: they cost a noticeable share of every CLI start-up
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        # submit itself raises BrokenProcessPool once a worker has died
        futures = [_outcome(pool.submit, _execute_run, plan, i, j, out)
                   for i, j in jobs]
        for job, future in zip(jobs, futures):
            outcome = (future if isinstance(future, Exception)
                       else _outcome(future.result))
            if isinstance(outcome, BrokenProcessPool) and len(jobs) > 1:
                outcome, = _pool_outcomes(plan, [job], out, 1)
            yield outcome


def run_experiment(plan: ExperimentPlan, out_dir, workers: int = 1,
                   log=None) -> int:
    """Execute all (row, run) jobs, skipping completed ones; emit CSVs.

    A failing run is reported and skipped; the remaining runs still execute
    and the exit status becomes 1. With workers > 1 that holds also for a
    run whose worker process dies. Failures go to ``log`` (default: the
    current ``sys.stderr``). A completed run in ``out_dir`` made with
    a different plan raises ConfigError before any run starts.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs: list[tuple[int, int]] = [
        (i, j) for i in range(len(plan.rows)) for j in range(plan.runs_per_row)
    ]
    results: list[RunResult] = []
    pending: list[tuple[int, int]] = []
    for i, j in jobs:
        cached = _load_completed(plan, i, j, out)
        if cached is not None:
            results.append(cached)
        else:
            pending.append((i, j))

    if workers > 1 and len(pending) > 1:
        outcomes = _pool_outcomes(plan, pending, out, workers)
    else:
        outcomes = (_outcome(_execute_run, plan, i, j, out) for i, j in pending)
    failures = 0
    for (i, j), outcome in zip(pending, outcomes):
        if isinstance(outcome, Exception):
            failures += 1
            print(f"row{i}_run{j} failed: {outcome}", file=log or sys.stderr)
        else:
            results.append(outcome)

    results.sort(key=lambda r: (r.row, r.run))
    posteval_lines = [POSTEVAL_COLUMNS] + [r.posteval_row for r in results]
    _write_text(out / "posteval.csv", "\n".join(posteval_lines) + "\n")
    _write_text(out / "summary.csv", summary_csv(plan, results))
    return 1 if failures else 0


def replay(genome: Genome, sim: SimConfig, scenario: Scenario, seed: int,
           every: int) -> tuple[list[tuple[int, str]], MetricsRow, RunTrace]:
    """Post-evaluate a genome: one recorded simulation at ``seed``, with a
    snapshot every ``every`` >= 1 steps and at the last one, and its metrics.

    The batch runner, ``posteval`` and ``replay`` all go through here.
    """
    trace = simulate_traced(genome, sim, scenario, seed, snapshot_every=every)
    return trace.snapshots, metrics_from_trace(trace), trace

