"""The benchmark workloads, each a closed loop with one client.

An operation is one GA generation (ga-*) or one replay (posteval-replay).
Every operation's output is compared with the committed acceptance cache;
a mismatch or an exception counts as a failed operation.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import random
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from minsurprise import evolution, experiment, networks, simulation
from minsurprise.experiment import parse_config, run_index_for

from tracer import ROOT_SPAN, Tracer, instrumented

GA_SCENARIOS = {"ga-emergent": "emergent"}
REPLAY_SCENARIOS = ("emergent", "clusters", "empty")
RUNS_PER_SCENARIO = 5

# p90 of replay latency needs at least 100 samples, so that ten lie above it.
MIN_REPLAYS = 100
# A traced GA unit needs two generations so that mutation runs once.
TRACE_GENERATIONS = 2
# Operations in the first seconds after start-up often run a third or more
# slower than later ones; warm-up lasts at least this long and is not timed.
WARMUP_S = 5.0


@dataclass
class Outcome:
    """Operation latencies and failures of one workload run."""

    op_s: list[float] = field(default_factory=list)
    world_steps: int = 0
    errors: list[str] = field(default_factory=list)
    # checked but untimed warm-up operations
    warmed_up: int = 0

    @property
    def failed(self) -> int:
        return len(self.errors)

    @property
    def attempted(self) -> int:
        return len(self.op_s) + self.warmed_up + self.failed

    def fail(self, what: str) -> None:
        self.errors.append(what)


def acceptance_row(root: Path, scenario: str):
    """The plan of ``configs/acceptance_<scenario>.cfg`` and its one row."""
    plan = parse_config((root / "configs" / f"acceptance_{scenario}.cfg")
                        .read_text(encoding="utf-8"))
    return plan, plan.rows[0]


def warm_up(genome, row, seed: int) -> None:
    """Two engine steps: grid tables, genome decode, BLAS initialisation."""
    simulation.simulate_batch(
        [genome], dataclasses.replace(row.sim, steps=2), row.scenario,
        np.array([[seed]], dtype=np.uint64),
    )


class _Budget(Exception):
    """Raised from the progress sink to end an evolve call early."""


# --- ga-emergent / ga-clusters ---------------------------------------------


class GaWorkload:
    """Generations of one cached acceptance run, evolved from generation 0."""

    min_ops = 1
    warmup_ops = 1
    pass_ops = 1

    def __init__(self, root: Path, cache: Path, workload: str, seed: int):
        scenario = GA_SCENARIOS[workload]
        plan, row = acceptance_row(root, scenario)
        self.config = plan.evolution_config(row)
        run = seed % RUNS_PER_SCENARIO
        self.run_index = run_index_for(0, run)
        path = cache / scenario / f"row0_run{run}" / "fitness_history.csv"
        # fitness_history.csv lines, header first
        self.reference = path.read_text(encoding="utf-8").splitlines(
            keepends=True)
        c = self.config
        self.steps_per_op = c.population_size * c.eval_runs * c.sim.steps
        warm_up(networks.random_genome(np.random.default_rng(seed)), row, seed)

    @property
    def unit_ops(self) -> int:
        return TRACE_GENERATIONS

    def run(self, out: Outcome, more) -> None:
        """Evolve while ``more(generations done)``. Each generation's
        fitness row must equal the cached history line byte for byte."""
        config = dataclasses.replace(self.config,
                                     generations=len(self.reference) - 1)
        done = 0
        last = perf_counter()

        def sink(generation, row):
            nonlocal done, last
            now = perf_counter()
            done += 1
            line = evolution.FitnessHistory(rows=[row]).to_csv().splitlines(
                keepends=True)[1]
            expected = self.reference[1 + generation]
            if line == expected:
                out.op_s.append(now - last)
                out.world_steps += self.steps_per_op
            else:
                out.fail(f"generation {generation}: {line.strip()} != "
                         f"{expected.strip()}")
            if not more(done):
                raise _Budget
            last = perf_counter()

        try:
            evolution.evolve(config, run_index=self.run_index, progress=sink)
        except _Budget:
            pass
        except Exception as exc:  # noqa: BLE001 - one failed operation
            out.fail(f"generation {done}: {exc!r}")


# --- posteval-replay --------------------------------------------------------


@dataclass(frozen=True)
class ReplayRef:
    scenario: str
    run_dir: Path
    plan_row: experiment.PlanRow
    run_id: str
    seed: int
    posteval_row: str
    start: str
    end: str


def load_replay_refs(root: Path, cache: Path) -> list[ReplayRef]:
    refs = []
    for scenario in REPLAY_SCENARIOS:
        _, row = acceptance_row(root, scenario)
        for j in range(RUNS_PER_SCENARIO):
            run_dir = cache / scenario / f"row0_run{j}"
            record = json.loads((run_dir / "run.json").read_text("utf-8"))
            refs.append(ReplayRef(
                scenario, run_dir, row, record["run_id"],
                int(record["posteval_seed"]), record["posteval_row"],
                (run_dir / "start_snapshot.txt").read_text("utf-8"),
                (run_dir / "end_snapshot.txt").read_text("utf-8"),
            ))
    return refs


class ReplayWorkload:
    """K=1 replays of the cached genomes in passes shuffled by the seed."""

    def __init__(self, root: Path, cache: Path, seed: int, out_dir: Path):
        self.refs = load_replay_refs(root, cache)
        # Timed replays stop only between passes, so every genome is replayed
        # equally often and the latency mix is the same in every run.
        self.pass_ops = self.warmup_ops = self.unit_ops = len(self.refs)
        self.seed = seed
        self.out_dir = out_dir
        first = self.refs[0]
        warm_up(networks.load_genome(first.run_dir / "best.genome"),
                first.plan_row, seed)

    @property
    def min_ops(self) -> int:
        return MIN_REPLAYS

    def order(self):
        """Endless passes over the references; the seed fixes the order."""
        rng = random.Random(self.seed)
        while True:
            refs = list(self.refs)
            rng.shuffle(refs)
            yield from refs

    def run(self, out: Outcome, more) -> None:
        """Replay while ``more(replays done)``."""
        done = 0
        for ref in self.order():
            if not more(done):
                return
            done += 1
            try:
                elapsed, ok = replay_once(ref, self.out_dir)
            except Exception as exc:  # noqa: BLE001 - one failed operation
                out.fail(f"{ref.scenario}/{ref.run_id}: {exc!r}")
                continue
            if ok:
                out.op_s.append(elapsed)
                out.world_steps += ref.plan_row.sim.steps
            else:
                out.fail(f"{ref.scenario}/{ref.run_id}: output differs "
                         f"from cache")


def replay_once(ref: ReplayRef, out_dir: Path) -> tuple[float, bool]:
    """One K=1 post-evaluation as ``posteval``/``replay`` run it."""
    sim, scenario = ref.plan_row.sim, ref.plan_row.scenario
    dest = out_dir / f"{ref.scenario}_{ref.run_id}"
    dest.mkdir(exist_ok=True)
    t0 = perf_counter()
    genome = networks.load_genome(ref.run_dir / "best.genome")
    snapshots, row, _ = experiment.replay(genome, sim, scenario, ref.seed,
                                          every=sim.steps)
    csv_row = experiment.posteval_csv_row(ref.run_id, scenario, sim, row)
    experiment._write_text(dest / "start_snapshot.txt", snapshots[0][1])
    experiment._write_text(dest / "end_snapshot.txt", snapshots[-1][1])
    elapsed = perf_counter() - t0
    ok = (csv_row == ref.posteval_row and snapshots[0][1] == ref.start
          and snapshots[-1][1] == ref.end)
    return elapsed, ok


# --- measurement ------------------------------------------------------------


def setup_workload(root: Path, cache: Path, workload: str, seed: int,
                   out_dir: Path):
    # The CLI is argparse glue over experiment; it is covered only through
    # its import cost here.
    importlib.import_module("minsurprise.cli")
    if workload == "posteval-replay":
        return ReplayWorkload(root, cache, seed, out_dir)
    return GaWorkload(root, cache, workload, seed)


def measure(workload, seconds: float, between) -> tuple[Outcome, float]:
    """Untraced closed loop: checked but untimed warm-up operations, at
    least ``warmup_ops`` of them and for at least ``WARMUP_S``; then timed
    passes of ``pass_ops`` operations while another pass fits in
    ``seconds``, and at least ``min_ops`` timed operations. ``between(elapsed
    seconds)`` runs between operations, outside their timing. Returns the
    outcome and the wall time of the timed part."""
    outcome = Outcome()
    start = perf_counter()
    workload.run(outcome, lambda done: done < workload.warmup_ops
                 or perf_counter() - start < WARMUP_S)
    outcome.warmed_up, outcome.op_s = len(outcome.op_s), []
    outcome.world_steps = 0
    start = perf_counter()

    def more(done):
        elapsed = perf_counter() - start
        between(elapsed)
        if done < workload.min_ops or done % workload.pass_ops:
            return True
        passes = done // workload.pass_ops
        return passes == 0 or elapsed + elapsed / passes <= seconds

    workload.run(outcome, more)
    return outcome, perf_counter() - start


def measure_traced(workload, seconds: float):
    """Alternate untraced and traced copies of one fixed unit of work.

    A unit is ``unit_ops`` operations from the workload's start, so every
    unit does the same work and yields the same counts. Pairs repeat while
    another pair fits in ``seconds`` (at least one). Returns the outcome,
    the tracer, the untraced and traced wall times and the counts of each
    unit.
    """
    outcome = Outcome()
    tracer = Tracer()
    plain_s = traced_s = 0.0
    unit_counts = []
    start = perf_counter()

    def unit(done):
        return done < workload.unit_ops

    while True:
        t0 = perf_counter()
        workload.run(outcome, unit)
        plain_s += perf_counter() - t0
        before = tracer.counts.copy()
        t0 = perf_counter()
        with instrumented(tracer), tracer.span(ROOT_SPAN):
            workload.run(outcome, unit)
        traced_s += perf_counter() - t0
        unit_counts.append(tracer.counts - before)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(unit_counts) > seconds:
            return outcome, tracer, plain_s, traced_s, unit_counts


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples, never beyond them."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarise(outcome: Outcome) -> dict[str, float]:
    busy = sum(outcome.op_s)
    return {
        "world_steps_per_s": outcome.world_steps / busy,
        "op_s_p50": statistics.median(outcome.op_s),
        "op_s_p90": percentile(outcome.op_s, 90),
    }


def scratch_dir(root: Path) -> tempfile.TemporaryDirectory:
    base = root / "perfbench" / "out"
    base.mkdir(parents=True, exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)
