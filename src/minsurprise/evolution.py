"""Generational GA over paired-network genomes.

Evaluation: each genome runs eval_runs independently seeded simulations and
scores the minimum fitness across them. Reproduction: the single best genome
is copied verbatim (elitism), the rest of the next population are mutated
copies of fitness-proportionate parents; there is no crossover.

Seed derivation (format contract, platform-stable): every random stream is
seeded with ``mix64(...)``, a splitmix64-style avalanche over counters:

    eval seed        mix64(master_seed, run_index, generation, genome_index,
                           eval_index)
    initial genome i mix64(master_seed, run_index, STREAM_INIT, i, 0)
    reproduction     mix64(master_seed, run_index, generation, STREAM_GA, 0)

The elite is re-evaluated on each generation's fresh seeds, so
per-generation best fitness may dip; the best-ever genome is tracked
separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import metrics
from .networks import WEIGHT_LIMIT, Genome, Scenario, random_genome
from .simulation import simulate_batch
from .world import SimConfig

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Reserved values for the generation slot of mix64, separating the init and
# reproduction streams from evaluation streams (generations stay < 2**32).
STREAM_INIT = 1 << 32
STREAM_GA = (1 << 32) + 1
STREAM_POSTEVAL = (1 << 32) + 2

# Perturbations are uniform in [-MUTATION_SPAN, +MUTATION_SPAN]. At 0.5 the
# drift toward saturated (quiet) prediction outputs needs well over the
# default 100-generation budget; 1.0 converges with margin to spare.
MUTATION_SPAN = 1.0


def mix64(*counters: int) -> int:
    """Avalanche-mix integer counters into one 64-bit seed.

    Each round adds the counter plus a golden-ratio increment, then applies
    the splitmix64 finalizer. The exact constants are part of the on-disk
    format contract: recorded seeds must be reproducible across platforms.
    """
    h = 0
    for c in counters:
        h = (h + _GOLDEN + (int(c) & _MASK)) & _MASK
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & _MASK
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & _MASK
        h ^= h >> 31
    return h


@dataclass(frozen=True)
class EvolutionConfig:
    sim: SimConfig
    scenario: Scenario = Scenario.EMERGENT
    population_size: int = 50
    generations: int = 100
    eval_runs: int = 10
    mutation_rate: float = 0.1
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 1:
            raise ValueError("population_size must be >= 1")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if self.eval_runs < 1:
            raise ValueError("eval_runs must be >= 1")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")


@dataclass(frozen=True)
class EvaluatedGenome:
    genome: Genome
    fitness: float  # min of per_run
    per_run: tuple[float, ...]
    generation: int = 0


@dataclass
class FitnessHistory:
    """Per-generation fitness statistics of one evolutionary run."""

    rows: list[tuple[int, float, float, float]] = field(default_factory=list)

    def append(self, generation: int, fitnesses: Sequence[float]) -> None:
        arr = np.asarray(fitnesses, dtype=np.float64)
        best = float(arr.max())
        self.rows.append((generation, best, float(np.median(arr)),
                          float(arr.mean())))

    def to_csv(self) -> str:
        lines = ["generation,best,median,mean"]
        for gen, best, med, mean in self.rows:
            lines.append(f"{gen},{best!r},{med!r},{mean!r}")
        return "\n".join(lines) + "\n"


def eval_seeds_for(config: EvolutionConfig, run_index: int, generation: int,
                   genome_index: int) -> np.ndarray:
    """The eval_runs world seeds of one genome evaluation: fresh worlds for
    every genome in every generation."""
    return np.array(
        [
            mix64(config.master_seed, run_index, generation, genome_index, e)
            for e in range(config.eval_runs)
        ],
        dtype=np.uint64,
    )


def evaluate_population(
    genomes: Sequence[Genome], config: EvolutionConfig, run_index: int,
    generation: int,
) -> list[EvaluatedGenome]:
    """Evaluate a whole population in one vectorized engine call.

    Each genome runs the eval_runs worlds seeded by ``eval_seeds_for`` and
    scores the minimum fitness over them. A genome's result depends only on
    it and its seeds, not on the rest of the batch.
    """
    seeds = np.stack([
        eval_seeds_for(config, run_index, generation, i)
        for i in range(len(genomes))
    ])
    errors, comparisons = simulate_batch(genomes, config.sim, config.scenario,
                                         seeds)
    out = []
    for genome, row in zip(genomes, errors):
        per_run = tuple(
            metrics.score_run(float(e), config.sim.swarm_size, comparisons)
            for e in row
        )
        out.append(EvaluatedGenome(genome, min(per_run), per_run, generation))
    return out


def select_proportionate(fitnesses: Sequence[float],
                         rng: np.random.Generator) -> int:
    """Draw a parent index with probability fitness / total fitness.

    A zero-total population falls back to uniform choice.
    """
    f = np.asarray(fitnesses, dtype=np.float64)
    if f.size == 0:
        raise ValueError("cannot select from an empty population")
    if np.any(f < 0):
        raise ValueError("fitnesses must be non-negative")
    u = rng.random()
    total = f.sum()
    if total == 0.0:
        return min(int(u * f.size), f.size - 1)
    # clip guards the (measure-zero) case where rounding leaves the last
    # cumulative value just below u
    idx = int(np.searchsorted(np.cumsum(f) / total, u, side="right"))
    return min(idx, f.size - 1)


def _mutate_vector(w: np.ndarray, rate: float,
                   rng: np.random.Generator) -> np.ndarray:
    # Draw discipline: one mask batch, then one noise batch, per vector.
    mask = rng.random(w.shape) < rate
    noise = rng.uniform(-MUTATION_SPAN, MUTATION_SPAN, w.shape)
    return np.clip(w + mask * noise, -WEIGHT_LIMIT, WEIGHT_LIMIT)


def mutate(genome: Genome, rate: float, rng: np.random.Generator) -> Genome:
    """Per-weight mutation: with probability rate add uniform noise, clamp.

    Both weight vectors are treated identically, action weights first.
    """
    return Genome(
        _mutate_vector(genome.action_weights, rate, rng),
        _mutate_vector(genome.prediction_weights, rate, rng),
    )


def initial_population(config: EvolutionConfig, run_index: int) -> list[Genome]:
    """Generation 0: every weight uniform in [-1, 1]."""
    return [
        random_genome(np.random.default_rng(
            mix64(config.master_seed, run_index, STREAM_INIT, i, 0)
        ))
        for i in range(config.population_size)
    ]


ProgressSink = Callable[[int, tuple[int, float, float, float]], None]


def evolve(
    config: EvolutionConfig,
    run_index: int = 0,
    progress: Optional[ProgressSink] = None,
) -> tuple[EvaluatedGenome, FitnessHistory]:
    """Run the GA; return the best-ever evaluated genome and the history.

    Ties for generation best break toward the lower genome index; the
    best-ever genome is replaced only by a strictly better one.
    """
    population = initial_population(config, run_index)
    history = FitnessHistory()
    best_ever: Optional[EvaluatedGenome] = None

    for generation in range(config.generations):
        evaluated = evaluate_population(population, config, run_index, generation)
        fitnesses = [e.fitness for e in evaluated]
        history.append(generation, fitnesses)
        if progress is not None:
            progress(generation, history.rows[-1])

        gen_best = evaluated[int(np.argmax(fitnesses))]
        if best_ever is None or gen_best.fitness > best_ever.fitness:
            best_ever = gen_best

        if generation + 1 < config.generations:
            rng = np.random.default_rng(
                mix64(config.master_seed, run_index, generation, STREAM_GA, 0)
            )
            next_pop = [gen_best.genome]  # the elite
            while len(next_pop) < config.population_size:
                parent = select_proportionate(fitnesses, rng)
                next_pop.append(
                    mutate(population[parent], config.mutation_rate, rng)
                )
            population = next_pop

    assert best_ever is not None
    return best_ever, history
