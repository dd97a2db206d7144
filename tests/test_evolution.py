"""GA mechanics: seed mixing, evaluation, selection, mutation, evolve loop."""

import numpy as np
import pytest

import minsurprise.evolution as evolution
from minsurprise.evolution import (
    EvolutionConfig,
    eval_seeds_for,
    evaluate_population,
    evolve,
    initial_population,
    mix64,
    mutate,
    select_proportionate,
)
from minsurprise.networks import (
    ACTION_LENGTH,
    PREDICTION_LENGTH,
    Genome,
    Scenario,
    random_genome,
)
from minsurprise.simulation import simulate_batch
from minsurprise.world import SimConfig


def small_config(**overrides):
    defaults = dict(
        sim=SimConfig(8, 3, 5, steps=30),
        scenario=Scenario.EMERGENT,
        population_size=4,
        generations=2,
        eval_runs=2,
        master_seed=9,
    )
    defaults.update(overrides)
    return EvolutionConfig(**defaults)


def use_seeds(monkeypatch, seeds):
    """Make every genome evaluation run the worlds of these seeds."""
    monkeypatch.setattr(evolution, "eval_seeds_for",
                        lambda *_: np.array(seeds, dtype=np.uint64))


def freeze_objective(monkeypatch):
    """Pin the generation and genome-index seed counters to 0, so every
    genome faces the same worlds in every generation: a frozen objective
    under which elitism makes best fitness non-decreasing."""
    monkeypatch.setattr(
        evolution, "eval_seeds_for",
        lambda config, run_index, *_: eval_seeds_for(config, run_index, 0, 0))


def evaluate_one(genome, config, generation=0):
    return evaluate_population([genome], config, 0, generation)[0]


class TestMix64:
    def test_golden_values_pin_the_format_contract(self):
        # frozen reference values; changing the mixer breaks stored seeds
        assert mix64(0) == 16294208416658607535
        assert mix64(1) == 10451216379200822465
        assert mix64(0, 0) == 12035550249420947055
        assert mix64(42, 1, 2, 3, 4) == 3836392971734152462

    def test_counter_order_matters(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_outputs_fit_in_64_bits(self):
        for c in range(50):
            assert 0 <= mix64(c, c * 7, c * 13) < 2**64

    def test_spread_over_small_counters(self):
        seeds = {mix64(0, run, gen, g, e)
                 for run in range(3) for gen in range(3)
                 for g in range(3) for e in range(3)}
        assert len(seeds) == 81


class TestEvaluate:
    def test_min_of_runs_is_the_fitness(self):
        config = small_config(eval_runs=4)
        genome = random_genome(np.random.default_rng(0))
        result = evaluate_one(genome, config)
        assert result.fitness == min(result.per_run)
        assert len(result.per_run) == 4
        assert all(0.0 <= f <= 1.0 for f in result.per_run)

    def test_single_run_fitness_is_that_run(self, monkeypatch):
        config = small_config(eval_runs=1)
        genome = random_genome(np.random.default_rng(1))
        use_seeds(monkeypatch, [12345])
        result = evaluate_one(genome, config)
        assert result.fitness == result.per_run[0]

    def test_identical_seeds_identical_scores(self, monkeypatch):
        config = small_config(eval_runs=3)
        genome = random_genome(np.random.default_rng(2))
        use_seeds(monkeypatch, [777, 777, 777])
        result = evaluate_one(genome, config)
        assert len(set(result.per_run)) == 1
        assert result.fitness == result.per_run[0]

    def test_zero_genome_scores_exactly_half(self, monkeypatch):
        config = small_config(eval_runs=3)
        genome = Genome(np.zeros(ACTION_LENGTH), np.zeros(PREDICTION_LENGTH))
        use_seeds(monkeypatch, [1, 2, 3])
        result = evaluate_one(genome, config)
        assert result.per_run == (0.5, 0.5, 0.5)
        assert result.fitness == 0.5

    def test_population_batch_matches_individual_evaluation(self,
                                                           monkeypatch):
        config = small_config(population_size=5, eval_runs=3)
        genomes = initial_population(config, run_index=1)
        batch = evaluate_population(genomes, config, run_index=1, generation=2)
        for i, genome in enumerate(genomes):
            use_seeds(monkeypatch, eval_seeds_for(config, 1, 2, i))
            solo = evaluate_one(genome, config, generation=2)
            assert solo.per_run == batch[i].per_run
            assert solo.fitness == batch[i].fitness
            assert solo.generation == 2


class TestSelectProportionate:
    def test_single_individual_always_selected(self):
        rng = np.random.default_rng(0)
        assert all(select_proportionate([0.3], rng) == 0 for _ in range(20))

    def test_probabilities_match_fitness_shares(self):
        rng = np.random.default_rng(1)
        draws = np.array([
            select_proportionate([0.9, 0.1], rng) for _ in range(100_000)
        ])
        p0 = np.mean(draws == 0)
        assert 0.89 <= p0 <= 0.91  # binomial bound, ~30 sigma margin

    def test_equal_fitnesses_select_uniformly(self):
        rng = np.random.default_rng(2)
        draws = np.array([
            select_proportionate([0.4, 0.4, 0.4, 0.4], rng)
            for _ in range(40_000)
        ])
        counts = np.bincount(draws, minlength=4)
        # 3 sigma for binomial(40000, 0.25) is ~260
        assert np.all(np.abs(counts - 10_000) < 800)

    def test_zero_total_falls_back_to_uniform(self):
        rng = np.random.default_rng(3)
        draws = {select_proportionate([0.0, 0.0, 0.0], rng) for _ in range(200)}
        assert draws == {0, 1, 2}

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            select_proportionate([], np.random.default_rng(0))


@pytest.mark.parametrize("call, message", [
    (lambda: small_config(population_size=0), "population_size must be >= 1"),
    (lambda: small_config(generations=0), "generations must be >= 1"),
    (lambda: small_config(eval_runs=0), "eval_runs must be >= 1"),
    (lambda: small_config(mutation_rate=-0.1), r"mutation_rate must lie in"),
    (lambda: small_config(mutation_rate=1.5), r"mutation_rate must lie in"),
    (lambda: select_proportionate([0.5, -0.25], np.random.default_rng(0)),
     "fitnesses must be non-negative"),
    (lambda: simulate_batch([random_genome(np.random.default_rng(0))] * 2,
                            SimConfig(8, 3, 5, steps=30), Scenario.EMERGENT,
                            np.zeros((3, 1), dtype=np.uint64)),
     "one seed row per genome required"),
], ids=["population", "generations", "eval-runs", "rate-below-0",
        "rate-above-1", "negative-fitness", "seed-rows"])
def test_public_input_checks_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestMutate:
    def test_rate_zero_is_identity(self):
        genome = random_genome(np.random.default_rng(4))
        mutated = mutate(genome, 0.0, np.random.default_rng(5))
        assert np.array_equal(genome.action_weights, mutated.action_weights)
        assert np.array_equal(genome.prediction_weights,
                              mutated.prediction_weights)

    def test_rate_one_changes_every_interior_weight(self):
        genome = random_genome(np.random.default_rng(6))  # weights in (-1, 1)
        mutated = mutate(genome, 1.0, np.random.default_rng(7))
        assert np.all(mutated.action_weights != genome.action_weights)
        assert np.all(mutated.prediction_weights != genome.prediction_weights)

    def test_changed_fraction_tracks_the_rate(self):
        rng = np.random.default_rng(8)
        changed = total = 0
        for _ in range(30):  # 30 x 358 > 10^4 weights
            genome = random_genome(rng)
            mutated = mutate(genome, 0.1, rng)
            changed += int(np.sum(mutated.action_weights != genome.action_weights))
            changed += int(
                np.sum(mutated.prediction_weights != genome.prediction_weights)
            )
            total += ACTION_LENGTH + PREDICTION_LENGTH
        assert 0.085 <= changed / total <= 0.115

    def test_results_clamped_to_weight_limit(self):
        near_limit = Genome(np.full(ACTION_LENGTH, 5.0),
                            np.full(PREDICTION_LENGTH, -5.0))
        rng = np.random.default_rng(9)
        for _ in range(10):
            mutated = mutate(near_limit, 1.0, rng)
            assert np.all(mutated.action_weights <= 5.0)
            assert np.all(mutated.prediction_weights >= -5.0)

    def test_deterministic_given_rng_state(self):
        genome = random_genome(np.random.default_rng(10))
        a = mutate(genome, 0.3, np.random.default_rng(11))
        b = mutate(genome, 0.3, np.random.default_rng(11))
        assert np.array_equal(a.action_weights, b.action_weights)
        assert np.array_equal(a.prediction_weights, b.prediction_weights)


class TestEvolve:
    def test_single_generation_two_individuals(self):
        config = small_config(population_size=2, generations=1)
        best, history = evolve(config)
        assert len(history.rows) == 1
        assert history.rows[0][0] == 0
        assert best.fitness == history.rows[0][1]

    def test_initial_population_weights_in_unit_range(self):
        config = small_config(population_size=6)
        for genome in initial_population(config, 0):
            assert np.all(np.abs(genome.action_weights) <= 1.0)
            assert np.all(np.abs(genome.prediction_weights) <= 1.0)

    def test_frozen_seed_mode_best_never_decreases(self, monkeypatch):
        config = small_config(population_size=6, generations=6)
        freeze_objective(monkeypatch)
        _, history = evolve(config)
        bests = [row[1] for row in history.rows]
        assert all(b2 >= b1 - 1e-15 for b1, b2 in zip(bests, bests[1:]))

    def test_best_ever_is_max_over_generations(self):
        config = small_config(population_size=5, generations=4)
        best, history = evolve(config)
        assert best.fitness == pytest.approx(max(r[1] for r in history.rows))

    def test_reproducible_bit_identical(self):
        config = small_config(population_size=4, generations=3)
        best1, hist1 = evolve(config, run_index=2)
        best2, hist2 = evolve(config, run_index=2)
        assert hist1.rows == hist2.rows
        assert np.array_equal(best1.genome.action_weights,
                              best2.genome.action_weights)
        assert np.array_equal(best1.genome.prediction_weights,
                              best2.genome.prediction_weights)

    def test_different_run_index_different_outcome(self):
        config = small_config(population_size=4, generations=2)
        _, hist1 = evolve(config, run_index=0)
        _, hist2 = evolve(config, run_index=1)
        assert hist1.rows != hist2.rows

    def test_all_fitnesses_in_unit_interval(self):
        config = small_config(population_size=5, generations=3)
        _, history = evolve(config)
        for _, best, median, mean in history.rows:
            assert 0.0 <= mean <= best <= 1.0
            assert 0.0 <= median <= best

    def test_elite_copied_verbatim(self, monkeypatch):
        config = small_config(population_size=4, generations=2)
        freeze_objective(monkeypatch)
        captured = []
        real = evolution.evaluate_population

        def spy(genomes, cfg, run_index, generation):
            captured.append([g for g in genomes])
            return real(genomes, cfg, run_index, generation)

        monkeypatch.setattr(evolution, "evaluate_population", spy)
        evolve(config)
        gen0, gen1 = captured
        results = real(gen0, config, 0, 0)
        best_idx = int(np.argmax([r.fitness for r in results]))
        assert any(
            np.array_equal(gen0[best_idx].action_weights, g.action_weights)
            and np.array_equal(gen0[best_idx].prediction_weights,
                               g.prediction_weights)
            for g in gen1
        )

    def test_history_csv_round_trips(self):
        config = small_config(population_size=3, generations=3)
        _, history = evolve(config)
        text = history.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "generation,best,median,mean"
        assert len(lines) == 4
        for row, line in zip(history.rows, lines[1:]):
            gen, best, med, mean = line.split(",")
            assert int(gen) == row[0]
            assert float(best) == row[1]
            assert float(med) == row[2]
            assert float(mean) == row[3]

    def test_min_aggregation_property_random_fold(self, monkeypatch):
        rng = np.random.default_rng(13)
        config = small_config(eval_runs=4)
        genome = random_genome(rng)
        use_seeds(monkeypatch, [3, 14, 15, 92])
        result = evaluate_one(genome, config)
        folded = result.per_run[0]
        for f in result.per_run[1:]:
            folded = min(folded, f)
        assert result.fitness == folded
