"""Acceptance suite: one test per criterion, at the stated tolerances.

Criteria 5-8 consume three full-budget experiment batches (5 evolutionary
runs each). These are computed through the batch runner into a cache
directory ($MINSURPRISE_ACCEPT_DIR, default .acceptance_cache next to the
repo root) and reused across sessions via the runner's per-run resumability.
A cold cache takes roughly an hour of compute at desk scale.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines as they complete.
"""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from minsurprise.evolution import evolve
from minsurprise.experiment import (
    parse_config,
    posteval_csv_row,
    replay,
    run_experiment,
    run_index_for,
)
from minsurprise.metrics import (
    StructureLabel,
    classify_blocks,
    movement,
    scene_label,
    score_run,
    structure_report,
)
from minsurprise.networks import Genome, Scenario, load_genome, random_genome
from minsurprise.simulation import simulate_batch, simulate_traced
from minsurprise.world import SimConfig, sample_placement
from oracle import invariant_sweep, reference_simulation

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"
ACCEPT_DIR = Path(os.environ.get("MINSURPRISE_ACCEPT_DIR",
                                 REPO_ROOT / ".acceptance_cache"))

LINE = StructureLabel.LINE
PAIR = StructureLabel.PAIR
CLUSTER = StructureLabel.CLUSTER
DISPERSED = StructureLabel.DISPERSED
OTHER = StructureLabel.OTHER


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def platform_note() -> str:
    """numpy version, SIMD dispatch targets and BLAS build of this process.

    Artifacts are bit-identical only on the same numpy build and SIMD
    dispatch level: numpy picks its tanh/exp kernels by CPU.
    """
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
        simd = (f"SIMD baseline {' '.join(__cpu_baseline__) or 'none'}, "
                "dispatch " + (" ".join(f for f in __cpu_dispatch__
                                        if __cpu_features__.get(f))
                               or "none"))
    except ImportError:
        simd = "SIMD dispatch unknown"
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return (f"numpy {np.__version__}, {simd}, BLAS {blas.get('name')} "
            f"{blas.get('version')} ({blas.get('openblas configuration')})")


def test_platform_note_names_numpy_simd_and_blas():
    note = platform_note()
    assert f"numpy {np.__version__}" in note
    assert "dispatch" in note and "BLAS" in note


# --- criteria 5-8 share three experiment batches -------------------------


@pytest.fixture(scope="session")
def heavy_results():
    """Run (or reload) the three full-budget acceptance batches.

    Every run is replayed from its best.genome at its recorded
    post-evaluation seed first: its posteval row and snapshots must equal
    the stored ones byte for byte, so results left by older code can never
    reach the criteria. A batch's posteval.csv and summary.csv, built from
    the stored run.json records, must be rewritten with the bytes they had;
    those bytes are then put back, so a mismatch fails on every run.
    """
    out = {}
    for name in ("emergent", "empty", "clusters"):
        cfg_text = (CONFIG_DIR / f"acceptance_{name}.cfg").read_text()
        plan = parse_config(cfg_text)
        batch_dir = ACCEPT_DIR / name
        csvs = [batch_dir / csv for csv in ("posteval.csv", "summary.csv")]
        stored = {path: path.read_bytes() for path in csvs if path.exists()}
        status = run_experiment(plan, batch_dir)
        assert status == 0, f"{name} batch reported failures"
        for path, data in stored.items():
            rewritten = path.read_bytes()
            path.write_bytes(data)
            assert rewritten == data, \
                f"{path}: rewritten from the run.json records with other bytes"
        row = plan.rows[0]
        rows = []
        for j in range(plan.runs_per_row):
            run_dir = batch_dir / f"row0_run{j}"
            record = json.loads((run_dir / "run.json").read_text())
            snapshots, metrics_row, _ = replay(
                load_genome(run_dir / "best.genome"), row.sim, row.scenario,
                record["posteval_seed"], every=row.sim.steps,
            )
            assert posteval_csv_row(record["run_id"], row.scenario, row.sim,
                                    metrics_row) == record["posteval_row"], \
                (f"{run_dir}: replay differs from the stored posteval_row "
                 f"under {platform_note()}")
            for (_, text), snap in zip(
                (snapshots[0], snapshots[-1]),
                ("start_snapshot.txt", "end_snapshot.txt"),
            ):
                assert text.encode("utf-8") == (run_dir / snap).read_bytes(), \
                    (f"{run_dir}: replay differs from the stored {snap} "
                     f"under {platform_note()}")
            rows.append(record)
        posteval = (batch_dir / "posteval.csv").read_text().strip().splitlines()
        out[name] = {"plan": plan, "records": rows, "posteval": posteval[1:]}
    return out


@pytest.mark.parametrize("name", ["emergent", "empty", "clusters"])
def test_cached_generation_zero_reproduces_at_full_batch(name):
    """Generation 0 of run 0, one engine call over 50 genomes x 10 worlds,
    must give the cached fitness_history.csv line byte for byte: the guard
    above replays single worlds only."""
    plan = parse_config((CONFIG_DIR / f"acceptance_{name}.cfg").read_text())
    config = dataclasses.replace(plan.rows[0],
                                 generations=1)
    _, history = evolve(config, run_index=run_index_for(0, 0))
    cached = (ACCEPT_DIR / name / "row0_run0" / "fitness_history.csv") \
        .read_text(encoding="utf-8").splitlines(keepends=True)
    assert history.to_csv().splitlines(keepends=True)[1] == cached[1], \
        f"{name}: generation 0 differs from the cache under {platform_note()}"


# --- 1: determinism -------------------------------------------------------


def test_criterion_1_determinism(tmp_path):
    plan = parse_config((CONFIG_DIR / "smoke.cfg").read_text())
    run_experiment(plan, tmp_path / "a")
    run_experiment(plan, tmp_path / "b")
    compared = []
    for rel in ("row0_run0/fitness_history.csv", "row0_run0/best.genome",
                "posteval.csv"):
        same = (tmp_path / "a" / rel).read_bytes() == \
               (tmp_path / "b" / rel).read_bytes()
        compared.append(same)
    report("1 determinism", all(compared),
           "fitness_history.csv, best.genome, posteval.csv byte-identical")


# --- 2: conservation fuzz -------------------------------------------------


def test_criterion_2_conservation_fuzz():
    rng = np.random.default_rng(20240808)
    sims = 0
    groups = 0
    while sims < 1000:
        L = int(rng.choice([8, 16, 20]))
        N = int(rng.integers(1, min(3 * L, 40)))
        B = int(rng.integers(0, min(2 * L, L * L - N)))
        worlds = int(rng.integers(10, 30))
        config = SimConfig(L, N, B, steps=200)
        genomes = [
            Genome(rng.uniform(-5, 5, 130), rng.uniform(-5, 5, 228))
            for _ in range(worlds)
        ]
        seeds = rng.integers(0, 2**63, (worlds, 1)).astype(np.uint64)
        # the sweep asserts occupancy consistency, entity conservation and
        # coordinate ranges on the engine's state after every step
        invariant_sweep(genomes, config, Scenario.EMERGENT, seeds)
        sims += worlds
        groups += 1
    report("2 conservation fuzz", True,
           f"{sims} simulations x 200 steps in {groups} batches, 0 violations")


# --- 3: fitness oracle ----------------------------------------------------


def test_criterion_3_fitness_oracle():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for trial in range(100):
        L = int(rng.choice([8, 10]))
        N = int(rng.integers(1, 5))
        B = int(rng.integers(0, 10))
        T = L * L // 2 + int(rng.integers(0, 20))
        config = SimConfig(L, N, B, steps=T)
        genome = random_genome(rng)
        genome = Genome(np.clip(genome.action_weights * 3, -5, 5),
                        np.clip(genome.prediction_weights * 3, -5, 5))
        seed = int(rng.integers(0, 2**63))
        trace = simulate_traced(genome, config, Scenario.EMERGENT, seed,
                                snapshot_every=T)
        # independent naive triple-loop summation over the predictions and
        # sensor readings the scalar reference logs for the same world
        io_log = []
        reference_simulation(genome, config, Scenario.EMERGENT, seed,
                             io_log=io_log)
        assert len(io_log) == trace.comparisons
        total = 0.0
        for t in range(trace.comparisons):
            predictions, sensors = io_log[t]
            for n in range(N):
                for r in range(12):
                    total += abs(predictions[n, r] - sensors[n, r])
        oracle = 1.0 - total / (N * trace.comparisons * 12)
        scored = score_run(trace.error_sum, N, trace.comparisons)
        worst = max(worst, abs(oracle - scored))
        assert abs(oracle - scored) <= 1e-12
    report("3 fitness oracle", True,
           f"100 traces, max |score - oracle| = {worst:.2e} <= 1e-12")


# --- 4: classifier suite ---------------------------------------------------


def test_criterion_4_classifier_suite():
    L = 16
    ring = [(x, 2) for x in range(L)]
    cases = [
        ("isolated pair", [(4, 4), (5, 4)], {(4, 4): PAIR, (5, 4): PAIR}),
        ("vertical pair", [(9, 9), (9, 10)], {(9, 9): PAIR, (9, 10): PAIR}),
        ("3-line", [(4, 4), (5, 4), (6, 4)],
         {(4, 4): LINE, (5, 4): LINE, (6, 4): LINE}),
        ("4-line with one legal flank neighbor",
         [(4, 4), (5, 4), (6, 4), (7, 4), (5, 5)],
         {(4, 4): LINE, (5, 4): LINE, (6, 4): LINE, (7, 4): LINE,
          (5, 5): PAIR}),
        ("flank-rule violation: adjacent parallel blocks",
         [(4, 4), (5, 4), (6, 4), (5, 5), (6, 5)],
         # no line forms; (5,4) alone reaches 4 Moore / 3 von Neumann
         {(4, 4): OTHER, (5, 4): CLUSTER, (6, 4): OTHER,
          (5, 5): OTHER, (6, 5): OTHER}),
        ("3x3 square", [(x, y) for x in (4, 5, 6) for y in (4, 5, 6)],
         {(4, 4): OTHER, (6, 4): OTHER, (4, 6): OTHER, (6, 6): OTHER,
          (5, 4): CLUSTER, (4, 5): CLUSTER, (5, 5): CLUSTER,
          (6, 5): CLUSTER, (5, 6): CLUSTER}),
        ("lone block", [(8, 8)], {(8, 8): DISPERSED}),
        ("two diagonal blocks", [(4, 4), (5, 5)],
         {(4, 4): DISPERSED, (5, 5): DISPERSED}),
        ("three mutually diagonal blocks", [(4, 4), (5, 5), (6, 6)],
         {(4, 4): DISPERSED, (5, 5): OTHER, (6, 6): DISPERSED}),
        ("wraparound run over the torus seam", [(15, 7), (0, 7), (1, 7)],
         {(15, 7): LINE, (0, 7): LINE, (1, 7): LINE}),
        ("translated 3-line", [(12, 14), (13, 14), (14, 14)],
         {(12, 14): LINE, (13, 14): LINE, (14, 14): LINE}),
        ("rotated 3-line (vertical)", [(3, 8), (3, 9), (3, 10)],
         {(3, 8): LINE, (3, 9): LINE, (3, 10): LINE}),
        ("full ring", ring, {c: LINE for c in ring}),
        ("pair with adjacent parallel blocks", [(4, 4), (5, 4), (4, 5), (5, 5)],
         {(4, 4): OTHER, (5, 4): OTHER, (4, 5): OTHER, (5, 5): OTHER}),
    ]
    for name, blocks, expected in cases:
        got = classify_blocks(set(blocks), L)
        assert got == expected, f"{name}: {got} != {expected}"
    report("4 classifier suite", True,
           f"{len(cases)} hand-labeled configurations, exact agreement")


# --- 5-7: evolution bands --------------------------------------------------


def test_criterion_5_emergent_evolution(heavy_results):
    fits = [r["best_fitness"] for r in heavy_results["emergent"]["records"]]
    median = float(np.median(fits))
    above_08 = sum(f >= 0.8 for f in fits)
    report("5 emergent evolution", median >= 0.85 and above_08 >= 4,
           f"median best fitness {median:.4f} >= 0.85 over 5 runs, "
           f"{above_08}/5 runs >= 0.8 "
           f"(individuals: {[round(f, 4) for f in sorted(fits)]})")


def test_criterion_6_empty_scenario(heavy_results):
    fits = [r["best_fitness"] for r in heavy_results["empty"]["records"]]
    median = float(np.median(fits))
    report("6 predefined empty", median >= 0.88,
           f"median best fitness {median:.4f} >= 0.88 over 5 runs "
           f"(individuals: {[round(f, 4) for f in sorted(fits)]})")


def test_criterion_7_clusters_scenario(heavy_results):
    records = heavy_results["clusters"]["records"]
    fits = [r["best_fitness"] for r in records]
    median = float(np.median(fits))
    in_band = 0.55 <= median <= 0.75
    rows = [line.split(",") for line in heavy_results["clusters"]["posteval"]]
    b = int(rows[0][4])
    start_shares = [100.0 * int(r[12]) / b for r in rows]
    end_shares = [100.0 * int(r[17]) / b for r in rows]
    drop = float(np.median(start_shares)) - float(np.median(end_shares))
    report("7 predefined clusters", in_band and drop >= 40.0,
           f"median best fitness {median:.4f} in [0.55, 0.75]; median "
           f"dispersed share {np.median(start_shares):.1f}% -> "
           f"{np.median(end_shares):.1f}% (drop {drop:.1f}pp >= 40pp)")


# --- 8: convergence --------------------------------------------------------


def test_criterion_8_block_movement_convergence(heavy_results):
    movements = []
    for name in ("emergent", "empty", "clusters"):
        for line in heavy_results[name]["posteval"]:
            movements.append(float(line.split(",")[7]))
    converged = sum(m == 0.0 for m in movements)
    share = converged / len(movements)
    report("8 convergence", share >= 0.80,
           f"block movement exactly 0.0 over the final tau steps in "
           f"{converged}/{len(movements)} post-evaluations ({share:.0%})")


# --- 9: random-init structure baseline --------------------------------------


def test_criterion_9_random_init_dispersed_baseline():
    rng = np.random.default_rng(2718)
    dispersed_scenes = 0
    for _ in range(200):
        cells, _ = sample_placement(16, 10, 32, rng)
        blocks = [(int(c % 16), int(c // 16)) for c in cells[10:]]
        scene = scene_label(structure_report(blocks, 16))
        dispersed_scenes += scene == DISPERSED
    share = dispersed_scenes / 200
    report("9 random-init baseline", share >= 0.60,
           f"{dispersed_scenes}/200 random 12.5%-density worlds scene-labeled "
           f"dispersed ({share:.0%})")


# --- 10: movement metric properties -----------------------------------------


def test_criterion_10_movement_properties():
    static = np.tile(np.array([[[4, 7], [1, 2], [9, 9]]]), (129, 1, 1))
    assert movement(static, 16) == (0.0, 0.0, 0.0)

    tau = 128
    marching = np.array([[[t % 16, 3]] for t in range(tau + 1)])
    m_x, m_y, m = movement(marching, 16)
    assert abs(m - 1.0) <= 1e-12 and m_y == 0.0

    wrap = np.array([[[15, 0]], [[0, 0]]])
    m_x, _, _ = movement(wrap, 16)
    assert m_x == 1.0

    # engine cross-check: a hand-built always-forward single robot
    weights = np.zeros(130)
    weights[13 * 8 + 8 + 8 * 2] = 5.0  # move-output bias
    genome = Genome(weights, np.zeros(228))
    config = SimConfig(8, 1, 0, steps=40)
    trace = simulate_traced(genome, config, Scenario.EMERGENT, 5,
                            snapshot_every=config.steps)
    assert trace.robot_window.shape == (33, 1, 2)  # tau = 8 * 8 // 2
    _, _, m_robot = movement(trace.robot_window, 8)
    assert abs(m_robot - 1.0) <= 1e-12

    report("10 movement properties", True,
           "static M=0 exactly; always-forward robot M=1 +/- 1e-12; "
           "wrap transition contributes 1")
