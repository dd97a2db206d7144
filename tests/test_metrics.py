"""Fitness scoring, similarity, movement, and structure classification."""

import numpy as np
import pytest

from minsurprise.experiment import replay
from minsurprise.metrics import (
    StructureLabel,
    classify_blocks,
    movement,
    score_run,
    similarity,
    structure_report,
)
from minsurprise.networks import Genome, Scenario, random_genome
from minsurprise.world import SimConfig

L16 = 16

LINE = StructureLabel.LINE
PAIR = StructureLabel.PAIR
CLUSTER = StructureLabel.CLUSTER
DISPERSED = StructureLabel.DISPERSED
OTHER = StructureLabel.OTHER


class TestScoreRun:
    def test_perfect_predictions_score_one(self):
        assert score_run(0.0, n_robots=5, comparisons=100) == 1.0

    def test_half_predictions_score_half_exactly(self):
        # |0.5 - s| = 0.5 for binary s, so the error sum is N*C*R/2.
        n, c, r = 7, 99, 12
        assert score_run(0.5 * n * c * r, n, c) == 0.5

    def test_single_wrong_component(self):
        # N=1, C=1, R=12, one component off by one: F = 11/12.
        assert score_run(1.0, 1, 1) == pytest.approx(11 / 12, abs=1e-15)

    def test_zero_comparisons_rejected(self):
        with pytest.raises(ValueError):
            score_run(0.0, 1, 0)

    def test_matches_triple_loop_oracle_on_random_tensors(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n, c = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            preds = rng.random((c, n, 12))
            sensors = rng.integers(0, 2, (c, n, 12)).astype(float)
            total = 0.0
            for t in range(c):
                for i in range(n):
                    for r in range(12):
                        total += abs(preds[t, i, r] - sensors[t, i, r])
            direct = score_run(float(np.abs(preds - sensors).sum()), n, c)
            assert direct == pytest.approx(1 - total / (n * c * 12), abs=1e-12)


class TestSimilarity:
    def test_identical_sets_score_one(self):
        blocks = {(1, 2), (3, 4), (5, 6)}
        assert similarity(blocks, set(blocks)) == 1.0

    def test_disjoint_sets_score_zero(self):
        assert similarity({(0, 0), (1, 1)}, {(2, 2), (3, 3)}) == 0.0

    def test_28_of_32_preserved(self):
        start = {(i, 0) for i in range(16)} | {(i, 1) for i in range(16)}
        moved = {(i, 1) for i in range(4)}
        end = (start - moved) | {(i, 3) for i in range(4)}
        assert similarity(start, end) == 0.875

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            perm = rng.permutation(144)
            start = {(int(c % 12), int(c // 12)) for c in perm[:15]}
            overlap = int(rng.integers(0, 16))
            end = {(int(c % 12), int(c // 12))
                   for c in np.concatenate([perm[:overlap], perm[15:30 - overlap]])}
            assert len(end) == len(start)
            assert similarity(start, end) == similarity(end, start)

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            similarity(set(), set())


class TestMovement:
    def test_static_window_is_exactly_zero(self):
        window = np.tile(np.array([[[3, 4], [7, 1]]]), (11, 1, 1))
        assert movement(window, 2, 10, 16) == (0.0, 0.0, 0.0)

    def test_single_robot_marching_east(self):
        tau = 12
        window = np.array([[[x % 16, 5]] for x in range(tau + 1)])
        m_x, m_y, m = movement(window, 1, tau, 16)
        assert m_x == pytest.approx(1.0, abs=1e-12)
        assert m_y == 0.0
        assert m == pytest.approx(1.0, abs=1e-12)

    def test_wrap_transition_counts_one_not_l_minus_one(self):
        window = np.array([[[15, 0]], [[0, 0]]])
        m_x, _, m = movement(window, 1, 1, 16)
        assert m_x == 1.0 and m == 1.0

    def test_short_window_rejected(self):
        with pytest.raises(ValueError):
            movement(np.zeros((5, 1, 2)), 1, 10, 16)

    def test_components_bounded_by_one(self):
        rng = np.random.default_rng(2)
        # single-cell-per-axis steps keep every component in [0, 1]
        pos = np.zeros((21, 3, 2), dtype=int)
        pos[0] = rng.integers(0, 8, (3, 2))
        for t in range(1, 21):
            pos[t] = (pos[t - 1] + rng.integers(-1, 2, (3, 2))) % 8
        m_x, m_y, _ = movement(pos, 3, 20, 8)
        assert 0.0 <= m_x <= 1.0 and 0.0 <= m_y <= 1.0


class TestPostEvaluate:
    def test_turn_only_genome_changes_nothing(self):
        weights = np.zeros(130)
        weights[13 * 8 + 8 + 8 * 2] = -5.0  # move output saturated low: turn
        genome = Genome(weights, np.zeros(228))
        sim = SimConfig(8, 3, 6, steps=40)
        _, row, _ = replay(genome, sim, Scenario.EMERGENT, 123, every=40)
        assert row.similarity == 1.0
        assert row.block_movement == 0.0
        assert row.robot_movement == 0.0
        assert row.start_report.counts == row.end_report.counts

    def test_same_genome_and_seed_identical_rows(self):
        genome = random_genome(np.random.default_rng(5))
        sim = SimConfig(8, 3, 6, steps=40)
        _, a, _ = replay(genome, sim, Scenario.PAIRS, 9, every=40)
        _, b, _ = replay(genome, sim, Scenario.PAIRS, 9, every=40)
        assert a == b


def labels_of(blocks, L=L16):
    return classify_blocks(set(blocks), L)


class TestClassifier:
    def test_isolated_pair(self):
        labels = labels_of([(4, 4), (5, 4)])
        assert set(labels.values()) == {PAIR}

    def test_vertical_pair(self):
        labels = labels_of([(4, 4), (4, 5)])
        assert set(labels.values()) == {PAIR}

    def test_three_line(self):
        labels = labels_of([(4, 4), (5, 4), (6, 4)])
        assert set(labels.values()) == {LINE}

    def test_four_line_with_one_legal_flank_neighbor(self):
        # one side neighbor on a 4-line: 1 <= ceil(4/2), no adjacency issue
        labels = labels_of([(4, 4), (5, 4), (6, 4), (7, 4), (5, 5)])
        for cell in [(4, 4), (5, 4), (6, 4), (7, 4)]:
            assert labels[cell] == LINE
        # the flank neighbor forms a vertical 2-run with (5,4) whose own
        # flanks are legal; its partner is absorbed into the line, the
        # neighbor itself keeps the pair label
        assert labels[(5, 5)] == PAIR

    def test_flank_rule_adjacent_neighbors_violate(self):
        # two adjacent side neighbors break the no-two-adjacent rule
        blocks = [(4, 4), (5, 4), (6, 4), (7, 4), (5, 5), (6, 5)]
        labels = labels_of(blocks)
        assert all(labels[c] != LINE for c in [(4, 4), (5, 4), (6, 4), (7, 4)])

    def test_flank_rule_too_many_neighbors_violate(self):
        # three side neighbors on a 4-line exceed ceil(4/2) = 2
        blocks = [(4, 4), (5, 4), (6, 4), (7, 4), (4, 5), (6, 5)]
        labels = labels_of(blocks)
        assert labels[(4, 4)] == LINE  # two spaced flankers are legal
        blocks.append((8, 5))  # still spaced: count would be 3 > 2 if in extent
        labels = labels_of(blocks)
        # (8,5) lies outside the run's extent, so the line stands
        assert labels[(4, 4)] == LINE
        blocks = [(4, 4), (5, 4), (6, 4), (7, 4), (4, 5), (6, 5), (4, 3)]
        labels = labels_of(blocks)
        assert labels[(4, 4)] == LINE  # one top flanker is also legal

    def test_pair_flank_rule(self):
        # a pair allows at most ceil(2/2) = 1 neighbor per side
        ok = labels_of([(4, 4), (5, 4), (4, 5)])
        assert ok[(4, 4)] == PAIR and ok[(5, 4)] == PAIR
        bad = labels_of([(4, 4), (5, 4), (4, 5), (5, 5)])
        # two adjacent bottom neighbors: the 2-run fails the flank rule,
        # and this configuration is a 2x2 square of mutual neighbors
        assert all(lab != PAIR for lab in bad.values())

    def test_three_by_three_square(self):
        blocks = [(x, y) for x in (4, 5, 6) for y in (4, 5, 6)]
        labels = labels_of(blocks)
        counts = {}
        for lab in labels.values():
            counts[lab] = counts.get(lab, 0) + 1
        # center: 8 Moore / 4 vN; edge-centers: 5/3 -> five clusters.
        # corners: 3 Moore -> not clusters; rows fail the flank rule so no
        # line absorbs them -> Other.
        assert counts == {CLUSTER: 5, OTHER: 4}
        assert labels[(5, 5)] == CLUSTER
        for corner in [(4, 4), (6, 4), (4, 6), (6, 6)]:
            assert labels[corner] == OTHER
        assert structure_report(blocks, L16).scene_label == CLUSTER

    def test_lone_block_dispersed(self):
        assert labels_of([(8, 8)]) == {(8, 8): DISPERSED}

    def test_two_diagonal_blocks_dispersed(self):
        labels = labels_of([(4, 4), (5, 5)])
        assert set(labels.values()) == {DISPERSED}

    def test_three_mutually_diagonal_blocks_not_all_dispersed(self):
        labels = labels_of([(4, 4), (5, 5), (6, 6)])
        assert labels[(4, 4)] == DISPERSED
        assert labels[(6, 6)] == DISPERSED
        assert labels[(5, 5)] == OTHER  # two diagonal neighbors

    def test_wraparound_run_crosses_seam(self):
        labels = labels_of([(15, 7), (0, 7), (1, 7)])
        assert set(labels.values()) == {LINE}

    def test_wraparound_vertical_pair(self):
        labels = labels_of([(3, 15), (3, 0)])
        assert set(labels.values()) == {PAIR}

    def test_full_ring_is_single_run(self):
        blocks = [(x, 5) for x in range(L16)]
        labels = labels_of(blocks)
        assert set(labels.values()) == {LINE}

    def test_translation_invariance(self):
        rng = np.random.default_rng(9)
        base = {(int(x), int(y)) for x, y in rng.integers(0, L16, (24, 2))}
        ref = classify_blocks(base, L16)
        for dx, dy in [(3, 0), (0, 5), (7, 11)]:
            shifted = {((x + dx) % L16, (y + dy) % L16) for x, y in base}
            got = classify_blocks(shifted, L16)
            for (x, y), lab in ref.items():
                assert got[((x + dx) % L16, (y + dy) % L16)] == lab

    def test_rotation_invariance(self):
        rng = np.random.default_rng(10)
        base = {(int(x), int(y)) for x, y in rng.integers(0, L16, (24, 2))}
        ref = classify_blocks(base, L16)
        rotated = {((L16 - 1 - y) % L16, x) for x, y in base}
        got = classify_blocks(rotated, L16)
        for (x, y), lab in ref.items():
            assert got[((L16 - 1 - y) % L16, x)] == lab

    def test_labels_cover_every_block(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            blocks = {
                (int(x), int(y)) for x, y in rng.integers(0, 12, (20, 2))
            }
            labels = classify_blocks(blocks, 12)
            assert set(labels) == blocks

    def test_counts_sum_to_block_count(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            blocks = set()
            while len(blocks) < 32:
                blocks.add((int(rng.integers(0, L16)), int(rng.integers(0, L16))))
            report = structure_report(blocks, L16)
            assert report.total == 32

    def test_scene_label_tie_breaks_in_order(self):
        # two pair blocks and two dispersed blocks: tie -> Pair (earlier)
        report = structure_report([(0, 0), (1, 0), (8, 8), (12, 12)], L16)
        assert report.counts[PAIR] == 2 and report.counts[DISPERSED] == 2
        assert report.scene_label == PAIR
