"""Run scoring and post-evaluation metrics: fitness, similarity, movement,
and block-structure classification.

The classifier assigns every block exactly one label with precedence
Line > Cluster > Pair > Dispersed > Other, operating on torus-aware maximal
runs and Moore / von Neumann neighbor counts. Runs are found along rows
only: the column runs of a block set are the row runs of its transpose.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .simulation import RunTrace
from .world import SENSOR_COUNT

Cell = tuple[int, int]


def score_run(error_sum: float, n_robots: int, comparisons: int) -> float:
    """Fitness of one run: 1 - error_sum / (robots * comparisons * sensors).

    error_sum is the accumulated |prediction - sensor| over every comparison
    step, robot, and sensor; the result lies in [0, 1].
    """
    if comparisons <= 0:
        raise ValueError("a run must contain at least one comparison step")
    return 1.0 - error_sum / (n_robots * comparisons * SENSOR_COUNT)


def similarity(start_blocks: Iterable[Cell], end_blocks: Iterable[Cell]) -> float:
    """Fraction of start block cells still (or again) block-occupied at the
    end; 1.0 for two empty sets, as a run without blocks has none to move."""
    start, end = set(start_blocks), set(end_blocks)
    if len(start) != len(end):
        raise ValueError("similarity needs block sets of equal size")
    return len(start & end) / len(start) if start else 1.0


def movement(window: np.ndarray, side_length: int) -> tuple[float, float, float]:
    """Mean per-step torus displacement over a window of tau transitions.

    window holds (tau + 1, P, 2) positions of P entities as (x, y); tau and
    P are read off its shape. Per-axis step distance is the torus-wrapped
    min(|d|, L - |d|). Returns (M_x, M_y, M), zeros if tau or P is 0.
    """
    deltas = np.abs(np.diff(np.asarray(window), axis=0))
    deltas = np.minimum(deltas, side_length - deltas)
    tau, n_entities = deltas.shape[:2]
    if n_entities == 0 or tau == 0:
        return 0.0, 0.0, 0.0
    m_x = float(deltas[:, :, 0].sum() / (n_entities * tau))
    m_y = float(deltas[:, :, 1].sum() / (n_entities * tau))
    return m_x, m_y, m_x + m_y


class StructureLabel(enum.Enum):
    LINE = "line"
    PAIR = "pair"
    CLUSTER = "cluster"
    DISPERSED = "dispersed"
    OTHER = "other"


# Scene label candidates, in tie-break order.
_SCENE_ORDER = (
    StructureLabel.LINE,
    StructureLabel.PAIR,
    StructureLabel.CLUSTER,
    StructureLabel.DISPERSED,
)


def scene_label(counts: Mapping[StructureLabel, int]) -> StructureLabel:
    """The dominant label of per-label block counts; a tie goes to the
    candidate first in _SCENE_ORDER (max keeps the first maximum). A scene
    without a block of any candidate label, or without blocks, is OTHER."""
    label = max(_SCENE_ORDER, key=counts.__getitem__)
    return label if counts[label] else StructureLabel.OTHER


def _row_runs(blocks: set[Cell], L: int) -> list[list[Cell]]:
    """Maximal runs of horizontally adjacent blocks, row by row.

    Torus-aware: a run may cross the seam; a fully occupied row is one
    circular run of length L.
    """
    rows: dict[int, set[int]] = {}
    for x, y in blocks:
        rows.setdefault(y, set()).add(x)
    runs = []
    for y, present in rows.items():
        if len(present) == L:
            runs.append([(x, y) for x in range(L)])
            continue
        for x in sorted(present):
            if (x - 1) % L in present:
                continue  # not a run start
            run = [x]
            nxt = (x + 1) % L
            while nxt in present:
                run.append(nxt)
                nxt = (nxt + 1) % L
            runs.append([(v, y) for v in run])
    return runs


def _flank_ok(run: list[Cell], blocks: set[Cell], L: int) -> bool:
    """Check the side-neighbor rule for a pair/line run along a row.

    Each of the two rows next to the run may hold at most ceil(len/2)
    blocks over the run's extent, and no two of them may sit in adjacent
    cells. A circular (full-ring) run wraps the adjacency check as well.
    """
    length = len(run)
    limit = -(-length // 2)  # ceil
    ring = length == L
    for side in (-1, 1):
        occupied = [(x, (y + side) % L) in blocks for x, y in run]
        if sum(occupied) > limit:
            return False
        for i in range(length - 1):
            if occupied[i] and occupied[i + 1]:
                return False
        if ring and occupied[-1] and occupied[0]:
            return False
    return True


def classify_blocks(blocks: Iterable[Cell], L: int) -> dict[Cell, StructureLabel]:
    """Label every block, precedence Line > Cluster > Pair > Dispersed > Other."""
    bset = set(blocks)
    line_members: set[Cell] = set()
    pair_members: set[Cell] = set()
    # the row runs, then those of the transpose: the columns, mapped back
    for cells, transposed in ((bset, False), ({(y, x) for x, y in bset}, True)):
        for run in _row_runs(cells, L):
            if len(run) >= 2 and _flank_ok(run, cells, L):
                if transposed:
                    run = [(x, y) for y, x in run]
                (line_members if len(run) >= 3 else pair_members).update(run)

    labels: dict[Cell, StructureLabel] = {}
    for cell in bset:
        x, y = cell
        moore = 0
        von_neumann = 0
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                if ((x + dx) % L, (y + dy) % L) in bset:
                    moore += 1
                    if dx == 0 or dy == 0:
                        von_neumann += 1
        if cell in line_members:
            labels[cell] = StructureLabel.LINE
        elif moore >= 4 and von_neumann >= 3:
            labels[cell] = StructureLabel.CLUSTER
        elif cell in pair_members:
            labels[cell] = StructureLabel.PAIR
        elif von_neumann == 0 and moore <= 1:  # at most one diagonal
            labels[cell] = StructureLabel.DISPERSED
        else:
            labels[cell] = StructureLabel.OTHER
    return labels


def structure_report(blocks: Iterable[Cell],
                     L: int) -> dict[StructureLabel, int]:
    """Block count per label, every StructureLabel in its order."""
    counts = {label: 0 for label in StructureLabel}
    for lab in classify_blocks(blocks, L).values():
        counts[lab] += 1
    return counts


@dataclass(frozen=True)
class MetricsRow:
    """Post-evaluation summary of one recorded run."""

    fitness: float
    similarity: float
    block_movement: float
    robot_movement: float
    start_counts: dict[StructureLabel, int]
    end_counts: dict[StructureLabel, int]


def metrics_from_trace(trace: RunTrace) -> MetricsRow:
    L, N = trace.sim.side_length, trace.sim.swarm_size
    return MetricsRow(
        fitness=score_run(trace.error_sum, N, trace.comparisons),
        similarity=similarity(trace.start_blocks, trace.end_blocks),
        block_movement=movement(trace.block_window, L)[2],
        robot_movement=movement(trace.robot_window, L)[2],
        start_counts=structure_report(trace.start_blocks, L),
        end_counts=structure_report(trace.end_blocks, L),
    )

