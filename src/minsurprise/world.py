"""Torus grid world: geometry, placement, and the snapshot text format.

The definitions the engine in ``simulation.py`` and the scalar reference in
``tests/oracle.py`` share: sensor layout, headings, simulation parameters,
initial placement draws, and snapshot rendering and parsing. Sensing,
movement and block pushing live in the engine; the reference re-implements
them one robot at a time for the bit-exact tests.

Coordinate convention: x grows East, y grows South, so North is -y. All
coordinates are reduced modulo the grid side length (the grid is a torus).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

SENSOR_COUNT = 12

# Relative sensed cells in robot frame, as (forward, left) coefficients.
# Index order: C1, L1, R1, C2, L2, R2 -- so within each sensor bank the
# straight-ahead cells sit at offsets 0 (distance 1) and 3 (distance 2).
SENSOR_FRAME = ((1, 0), (1, 1), (1, -1), (2, 0), (2, 1), (2, -1))


class Heading(enum.IntEnum):
    NORTH = 0
    EAST = 1
    SOUTH = 2
    WEST = 3

    def turned(self, quarter_turns: int) -> "Heading":
        """Rotate by multiples of +90 degrees; +1 cycles N->E->S->W->N."""
        return Heading((self + quarter_turns) % 4)

    @property
    def letter(self) -> str:
        return self.name[0]


# Forward unit vector per heading (dx, dy).
HEADING_VECTORS = {
    Heading.NORTH: (0, -1),
    Heading.EAST: (1, 0),
    Heading.SOUTH: (0, 1),
    Heading.WEST: (-1, 0),
}

_LETTER_TO_HEADING = {h.letter: h for h in Heading}


@dataclass(frozen=True)
class SimConfig:
    """Static parameters of one simulation."""

    side_length: int
    swarm_size: int
    block_count: int
    steps: int = 1000

    def __post_init__(self) -> None:
        L, N, B, T = self.side_length, self.swarm_size, self.block_count, self.steps
        if L < 3:
            raise ValueError(f"side_length must be >= 3, got {L}")
        if N < 1:
            raise ValueError(f"swarm_size must be >= 1, got {N}")
        if B < 0:
            raise ValueError(f"block_count must be >= 0, got {B}")
        if N + B > L * L:
            raise ValueError(
                f"cannot place {N} robots and {B} blocks on a {L}x{L} grid"
            )
        if T < 1:
            raise ValueError(f"steps must be >= 1, got {T}")


def metrics_window(side_length: int) -> int:
    """tau: the post-evaluation metrics window, in steps, of a grid of the
    given side length (half its cell count). A run must last at least tau
    steps to be post-evaluated."""
    return side_length * side_length // 2


@dataclass
class RobotPose:
    x: int
    y: int
    heading: Heading


def sample_placement(L: int, N: int, B: int,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw initial placement: flat cell indices (robots first) and headings.

    Draw order (part of the reproducibility contract): one choice of N + B
    distinct cells, then one batch of N headings. Flat cell index is
    y * L + x. Both the batch engine and the test reference initialize
    through this function.
    """
    cells = rng.choice(L * L, size=N + B, replace=False)
    headings = rng.integers(0, 4, size=N)
    return cells, headings


def render_cells(L: int, robots: list[RobotPose],
                 blocks: list[tuple[int, int]]) -> str:
    """Snapshot text: L lines of L chars, '.'/'B'/heading letter, LF-ended."""
    grid = [["."] * L for _ in range(L)]
    for bx, by in blocks:
        grid[by][bx] = "B"
    for pose in robots:
        grid[pose.y][pose.x] = pose.heading.letter
    return "".join("".join(row) + "\n" for row in grid)


class SnapshotError(ValueError):
    pass


def parse_snapshot_cells(
    text: str,
) -> tuple[int, list[RobotPose], list[tuple[int, int]]]:
    """Parse snapshot text, L lines of L characters with L set by the first,
    into raw entity lists (row-major id assignment). The grid must be at
    least 3x3, as ``SimConfig.side_length`` requires."""
    lines = text.splitlines()
    if not lines:
        raise SnapshotError("empty snapshot")
    L = len(lines[0])
    if L < 3:
        raise SnapshotError(f"a {L}x{L} grid is smaller than 3x3")
    robots: list[RobotPose] = []
    blocks: list[tuple[int, int]] = []
    for y, line in enumerate(lines):
        if len(line) != L:
            raise SnapshotError(
                f"line {y + 1}: expected {L} characters, got {len(line)}"
            )
        for x, ch in enumerate(line):
            if ch == ".":
                continue
            if ch == "B":
                blocks.append((x, y))
            elif ch in _LETTER_TO_HEADING:
                robots.append(RobotPose(x, y, _LETTER_TO_HEADING[ch]))
            else:
                raise SnapshotError(f"line {y + 1}: invalid character {ch!r}")
    if len(lines) != L:
        raise SnapshotError(f"expected {L} lines, got {len(lines)}")
    return L, robots, blocks
