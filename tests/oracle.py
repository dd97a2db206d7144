"""Scalar single-world reference implementation: the test oracle.

One robot at a time, one Python call per sensor read, network pass and
actuation. The vectorized engine in ``minsurprise.simulation`` must
reproduce it bit-exactly given the same seeds: both draw placement through
``sample_placement``, order actuation by the argsort of one block of
uniforms per step, and run the same floating-point kernels
(``stable_rows_matmul``, and a sigmoid with the operation order of
``sigmoid_inplace``).

Coordinate convention: x grows East, y grows South, so North is -y. All
coordinates are reduced modulo the grid side length (the grid is a torus).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from minsurprise.networks import (
    HIDDEN_UNITS,
    NET_INPUTS,
    ActionNetwork,
    Genome,
    PredictionNetwork,
    Scenario,
    decode,
    scenario_prediction,
    stable_rows_matmul,
)
from minsurprise.world import (
    HEADING_VECTORS,
    SENSOR_COUNT,
    SENSOR_FRAME,
    Heading,
    RobotPose,
    SimConfig,
    parse_snapshot_cells,
    render_cells,
    sample_placement,
)

EMPTY = -1


class MoveOutcome(enum.Enum):
    MOVED = "moved"
    PUSHED = "pushed"
    TURNED = "turned"
    BLOCKED = "blocked"


class ActionCommand(NamedTuple):
    """A robot's decision for one time step.

    action: 1 = move forward, 0 = turn on the spot.
    turn_dir: +1 for +90 degrees, -1 for -90; only applied when turning.
    """

    action: int
    turn_dir: int


MOVE = 1
TURN = 0


class World:
    """Mutable simulation state: a torus grid holding robots and blocks.

    Robots and blocks carry stable integer ids; the occupancy grid encodes
    robot i as i and block j as swarm_size + j, with EMPTY elsewhere.
    """

    def __init__(self, config: SimConfig, robots: list[RobotPose],
                 blocks: list[tuple[int, int]]):
        if len(robots) != config.swarm_size or len(blocks) != config.block_count:
            raise ValueError("entity counts do not match config")
        self.config = config
        self.robots = robots
        self.blocks = blocks
        L, N = config.side_length, config.swarm_size
        self._grid = np.full((L, L), EMPTY, dtype=np.int32)
        for i, pose in enumerate(robots):
            if self._grid[pose.y, pose.x] != EMPTY:
                raise ValueError(f"cell ({pose.x},{pose.y}) doubly occupied")
            self._grid[pose.y, pose.x] = i
        for j, (bx, by) in enumerate(blocks):
            if self._grid[by, bx] != EMPTY:
                raise ValueError(f"cell ({bx},{by}) doubly occupied")
            self._grid[by, bx] = N + j

    def occupant(self, x: int, y: int) -> Optional[tuple[str, int]]:
        """Return ("robot", id) or ("block", id) for the cell, else None."""
        code = int(self._grid[y, x])
        if code == EMPTY:
            return None
        n = self.config.swarm_size
        return ("robot", code) if code < n else ("block", code - n)

    def is_empty(self, x: int, y: int) -> bool:
        return self._grid[y, x] == EMPTY

    def block_cells(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.blocks)

    def copy(self) -> "World":
        return World(
            self.config,
            [RobotPose(p.x, p.y, p.heading) for p in self.robots],
            list(self.blocks),
        )

    def validate(self) -> None:
        """Re-derive the grid from entity lists and check all invariants."""
        cfg = self.config
        L = cfg.side_length
        assert len(self.robots) == cfg.swarm_size
        assert len(self.blocks) == cfg.block_count
        seen: set[tuple[int, int]] = set()
        for i, pose in enumerate(self.robots):
            assert 0 <= pose.x < L and 0 <= pose.y < L, f"robot {i} out of range"
            assert (pose.x, pose.y) not in seen, f"robot {i} overlaps"
            seen.add((pose.x, pose.y))
            assert self._grid[pose.y, pose.x] == i
        for j, (bx, by) in enumerate(self.blocks):
            assert 0 <= bx < L and 0 <= by < L, f"block {j} out of range"
            assert (bx, by) not in seen, f"block {j} overlaps"
            seen.add((bx, by))
            assert self._grid[by, bx] == cfg.swarm_size + j
        assert int(np.sum(self._grid != EMPTY)) == len(seen)


def random_world(config: SimConfig, rng: np.random.Generator) -> World:
    """Place robots and blocks on distinct uniform cells, uniform headings."""
    L, N, B = config.side_length, config.swarm_size, config.block_count
    cells, headings = sample_placement(L, N, B, rng)
    robots = [
        RobotPose(int(c % L), int(c // L), Heading(int(h)))
        for c, h in zip(cells[:N], headings)
    ]
    blocks = [(int(c % L), int(c // L)) for c in cells[N:]]
    return World(config, robots, blocks)


def sensed_cells(pose: RobotPose, L: int) -> list[tuple[int, int]]:
    """The six sensed cells ahead of a pose, torus-wrapped, in index order."""
    fx, fy = HEADING_VECTORS[pose.heading]
    lx, ly = HEADING_VECTORS[pose.heading.turned(-1)]
    return [
        ((pose.x + f * fx + s * lx) % L, (pose.y + f * fy + s * ly) % L)
        for f, s in SENSOR_FRAME
    ]


def sense(world: World, robot_id: int) -> np.ndarray:
    """Read the 12 binary sensors of one robot.

    Indices 0..5 report robots over (C1, L1, R1, C2, L2, R2); indices 6..11
    report blocks over the same cells. No occlusion: far cells are sensed
    regardless of near-cell contents.
    """
    pose = world.robots[robot_id]
    cells = sensed_cells(pose, world.config.side_length)
    reading = np.zeros(SENSOR_COUNT, dtype=np.int8)
    for idx, (cx, cy) in enumerate(cells):
        occ = world.occupant(cx, cy)
        if occ is None:
            continue
        kind, _ = occ
        if kind == "robot":
            reading[idx] = 1
        else:
            reading[6 + idx] = 1
    return reading


def attempt_actuate(world: World, robot_id: int, cmd: ActionCommand) -> MoveOutcome:
    """Apply one robot's command in place and report what happened.

    Moving into a block pushes that single block one cell forward, but only
    if the cell beyond is free of both robots and blocks; chain pushes never
    happen. Blocked is a normal outcome, not an error.
    """
    pose = world.robots[robot_id]
    if cmd.action == TURN:
        pose.heading = pose.heading.turned(cmd.turn_dir)
        return MoveOutcome.TURNED
    L = world.config.side_length
    n = world.config.swarm_size
    fx, fy = HEADING_VECTORS[pose.heading]
    c1 = ((pose.x + fx) % L, (pose.y + fy) % L)
    front = world.occupant(*c1)
    if front is None:
        world._grid[pose.y, pose.x] = EMPTY
        pose.x, pose.y = c1
        world._grid[pose.y, pose.x] = robot_id
        return MoveOutcome.MOVED
    kind, occupant_id = front
    if kind == "robot":
        return MoveOutcome.BLOCKED
    c2 = ((pose.x + 2 * fx) % L, (pose.y + 2 * fy) % L)
    if world.occupant(*c2) is not None:
        return MoveOutcome.BLOCKED
    world._grid[c2[1], c2[0]] = n + occupant_id
    world.blocks[occupant_id] = c2
    world._grid[pose.y, pose.x] = EMPTY
    pose.x, pose.y = c1
    world._grid[pose.y, pose.x] = robot_id
    return MoveOutcome.PUSHED


def step(world: World, commands: list[ActionCommand],
         rng: np.random.Generator) -> list[MoveOutcome]:
    """Actuate all robots once, in a fresh random order drawn from rng.

    Commands must have been computed from the pre-step world (synchronous
    sensing). The order is the argsort of swarm_size uniform draws -- the
    same contract the batch engine uses -- so a later robot whose target was
    just taken simply comes out Blocked.
    """
    n = world.config.swarm_size
    if len(commands) != n:
        raise ValueError(f"expected {n} commands, got {len(commands)}")
    order = np.argsort(rng.random(n))
    outcomes: list[MoveOutcome] = [MoveOutcome.BLOCKED] * n
    for rid in order:
        outcomes[rid] = attempt_actuate(world, int(rid), commands[rid])
    return outcomes


def render_snapshot(world: World) -> str:
    return render_cells(world.config.side_length, world.robots, world.blocks)


def parse_snapshot(text: str, steps: int = 1) -> World:
    """Parse snapshot text back into a World; inverse of render_snapshot."""
    L, robots, blocks = parse_snapshot_cells(text)
    config = SimConfig(L, len(robots), len(blocks), steps=steps)
    return World(config, robots, blocks)


# --- networks ----------------------------------------------------------------


def encode(action: ActionNetwork, prediction: PredictionNetwork) -> Genome:
    """Inverse of decode."""
    aw = np.concatenate([
        action.w_hidden.reshape(-1), action.b_hidden,
        action.w_out.reshape(-1), action.b_out,
    ])
    pw = np.concatenate([
        prediction.w_hidden.reshape(-1), prediction.b_hidden, prediction.w_self,
        prediction.w_out.reshape(-1), prediction.b_out,
    ])
    return Genome(aw, pw)


def sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


@dataclass
class ControllerState:
    """Per-robot mutable state, reset at every simulation start."""

    last_action: float = 0.0
    hidden: np.ndarray = field(
        default_factory=lambda: np.zeros(HIDDEN_UNITS, dtype=np.float64)
    )


def act(net: ActionNetwork, sensors: np.ndarray,
        state: ControllerState) -> ActionCommand:
    """Run the action network once and update last_action.

    Outputs pass through a sigmoid; >= 0.5 selects move for the first output
    and +90 degrees for the second.
    """
    x = np.empty((1, NET_INPUTS), dtype=np.float64)
    x[0, :SENSOR_COUNT] = sensors
    x[0, SENSOR_COUNT] = state.last_action
    hidden = np.tanh(stable_rows_matmul(x, net.w_hidden) + net.b_hidden)
    out = sigmoid(stable_rows_matmul(hidden, net.w_out) + net.b_out)[0]
    action = 1 if out[0] >= 0.5 else 0
    turn_dir = 1 if out[1] >= 0.5 else -1
    state.last_action = float(action)
    return ActionCommand(action, turn_dir)


def predict(net: PredictionNetwork, sensors: np.ndarray, action: int,
            state: ControllerState) -> np.ndarray:
    """Run the prediction network once, updating the recurrent hidden state.

    Returns the 12 predicted sensor values for the next time step, each in
    [0, 1].
    """
    x = np.empty((1, NET_INPUTS), dtype=np.float64)
    x[0, :SENSOR_COUNT] = sensors
    x[0, SENSOR_COUNT] = float(action)
    pre = stable_rows_matmul(x, net.w_hidden) + net.w_self * state.hidden + net.b_hidden
    hidden = np.tanh(pre)
    out = sigmoid(stable_rows_matmul(hidden, net.w_out) + net.b_out)[0]
    state.hidden = hidden[0]
    return out


# --- whole simulation ----------------------------------------------------------


def reference_simulation(genome, config, scenario, seed, io_log=None):
    """Single-world mirror of the engine built on the scalar reference API.

    Returns (error_sum, comparisons, final robot tuples, final block list).
    A list passed as io_log receives, in step order, one (predictions,
    sensors) pair of (N, 12) arrays per comparison of an emergent run.
    """
    rng = np.random.default_rng(seed)
    world = random_world(config, rng)
    action_net, pred_net = decode(genome)
    n, t_steps = config.swarm_size, config.steps
    states = [ControllerState() for _ in range(n)]
    pred_prev = np.zeros((n, 12))
    fixed = None if scenario is Scenario.EMERGENT else scenario_prediction(scenario)
    err = 0.0
    for t in range(t_steps):
        sensors = np.stack([sense(world, i) for i in range(n)]).astype(float)
        if fixed is None:
            if t > 0:
                err += np.abs(pred_prev - sensors).reshape(-1).sum()
                if io_log is not None:
                    io_log.append((pred_prev.copy(), sensors))
        else:
            err += np.abs(fixed - sensors).reshape(-1).sum()
        commands = [act(action_net, sensors[i], states[i]) for i in range(n)]
        if fixed is None and t + 1 < t_steps:
            for i in range(n):
                pred_prev[i] = predict(pred_net, sensors[i],
                                       commands[i].action, states[i])
        step(world, commands, rng)
    comparisons = t_steps - 1 if fixed is None else t_steps
    robots = [(p.x, p.y, int(p.heading)) for p in world.robots]
    return err, comparisons, robots, list(world.blocks)
