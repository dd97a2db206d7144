"""World mechanics: placement, sensing, actuation, stepping, snapshots.

Sensing, actuation and stepping are checked on the scalar reference in
``oracle.py``, which the engine must match bit for bit.
"""

import numpy as np
import pytest

from minsurprise.world import Heading, RobotPose, SimConfig, SnapshotError
from oracle import (
    ActionCommand,
    MoveOutcome,
    World,
    attempt_actuate,
    parse_snapshot,
    random_world,
    render_snapshot,
    sense,
    sensed_cells,
    step,
)

MOVE = ActionCommand(1, 1)
TURN_CW = ActionCommand(0, 1)
TURN_CCW = ActionCommand(0, -1)


def make_world(L, robots, blocks, steps=10):
    config = SimConfig(L, len(robots), len(blocks), steps=steps)
    return World(config, [RobotPose(x, y, h) for x, y, h in robots], blocks)


class TestHeading:
    def test_plus_90_cycles_n_e_s_w(self):
        order = [Heading.NORTH, Heading.EAST, Heading.SOUTH, Heading.WEST]
        for i, h in enumerate(order):
            assert h.turned(1) == order[(i + 1) % 4]

    def test_minus_90_inverts_plus_90(self):
        for h in Heading:
            assert h.turned(1).turned(-1) == h


class TestSimConfig:
    def test_rejects_overfull_grid(self):
        with pytest.raises(ValueError):
            SimConfig(16, 300, 0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            SimConfig(2, 1, 0)
        with pytest.raises(ValueError):
            SimConfig(16, 0, 1)
        with pytest.raises(ValueError):
            SimConfig(16, 1, -1)
        with pytest.raises(ValueError):
            SimConfig(16, 1, 1, steps=0)


class TestRandomWorld:
    def test_occupied_and_empty_cell_counts(self):
        config = SimConfig(16, 10, 32)
        world = random_world(config, np.random.default_rng(5))
        occupied = 16 * 16 - sum(
            world.is_empty(x, y) for x in range(16) for y in range(16)
        )
        assert occupied == 42
        world.validate()

    def test_full_grid_packs_all_cells_with_robots(self):
        # Pigeonhole: every cell holds a robot, no block can be placed.
        config = SimConfig(3, 9, 0)
        world = random_world(config, np.random.default_rng(0))
        assert all(not world.is_empty(x, y) for x in range(3) for y in range(3))
        with pytest.raises(ValueError):
            SimConfig(3, 9, 1)

    def test_same_config_and_seed_bit_identical(self):
        config = SimConfig(12, 7, 11)
        w1 = random_world(config, np.random.default_rng(99))
        w2 = random_world(config, np.random.default_rng(99))
        assert [(p.x, p.y, p.heading) for p in w1.robots] == \
               [(p.x, p.y, p.heading) for p in w2.robots]
        assert w1.blocks == w2.blocks

    def test_headings_cover_all_four_values(self):
        config = SimConfig(16, 40, 0)
        world = random_world(config, np.random.default_rng(3))
        assert {p.heading for p in world.robots} == set(Heading)


class TestSense:
    def test_alone_all_sensors_zero(self):
        world = make_world(8, [(4, 4, Heading.NORTH)], [])
        assert sense(world, 0).tolist() == [0] * 12

    def test_block_directly_ahead_sets_s6_only(self):
        # Facing North from (4,4): the cell ahead is (4,3).
        world = make_world(8, [(4, 4, Heading.NORTH)], [(4, 3)])
        reading = sense(world, 0)
        assert reading[6] == 1
        assert reading.sum() == 1

    def test_block_two_ahead_sets_s9_only(self):
        world = make_world(8, [(4, 4, Heading.NORTH)], [(4, 2)])
        reading = sense(world, 0)
        assert reading[9] == 1
        assert reading.sum() == 1

    def test_robot_ahead_wraps_over_torus_seam(self):
        L = 8
        world = make_world(L, [(3, 0, Heading.NORTH), (3, L - 1, Heading.SOUTH)], [])
        reading = sense(world, 0)
        assert reading[0] == 1  # robot bank, cell directly ahead
        assert reading.sum() == 1

    def test_full_cell_layout_facing_east(self):
        # Facing East from (2,2): f=(1,0), left=North=(0,-1), right=South=(0,1)
        # order C1,L1,R1,C2,L2,R2 -> (3,2),(3,1),(3,3),(4,2),(4,1),(4,3)
        expected = [(3, 2), (3, 1), (3, 3), (4, 2), (4, 1), (4, 3)]
        assert sensed_cells(RobotPose(2, 2, Heading.EAST), 8) == expected
        for idx, cell in enumerate(expected):
            world = make_world(8, [(2, 2, Heading.EAST)], [cell])
            reading = sense(world, 0)
            assert reading[6 + idx] == 1 and reading.sum() == 1

    def test_robot_and_block_banks_are_disjoint(self):
        world = make_world(
            8, [(4, 4, Heading.SOUTH), (4, 5, Heading.NORTH)], [(3, 5)]
        )
        reading = sense(world, 0)
        assert reading[0] == 1  # robot at C1
        assert reading[6] == 0  # block bank ignores robots
        # facing South: right = West, so (3,5) is R1 for robot 0
        assert reading[8] == 1

    def test_no_occlusion_far_cell_sensed_behind_near_block(self):
        world = make_world(8, [(4, 4, Heading.NORTH)], [(4, 3), (4, 2)])
        reading = sense(world, 0)
        assert reading[6] == 1 and reading[9] == 1

    def test_pure_function_repeated_calls_agree(self):
        world = random_world(SimConfig(10, 5, 10), np.random.default_rng(8))
        for rid in range(5):
            first = sense(world, rid)
            assert np.array_equal(first, sense(world, rid))


class TestAttemptActuate:
    def test_move_into_empty_cell(self):
        world = make_world(6, [(2, 2, Heading.EAST)], [])
        assert attempt_actuate(world, 0, MOVE) == MoveOutcome.MOVED
        assert (world.robots[0].x, world.robots[0].y) == (3, 2)
        world.validate()

    def test_push_block_into_empty_cell(self):
        world = make_world(6, [(2, 2, Heading.EAST)], [(3, 2)])
        assert attempt_actuate(world, 0, MOVE) == MoveOutcome.PUSHED
        assert (world.robots[0].x, world.robots[0].y) == (3, 2)
        assert world.blocks[0] == (4, 2)
        world.validate()

    def test_two_blocks_never_chain_push(self):
        world = make_world(6, [(2, 2, Heading.EAST)], [(3, 2), (4, 2)])
        assert attempt_actuate(world, 0, MOVE) == MoveOutcome.BLOCKED
        assert (world.robots[0].x, world.robots[0].y) == (2, 2)
        assert world.blocks == [(3, 2), (4, 2)]

    def test_block_push_into_robot_is_blocked(self):
        world = make_world(
            6, [(2, 2, Heading.EAST), (4, 2, Heading.NORTH)], [(3, 2)]
        )
        assert attempt_actuate(world, 0, MOVE) == MoveOutcome.BLOCKED

    def test_robot_ahead_blocks(self):
        world = make_world(6, [(2, 2, Heading.EAST), (3, 2, Heading.WEST)], [])
        assert attempt_actuate(world, 0, MOVE) == MoveOutcome.BLOCKED

    def test_turn_changes_heading_only(self):
        world = make_world(6, [(2, 2, Heading.NORTH)], [(3, 3)])
        assert attempt_actuate(world, 0, TURN_CW) == MoveOutcome.TURNED
        assert world.robots[0].heading == Heading.EAST
        assert (world.robots[0].x, world.robots[0].y) == (2, 2)
        assert attempt_actuate(world, 0, TURN_CCW) == MoveOutcome.TURNED
        assert world.robots[0].heading == Heading.NORTH

    def test_push_wraps_around_torus(self):
        L = 5
        world = make_world(L, [(L - 2, 0, Heading.EAST)], [(L - 1, 0)])
        assert attempt_actuate(world, 0, MOVE) == MoveOutcome.PUSHED
        assert world.blocks[0] == (0, 0)
        world.validate()

    def test_only_actor_and_one_block_change(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            world = random_world(SimConfig(8, 5, 10), rng)
            before_robots = [(p.x, p.y, p.heading) for p in world.robots]
            before_blocks = list(world.blocks)
            rid = int(rng.integers(5))
            cmd = ActionCommand(int(rng.integers(2)),
                                int(rng.choice([-1, 1])))
            attempt_actuate(world, rid, cmd)
            moved_robots = [
                i for i, p in enumerate(world.robots)
                if (p.x, p.y, p.heading) != before_robots[i]
            ]
            moved_blocks = [
                j for j in range(10) if world.blocks[j] != before_blocks[j]
            ]
            assert moved_robots in ([], [rid])
            assert len(moved_blocks) <= 1
            world.validate()


class TestStep:
    def test_all_turn_commands_change_nothing_but_headings(self):
        world = random_world(SimConfig(8, 4, 6), np.random.default_rng(2))
        before_pos = [(p.x, p.y) for p in world.robots]
        before_blocks = list(world.blocks)
        outcomes = step(world, [TURN_CW] * 4, np.random.default_rng(0))
        assert outcomes == [MoveOutcome.TURNED] * 4
        assert [(p.x, p.y) for p in world.robots] == before_pos
        assert world.blocks == before_blocks

    def test_contested_cell_one_moves_one_blocked(self):
        # Two robots face the same empty cell of a 3x3 world. Acting order
        # decides: whichever goes first moves, the other is blocked. Both
        # orders, enumerated by hand via attempt_actuate:
        for first in (0, 1):
            world = make_world(
                3, [(0, 1, Heading.EAST), (2, 1, Heading.WEST)], []
            )
            second = 1 - first
            assert attempt_actuate(world, first, MOVE) == MoveOutcome.MOVED
            assert attempt_actuate(world, second, MOVE) == MoveOutcome.BLOCKED
            assert (world.robots[first].x, world.robots[first].y) == (1, 1)
        # Through step(): exactly one Moved per step, and over many seeds
        # both winners occur (order depends only on the shuffle).
        winners = set()
        for s in range(40):
            world = make_world(
                3, [(0, 1, Heading.EAST), (2, 1, Heading.WEST)], []
            )
            outcomes = step(world, [MOVE, MOVE], np.random.default_rng(s))
            assert sorted(o.value for o in outcomes) == ["blocked", "moved"]
            winners.add(outcomes.index(MoveOutcome.MOVED))
        assert winners == {0, 1}

    def test_command_count_mismatch_rejected(self):
        world = random_world(SimConfig(8, 4, 0), np.random.default_rng(0))
        with pytest.raises(ValueError):
            step(world, [MOVE] * 3, np.random.default_rng(0))

    def test_conservation_over_long_run(self):
        rng = np.random.default_rng(11)
        world = random_world(SimConfig(8, 6, 10), rng)
        for _ in range(1000):
            cmds = [
                ActionCommand(int(rng.integers(2)), int(rng.choice([-1, 1])))
                for _ in range(6)
            ]
            step(world, cmds, rng)
        assert len(world.blocks) == 10
        assert len(world.robots) == 6
        world.validate()

    def test_determinism_same_rng_state_same_successor(self):
        cfg = SimConfig(9, 5, 8)
        cmds = [MOVE, TURN_CW, MOVE, MOVE, TURN_CCW]
        w1 = random_world(cfg, np.random.default_rng(4))
        w2 = w1.copy()
        step(w1, cmds, np.random.default_rng(77))
        step(w2, cmds, np.random.default_rng(77))
        assert [(p.x, p.y, p.heading) for p in w1.robots] == \
               [(p.x, p.y, p.heading) for p in w2.robots]
        assert w1.blocks == w2.blocks


class TestSnapshots:
    def test_render_matches_documented_format(self):
        world = make_world(3, [(0, 0, Heading.NORTH)], [(1, 1)])
        assert render_snapshot(world) == "N..\n.B.\n...\n"

    def test_empty_grid(self):
        world = make_world(3, [(2, 2, Heading.WEST)], [])
        lines = render_snapshot(world).splitlines()
        assert lines[0] == "..." and lines[1] == "..."

    def test_round_trip_of_random_worlds(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            config = SimConfig(int(rng.integers(3, 12)), int(rng.integers(1, 6)),
                               int(rng.integers(0, 8)))
            world = random_world(config, rng)
            text = render_snapshot(world)
            parsed = parse_snapshot(text)
            assert render_snapshot(parsed) == text

    def test_parse_rejects_bad_input(self):
        with pytest.raises(SnapshotError):
            parse_snapshot("N..\n.B\n...\n")  # ragged line
        with pytest.raises(SnapshotError):
            parse_snapshot("N..\n.X.\n...\n")  # invalid character
        with pytest.raises(SnapshotError):
            parse_snapshot("")
        with pytest.raises(SnapshotError):
            parse_snapshot("B\n")  # 1x1: the block would neighbour itself
        with pytest.raises(SnapshotError):
            parse_snapshot("B.\n.N\n")  # 2x2
        with pytest.raises(SnapshotError, match="a 0x0 grid"):
            parse_snapshot("\n")  # one empty line
        with pytest.raises(SnapshotError, match="line 5"):
            parse_snapshot("B...\n....\n..N.\n....\n\n")  # blank line 5


class TestInvariants:
    def test_random_command_fuzz_preserves_occupancy(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            L = int(rng.choice([5, 8, 11]))
            N = int(rng.integers(1, 7))
            B = int(rng.integers(0, 10))
            world = random_world(SimConfig(L, N, B), rng)
            for _ in range(60):
                cmds = [
                    ActionCommand(int(rng.integers(2)), int(rng.choice([-1, 1])))
                    for _ in range(N)
                ]
                step(world, cmds, rng)
            world.validate()
            for pose in world.robots:
                assert 0 <= pose.x < L and 0 <= pose.y < L
