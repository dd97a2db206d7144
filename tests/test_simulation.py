"""Batch engine: reference equivalence, batching invariance, determinism,
trace recording, and conservation under load."""

import itertools
import math
import warnings

import numpy as np
import pytest

from minsurprise import simulation
from minsurprise.networks import (
    ACTION_LENGTH,
    PREDICTION_LENGTH,
    WEIGHT_LIMIT,
    Genome,
    Scenario,
    decode,
    random_genome,
)
from minsurprise.simulation import (
    _BLOCK,
    _FREE,
    _ROBOT,
    _decision_tables,
    simulate_batch,
    simulate_traced,
)
from minsurprise.world import HEADING_VECTORS, Heading, RobotPose, SimConfig, \
    render_cells
import oracle
from oracle import MOVE, invariant_sweep, reference_simulation, verify_state


def spread_genome(seed, scale=3.0):
    g = random_genome(np.random.default_rng(seed))
    return Genome(np.clip(g.action_weights * scale, -5, 5),
                  np.clip(g.prediction_weights * scale, -5, 5))


class TestReferenceEquivalence:
    @pytest.mark.parametrize("scenario", [Scenario.EMERGENT, Scenario.PAIRS,
                                          Scenario.EMPTY])
    def test_engine_matches_scalar_reference_bit_exactly(self, scenario):
        rng = np.random.default_rng(321)
        for trial in range(4):
            config = SimConfig(
                int(rng.integers(5, 10)), int(rng.integers(2, 6)),
                int(rng.integers(0, 8)), steps=int(rng.integers(25, 60)),
            )
            genome = spread_genome(trial)
            seed = int(rng.integers(0, 2**63))
            ref_err, ref_comp, _, _ = reference_simulation(
                genome, config, scenario, seed
            )
            errs, comp = invariant_sweep(
                [genome], config, scenario,
                np.array([[seed]], dtype=np.uint64), every=5)
            assert comp == ref_comp
            assert errs[0, 0] == ref_err  # bitwise, not approximate

    def test_single_robot_world_matches_reference(self):
        # N=1 exercises the one-row matmul path end to end
        config = SimConfig(6, 1, 4, steps=50)
        genome = spread_genome(11)
        ref_err, _, _, _ = reference_simulation(
            genome, config, Scenario.EMERGENT, 77
        )
        errs, _ = simulate_batch([genome], config, Scenario.EMERGENT,
                                 np.array([[77]], dtype=np.uint64))
        assert errs[0, 0] == ref_err

    @pytest.mark.parametrize("scenario", [Scenario.EMERGENT,
                                          Scenario.CLUSTERS])
    @pytest.mark.parametrize("robots", [127, 128, 129])
    def test_order_table_type_boundary_matches_reference(self, robots,
                                                         scenario):
        # 127 robots keep the step orders in int8, 128 use int16, and 129
        # would overflow int8 (order indices reach 128); crowded
        # always-moving worlds make the error sums depend on the order.
        config = SimConfig(16, robots, 16, steps=10)
        always_moving = Genome(np.zeros(ACTION_LENGTH),
                               np.zeros(PREDICTION_LENGTH))
        genomes = [always_moving, spread_genome(5)]
        seeds = np.array([[31], [32]], dtype=np.uint64)
        batched, _ = invariant_sweep(genomes, config, scenario, seeds)
        for g, genome in enumerate(genomes):
            ref_err, _, _, _ = reference_simulation(
                genome, config, scenario, int(seeds[g, 0]))
            assert batched[g, 0] == ref_err  # bitwise
            alone, _ = simulate_batch([genome], config, scenario,
                                      seeds[g:g + 1])
            assert alone[0, 0] == ref_err

    def test_engine_final_state_matches_reference(self):
        config = SimConfig(8, 4, 6, steps=40)
        genome = spread_genome(9)
        seed = 4242
        _, _, ref_robots, ref_blocks = reference_simulation(
            genome, config, Scenario.EMERGENT, seed
        )
        trace = simulate_traced(genome, config, Scenario.EMERGENT, seed,
                                snapshot_every=config.steps)
        assert set(ref_blocks) == set(trace.end_blocks)
        final = trace.robot_window[-1]
        assert sorted(map(tuple, final.tolist())) == \
               sorted((x, y) for x, y, _ in ref_robots)

    @pytest.mark.parametrize("scenario", [Scenario.EMERGENT,
                                          Scenario.CLUSTERS])
    @pytest.mark.parametrize("blocks", [125, 126, 127])
    def test_grid_type_boundary_matches_reference(self, blocks, scenario):
        # Block codes (2 + id) reach 126, 127 and 128: the top of int8 and
        # one past it. The grid is int32, and every code must still push as
        # its own block; in a crowded grid nearly every move pushes or
        # stalls.
        config = SimConfig(12, 4, blocks, steps=72)  # tau = 72
        always_moving = Genome(np.zeros(ACTION_LENGTH),
                               np.zeros(PREDICTION_LENGTH))
        for genome in (always_moving, spread_genome(5)):
            ref_err, _, ref_robots, ref_blocks = reference_simulation(
                genome, config, scenario, 41)
            errs, _ = invariant_sweep([genome], config, scenario,
                                      np.array([[41]], dtype=np.uint64))
            assert errs[0, 0] == ref_err  # bitwise
            trace = simulate_traced(genome, config, scenario, 41,
                                    snapshot_every=config.steps)
            assert trace.block_window[-1].tolist() == \
                [list(b) for b in ref_blocks]
            assert trace.snapshots[-1][1] == render_cells(
                12, [RobotPose(x, y, Heading(h)) for x, y, h in ref_robots],
                ref_blocks)


# Action output biases next to 0, where y >= 0 and sigmoid(y) >= 0.5 can
# disagree: -1e-17, -2**-53 and -5e-324 are negative, yet 1 + exp(-y) rounds
# to exactly 2 and the sigmoid to 0.5, which decides for move and for a
# right turn. The last three put exp(-y) at the engine's decision edge
# 1 + 2**-52: exp(2**-52) is 1 + 2**-52 (move), exp(2**-51) is 1 + 2**-51
# (no move), and exp(3 * 2**-53) lies between the two, where a correctly
# rounded exp gives 1 + 2**-51 and numpy 2.4.6 gives 1 + 2**-52; either way
# the engine must decide as the reference.
BAND_BIASES = [0.0, 1e-17, -1e-17, -2.0**-53, 1e-13, -1e-13, -5e-324,
               -2.0**-52, -3 * 2.0**-53, -2.0**-51]


def biased_genome(move_bias, turn_bias):
    """Every action weight 0 except the two output biases, so each action
    output is exactly its bias at every step."""
    weights = np.zeros(ACTION_LENGTH)
    weights[-2:] = move_bias, turn_bias
    return Genome(weights, spread_genome(0).prediction_weights)


class TestDecisionBand:
    """Decisions on outputs next to 0 equal the reference's sigmoid >= 0.5:
    the first genomes vary the move output; the rest turn (move bias
    -1e-13) and vary the turn output."""

    GENOMES = ([biased_genome(b, 0.0) for b in BAND_BIASES]
               + [biased_genome(-1e-13, b) for b in BAND_BIASES])
    SEEDS = np.arange(len(GENOMES), dtype=np.uint64)[:, None] + 90

    @pytest.mark.parametrize("scenario", [Scenario.EMERGENT,
                                          Scenario.CLUSTERS])
    def test_decisions_match_reference(self, scenario):
        config = SimConfig(6, 4, 6, steps=30)
        batched, _ = invariant_sweep(self.GENOMES, config, scenario,
                                     self.SEEDS)
        for g, genome in enumerate(self.GENOMES):
            seed = int(self.SEEDS[g, 0])
            ref_err, _, ref_robots, ref_blocks = reference_simulation(
                genome, config, scenario, seed)
            assert batched[g, 0] == ref_err  # bitwise
            trace = simulate_traced(genome, config, scenario, seed,
                                    snapshot_every=config.steps)
            assert trace.error_sum == ref_err
            assert trace.snapshots[-1][1] == render_cells(
                6, [RobotPose(x, y, Heading(h)) for x, y, h in ref_robots],
                ref_blocks)


def test_decision_edge_is_the_sigmoid_threshold():
    # The engine decides on e = exp(-y) <= 1 + 2**-52, the reference on
    # sigmoid(y) = 1 / (1 + e) >= 0.5: equal on every double e near 1, on
    # both sides of the edge, and on e = exp(u) across the outputs' range.
    edge = float.fromhex("0x1.0000000000001p0")
    below, above = [1.0], [1.0]
    for _ in range(7000):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 2.0))
    near = sorted(set(below + above), key=lambda e: abs(e - 1.0))[:10_000]
    assert min(near) < 1.0 < edge < max(near)
    rng = np.random.default_rng(2)
    spread = np.exp(rng.uniform(-45.0, 45.0, 100_000)).tolist()
    for e in near + spread:
        assert (1.0 / (1.0 + e) >= 0.5) == (e <= edge), e


def limit_genome(seed):
    """Every weight at +-WEIGHT_LIMIT, signs drawn from the seed."""
    rng = np.random.default_rng(seed)
    return Genome(rng.choice([-WEIGHT_LIMIT, WEIGHT_LIMIT], ACTION_LENGTH),
                  rng.choice([-WEIGHT_LIMIT, WEIGHT_LIMIT], PREDICTION_LENGTH))


class TestDecisionTables:
    """The fixed scenarios' per-genome decision tables equal the oracle's
    action network on every (sensors, last action) input that sensing can
    produce, and are False on the others, which the engine never reads."""

    # Checked against the oracle on every row.
    GENOMES = ([spread_genome(i) for i in range(2)]
               + [Genome(np.zeros(ACTION_LENGTH), np.zeros(PREDICTION_LENGTH))]
               + [limit_genome(8)])

    def test_tables_match_oracle_on_every_input(self):
        # One call for all genomes, so each is read at its own offset. A
        # band genome's action weights are 0 but its output biases, so each
        # output is exactly its bias on every reachable row: its table is
        # constant there, and the oracle is asked on the reachable rows'
        # corners (no sensor, all six robot bits, all six block bits).
        genomes = self.GENOMES + TestDecisionBand.GENOMES
        tables = _decision_tables([decode(g)[0] for g in genomes])
        assert tables.shape == (len(genomes), 8192, 2)
        assert tables.nbytes // len(genomes) <= 16 * 1024
        reachable, _ = simulation._reachable_rows()
        unreachable = np.setdiff1d(np.arange(8192), reachable)
        assert not tables[:, unreachable].any()
        for g, (genome, table) in enumerate(zip(genomes, tables)):
            rows = reachable
            if g >= len(self.GENOMES):
                assert (table[reachable] == table[0]).all()
                rows = [0, 63, 4032, 4096, 4096 + 63, 4096 + 4032]
            net = decode(genome)[0]
            expected = np.array([
                oracle.act(net, ((r >> np.arange(12)) & 1).astype(np.float64),
                           oracle.ControllerState(last_action=float(r >> 12)))
                for r in rows])
            # (move, turn right): (action == MOVE, turn == +1)
            assert np.array_equal(table[rows], expected == [oracle.MOVE, 1])

    def test_sensing_produces_only_reachable_rows(self):
        # Each of the 3^6 contents of one robot's sensed cells (free, robot
        # or block) senses as a code whose rows, with either previous move,
        # are in the reachable set: the engine never reads another entry.
        reachable = set(simulation._reachable_rows()[0].tolist())
        assert len(reachable) == 3**6 * 2 == 1458
        pose = RobotPose(3, 3, Heading(0))
        ahead = oracle.sensed_cells(pose, 7)
        codes = set()
        for contents in itertools.product(("free", "robot", "block"),
                                          repeat=6):
            robots = [pose] + [RobotPose(*cell, Heading(0)) for cell, what
                               in zip(ahead, contents) if what == "robot"]
            blocks = [cell for cell, what in zip(ahead, contents)
                      if what == "block"]
            world = oracle.World(SimConfig(7, len(robots), len(blocks)),
                                 robots, blocks)
            code = sum(int(bit) << s
                       for s, bit in enumerate(oracle.sense(world, 0)))
            assert {code, code | 1 << 12} <= reachable
            codes.add(code)
        assert len(codes) == 3**6

    def test_fixed_step_runs_no_network(self, monkeypatch):
        # Only the per-call table build runs the network: its calls do not
        # grow with the run length.
        calls = {"matmul": 0, "sigmoid": 0, "tanh": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(simulation, "stable_rows_matmul",
                            counting("matmul", simulation.stable_rows_matmul))
        monkeypatch.setattr(simulation, "sigmoid_inplace",
                            counting("sigmoid", simulation.sigmoid_inplace))
        monkeypatch.setattr(np, "tanh", counting("tanh", np.tanh))
        genomes = [spread_genome(1), spread_genome(2)]
        seeds = np.array([[1, 2], [3, 4]], dtype=np.uint64)
        counts = []
        for steps in (10, 60):
            calls.update(matmul=0, sigmoid=0, tanh=0)
            simulate_batch(genomes, SimConfig(8, 4, 6, steps=steps),
                           Scenario.CLUSTERS, seeds)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        # one action network pass over all 8192 input rows per genome
        assert counts[0]["matmul"] == 2 * len(genomes)


class TestVerifyState:
    """The invariant sweep over the one grid (0 free, 1 robot, 2 + id a
    block) of two 5x5 worlds, each with robots on cells 0, 1 and blocks
    0..2 on cells 5..7."""

    L, N, B = 5, 2, 3

    def state(self):
        occ = np.full(2 * 25, _FREE, dtype=np.int8)
        pos = np.array([[0, 1], [0, 1]], dtype=np.int64)
        rh = np.array([[0, 3], [2, 1]], dtype=np.int64)
        occ[[0, 1, 25, 26]] = _ROBOT
        for w in (0, 25):
            occ[w + 5:w + 8] = _BLOCK + np.arange(3)
        return occ, pos, rh

    def test_consistent_state_passes(self):
        occ, pos, rh = self.state()
        verify_state(self.L, self.N, self.B, occ, pos, rh)

    @pytest.mark.parametrize("cell, code, message", [
        (6, _BLOCK + 0, "block ids"),
        (7, _FREE, "block count"),
        (12, _ROBOT, "robot count"),
    ], ids=["duplicated-block-id", "missing-block", "extra-robot"])
    def test_corrupt_second_world_raises(self, cell, code, message):
        occ, pos, rh = self.state()
        occ[25 + cell] = code
        with pytest.raises(AssertionError, match=message):
            verify_state(self.L, self.N, self.B, occ, pos, rh)

    def test_heading_out_of_range_raises(self):
        occ, pos, rh = self.state()
        rh[1, 0] = 4
        with pytest.raises(AssertionError, match="heading"):
            verify_state(self.L, self.N, self.B, occ, pos, rh)

    def test_sweep_checks_every_kth_step_and_the_last(self, monkeypatch):
        kept, checked = [], []
        batch = oracle.simulate_batch

        def keeping(*args, keep):
            result = batch(*args, keep=keep)
            kept.append((keep, result[2]))
            return result

        monkeypatch.setattr(oracle, "simulate_batch", keeping)
        monkeypatch.setattr(oracle, "verify_state",
                            lambda *args: checked.append(args))
        config = SimConfig(self.L, self.N, self.B, steps=25)
        invariant_sweep([spread_genome(0)], config, Scenario.CLUSTERS,
                        np.array([[1, 2]], dtype=np.uint64), every=10)
        (steps, (pos, rh, occ)), = kept
        assert steps.tolist() == [0, 10, 20, 25]
        assert len(checked) == 4
        for r, (L, N, B, *state) in enumerate(checked):
            assert (L, N, B) == (self.L, self.N, self.B)
            for a, b in zip(state, (occ[r].reshape(-1), pos[r], rh[r])):
                assert np.array_equal(a, b)


class TestKeptRows:
    """keep=steps returns the state of every world after each listed step,
    in the rows of fresh arrays, and changes no result."""

    CONFIG = SimConfig(8, 12, 8, steps=30)  # dense: the order matters
    GENOMES = [spread_genome(1), spread_genome(2)]
    SEEDS = np.array([[7, 8], [9, 10]], dtype=np.uint64)

    @pytest.mark.parametrize("keep", [
        np.array([5, 5]),
        np.array([5, 3]),
        np.array([0, 31]),
        np.array([-1, 3]),
        np.array([0.0, 3.0]),
        np.array([[0, 3]]),
        (np.array([0, 3]), np.empty((2, 4, 12), np.int64),
         np.empty((2, 4, 12), np.int64), np.empty((2, 4, 64), np.int32)),
    ], ids=["repeated-step", "decreasing", "after-T", "negative",
            "float-steps", "2-d-steps", "steps-and-buffers"])
    def test_malformed_keep_raises_before_any_kernel_call(self, monkeypatch,
                                                          keep):
        def no_kernel():
            raise AssertionError("the kernel was loaded")

        monkeypatch.setattr(simulation.kernel, "load", no_kernel)
        with pytest.raises(ValueError):
            simulate_batch(self.GENOMES, self.CONFIG, Scenario.CLUSTERS,
                           self.SEEDS, keep=keep)

    @pytest.mark.parametrize("scenario", [Scenario.EMERGENT,
                                          Scenario.CLUSTERS])
    def test_rows_at_some_steps_equal_those_of_every_step(self, scenario):
        T = self.CONFIG.steps
        some_steps = [*range(0, T + 1, 7), T]
        every, some = (simulate_batch(self.GENOMES, self.CONFIG, scenario,
                                      self.SEEDS, keep=steps)[2]
                       for steps in (np.arange(T + 1), some_steps))
        for a, b in zip(every, some, strict=True):
            assert np.array_equal(a[some_steps], b)
        assert not np.array_equal(every[0][0], every[0][-1])  # robots moved

    def test_rows_are_fresh_arrays_and_no_keep_returns_two_items(self):
        def rows():
            return simulate_batch(self.GENOMES, self.CONFIG,
                                  Scenario.CLUSTERS, self.SEEDS,
                                  keep=[0, 3, 30])[2]

        first, second = rows(), rows()
        L2 = self.CONFIG.side_length ** 2
        layout = [((3, 4, 12), np.int64), ((3, 4, 12), np.int64),
                  ((3, 4, L2), np.int32)]  # robot cells, headings, grids
        for a, b, (shape, dtype) in zip(first, second, layout, strict=True):
            assert a.shape == shape and a.dtype == dtype
            assert a.flags.c_contiguous and a.flags.owndata
            assert np.array_equal(a, b) and not np.shares_memory(a, b)
        assert not any(np.shares_memory(a, b)
                       for a in first for b in first if a is not b)
        assert len(simulate_batch(self.GENOMES, self.CONFIG,
                                  Scenario.CLUSTERS, self.SEEDS)) == 2

    @pytest.mark.parametrize("scenario", [Scenario.EMERGENT,
                                          Scenario.CLUSTERS])
    @pytest.mark.parametrize("steps", [[], [0], [30], [3, 17],
                                       list(range(31))],
                             ids=["none", "placement", "end", "two", "all"])
    def test_keeping_rows_changes_no_error_sum(self, scenario, steps):
        plain = simulate_batch(self.GENOMES, self.CONFIG, scenario,
                               self.SEEDS)
        kept = simulate_batch(self.GENOMES, self.CONFIG, scenario, self.SEEDS,
                              keep=steps)
        assert kept[1] == plain[1]
        assert np.array_equal(kept[0], plain[0])  # bitwise
        assert [len(rows) for rows in kept[2]] == [len(steps)] * 3

    @pytest.mark.parametrize("scenario", [Scenario.EMERGENT,
                                          Scenario.CLUSTERS])
    @pytest.mark.parametrize("every, steps", [
        (1, 40), (7, 40), (40, 40), (7, 18)],
        ids=["1", "7", "40", "7-window-from-placement"])
    def test_traced_runs_keep_the_same_states(self, scenario, every, steps):
        # A traced run keeps its snapshots' states and the metrics window;
        # at every = 1 it keeps every state. At 18 steps the window (tau =
        # 18) starts at the placement, which no step makes.
        config = SimConfig(6, 3, 4, steps=steps)  # window: 22 .. 40, 0 .. 18
        genome = spread_genome(3)
        trace = simulate_traced(genome, config, scenario, 41, every)
        full = simulate_traced(genome, config, scenario, 41, 1)
        times = sorted({*range(0, steps + 1, every), steps})
        assert [t for t, _ in trace.snapshots] == times
        assert trace.snapshots == [full.snapshots[t] for t in times]
        ref_err, _, ref_robots, ref_blocks = reference_simulation(
            genome, config, scenario, 41)
        assert trace.error_sum == full.error_sum == ref_err  # bitwise
        start = oracle.random_world(config, np.random.default_rng(41))
        assert trace.start_blocks == frozenset(start.blocks)
        assert trace.end_blocks == frozenset(ref_blocks)
        assert trace.snapshots[0][1] == render_cells(6, start.robots,
                                                     start.blocks)
        assert np.array_equal(trace.robot_window, full.robot_window)
        assert np.array_equal(trace.block_window, full.block_window)
        assert trace.robot_window[-1].tolist() == \
            [[x, y] for x, y, _ in ref_robots]
        if steps == 18:
            assert trace.robot_window[0].tolist() == \
                [[p.x, p.y] for p in start.robots]

    def test_fixed_traced_run_is_one_kernel_call(self, monkeypatch):
        calls = []
        lib = simulation.kernel.load()

        class Counting:
            def steps(self, *args):
                calls.append("steps")
                return lib.steps(*args)

        monkeypatch.setattr(simulation.kernel, "load", lambda: Counting())
        config = SimConfig(6, 3, 4, steps=40)
        simulate_traced(spread_genome(3), config, Scenario.CLUSTERS, 41,
                        snapshot_every=40)
        assert calls == ["steps"]


def never_moving_genome():
    # all-zero action net with a negative move bias: every robot only turns
    weights = np.zeros(ACTION_LENGTH)
    weights[-2] = -1.0  # b_out[0], the move output's bias
    return Genome(weights, np.zeros(PREDICTION_LENGTH))


def count_crowd_events(monkeypatch, genome, config, scenario, seed):
    """Run the oracle on one world and count, over all steps, robots that
    advance into a cell another robot left earlier in the same step, extra
    movers aiming at an already aimed-at cell, and blocks pushed twice."""
    counts = {"train": 0, "shared_target": 0, "double_push": 0}
    L = config.side_length
    real_step = oracle.step

    def counting_step(world, commands, rng):
        before = [(p.x, p.y) for p in world.robots]
        blocks_before = list(world.blocks)
        targets = [
            ((p.x + HEADING_VECTORS[p.heading][0]) % L,
             (p.y + HEADING_VECTORS[p.heading][1]) % L)
            for p, c in zip(world.robots, commands) if c.action == MOVE
        ]
        outcomes = real_step(world, commands, rng)
        robot_cells_before = set(before)
        counts["train"] += sum(
            (p.x, p.y) != b and (p.x, p.y) in robot_cells_before
            for p, b in zip(world.robots, before)
        )
        counts["shared_target"] += len(targets) - len(set(targets))
        for (x0, y0), (x1, y1) in zip(blocks_before, world.blocks):
            dx, dy = abs(x1 - x0), abs(y1 - y0)
            counts["double_push"] += min(dx, L - dx) + min(dy, L - dy) == 2
        return outcomes

    with monkeypatch.context() as m:
        m.setattr(oracle, "step", counting_step)
        result = reference_simulation(genome, config, scenario, seed)
    return result, counts


class TestDenseWorlds:
    """Crowded worlds: robot trains into cells vacated earlier in the same
    step, several movers aiming at one cell, blocks pushed twice in one
    step, and (with the never-moving genome in the call) order positions
    that hold a mover in some worlds and none in others. Genomes 17 and 6
    push a block twice at world seeds 0 and 1 of the first two configs."""

    GENOMES = [Genome(np.zeros(ACTION_LENGTH), np.zeros(PREDICTION_LENGTH)),
               never_moving_genome(), spread_genome(17), spread_genome(6)]
    SEEDS = np.tile(np.array([0, 1], dtype=np.uint64), (4, 1))

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("config", [
        SimConfig(6, 12, 12, steps=40), SimConfig(5, 10, 8, steps=40),
        SimConfig(6, 1, 10, steps=40),
    ], ids=["6x6-N12-B12", "5x5-N10-B8", "6x6-N1-B10"])
    def test_multi_world_call_matches_reference(self, config, scenario,
                                                monkeypatch):
        L = config.side_length
        seeds = self.SEEDS
        batched, comp = invariant_sweep(self.GENOMES, config, scenario, seeds)
        events = {"train": 0, "shared_target": 0, "double_push": 0}
        for g, genome in enumerate(self.GENOMES):
            for w in range(seeds.shape[1]):
                seed = int(seeds[g, w])
                (ref_err, ref_comp, ref_robots, ref_blocks), counts = \
                    count_crowd_events(monkeypatch, genome, config, scenario,
                                       seed)
                for key in events:
                    events[key] += counts[key]
                assert comp == ref_comp
                assert batched[g, w] == ref_err  # bitwise
                alone, _ = invariant_sweep([genome], config, scenario,
                                           seeds[g:g + 1, w:w + 1])
                assert alone[0, 0] == ref_err
                trace = simulate_traced(genome, config, scenario, seed,
                                        snapshot_every=config.steps)
                assert trace.error_sum == ref_err
                assert trace.robot_window[-1].tolist() == \
                    [[x, y] for x, y, _ in ref_robots]
                assert trace.block_window[-1].tolist() == \
                    [list(b) for b in ref_blocks]
                assert trace.snapshots[-1][1] == render_cells(
                    L, [RobotPose(x, y, Heading(h)) for x, y, h in ref_robots],
                    ref_blocks,
                )
        if config.swarm_size > 1:
            # the worlds above really contain the orderings they are for
            assert all(n > 0 for n in events.values()), events

    @pytest.mark.parametrize("config", [
        SimConfig(6, 11, 12, steps=40), SimConfig(8, 22, 24, steps=40),
    ], ids=["6x6-N11-B12", "8x8-N22-B24"])
    def test_pairwise_error_sums_match_reference(self, config):
        # A world's N * 12 error terms of a step are summed in numpy's
        # pairwise order: 132 terms split once into 64 + 68, the 68 with a
        # remainder of 4 after the eight accumulators; 264 split twice.
        seeds = self.SEEDS
        batched, _ = simulate_batch(self.GENOMES, config, Scenario.EMERGENT,
                                    seeds)
        for g, genome in enumerate(self.GENOMES):
            for w in range(seeds.shape[1]):
                ref_err, _, _, _ = reference_simulation(
                    genome, config, Scenario.EMERGENT, int(seeds[g, w]))
                assert batched[g, w] == ref_err  # bitwise

    @pytest.mark.parametrize("scenario", [Scenario.EMERGENT,
                                          Scenario.CLUSTERS])
    def test_every_step_order_width_runs_the_same_worlds(self, scenario,
                                                         monkeypatch):
        # The kernel reads the step orders at their item size. int64 needs
        # N >= 2**15 robots, too many for the reference, so each width runs
        # the same crowded batch and every width must agree with int8's.
        config = SimConfig(6, 12, 12, steps=40)
        results = []
        for width in (np.int8, np.int16, np.int64):
            monkeypatch.setattr(simulation, "_int_type", lambda n: width)
            err, _, end = simulate_batch(self.GENOMES, config, scenario,
                                         self.SEEDS, keep=[config.steps])
            results.append([err, *end])
        for other in results[1:]:
            assert all(np.array_equal(a, b)
                       for a, b in zip(results[0], other, strict=True))


class TestLoneMovers:
    """World 0 never moves and world 1 always moves, so every order position
    holds exactly one mover, in world 1: the engine actuates each alone,
    and a pushed block's id must be looked up in world 1's rows."""

    GENOMES = [never_moving_genome(),
               Genome(np.zeros(ACTION_LENGTH), np.zeros(PREDICTION_LENGTH))]
    SEEDS = np.array([[3], [4]], dtype=np.uint64)

    @pytest.mark.parametrize("scenario", [Scenario.EMERGENT, Scenario.CLUSTERS])
    def test_lone_movers_in_world_one_match_reference(self, scenario):
        config = SimConfig(6, 12, 12, steps=40)
        batched, comp = invariant_sweep(self.GENOMES, config, scenario,
                                        self.SEEDS)
        blocks_moved = []
        for g, genome in enumerate(self.GENOMES):
            seed = int(self.SEEDS[g, 0])
            ref_err, ref_comp, _, ref_blocks = reference_simulation(
                genome, config, scenario, seed)
            start_blocks = oracle.random_world(
                config, np.random.default_rng(seed)).blocks
            assert comp == ref_comp
            assert batched[g, 0] == ref_err  # bitwise
            alone, _ = invariant_sweep([genome], config, scenario,
                                       self.SEEDS[g:g + 1])
            assert alone[0, 0] == ref_err
            blocks_moved.append(ref_blocks != start_blocks)
        assert blocks_moved == [False, True]  # only world 1 pushes


class TestWeightLimits:
    def test_weights_at_the_limit_raise_no_warning(self):
        # Every weight at +-WEIGHT_LIMIT gives the largest network outputs a
        # genome can produce; exp in sigmoid_inplace must not overflow on
        # them, and the results stay bit-equal to the reference.
        rng = np.random.default_rng(5)

        def limit(n, sign=None):
            signs = rng.choice([-1.0, 1.0], n) if sign is None else sign
            return np.full(n, WEIGHT_LIMIT) * signs

        genomes = [Genome(limit(ACTION_LENGTH, s), limit(PREDICTION_LENGTH, s))
                   for s in (1.0, -1.0, None, None)]
        config = SimConfig(8, 4, 6, steps=40)
        seeds = np.arange(8, dtype=np.uint64).reshape(4, 2) + 50
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scenario in (Scenario.EMERGENT, Scenario.CLUSTERS):
                errs, _ = simulate_batch(genomes, config, scenario, seeds)
                for g, genome in enumerate(genomes):
                    seed = int(seeds[g, 0])
                    ref_err, _, _, _ = reference_simulation(
                        genome, config, scenario, seed)
                    assert errs[g, 0] == ref_err  # bitwise
                    trace = simulate_traced(genome, config, scenario, seed,
                                            snapshot_every=config.steps)
                    assert trace.error_sum == ref_err


@pytest.mark.parametrize("scenario", [Scenario.EMERGENT, Scenario.CLUSTERS])
class TestBatchingInvariance:
    def test_population_batch_equals_single_genome_calls(self, scenario):
        # One vectorized call over many genomes must be bit-identical to
        # evaluating each genome alone: per-world purity.
        config = SimConfig(8, 3, 5, steps=50)
        genomes = [spread_genome(i) for i in range(6)]
        seeds = np.arange(18, dtype=np.uint64).reshape(6, 3) + 100
        batched, comp = simulate_batch(genomes, config, scenario, seeds)
        for i, genome in enumerate(genomes):
            alone, comp2 = simulate_batch(
                [genome], config, scenario, seeds[i:i + 1]
            )
            assert comp2 == comp
            assert np.array_equal(alone[0], batched[i])

    def test_world_columns_are_independent(self, scenario):
        config = SimConfig(8, 3, 5, steps=50)
        genome = spread_genome(3)
        seeds = np.array([[7, 8, 9]], dtype=np.uint64)
        together, _ = simulate_batch([genome], config, scenario, seeds)
        for w in range(3):
            alone, _ = simulate_batch(
                [genome], config, scenario, seeds[:, w:w + 1]
            )
            assert alone[0, 0] == together[0, w]


class TestDeterminism:
    def test_identical_inputs_identical_outputs(self):
        config = SimConfig(10, 4, 8, steps=60)
        genomes = [spread_genome(i) for i in range(3)]
        seeds = np.arange(6, dtype=np.uint64).reshape(3, 2)
        a, _ = simulate_batch(genomes, config, Scenario.EMERGENT, seeds)
        b, _ = simulate_batch(genomes, config, Scenario.EMERGENT, seeds)
        assert np.array_equal(a, b)

    def test_traced_run_reproducible(self):
        config = SimConfig(8, 3, 5, steps=40)
        genome = spread_genome(5)
        t1 = simulate_traced(genome, config, Scenario.EMERGENT, 11,
                             snapshot_every=10)
        t2 = simulate_traced(genome, config, Scenario.EMERGENT, 11,
                             snapshot_every=10)
        assert t1.error_sum == t2.error_sum
        assert np.array_equal(t1.robot_window, t2.robot_window)
        assert t1.snapshots == t2.snapshots


class TestScenarioComparisons:
    def test_emergent_has_t_minus_one_comparisons(self):
        config = SimConfig(8, 2, 3, steps=25)
        _, comp = simulate_batch([spread_genome(0)], config, Scenario.EMERGENT,
                                 np.array([[1]], dtype=np.uint64))
        assert comp == 24

    def test_predefined_has_t_comparisons(self):
        config = SimConfig(8, 2, 3, steps=25)
        for scenario in (Scenario.PAIRS, Scenario.CLUSTERS, Scenario.EMPTY):
            _, comp = simulate_batch([spread_genome(0)], config, scenario,
                                     np.array([[1]], dtype=np.uint64))
            assert comp == 25

    def test_predefined_error_is_integer_valued(self):
        config = SimConfig(8, 3, 6, steps=30)
        errs, _ = simulate_batch([spread_genome(2)], config, Scenario.CLUSTERS,
                                 np.array([[5, 6]], dtype=np.uint64))
        assert np.array_equal(errs, np.round(errs))

    def test_zero_genome_scores_half_in_emergent_mode(self):
        # all-0.5 predictions against binary sensors: error is exactly half
        # the comparison volume
        config = SimConfig(8, 3, 6, steps=30)
        genome = Genome(np.zeros(ACTION_LENGTH), np.zeros(PREDICTION_LENGTH))
        errs, comp = simulate_batch([genome], config, Scenario.EMERGENT,
                                    np.array([[3, 4, 5]], dtype=np.uint64))
        expected = 0.5 * 3 * comp * 12
        assert np.all(errs == expected)


class TestTraces:
    def test_window_shapes_and_block_identity(self):
        config = SimConfig(8, 3, 5, steps=40)  # tau = 32
        trace = simulate_traced(spread_genome(7), config, Scenario.EMERGENT, 2,
                                snapshot_every=config.steps)
        assert trace.sim == config
        assert trace.robot_window.shape == (33, 3, 2)
        assert trace.block_window.shape == (33, 5, 2)
        assert len(trace.start_blocks) == 5
        assert len(trace.end_blocks) == 5
        # block positions change by at most one cell per step (identity
        # tracked through pushes, never teleported)
        diffs = np.abs(np.diff(trace.block_window, axis=0))
        diffs = np.minimum(diffs, 8 - diffs)
        assert diffs.max() <= 1

    def test_too_short_run_rejected(self):
        config = SimConfig(8, 3, 5, steps=20)  # tau = 32 > 20
        with pytest.raises(ValueError):
            simulate_traced(spread_genome(0), config, Scenario.EMERGENT, 1,
                            snapshot_every=config.steps)

    def test_snapshot_every_full_length_gives_start_and_end(self):
        config = SimConfig(8, 3, 5, steps=40)
        trace = simulate_traced(spread_genome(1), config, Scenario.EMERGENT, 4,
                                snapshot_every=40)
        assert [t for t, _ in trace.snapshots] == [0, 40]
        for _, text in trace.snapshots:
            assert len(text.splitlines()) == 8

    def test_conservation_under_fuzz(self):
        rng = np.random.default_rng(99)
        for _ in range(6):
            config = SimConfig(
                int(rng.choice([5, 8, 11])), int(rng.integers(1, 8)),
                int(rng.integers(0, 12)), steps=100,
            )
            genomes = [spread_genome(int(rng.integers(1000)))
                       for _ in range(3)]
            seeds = rng.integers(0, 2**63, (3, 4)).astype(np.uint64)
            invariant_sweep(genomes, config, Scenario.EMERGENT, seeds,
                            every=10)
