"""Genome encoding, network forward passes, scenarios, genome file format."""

import math

import numpy as np
import pytest

from minsurprise import networks
from minsurprise.networks import (
    ACTION_LENGTH,
    FIXED_TARGETS,
    HIDDEN_UNITS,
    NET_INPUTS,
    PREDICTION_LENGTH,
    Genome,
    MalformedGenomeError,
    Scenario,
    decode,
    load_genome,
    random_genome,
    save_genome,
    stable_rows_matmul,
)
from minsurprise.world import Heading, RobotPose, SimConfig
from oracle import (
    ControllerState,
    World,
    act,
    encode,
    predict,
    sense,
    sensed_cells,
)


def zero_genome():
    return Genome(np.zeros(ACTION_LENGTH), np.zeros(PREDICTION_LENGTH))


class TestGenomeShape:
    def test_parameter_counts_follow_topology(self):
        # action: 13*8 + 8 + 8*2 + 2; prediction: 13*8 + 8 + 8 + 8*12 + 12
        assert ACTION_LENGTH == 13 * 8 + 8 + 8 * 2 + 2 == 130
        assert PREDICTION_LENGTH == 13 * 8 + 8 + 8 + 8 * 12 + 12 == 228
        assert ACTION_LENGTH + PREDICTION_LENGTH == 358

    def test_wrong_lengths_rejected(self):
        Genome(np.zeros(130), np.zeros(228))  # accepted
        with pytest.raises(MalformedGenomeError):
            Genome(np.zeros(129), np.zeros(228))
        with pytest.raises(MalformedGenomeError):
            Genome(np.zeros(130), np.zeros(227))

    def test_nonfinite_and_oversized_weights_rejected(self):
        bad = np.zeros(ACTION_LENGTH)
        bad[3] = np.nan
        with pytest.raises(MalformedGenomeError):
            Genome(bad, np.zeros(PREDICTION_LENGTH))
        big = np.zeros(ACTION_LENGTH)
        big[0] = 5.5
        with pytest.raises(MalformedGenomeError):
            Genome(big, np.zeros(PREDICTION_LENGTH))

    def test_decode_encode_round_trip(self):
        genome = random_genome(np.random.default_rng(1))
        again = encode(*decode(genome))
        assert np.array_equal(genome.action_weights, again.action_weights)
        assert np.array_equal(genome.prediction_weights, again.prediction_weights)

    def test_all_zero_genome_decodes_to_zero_networks(self):
        action, prediction = decode(zero_genome())
        for arr in (action.w_hidden, action.b_hidden, action.w_out, action.b_out,
                    prediction.w_hidden, prediction.b_hidden, prediction.w_self,
                    prediction.w_out, prediction.b_out):
            assert not arr.any()


class TestAct:
    def test_zero_weights_give_move_plus_90(self):
        # sigmoid(0) = 0.5 and the thresholds break ties toward move / +90.
        action, _ = decode(zero_genome())
        cmd = act(action, np.zeros(12), ControllerState())
        assert cmd.action == 1
        assert cmd.turn_dir == 1

    def test_large_positive_bias_always_moves(self):
        # Only the move-output bias is set: sigmoid(5) > 0.5 regardless of
        # sensors, so the robot always moves.
        weights = np.zeros(ACTION_LENGTH)
        weights[13 * 8 + 8 + 8 * 2] = 5.0  # first output bias
        action, _ = decode(Genome(weights, np.zeros(PREDICTION_LENGTH)))
        rng = np.random.default_rng(0)
        for _ in range(20):
            sensors = rng.integers(0, 2, 12)
            cmd = act(action, sensors, ControllerState())
            assert cmd.action == 1

    def test_matches_manual_forward_pass(self):
        rng = np.random.default_rng(42)
        genome = random_genome(rng)
        action, _ = decode(genome)
        sensors = rng.integers(0, 2, 12).astype(float)
        state = ControllerState(last_action=1.0)
        cmd = act(action, sensors, state)
        # independent re-computation with plain python loops
        x = list(sensors) + [1.0]
        hidden = []
        for j in range(HIDDEN_UNITS):
            s = action.b_hidden[j]
            for i in range(NET_INPUTS):
                s += x[i] * action.w_hidden[i, j]
            hidden.append(math.tanh(s))
        outs = []
        for o in range(2):
            s = action.b_out[o]
            for j in range(HIDDEN_UNITS):
                s += hidden[j] * action.w_out[j, o]
            outs.append(1.0 / (1.0 + math.exp(-s)))
        assert cmd.action == (1 if outs[0] >= 0.5 else 0)
        assert cmd.turn_dir == (1 if outs[1] >= 0.5 else -1)
        assert state.last_action == float(cmd.action)

    def test_deterministic(self):
        genome = random_genome(np.random.default_rng(7))
        action, _ = decode(genome)
        sensors = np.ones(12)
        c1 = act(action, sensors, ControllerState())
        c2 = act(action, sensors, ControllerState())
        assert c1 == c2


class TestPredict:
    def test_zero_weights_predict_half_everywhere(self):
        _, prediction = decode(zero_genome())
        out = predict(prediction, np.ones(12), 1, ControllerState())
        assert np.array_equal(out, np.full(12, 0.5))

    def test_outputs_bounded_for_extreme_weights(self):
        rng = np.random.default_rng(3)
        genome = Genome(
            rng.uniform(-5, 5, ACTION_LENGTH), rng.uniform(-5, 5, PREDICTION_LENGTH)
        )
        _, prediction = decode(genome)
        state = ControllerState()
        for _ in range(50):
            out = predict(prediction, rng.integers(0, 2, 12), 1, state)
            assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_zero_recurrence_ignores_stored_hidden_state(self):
        rng = np.random.default_rng(9)
        genome = random_genome(rng)
        _, prediction = decode(genome)
        prediction = type(prediction)(
            prediction.w_hidden, prediction.b_hidden,
            np.zeros(HIDDEN_UNITS), prediction.w_out, prediction.b_out,
        )
        sensors = rng.integers(0, 2, 12)
        fresh = ControllerState()
        warmed = ControllerState(hidden=rng.normal(size=HIDDEN_UNITS))
        assert np.array_equal(
            predict(prediction, sensors, 0, fresh),
            predict(prediction, sensors, 0, warmed),
        )

    def test_recurrence_feeds_back_hidden_state(self):
        rng = np.random.default_rng(10)
        genome = random_genome(rng)
        _, prediction = decode(genome)
        sensors = rng.integers(0, 2, 12)
        s1 = ControllerState()
        first = predict(prediction, sensors, 1, s1)
        second = predict(prediction, sensors, 1, s1)
        assert not np.array_equal(first, second)

    def test_saturated_output_unit_predicts_near_one(self):
        weights = np.zeros(PREDICTION_LENGTH)
        weights[13 * 8 + 8 + 8 + 8 * 12 + 4] = 5.0  # bias of output p4 only
        _, prediction = decode(Genome(np.zeros(ACTION_LENGTH), weights))
        out = predict(prediction, np.zeros(12), 0, ControllerState())
        # manual oracle: sigmoid(5)
        assert out[4] >= 0.99
        assert out[4] == pytest.approx(1.0 / (1.0 + math.exp(-5.0)), abs=1e-15)

    def test_manual_forward_pass_with_recurrence(self):
        rng = np.random.default_rng(12)
        genome = random_genome(rng)
        _, net = decode(genome)
        sensors = rng.integers(0, 2, 12).astype(float)
        prev_hidden = rng.normal(size=HIDDEN_UNITS)
        state = ControllerState(hidden=prev_hidden.copy())
        out = predict(net, sensors, 1, state)
        x = list(sensors) + [1.0]
        hidden = []
        for j in range(HIDDEN_UNITS):
            s = net.b_hidden[j] + net.w_self[j] * prev_hidden[j]
            for i in range(NET_INPUTS):
                s += x[i] * net.w_hidden[i, j]
            hidden.append(math.tanh(s))
        for r in range(12):
            s = net.b_out[r]
            for j in range(HIDDEN_UNITS):
                s += hidden[j] * net.w_out[j, r]
            assert out[r] == pytest.approx(1.0 / (1.0 + math.exp(-s)), abs=1e-12)
        assert np.allclose(state.hidden, hidden, atol=1e-12)


class TestStateIsolation:
    def test_robot_evaluation_order_does_not_matter(self):
        # one shared decoded net, per-robot states: evaluating the robots in
        # any order yields the same commands (synchronous sensing)
        rng = np.random.default_rng(21)
        genome = random_genome(rng)
        action_net, _ = decode(genome)
        sensor_sets = [rng.integers(0, 2, 12) for _ in range(5)]
        forward = [ControllerState(last_action=1.0) for _ in range(5)]
        backward = [ControllerState(last_action=1.0) for _ in range(5)]
        cmds_fwd = [act(action_net, sensor_sets[i], forward[i])
                    for i in range(5)]
        cmds_bwd = [act(action_net, sensor_sets[i], backward[i])
                    for i in reversed(range(5))][::-1]
        assert cmds_fwd == cmds_bwd

    def test_one_decode_shared_by_all_robots(self):
        # homogeneity: all per-robot calls read the same decoded arrays
        genome = random_genome(np.random.default_rng(22))
        action_net, _ = decode(genome)
        states = [ControllerState() for _ in range(3)]
        sensors = np.zeros(12)
        first = [act(action_net, sensors, s) for s in states]
        assert len(set(first)) == 1


class TestStableMatmul:
    def test_single_row_matches_batched_rows(self):
        # the padding guard must make 1-row products equal their batched rows
        rng = np.random.default_rng(5)
        x = rng.normal(size=(64, 13))
        w = rng.normal(size=(13, 8))
        full = stable_rows_matmul(x, w)
        for i in range(0, 64, 7):
            row = stable_rows_matmul(x[i:i + 1], w)
            assert np.array_equal(row[0], full[i])

    def test_3d_slices_match_2d(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 20, 13))
        w = rng.normal(size=(10, 13, 8))
        full = stable_rows_matmul(x, w)
        for g in range(10):
            assert np.array_equal(stable_rows_matmul(x[g], w[g]), full[g])


class TestScenarios:
    @pytest.mark.parametrize("scenario, cells", [
        (Scenario.PAIRS, (0, 3)),  # the two cells straight ahead
        (Scenario.CLUSTERS, range(6)),
        (Scenario.EMPTY, ()),
    ])
    @pytest.mark.parametrize("heading", list(Heading))
    def test_target_is_the_code_of_the_predicted_scene(self, scenario, cells,
                                                       heading):
        pose = RobotPose(3, 3, heading)
        ahead = sensed_cells(pose, 7)
        world = World(SimConfig(7, 1, len(cells)), [pose],
                      [ahead[s] for s in cells])
        reading = sense(world, 0)
        assert sum(int(b) << s for s, b in enumerate(reading)) == \
            FIXED_TARGETS[scenario]

    def test_emergent_has_no_target(self):
        assert Scenario.EMERGENT not in FIXED_TARGETS


class TestGenomeFile:
    def test_round_trip_bit_exact(self, tmp_path):
        genome = random_genome(np.random.default_rng(77))
        path = tmp_path / "g.genome"
        save_genome(path, genome)
        loaded = load_genome(path)
        assert np.array_equal(genome.action_weights, loaded.action_weights)
        assert np.array_equal(genome.prediction_weights, loaded.prediction_weights)

    def test_header_format(self, tmp_path):
        path = tmp_path / "g.genome"
        save_genome(path, zero_genome())
        first = path.read_text().splitlines()[0]
        assert first == "minsurprise-genome v1 130 228"

    def test_rejects_topology_mismatch(self, tmp_path):
        path = tmp_path / "g.genome"
        path.write_text("minsurprise-genome v1 10 20\n" + " ".join(["0"] * 30) + "\n")
        with pytest.raises(MalformedGenomeError):
            load_genome(path)

    def test_rejects_wrong_weight_count(self, tmp_path):
        path = tmp_path / "g.genome"
        path.write_text(
            "minsurprise-genome v1 130 228\n" + " ".join(["0"] * 357) + "\n"
        )
        with pytest.raises(MalformedGenomeError):
            load_genome(path)

    @pytest.mark.parametrize("text, message", [
        ("minsurprise-genome v1 130 x\n", "bad genome header"),
        ("minsurprise-genome v1 130 228\n" + "0 " * 357 + "zero\n",
         "unparsable weight value"),
    ], ids=["non-integer-count", "non-numeric-weight"])
    def test_rejects_non_numbers(self, tmp_path, text, message):
        path = tmp_path / "g.genome"
        path.write_text(text)
        with pytest.raises(MalformedGenomeError, match=message):
            load_genome(path)

    def test_rejects_garbage_header(self, tmp_path):
        path = tmp_path / "g.genome"
        path.write_text("something else\n0 0\n")
        with pytest.raises(MalformedGenomeError):
            load_genome(path)

    def test_save_is_byte_stable(self, tmp_path):
        genome = random_genome(np.random.default_rng(31))
        a, b = tmp_path / "a", tmp_path / "b"
        save_genome(a, genome)
        save_genome(b, genome)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "g.genome"
        save_genome(path, random_genome(np.random.default_rng(5)))
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(networks.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_genome(path, random_genome(np.random.default_rng(6)))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["g.genome"]
