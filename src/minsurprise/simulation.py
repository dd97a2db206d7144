"""Vectorized simulation engine: many independent worlds advanced in lockstep.

One engine call simulates K = genomes x worlds_per_genome worlds that share
(L, N, B, T, scenario) but have independent seeds. Every world is a pure
function of (genome, seed) and reproduces the scalar single-world reference
in ``tests/oracle.py`` bit-exactly.

Per-world RNG contract (PCG64 seeded with the world seed):
  1. ``sample_placement`` draws: N + B distinct cells, then N headings.
  2. One block of T x N uniform doubles; the actuation order at step t is
     the argsort of row t.

Per-step event order: sense all robots; compare the pending prediction (or
the scenario's fixed vector) against the fresh sensors; run the action
network; in emergent mode run the prediction network; actuate robots
sequentially in the step's shuffled order. Emergent mode therefore yields
T - 1 comparisons (a prediction meets the *next* step's sensors), fixed
vectors yield T.

Grid. All K worlds share one flat grid, L * L cells each: 0 free, 1 robot,
2 + b block b (int8 while B + 2 < 2**7). A push copies the block's code, so
block identity needs no other state. Block cells by id are read off the grid
only where a result reads them: start blocks and snapshots when taken, the
metrics window once after the run, and the ``verify_every`` sweep.

Action decisions. The reference moves, and turns right, on
1 / (1 + exp(-y)) >= 0.5. In doubles fl(1 / x) >= 0.5 iff x <= 2, and
fl(1 + e) <= 2 iff e <= 1 + 2**-52. For |y| > 1e-12, exp(-y) is more than
0.99e-12 from 1, so any exp within a relative 1e-13 (numpy's is within a few
ulp) puts e on the side of 1 that the sign of y gives: the decision is
y >= 0. The engine takes the sign and runs ``sigmoid_inplace`` only where
|y| <= 1e-12; there the two can differ (y = -2**-53 gives exactly 0.5).

Actuation schedule. The reference actuates one robot at a time in the
step's shuffled order. A robot reads and writes only its own cell and the
two ahead of it (c1, c2); a turner touches none of them, so all turns are
applied at once, by one lookup from each robot's decision pair to a heading
change. A mover's heading is fixed and its cell changes only in its own
pass, so its cell, c1 and c2 are looked up once per step. The movers are
then listed by order position, then by world, and actuated one order
position at a time. The movers at one position lie in distinct worlds, and
each sees every cell that movers at earlier positions freed, took or pushed
a block into: the same state the sequential reference shows it, so the
results are bit-equal. Several movers at one position write c2 <- (push ?
c1's code : c2's), c1 <- (advance ? robot : c1's) and their cell <-
(advance ? free : robot) unconditionally: a mover's three cells are
distinct and no two movers share a world. A position holding one mover, as
every position of a single-world run does, is applied with Python ints
under the same rule and in the same order (push, vacate, occupy): at that
size the array calls cost far more than the work they do. A step in which
no robot moves applies its turns and skips the rest.

Operand layout. The operands of a step's arithmetic at the full batch size
are contiguous arrays of their full (G, M, .) or (K * N, .) shape, so numpy
runs one inner loop per operation instead of one per robot row: biases and
the prediction network's self weights are repeated per robot row once per
call, the six sensed cell codes of every robot are gathered from the grid
and compared into one bool buffer of both sensor banks that one copy turns
into the float buffer S, and c1/c2 come from one (2, L * L * 4) table. Only
the writes of the two banks and of X's columns stay strided. The
floating-point operations and their order are those of the reference, so
the layout changes speed only, never a bit of the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .networks import (
    ACTION_OUTPUTS,
    HIDDEN_UNITS,
    NET_INPUTS,
    Genome,
    Scenario,
    decode,
    scenario_prediction,
    sigmoid_inplace,
    stable_rows_matmul,
)
from .world import (
    SENSOR_COUNT,
    SENSOR_FRAME,
    HEADING_VECTORS,
    Heading,
    RobotPose,
    SimConfig,
    render_cells,
    sample_placement,
)

# Grid cell codes; block b is stored as _BLOCK + b.
_FREE, _ROBOT, _BLOCK = 0, 1, 2

# Action outputs this close to 0 take the sigmoid, all others their sign.
_DECISION_BAND = 1e-12

# Heading change keyed by a robot's (move, turn right) bool pair read as one
# uint16: -1 and +1 for the two turning pairs, 0 for a mover; 0x0102 entries
# cover the keys in either byte order.
_TURN_DELTA = np.zeros(0x0102, dtype=np.int64)
_TURN_DELTA[np.array([0, 0, 0, 1], dtype=bool).view(np.uint16)] = -1, 1

_TABLE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _tables(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-grid lookup tables indexed by cell * 4 + heading.

    sensed[i]: the six sensed flat cells in sensor index order. ahead[:, i]:
    the two flat cells straight ahead (c1, c2), which are sensor cells 0
    and 3, one row each so that a lookup yields contiguous c1 and c2.
    """
    cached = _TABLE_CACHE.get(L)
    if cached is not None:
        return cached
    cells = np.arange(L * L, dtype=np.int64)
    x, y = cells % L, cells // L
    sensed = np.empty((L * L * 4, 6), dtype=np.int64)
    for h in Heading:
        fx, fy = HEADING_VECTORS[h]
        lx, ly = HEADING_VECTORS[h.turned(-1)]
        for s_idx, (f, s) in enumerate(SENSOR_FRAME):
            sx = (x + f * fx + s * lx) % L
            sy = (y + f * fy + s * ly) % L
            sensed[cells * 4 + h, s_idx] = sy * L + sx
    ahead = np.ascontiguousarray(sensed[:, [0, 3]].T)
    _TABLE_CACHE[L] = (sensed, ahead)
    return sensed, ahead


@dataclass
class RunTrace:
    """Everything the post-evaluation metrics need from one recorded run."""

    side_length: int
    n_robots: int
    n_blocks: int
    comparisons: int
    error_sum: float
    tau: int
    start_blocks: frozenset[tuple[int, int]]
    end_blocks: frozenset[tuple[int, int]]
    robot_window: np.ndarray  # (tau + 1, N, 2) of (x, y), times T-tau .. T
    block_window: np.ndarray  # (tau + 1, B, 2), block identity preserved
    snapshots: list[tuple[int, str]]  # (t, rendered world)


class _Recorder:
    """Collects one world's windows and snapshots. The engine hands it
    (1, ...) arrays of a one-world batch."""

    def __init__(self, N: int, B: int, T: int, L: int, snapshot_every: int):
        self.L, self.B = L, B
        self.tau = (L * L) // 2
        if T < self.tau:
            raise ValueError(
                f"run of {T} steps is shorter than the metrics window "
                f"tau={self.tau}"
            )
        self.window_start = T - self.tau
        # The metrics window as stored per step: robot cells and the grid.
        self.robot_cells = np.empty((self.tau + 1, N), dtype=np.int64)
        self.grids = np.empty((self.tau + 1, L * L), dtype=_int_type(B + 2))
        self.snapshot_every = snapshot_every
        self.snapshots: list[tuple[int, str]] = []
        self.start_blocks: Optional[np.ndarray] = None  # (B,) flat cells

    def record(self, t: int, T: int, pos: np.ndarray, rh: np.ndarray,
               occ: np.ndarray) -> None:
        """Keep what a result reads of the state after t steps: robot cells
        and grid in the metrics window, start blocks, snapshots."""
        i = t - self.window_start
        if i >= 0:
            self.robot_cells[i] = pos[0]
            self.grids[i] = occ
        if t == 0:
            self.start_blocks = _block_cells(occ, 1, self.B)[0]
        if t % self.snapshot_every == 0 or t == T:
            L = self.L
            robots = [
                RobotPose(int(c % L), int(c // L), Heading(int(h)))
                for c, h in zip(pos[0], rh[0])
            ]
            blocks = [(int(c % L), int(c // L))
                      for c in _block_cells(occ, 1, self.B)[0]]
            self.snapshots.append((t, render_cells(L, robots, blocks)))


def _int_type(n: int):
    """The narrowest of int8, int16 and int64 that holds 0..n - 1."""
    return np.int8 if n < 2**7 else np.int16 if n < 2**15 else np.int64


def _block_cells(occ: np.ndarray, K: int, B: int) -> np.ndarray:
    """(K, B) flat block cells by id, read off the grid of K worlds."""
    L2 = occ.size // K
    cells = np.flatnonzero(occ >= _BLOCK)
    world = cells // L2
    bcell = np.empty(K * B, dtype=np.int64)
    bcell[world * B + occ[cells] - _BLOCK] = cells - world * L2
    return bcell.reshape(K, B)


def _verify_state(L, N, B, occ, pos, woff):
    """Invariant sweep used by fuzz tests (verify_every mode)."""
    K = pos.shape[0]
    grid = occ.reshape(K, L * L)
    assert np.all((grid == _ROBOT).sum(axis=1) == N), "robot count violated"
    assert np.all((pos >= 0) & (pos < L * L)), "robot cell out of range"
    assert np.all(occ[(woff[:, None] + pos).ravel()] == _ROBOT), \
        "robot cell not marked occupied"
    sorted_pos = np.sort(pos, axis=1)
    assert np.all(sorted_pos[:, 1:] != sorted_pos[:, :-1]), "robots overlap"
    blocks = grid >= _BLOCK
    assert np.all(blocks.sum(axis=1) == B), "block count violated"
    ids = np.sort(grid[blocks].reshape(K, B), axis=1)
    assert np.all(ids == np.arange(_BLOCK, _BLOCK + B)), \
        "block ids are not 0..B-1"


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.ascontiguousarray(np.stack(arrays))


def _rows(arrays: Sequence[np.ndarray], M: int) -> np.ndarray:
    """Per-genome vectors repeated for each of a genome's M robot rows: a
    contiguous (G, M, n) operand in place of a broadcast (G, 1, n) one."""
    return np.repeat(np.stack(arrays)[:, None, :], M, axis=1)


def _run_batch(
    genomes: Sequence[Genome],
    L: int,
    N: int,
    B: int,
    T: int,
    scenario: Scenario,
    seeds: np.ndarray,
    recorder: Optional[_Recorder] = None,
    verify_every: int = 0,
) -> tuple[np.ndarray, int]:
    """Simulate len(genomes) x worlds_per_genome worlds; return error sums.

    seeds has shape (G, W); world k = g * W + w runs genome g with seed
    seeds[g, w]. Returns (error_sums with shape (G, W), comparison count).
    """
    G = len(genomes)
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.shape[0] != G:
        raise ValueError("one seed row per genome required")
    W = seeds.shape[1]
    K = G * W
    M = W * N
    emergent = scenario is Scenario.EMERGENT

    decoded = [decode(g) for g in genomes]
    a_wh = _stack([d[0].w_hidden for d in decoded])  # (G, 13, 8)
    a_bh = _rows([d[0].b_hidden for d in decoded], M)  # (G, M, 8)
    a_wo = _stack([d[0].w_out for d in decoded])
    a_bo = _rows([d[0].b_out for d in decoded], M)
    if emergent:
        p_wh = _stack([d[1].w_hidden for d in decoded])
        p_bh = _rows([d[1].b_hidden for d in decoded], M)
        p_self = _rows([d[1].w_self for d in decoded], M)
        p_wo = _stack([d[1].w_out for d in decoded])
        p_bo = _rows([d[1].b_out for d in decoded], M)
        hidden = np.zeros((G, M, HIDDEN_UNITS), dtype=np.float64)
        pred_prev = np.zeros((G, M, SENSOR_COUNT), dtype=np.float64)
    else:
        fixed_bits = np.tile(scenario_prediction(scenario).astype(bool),
                             (K, N))  # (K, N * 12)

    L2 = L * L
    pos = np.empty((K, N), dtype=np.int64)  # robot flat cells
    rh = np.empty((K, N), dtype=np.int64)  # headings
    bcell = np.empty((K, B), dtype=np.int64)  # initial block flat cells by id
    perms = np.empty((K, T, N), dtype=_int_type(N))
    for k in range(K):
        rng = np.random.default_rng(int(seeds[k // W, k % W]))
        cells, headings = sample_placement(L, N, B, rng)
        pos[k] = cells[:N]
        bcell[k] = cells[N:]
        rh[k] = headings
        keys = rng.random((T, N))
        perms[k] = np.argsort(keys, axis=-1)

    # The one grid of all K worlds: _FREE, _ROBOT or _BLOCK + block id.
    occ = np.zeros(K * L2, dtype=_int_type(B + 2))
    woff = np.arange(K, dtype=np.int64) * L2
    rowoff = np.arange(K, dtype=np.int64) * N
    occ[(woff[:, None] + pos).ravel()] = _ROBOT
    occ[(woff[:, None] + bcell).ravel()] = np.tile(
        np.arange(_BLOCK, _BLOCK + B), K)
    # (k + 1) * K: the end of order position k in a position-major list
    position_ends = np.arange(K, K * N + 1, K)

    sensed_tbl, ahead_tbl = _tables(L)
    # World offsets of every sensed cell, and of every robot slot.
    sensed_woff = np.repeat(woff, N * 6).reshape(K * N, 6)
    slot_woff = np.repeat(woff, N)
    X = np.zeros((G, M, NET_INPUTS), dtype=np.float64)
    err = np.zeros(K, dtype=np.float64)
    pos_f = pos.reshape(-1)
    rh_f = rh.reshape(-1)
    # Python-int view for order positions that hold a single mover.
    occ_m = memoryview(occ)

    # Scratch buffers reused every step; all writes below keep the exact
    # operation order of the naive expressions, so results stay bit-equal
    # to the single-world reference.
    sense_idx = np.empty(K * N, dtype=np.int64)
    scell = np.empty((K * N, 6), dtype=np.int64)  # world flat sensed cells
    occv = np.empty((K * N, 6), dtype=occ.dtype)
    seen = np.empty((K * N, 2, 6), dtype=bool)  # robot bank, block bank
    S = np.empty((G, M, SENSOR_COUNT), dtype=np.float64)
    a_hid = np.empty((G, M, HIDDEN_UNITS), dtype=np.float64)
    a_out = np.empty((G, M, ACTION_OUTPUTS), dtype=np.float64)
    a_abs = np.empty((G, M, ACTION_OUTPUTS), dtype=np.float64)
    band = np.empty((G, M, ACTION_OUTPUTS), dtype=bool)
    decide = np.empty((G, M, ACTION_OUTPUTS), dtype=bool)  # move, turn right
    moving_f = decide[:, :, 0].reshape(-1)
    pair_keys = decide.view(np.uint16).reshape(-1)  # see _TURN_DELTA
    if emergent:
        diff = np.empty((G, M, SENSOR_COUNT), dtype=np.float64)
        p_hid = np.empty((G, M, HIDDEN_UNITS), dtype=np.float64)
    else:
        mismatch = np.empty((K, N * SENSOR_COUNT), dtype=bool)
    step_err = np.empty(K, dtype=np.float64)

    if recorder is not None:
        recorder.record(0, T, pos, rh, occ)

    for t in range(T):
        # Sense: cell codes of the six cells ahead, both entity banks, into
        # one bool buffer, then one copy each into S and X.
        np.multiply(pos_f, 4, out=sense_idx)
        sense_idx += rh_f
        sensed_tbl.take(sense_idx, axis=0, out=scell)
        scell += sensed_woff
        occ.take(scell, out=occv)
        np.equal(occv, _ROBOT, out=seen[:, 0])
        np.greater_equal(occv, _BLOCK, out=seen[:, 1])
        np.copyto(S, seen.reshape(G, M, SENSOR_COUNT))
        X[:, :, :SENSOR_COUNT] = S

        # Score the prediction pending from the previous step (emergent) or
        # the scenario's fixed vector (predefined; exact integer mismatches).
        if emergent:
            if t > 0:
                np.subtract(pred_prev, S, out=diff)
                np.abs(diff, out=diff)
                np.sum(diff.reshape(K, N * SENSOR_COUNT), axis=1, out=step_err)
                err += step_err
        else:
            # Binary targets against binary sensors: |p - s| is exactly the
            # mismatch count, so the error sum stays integer-exact.
            np.not_equal(seen.reshape(K, N * SENSOR_COUNT), fixed_bits,
                         out=mismatch)
            err += mismatch.sum(axis=1)

        # Action network (X holds sensors + previous action). Decisions are
        # sigmoid >= 0.5, taken by sign outside the band about 0.
        stable_rows_matmul(X, a_wh, out=a_hid)
        a_hid += a_bh
        np.tanh(a_hid, out=a_hid)
        stable_rows_matmul(a_hid, a_wo, out=a_out)
        a_out += a_bo
        np.greater_equal(a_out, 0.0, out=decide)
        np.abs(a_out, out=a_abs)
        np.less_equal(a_abs, _DECISION_BAND, out=band)
        if np.count_nonzero(band):
            decide[band] = sigmoid_inplace(a_out[band]) >= 0.5
        # The prediction network's action input, and A(t-1) for the next step.
        X[:, :, SENSOR_COUNT] = decide[:, :, 0]

        # Prediction network, fed the chosen action; the final step's
        # prediction would never meet a sensor reading, so skip it.
        if emergent and t + 1 < T:
            stable_rows_matmul(X, p_wh, out=p_hid)
            # same term order as the reference: (x @ w) + self * hidden + bias;
            # the old hidden state is read only here, so it holds the product
            hidden *= p_self
            p_hid += hidden
            p_hid += p_bh
            np.tanh(p_hid, out=p_hid)
            hidden, p_hid = p_hid, hidden
            stable_rows_matmul(hidden, p_wo, out=pred_prev)
            pred_prev += p_bo
            sigmoid_inplace(pred_prev)

        # Actuate (schedule in the module docstring): all turns at once, then
        # the movers position-major, one slice per order position; a mover's
        # pos_f entry is only read before the loop, so it is written after.
        rh_f += _TURN_DELTA.take(pair_keys)
        rh_f &= 3
        if np.count_nonzero(moving_f):
            # slot[k, w]: the robot at order position k in world w
            slot = perms[:, t, :].T + rowoff
            held = moving_f[slot].ravel().nonzero()[0]  # k * K + w, ascending
            mover = slot.take(held)
            ends = held.searchsorted(position_ends).tolist()
            # sense_idx still holds each mover's cell * 4 + heading
            c1, c2 = ahead_tbl.take(sense_idx[mover], axis=1)
            wbase = slot_woff[mover]
            wcell = wbase + pos_f[mover]
            wc1, wc2 = c1 + wbase, c2 + wbase
            advanced = np.empty(mover.size, dtype=bool)
            lo = 0
            for hi in ends:
                if hi == lo:
                    continue  # no mover at this order position
                if hi - lo == 1:  # one mover: the same rule on Python ints
                    a1 = wc1.item(lo)
                    o1 = occ_m[a1]
                    advance = o1 == _FREE
                    if o1 >= _BLOCK:
                        a2 = wc2.item(lo)
                        if occ_m[a2] == _FREE:
                            occ_m[a2] = o1
                            advance = True
                    if advance:
                        occ_m[wcell.item(lo)] = _FREE
                        occ_m[a1] = _ROBOT
                    advanced[lo] = advance
                    lo = hi
                    continue
                # Several movers, one per world, so no two write one cell;
                # each cell is rewritten whether or not it changes.
                s1, s2 = wc1[lo:hi], wc2[lo:hi]
                o1, o2 = occ[s1], occ[s2]
                push = (o1 >= _BLOCK) & (o2 == _FREE)
                advance = (o1 == _FREE) | push
                occ[s2] = np.where(push, o1, o2)
                occ[s1] = np.where(advance, _ROBOT, o1)
                occ[wcell[lo:hi]] = ~advance  # _ROBOT (1) or _FREE (0)
                advanced[lo:hi] = advance
                lo = hi
            pos_f[mover[advanced]] = c1[advanced]

        if recorder is not None:
            recorder.record(t + 1, T, pos, rh, occ)
        if verify_every and ((t + 1) % verify_every == 0 or t + 1 == T):
            _verify_state(L, N, B, occ, pos, woff)

    comparisons = T - 1 if emergent else T
    return err.reshape(G, W), comparisons


def simulate_batch(
    genomes: Sequence[Genome],
    sim: SimConfig,
    scenario: Scenario,
    seeds: np.ndarray,
    verify_every: int = 0,
) -> tuple[np.ndarray, int]:
    """Run seeds.shape[1] simulations per genome; return (error_sums, C).

    error_sums[g, w] is the total absolute prediction error of genome g's
    w-th world, to be turned into a fitness by ``metrics.score_run``.
    """
    return _run_batch(
        genomes, sim.side_length, sim.swarm_size, sim.block_count, sim.steps,
        scenario, np.asarray(seeds), verify_every=verify_every,
    )


def simulate_traced(
    genome: Genome,
    sim: SimConfig,
    scenario: Scenario,
    seed: int,
    snapshot_every: int,
) -> RunTrace:
    """Run one fully recorded simulation: the metrics window, plus a
    snapshot every ``snapshot_every`` steps and at the last step."""
    L, N, B, T = sim.side_length, sim.swarm_size, sim.block_count, sim.steps
    recorder = _Recorder(N, B, T, L, snapshot_every)
    err, comparisons = _run_batch(
        [genome], L, N, B, T, scenario,
        np.array([[seed]], dtype=np.uint64), recorder=recorder,
    )

    blocks = _block_cells(recorder.grids.reshape(-1), recorder.tau + 1, B)

    def xy(flat: np.ndarray) -> np.ndarray:
        return np.stack((flat % L, flat // L), axis=-1)

    def cells(flat: np.ndarray) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, xy(flat).tolist()))

    return RunTrace(
        side_length=L,
        n_robots=N,
        n_blocks=B,
        comparisons=comparisons,
        error_sum=float(err[0, 0]),
        tau=recorder.tau,
        start_blocks=cells(recorder.start_blocks),
        end_blocks=cells(blocks[-1]),
        robot_window=xy(recorder.robot_cells),
        block_window=xy(blocks),
        snapshots=recorder.snapshots,
    )
