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
network (fixed vectors: look up its table); in emergent mode run the
prediction network; actuate robots sequentially in the step's shuffled
order. Emergent mode therefore yields T - 1 comparisons (a prediction meets
the *next* step's sensors), fixed vectors yield T.

Grid. All K worlds share one flat grid, L * L cells each: 0 free, 1 robot,
2 + b block b (int8 while B + 2 < 2**7). A push copies the block's code, so
block identity needs no other state. Block cells by id are read off the grid
only where a result reads them: start blocks and snapshots when taken, the
metrics window once after the run. All of these are kept by the recorder
through the engine's one ``observe`` hook, which sees robot cells, headings
and grid after setup and after every step; the tests' invariant sweep is
another such observer.

Sensing. Every scenario senses the same way: the six sensed cells' grid
codes map to 1 (robot), 64 (block) or 0, and an integer dot with 2**s over
the cells s packs each robot's 12 sensor bits into one code, sensor i in bit
i. With the robot's previous move in bit 12 the code picks its network input
row: ``_INPUT_ROWS`` holds all 8192 of them as floats, input i of row r
being bit i of r.

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
pass, so its c1 and c2 are its sensed cells 0 and 3 at the start of the
step. A single world, as in ``posteval`` and ``replay``, is then actuated
as the reference does it: one Python pass over the step's order on Python
ints, skipping the robots that do not move and applying each mover's rule
(push, vacate, occupy) to the grid; at that size array calls cost far more
than the work they do. Several worlds list their movers by order position,
then by world, and actuate one order position at a time. The movers at one
position lie in distinct worlds, and each sees every cell that movers at
earlier positions freed, took or pushed a block into: the same state the
sequential reference shows it, so the results are bit-equal. They write c2
<- (push ? c1's code : c2's), c1 <- (advance ? robot : c1's) and their
cell <- (advance ? free : robot) unconditionally: a mover's three cells are
distinct and no two movers share a world. In a batch of several worlds, a
step in which no robot moves applies its turns and skips the rest.

Fixed scenarios. With a fixed prediction vector (pairs, clusters, empty)
every network input is a bit and every error term an integer, so the step
does no floating-point network work. A 4096-entry table gives the code's
mismatches against the fixed vector as exact integers in float64; they are
summed per robot, then per world after the run, exact in any order. Each
genome's (move, turn right) pair comes from its table of 8192 entries
(16 KB) at code | previous move << 12. The tables are built once per call by
``_act``, the emergent step's action network (stable_rows_matmul, + b, tanh,
stable_rows_matmul, + b, sign and band sigmoid), run once per genome on all
of ``_INPUT_ROWS``. An entry is the decision the network makes on that row
alone because gemm computes each row of a product independently of the
other rows and of their count: the row invariance that already makes a
batched population bit-equal to single-genome calls and to the reference's
padded two-row products.

Operand layout (emergent step). The operands of the emergent step's float
arithmetic at the full batch size are contiguous arrays of their full
(G, M, .) or (K * N, .) shape, so numpy runs one inner loop per operation
instead of one per robot row: biases and the prediction network's self
weights are repeated per robot row once per call, and the network inputs X
are one gather of every robot's row of ``_INPUT_ROWS``. Only the score's
read of X's sensor columns and the write of its action column stay strided.
The floating-point operations and their order are those of the reference,
so the layout changes speed only, never a bit of the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .networks import (
    ACTION_OUTPUTS,
    HIDDEN_UNITS,
    NET_INPUTS,
    ActionNetwork,
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
    metrics_window,
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

# Weight of sensed cell s in the sensor code: 2**s times the cell's bit for
# cell 0 (1 robot, 64 block), so a robot sets bit s and a block bit 6 + s.
_SENSOR_BITS = np.int64(1) << np.arange(6, dtype=np.int64)

# Every network input row: row r holds input i as bit i of r, so the row of a
# robot is its sensor code | previous move << 12. The bits are unpacked from
# each r's two little-endian bytes, so the build's temporaries are uint16 and
# uint8 and the import keeps little more than the table.
_INPUT_ROWS = np.unpackbits(
    np.arange(1 << NET_INPUTS, dtype="<u2").view(np.uint8).reshape(-1, 2),
    axis=1, count=NET_INPUTS, bitorder="little").astype(np.float64)

_TABLE_CACHE: dict[int, np.ndarray] = {}


def _tables(L: int) -> np.ndarray:
    """The six sensed flat cells of every cell * 4 + heading, in sensor
    index order; cells 0 and 3 are the two straight ahead (c1, c2)."""
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
    _TABLE_CACHE[L] = sensed
    return sensed


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
        self.L, self.B, self.T = L, B, T
        self.tau = metrics_window(L)
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

    def record(self, t: int, pos: np.ndarray, rh: np.ndarray,
               occ: np.ndarray) -> None:
        """Keep what a result reads of the state after t steps: robot cells
        and grid in the metrics window, start blocks, snapshots."""
        i = t - self.window_start
        if i >= 0:
            self.robot_cells[i] = pos[0]
            self.grids[i] = occ
        if t == 0:
            self.start_blocks = _block_cells(occ, 1, self.B)[0]
        if t % self.snapshot_every == 0 or t == self.T:
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


def _stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return np.ascontiguousarray(np.stack(arrays))


def _act(x: np.ndarray, w_hidden: np.ndarray, b_hidden: np.ndarray,
         w_out: np.ndarray, b_out: np.ndarray, hid: np.ndarray, y: np.ndarray,
         decide: np.ndarray, y_abs: np.ndarray, band: np.ndarray) -> None:
    """The action network on input rows x: decide = sigmoid(y) >= 0.5 for
    y = tanh(x @ w_hidden + b_hidden) @ w_out + b_out, taken by the sign of
    y outside the band about 0. hid, y, y_abs and band are scratch buffers,
    hid of the hidden layer's shape, the others of decide's; y_abs may be a
    view of hid, which is spent before y_abs is written."""
    stable_rows_matmul(x, w_hidden, out=hid)
    hid += b_hidden
    np.tanh(hid, out=hid)
    stable_rows_matmul(hid, w_out, out=y)
    y += b_out
    np.greater_equal(y, 0.0, out=decide)
    np.abs(y, out=y_abs)
    np.less_equal(y_abs, _DECISION_BAND, out=band)
    if band.any():
        decide[band] = sigmoid_inplace(y[band]) >= 0.5


def _decision_tables(nets: Sequence[ActionNetwork]) -> np.ndarray:
    """(G, 8192, 2) bools: each action network's (move, turn right) on
    every row of _INPUT_ROWS, that is at every sensor code | previous move
    << 12. The rows go through the step's own ``_act``, once per genome."""
    rows = len(_INPUT_ROWS)
    tables = np.empty((len(nets), rows, ACTION_OUTPUTS), dtype=bool)
    hid = np.empty((rows, HIDDEN_UNITS), dtype=np.float64)
    y = np.empty((rows, ACTION_OUTPUTS), dtype=np.float64)
    y_abs = hid[:, :ACTION_OUTPUTS]  # saves a table-sized buffer
    band = np.empty(y.shape, dtype=bool)
    for net, table in zip(nets, tables):
        _act(_INPUT_ROWS, net.w_hidden, net.b_hidden, net.w_out, net.b_out,
             hid, y, table, y_abs, band)
    return tables


def _mismatch_table(scenario: Scenario) -> np.ndarray:
    """(4096,) float64: the mismatches of every sensor code against the
    scenario's fixed prediction vector, exact integers."""
    codes = np.arange(1 << SENSOR_COUNT)
    mismatches = np.zeros(1 << SENSOR_COUNT, dtype=np.float64)
    for i, p in enumerate(scenario_prediction(scenario)):
        mismatches += (codes >> i & 1) != p
    return mismatches


def _rows(arrays: Sequence[np.ndarray], M: int) -> np.ndarray:
    """Per-genome vectors repeated for each of a genome's M robot rows: a
    contiguous (G, M, n) operand in place of a broadcast (G, 1, n) one."""
    return np.repeat(np.stack(arrays)[:, None, :], M, axis=1)


def simulate_batch(
    genomes: Sequence[Genome],
    sim: SimConfig,
    scenario: Scenario,
    seeds: np.ndarray,
    observe: Optional[Callable[[int, np.ndarray, np.ndarray, np.ndarray],
                               None]] = None,
) -> tuple[np.ndarray, int]:
    """Run seeds.shape[1] simulations per genome; return (error_sums, C).

    seeds has shape (G, W); world k = g * W + w runs genome g with seed
    seeds[g, w]. error_sums[g, w] is the total absolute prediction error of
    that world, to be turned into a fitness by ``metrics.score_run``, and C
    the comparison count.

    observe(t, pos, rh, occ), when given, sees the state after t steps, for
    t = 0 (the placement) to T in order: (K, N) robot cells and headings
    and the one grid of all K worlds. It must not write to them.
    """
    L, N, B, T = sim.side_length, sim.swarm_size, sim.block_count, sim.steps
    G = len(genomes)
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.shape[0] != G:
        raise ValueError("one seed row per genome required")
    W = seeds.shape[1]
    K = G * W
    M = W * N
    emergent = scenario is Scenario.EMERGENT

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

    sensed_tbl = _tables(L)
    # World offsets of every sensed cell, and of every robot slot.
    sensed_woff = np.repeat(woff, N * 6).reshape(K * N, 6)
    slot_woff = np.repeat(woff, N)
    pos_f = pos.reshape(-1)
    rh_f = rh.reshape(-1)
    # Python-int views for the single-world actuation pass.
    occ_m = memoryview(occ)
    sensed_of = sensed_tbl.tolist() if K == 1 else []

    # Scratch buffers reused every step; all writes below keep the exact
    # operation order of the naive expressions, so results stay bit-equal
    # to the single-world reference.
    sense_idx = np.empty(K * N, dtype=np.int64)
    scell = np.empty((K * N, 6), dtype=np.int64)  # world flat sensed cells
    occv = np.empty((K * N, 6), dtype=occ.dtype)
    # code bit of sensor cell 0 by grid code, one entry per code so that
    # every grid integer type indexes it
    cell_bits = np.zeros(_BLOCK + B, dtype=np.int64)
    cell_bits[_ROBOT], cell_bits[_BLOCK:] = 1, 1 << 6
    bits = np.empty((K * N, 6), dtype=np.int64)  # sensed cells' code bits
    code = np.empty(K * N, dtype=np.int64)
    # Each robot's previous move << 12, to add to its sensor code (no move
    # before the first step).
    move_row = np.zeros(K * N, dtype=np.int64)
    decide = np.empty((G, M, ACTION_OUTPUTS), dtype=bool)  # move, turn right
    moving_f = decide[:, :, 0].reshape(-1)
    pair_keys = decide.view(np.uint16).reshape(-1)  # see _TURN_DELTA
    decoded = [decode(g) for g in genomes]
    if emergent:
        a_wh = _stack([d[0].w_hidden for d in decoded])  # (G, 13, 8)
        a_bh = _rows([d[0].b_hidden for d in decoded], M)  # (G, M, 8)
        a_wo = _stack([d[0].w_out for d in decoded])
        a_bo = _rows([d[0].b_out for d in decoded], M)
        p_wh = _stack([d[1].w_hidden for d in decoded])
        p_bh = _rows([d[1].b_hidden for d in decoded], M)
        p_self = _rows([d[1].w_self for d in decoded], M)
        p_wo = _stack([d[1].w_out for d in decoded])
        p_bo = _rows([d[1].b_out for d in decoded], M)
        hidden = np.zeros((G, M, HIDDEN_UNITS), dtype=np.float64)
        pred_prev = np.zeros((G, M, SENSOR_COUNT), dtype=np.float64)
        X = np.empty((G, M, NET_INPUTS), dtype=np.float64)  # network inputs
        a_hid = np.empty((G, M, HIDDEN_UNITS), dtype=np.float64)
        a_out = np.empty((G, M, ACTION_OUTPUTS), dtype=np.float64)
        a_abs = np.empty((G, M, ACTION_OUTPUTS), dtype=np.float64)
        band = np.empty((G, M, ACTION_OUTPUTS), dtype=bool)
        diff = np.empty((G, M, SENSOR_COUNT), dtype=np.float64)
        p_hid = np.empty((G, M, HIDDEN_UNITS), dtype=np.float64)
        step_err = np.empty(K, dtype=np.float64)
        err = np.zeros(K, dtype=np.float64)
    else:
        # Lookups by sensor code: its mismatches, and each genome's
        # decisions at g << 13 | previous move << 12 | code.
        mismatches = _mismatch_table(scenario)
        decisions = _decision_tables([d[0] for d in decoded]).view(
            np.uint16).reshape(-1)
        robot_mis = np.empty(K * N, dtype=np.float64)
        robot_err = np.zeros(K * N, dtype=np.float64)
        table_base = np.repeat(np.arange(G, dtype=np.int64) << NET_INPUTS, M)

    if observe is not None:
        observe(0, pos, rh, occ)

    for t in range(T):
        # Sense: the grid codes of the six cells ahead of every robot, then
        # its 12 sensor bits as one code, sensor i in bit i.
        np.multiply(pos_f, 4, out=sense_idx)
        sense_idx += rh_f
        # Every index of the step's takes is in range by construction
        # (pos < L * L, rh < 4, plus the world offset; codes and table rows
        # within their tables); mode="clip" spares take the copy of `out`
        # that "raise" makes.
        sensed_tbl.take(sense_idx, axis=0, out=scell, mode="clip")
        scell += sensed_woff
        occ.take(scell, out=occv, mode="clip")
        cell_bits.take(occv, out=bits, mode="clip")
        np.dot(_SENSOR_BITS, bits.T, out=code)

        if emergent:
            # The network inputs: the code's bits and the previous move.
            code += move_row
            _INPUT_ROWS.take(code, axis=0, out=X.reshape(K * N, NET_INPUTS),
                             mode="clip")

            # Score the prediction pending from the previous step.
            if t > 0:
                np.subtract(pred_prev, X[:, :, :SENSOR_COUNT], out=diff)
                np.abs(diff, out=diff)
                np.add.reduce(diff.reshape(K, N * SENSOR_COUNT), axis=1,
                              out=step_err)
                err += step_err

            _act(X, a_wh, a_bh, a_wo, a_bo, a_hid, a_out, decide, a_abs, band)
            # The prediction network's action input.
            X[:, :, SENSOR_COUNT] = decide[:, :, 0]

            # Prediction network, fed the chosen action; the final step's
            # prediction would never meet a sensor reading, so skip it.
            if t + 1 < T:
                stable_rows_matmul(X, p_wh, out=p_hid)
                # same term order as the reference: (x @ w) + self * hidden
                # + bias; the old hidden state is read only here, so it
                # holds the product
                hidden *= p_self
                p_hid += hidden
                p_hid += p_bh
                np.tanh(p_hid, out=p_hid)
                hidden, p_hid = p_hid, hidden
                stable_rows_matmul(hidden, p_wo, out=pred_prev)
                pred_prev += p_bo
                sigmoid_inplace(pred_prev)
        else:
            # Fixed prediction: the code's mismatch count, and the genome's
            # decision on the code and the previous move, both by lookup.
            mismatches.take(code, out=robot_mis, mode="clip")
            robot_err += robot_mis
            code += move_row
            code += table_base
            decisions.take(code, out=pair_keys, mode="clip")
        np.multiply(moving_f, 1 << SENSOR_COUNT, out=move_row)

        # Actuate (schedule in the module docstring): all turns at once, then
        # the movers in the step's order.
        rh_f += _TURN_DELTA.take(pair_keys)
        rh_f &= 3
        if K == 1:
            # One world: the reference's pass on Python ints. sense_idx
            # still holds each mover's cell * 4 + heading.
            moving = moving_f.tolist()
            sense_at = sense_idx.tolist()
            cells = pos_f.tolist()
            for r in perms[0, t].tolist():
                if not moving[r]:
                    continue
                sensed = sensed_of[sense_at[r]]
                a1, a2 = sensed[0], sensed[3]
                o1 = occ_m[a1]
                if o1 >= _BLOCK and occ_m[a2] == _FREE:
                    occ_m[a2] = o1  # push the block ahead on
                elif o1 != _FREE:
                    continue  # blocked: the robot stays
                occ_m[cells[r]] = _FREE
                occ_m[a1] = _ROBOT
                cells[r] = a1
            pos_f[:] = cells
        elif moving_f.any():
            # The movers position-major, one slice per order position; a
            # mover's pos_f entry is only read before the loop, so it is
            # written after. slot[k, w]: the robot at order position k in
            # world w.
            slot = perms[:, t, :].T + rowoff
            held = moving_f[slot].ravel().nonzero()[0]  # k * K + w, ascending
            mover = slot.take(held)
            ends = held.searchsorted(position_ends).tolist()
            # c1 and c2 in the one grid: sensed cells 0 and 3
            wc1, wc2 = scell[mover, 0], scell[mover, 3]
            wbase = slot_woff[mover]
            wcell = wbase + pos_f[mover]
            advanced = np.empty(mover.size, dtype=bool)
            lo = 0
            for hi in ends:
                if hi == lo:
                    continue  # no mover at this order position
                # Movers in distinct worlds, so no two write one cell; each
                # cell is rewritten whether or not it changes.
                s1, s2 = wc1[lo:hi], wc2[lo:hi]
                o1, o2 = occ[s1], occ[s2]
                push = (o1 >= _BLOCK) & (o2 == _FREE)
                advance = (o1 == _FREE) | push
                occ[s2] = np.where(push, o1, o2)
                occ[s1] = np.where(advance, _ROBOT, o1)
                occ[wcell[lo:hi]] = ~advance  # _ROBOT (1) or _FREE (0)
                advanced[lo:hi] = advance
                lo = hi
            pos_f[mover] = np.where(advanced, wc1, wcell) - wbase

        if observe is not None:
            observe(t + 1, pos, rh, occ)

    if not emergent:
        # integer-valued sums, so exact in any order
        err = np.add.reduce(robot_err.reshape(K, N), axis=1)
    comparisons = T - 1 if emergent else T
    return err.reshape(G, W), comparisons


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
    err, comparisons = simulate_batch(
        [genome], sim, scenario, np.array([[seed]], dtype=np.uint64),
        observe=recorder.record,
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
