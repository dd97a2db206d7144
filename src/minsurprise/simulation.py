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

Grid. All K worlds share one flat int32 grid, L * L cells each: 0 free,
1 robot, 2 + b block b. A push copies the block's code, so block identity
needs no other state. Block cells by id are read off the grid only where a
result reads them: start blocks and snapshots when taken, the metrics
window once after the run. All of these are kept by the recorder through
the engine's one ``observe`` hook, which sees robot cells, headings and grid
after setup and after every step; the tests' invariant sweep is another
such observer.

Integer step. Everything between the network calls is integer work on the
grid, done by the C kernel ``_step.c`` (built and loaded by ``kernel.py``),
which takes the call's arrays once, bound in one struct, and is called once
or twice per step. It does no floating point.

Sensing. Every scenario senses the same way, into one code per robot.
Actuation sets the code to the robot's move << 12 (it starts at 0: no move
before the first step); sensing then ORs in bit s for a robot in sensed
cell s and bit 6 + s for a block. So the code holds the 12 sensor bits,
sensor i in bit i, and the previous move in bit 12. It picks the robot's
network input row: ``_INPUT_ROWS`` holds all 8192 of them as floats, input
i of row r being bit i of r.

Actuation schedule. The reference actuates one robot at a time in the
step's shuffled order. A robot reads and writes only its own cell and the
two ahead of it (c1, c2); a turner touches none of them, so all turns are
applied first. A mover's heading is fixed and its cell changes only in its
own turn, so its c1 and c2 are its sensed cells 0 and 3 at the start of the
step. The kernel then runs the reference's loop, world by world over the
step's order: it skips the robots that do not move, and a mover pushes a
block at c1 into c2 if c2 is free, then advances into c1 unless c1 still
holds a robot or a block. Worlds share no cell, so their order does not
matter.

Fixed scenarios. With a fixed prediction vector (pairs, clusters, empty)
every network input is a bit and every error term an integer, so the step
does no floating-point network work: the kernel runs the whole step. A
4096-entry table gives the code's mismatches against the fixed vector; they
are summed per world in int64 and become float64 once, after the run. Each
genome's (move, turn right) pair comes from its table of 8192 entries
(16 KB) at code | previous move << 12. The tables are built once per call by
``_act``, the emergent step's action network (stable_rows_matmul, + b, tanh,
stable_rows_matmul, + b, sigmoid >= 0.5), run once per genome on all of
``_INPUT_ROWS``. An entry is the decision the network makes on that row
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

import ctypes
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import kernel
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

# Grid cell codes, as in _step.c; block b is stored as _BLOCK + b.
_FREE, _ROBOT, _BLOCK = 0, 1, 2

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
    index order; cells 0 and 3 are the two straight ahead (c1, c2). int32,
    as the kernel reads it."""
    cached = _TABLE_CACHE.get(L)
    if cached is not None:
        return cached
    cells = np.arange(L * L, dtype=np.int64)
    x, y = cells % L, cells // L
    sensed = np.empty((L * L * 4, 6), dtype=np.int32)
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
        self.grids = np.empty((self.tau + 1, L * L), dtype=np.int32)
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
    """The narrowest of int8, int16 and int64 that holds 0..n - 1: the type
    of the step orders, which the kernel reads at its item size."""
    return np.int8 if n < 2**7 else np.int16 if n < 2**15 else np.int64


def _block_cells(occ: np.ndarray, K: int, B: int) -> np.ndarray:
    """(K, B) flat block cells by id, read off the grid of K worlds."""
    L2 = occ.size // K
    cells = np.flatnonzero(occ >= _BLOCK)
    world = cells // L2
    bcell = np.empty(K * B, dtype=np.int64)
    bcell[world * B + occ[cells] - _BLOCK] = cells - world * L2
    return bcell.reshape(K, B)


def _act(x: np.ndarray, w_hidden: np.ndarray, b_hidden: np.ndarray,
         w_out: np.ndarray, b_out: np.ndarray, hid: np.ndarray, y: np.ndarray,
         decide: np.ndarray) -> None:
    """The action network on input rows x: decide = sigmoid(y) >= 0.5 for
    y = tanh(x @ w_hidden + b_hidden) @ w_out + b_out, as the reference
    decides. hid and y are scratch buffers of the hidden layer's and
    decide's shapes."""
    stable_rows_matmul(x, w_hidden, out=hid)
    hid += b_hidden
    np.tanh(hid, out=hid)
    stable_rows_matmul(hid, w_out, out=y)
    y += b_out
    np.greater_equal(sigmoid_inplace(y), 0.5, out=decide)


def _decision_tables(nets: Sequence[ActionNetwork]) -> np.ndarray:
    """(G, 8192, 2) bools: each action network's (move, turn right) on
    every row of _INPUT_ROWS, that is at every sensor code | previous move
    << 12. The rows go through the step's own ``_act``, once per genome."""
    rows = len(_INPUT_ROWS)
    tables = np.empty((len(nets), rows, ACTION_OUTPUTS), dtype=bool)
    hid = np.empty((rows, HIDDEN_UNITS), dtype=np.float64)
    y = np.empty((rows, ACTION_OUTPUTS), dtype=np.float64)
    for net, table in zip(nets, tables):
        _act(_INPUT_ROWS, net.w_hidden, net.b_hidden, net.w_out, net.b_out,
             hid, y, table)
    return tables


def _mismatch_table(scenario: Scenario) -> np.ndarray:
    """(4096,) uint8: the mismatches of every sensor code against the
    scenario's fixed prediction vector."""
    codes = np.arange(1 << SENSOR_COUNT)
    mismatches = np.zeros(1 << SENSOR_COUNT, dtype=np.uint8)
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
    perms = np.empty((K, T, N), dtype=_int_type(N))
    # The one grid of all K worlds: _FREE, _ROBOT or _BLOCK + block id.
    occ = np.zeros((K, L2), dtype=np.int32)
    block_codes = np.arange(_BLOCK, _BLOCK + B)
    for k in range(K):
        rng = np.random.default_rng(int(seeds[k // W, k % W]))
        cells, headings = sample_placement(L, N, B, rng)
        pos[k] = cells[:N]
        rh[k] = headings
        occ[k, cells[:N]] = _ROBOT
        occ[k, cells[N:]] = block_codes
        keys = rng.random((T, N))
        perms[k] = np.argsort(keys, axis=-1)
    occ = occ.reshape(-1)

    # Each robot's sensor code | previous move << 12 (no move before the
    # first step) and its (move, turn right).
    code = np.zeros(K * N, dtype=np.int64)
    decide = np.empty((G, M, ACTION_OUTPUTS), dtype=bool)
    decoded = [decode(g) for g in genomes]
    mismatches = decisions = world_err = None
    if emergent:
        a_wh = np.stack([d[0].w_hidden for d in decoded])  # (G, 13, 8)
        a_bh = _rows([d[0].b_hidden for d in decoded], M)  # (G, M, 8)
        a_wo = np.stack([d[0].w_out for d in decoded])
        a_bo = _rows([d[0].b_out for d in decoded], M)
        p_wh = np.stack([d[1].w_hidden for d in decoded])
        p_bh = _rows([d[1].b_hidden for d in decoded], M)
        p_self = _rows([d[1].w_self for d in decoded], M)
        p_wo = np.stack([d[1].w_out for d in decoded])
        p_bo = _rows([d[1].b_out for d in decoded], M)
        hidden = np.zeros((G, M, HIDDEN_UNITS), dtype=np.float64)
        pred_prev = np.zeros((G, M, SENSOR_COUNT), dtype=np.float64)
        X = np.empty((G, M, NET_INPUTS), dtype=np.float64)  # network inputs
        a_hid = np.empty((G, M, HIDDEN_UNITS), dtype=np.float64)
        a_out = np.empty((G, M, ACTION_OUTPUTS), dtype=np.float64)
        diff = np.empty((G, M, SENSOR_COUNT), dtype=np.float64)
        p_hid = np.empty((G, M, HIDDEN_UNITS), dtype=np.float64)
        step_err = np.empty(K, dtype=np.float64)
        err = np.zeros(K, dtype=np.float64)
    else:
        # Lookups by sensor code: its mismatches, and each genome's
        # decisions at g << 13 | previous move << 12 | code; the worlds'
        # mismatch sums are integers.
        mismatches = _mismatch_table(scenario)
        decisions = _decision_tables([d[0] for d in decoded])
        world_err = np.zeros(K, dtype=np.int64)

    # The kernel's view of this call, its array addresses bound once.
    sensed = _tables(L)
    lib = kernel.load()
    batch = ctypes.byref(kernel.Batch(K, N, L2, M, T, perms.itemsize, *(
        None if a is None else a.ctypes.data
        for a in (occ, pos, rh, code, decide, sensed, perms, mismatches,
                  decisions, world_err))))
    sense, actuate, fixed_step = lib.sense, lib.actuate, lib.fixed_step

    if observe is not None:
        observe(0, pos, rh, occ)

    for t in range(T):
        if not emergent:
            # Sense, add the mismatches, look up the decisions, actuate.
            fixed_step(batch, t)
        else:
            sense(batch)
            # The network inputs: the code's bits and the previous move.
            _INPUT_ROWS.take(code, axis=0, out=X.reshape(K * N, NET_INPUTS),
                             mode="clip")

            # Score the prediction pending from the previous step.
            if t > 0:
                np.subtract(pred_prev, X[:, :, :SENSOR_COUNT], out=diff)
                np.abs(diff, out=diff)
                np.add.reduce(diff.reshape(K, N * SENSOR_COUNT), axis=1,
                              out=step_err)
                err += step_err

            _act(X, a_wh, a_bh, a_wo, a_bo, a_hid, a_out, decide)
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
            # Actuate (schedule in the module docstring).
            actuate(batch, t)

        if observe is not None:
            observe(t + 1, pos, rh, occ)

    if not emergent:
        err = world_err.astype(np.float64)
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
