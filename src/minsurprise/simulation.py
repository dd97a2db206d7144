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
result reads them: snapshots when taken (the one at t = 0 gives the start
blocks), the metrics window once after the run. ``simulate_traced`` keeps
all of these through its ``record``, an observer of the engine's one
``observe`` hook, which sees robot cells, headings and grid after setup, at
the end and after each step it asks for: it returns the next step whose
state it needs, or None for the next one. ``record`` asks for the next
snapshot or the window's first step, whichever comes first, then for every
step of the window; the tests' invariant sweep asks for every step.

Compiled step. The C kernel ``_step.c``, a CPython extension module built
and loaded by ``kernel.py``, takes the call's arrays once, bound in one
struct whose address each call passes. It does the integer work on the grid,
the fixed scenarios' scores (a popcount against the target code) and both
emergent networks' float work between their products, which share one
product and one output buffer; its ``actuate`` makes every scenario's
decisions. An emergent step is six calls. A fixed scenario runs all the
steps up to the next one observe asks for in one call, so an unobserved
batch is one call. numpy keeps the products (``stable_rows_matmul``), tanh
and exp, and the fixed scenarios' decision-table build. The kernel's float
arithmetic is IEEE + - * / and fabs only, in the reference's order, and one
exact comparison (see Emergent step), built with -ffp-contract=off, so its
bits are the same on every CPU.

Sensing. Every scenario senses the same way, into one code per robot.
Actuation sets the code to the robot's move << 12 (it starts at 0: no move
before the first step); sensing then ORs in bit s for a robot in sensed
cell s and bit 6 + s for a block. So the code holds the 12 sensor bits,
sensor i in bit i, and the previous move in bit 12: network input i is bit
i of the code. The emergent step's sensing call writes the 12 sensor
inputs as floats and, from step 1 on, scores the pending prediction
against them.

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
does no floating-point network work: the kernel runs the whole step. The
fixed vector is itself a sensor code, the target; a code's mismatch count
is popcount((code ^ target) & 0xFFF), which the kernel adds straight into
each world's float64 error sum, as the emergent step adds its terms. Every
partial sum is an integer of at most T * N * 12, far below 2^53, so the
sums are exact. ``actuate`` reads each robot's (move, turn right) from its
genome's table of 8192 entries (16 KB) at code | previous move << 12,
before it resets the code. The tables are built once per call by
``_decision_tables``, which runs each genome's action network as the
reference does (stable_rows_matmul, + b, tanh, stable_rows_matmul, + b,
sigmoid >= 0.5) on all of ``_INPUT_ROWS``. An entry is the decision the
network makes on that row alone if gemm computes each row of a product
independently of the other rows and of their count: the row invariance
that also makes a batched population bit-equal to single-genome calls and
to the reference's padded two-row products. That invariance belongs to the
BLAS kernel, not to gemm: OpenBLAS's Haswell, SkylakeX and Zen cores have
it; its Sandybridge, Nehalem and Prescott cores do not, and on them the
engine is not bit-equal to the reference.

Emergent step. Both networks run in one shape and share two buffers: the
product of the inputs with the hidden weights into ``product``, a kernel
pass for the hidden sum, tanh, the product with the output weights into
``out``, one kernel pass -(output + bias), exp. Per step: the sensing call
(sense, sensor inputs 0-11, score, whose terms overwrite the prediction in
``out``); the action network, whose input 12 is the previous move (0 at
t = 0), whose hidden pass is product + bias and whose outputs live in the
first G * M * 2 doubles of ``out`` until actuation, which decides off them
and sets input 12 to the chosen move; then, unless it is the last step, the
prediction network, which reads nothing else actuation writes, whose hidden
pass is (product + hidden * self weight) + bias and whose outputs fill all
of ``out``. Actuation's test e = exp(-output) <= 1 + 2^-52, which for every
double e is the reference's sigmoid(y) = 1 / (1 + e) >= 0.5 (the proof is
at ``actuate`` in _step.c), whatever exp's rounding. The prediction is held
as e = exp(-output) until the next step's score computes each term
|1 / (e + 1) - sensor bit|, the reference's sigmoid and error, and sums a
world's N * 12 terms in the order numpy's pairwise sum adds them. The
floating-point operations and their order are those of the reference, so
the layout changes speed only, never a bit of the results.
"""

from __future__ import annotations

import ctypes
import functools
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

# Every network input row, the decision tables' inputs: row r holds input i
# as bit i of r, so the row of a robot is its sensor code | previous move
# << 12. The bits are unpacked from each r's two little-endian bytes, so the
# build's temporaries are uint16 and uint8 and the import keeps little more
# than the table.
_INPUT_ROWS = np.unpackbits(
    np.arange(1 << NET_INPUTS, dtype="<u2").view(np.uint8).reshape(-1, 2),
    axis=1, count=NET_INPUTS, bitorder="little").astype(np.float64)


@functools.cache
def _tables(L: int) -> np.ndarray:
    """The six sensed flat cells of every cell * 4 + heading, in sensor
    index order; cells 0 and 3 are the two straight ahead (c1, c2). int32,
    as the kernel reads it."""
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
    return sensed


@dataclass
class RunTrace:
    """Everything the post-evaluation metrics need from one recorded run."""

    sim: SimConfig
    comparisons: int
    error_sum: float
    start_blocks: frozenset[tuple[int, int]]
    end_blocks: frozenset[tuple[int, int]]
    robot_window: np.ndarray  # (tau + 1, N, 2) of (x, y), times T-tau .. T
    block_window: np.ndarray  # (tau + 1, B, 2), block identity preserved
    snapshots: list[tuple[int, str]]  # (t, rendered world)


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


def _decision_tables(nets: Sequence[ActionNetwork]) -> np.ndarray:
    """(G, 8192, 2) bools: each action network's (move, turn right) on
    every row of _INPUT_ROWS, that is at every sensor code | previous move
    << 12, by the reference's test sigmoid(y) >= 0.5 for
    y = tanh(x @ w_hidden + b_hidden) @ w_out + b_out."""
    rows = len(_INPUT_ROWS)
    tables = np.empty((len(nets), rows, ACTION_OUTPUTS), dtype=bool)
    hid = np.empty((rows, HIDDEN_UNITS), dtype=np.float64)
    y = np.empty((rows, ACTION_OUTPUTS), dtype=np.float64)
    for net, table in zip(nets, tables):
        stable_rows_matmul(_INPUT_ROWS, net.w_hidden, out=hid)
        hid += net.b_hidden
        np.tanh(hid, out=hid)
        stable_rows_matmul(hid, net.w_out, out=y)
        y += net.b_out
        np.greater_equal(sigmoid_inplace(y), 0.5, out=table)
    return tables


def simulate_batch(
    genomes: Sequence[Genome],
    sim: SimConfig,
    scenario: Scenario,
    seeds: np.ndarray,
    observe: Optional[Callable[[int, np.ndarray, np.ndarray, np.ndarray],
                               Optional[int]]] = None,
) -> tuple[np.ndarray, int]:
    """Run seeds.shape[1] simulations per genome; return (error_sums, C).

    seeds has shape (G, W); world k = g * W + w runs genome g with seed
    seeds[g, w]. error_sums[g, w] is the total absolute prediction error of
    that world, to be turned into a fitness by ``metrics.score_run``, and C
    the comparison count.

    observe(t, pos, rh, occ), when given, sees the state after t steps, for
    t = 0 (the placement), then for each step it asks for, and t = T: (K, N)
    robot cells and headings and the one grid of all K worlds. It must not
    write to them. It returns the next step whose state it needs, which
    must lie after t (one past T counts as T), or None for t + 1.
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
    # first step).
    code = np.zeros(K * N, dtype=np.int64)
    decoded = [decode(g) for g in genomes]
    err = np.zeros(K, dtype=np.float64)  # each world's error sum
    target = 0
    if emergent:
        a_wh = np.stack([d[0].w_hidden for d in decoded])  # (G, 13, 8)
        a_bh = np.stack([d[0].b_hidden for d in decoded])  # (G, 8)
        a_wo = np.stack([d[0].w_out for d in decoded])
        a_bo = np.stack([d[0].b_out for d in decoded])  # (G, 2)
        p_wh = np.stack([d[1].w_hidden for d in decoded])
        p_bh = np.stack([d[1].b_hidden for d in decoded])  # (G, 8)
        p_self = np.stack([d[1].w_self for d in decoded])
        p_wo = np.stack([d[1].w_out for d in decoded])
        p_bo = np.stack([d[1].b_out for d in decoded])  # (G, 12)
        # network inputs; input 12, the previous move, is 0 at t = 0
        X = np.zeros((G, M, NET_INPUTS), dtype=np.float64)
        # both networks' inputs @ hidden weights and exp(-output); the action
        # outputs are out's first G * M * 2, contiguous as BLAS needs them
        product = np.empty((G, M, HIDDEN_UNITS), dtype=np.float64)
        out = np.empty((G, M, SENSOR_COUNT), dtype=np.float64)
        a_out = out.reshape(-1)[:G * M * ACTION_OUTPUTS].reshape(G, M, -1)
        hidden = np.zeros((G, M, HIDDEN_UNITS), dtype=np.float64)
        arrays = dict(inputs=X, out=out, product=product, hidden=hidden,
                      hidden_bias=p_bh, self_weight=p_self, out_bias=p_bo,
                      a_hidden_bias=a_bh, a_out_bias=a_bo)
    else:
        # The fixed prediction as a sensor code, and each genome's decisions
        # at g << 13 | previous move << 12 | code.
        target = sum(1 << i for i, p in
                     enumerate(scenario_prediction(scenario)) if p)
        arrays = dict(decisions=_decision_tables([d[0] for d in decoded]))

    # The kernel's view of this call, its array addresses bound once; the
    # struct lives in this frame for the whole call, its address with it.
    arrays.update(occ=occ, pos=pos, rh=rh, code=code, sensed=_tables(L),
                  perms=perms, score=err)
    lib = kernel.load()
    batch = kernel.Batch(
        worlds=K, robots=N, cells=L2, genome_robots=M, steps=T,
        perm_size=perms.itemsize, target=target,
        **{name: a.ctypes.data for name, a in arrays.items()})
    address = ctypes.addressof(batch)

    def ask(t: int) -> int:
        """Show observe the state after t steps; the next step it needs."""
        wanted = observe(t, pos, rh, occ)
        wanted = t + 1 if wanted is None else min(wanted, T)
        if wanted <= t < T:
            raise ValueError(f"observe after step {t} asked for step {wanted}")
        return wanted

    # Steps run up to stop, the next state observe sees, in one kernel call
    # for a fixed prediction and one step at a time for the emergent one.
    t, stop = 0, T if observe is None else ask(0)
    while t < T:
        if not emergent:
            # Sense, score each code against the target, actuate.
            lib.fixed_steps(address, t, stop)
            t = stop
        else:
            # Sense, write the sensor inputs, score the pending prediction.
            lib.emergent_sense(address, t)
            # Action network, up to exp(-output), in product and a_out.
            stable_rows_matmul(X, a_wh, out=product)
            lib.action_hidden(address)
            np.tanh(product, out=product)
            stable_rows_matmul(product, a_wo, out=a_out)
            lib.action_output(address)
            np.exp(a_out, out=a_out)
            # Decide off exp(-output) and actuate (schedule in the module
            # docstring), which also sets input 12 to the chosen move.
            lib.actuate(address, t)
            # Prediction network, fed the chosen move; the final step's
            # prediction would never meet a sensor reading, so skip it.
            if t + 1 < T:
                stable_rows_matmul(X, p_wh, out=product)
                lib.prediction_hidden(address)
                np.tanh(hidden, out=hidden)
                stable_rows_matmul(hidden, p_wo, out=out)
                lib.prediction_output(address)
                np.exp(out, out=out)
            t += 1
        if t == stop and observe is not None:
            stop = ask(t)

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
    tau = metrics_window(L)
    if T < tau:
        raise ValueError(
            f"run of {T} steps is shorter than the metrics window tau={tau}")
    # The metrics window as stored per step: robot cells and the grid.
    robot_cells = np.empty((tau + 1, N), dtype=np.int64)
    grids = np.empty((tau + 1, L * L), dtype=np.int32)
    snapshots: list[tuple[int, str]] = []
    start_blocks = None  # (B,) flat cells, read for the snapshot at t = 0

    def record(t: int, pos: np.ndarray, rh: np.ndarray,
               occ: np.ndarray) -> Optional[int]:
        """Keep what a result reads of the state after t steps of the
        one-world batch: robot cells and grid in the metrics window, and
        snapshots. Ask for the next snapshot or the window's first step,
        whichever comes first, then for every step of the window."""
        nonlocal start_blocks
        i = t - (T - tau)
        if i >= 0:
            robot_cells[i] = pos[0]
            grids[i] = occ
        if t % snapshot_every == 0 or t == T:
            blocks = _block_cells(occ, 1, B)[0]
            if t == 0:
                start_blocks = blocks
            robots = [RobotPose(int(c % L), int(c // L), Heading(int(h)))
                      for c, h in zip(pos[0], rh[0])]
            snapshots.append((t, render_cells(
                L, robots, [(int(c % L), int(c // L)) for c in blocks])))
        if i >= 0:
            return None
        return min((t // snapshot_every + 1) * snapshot_every, T - tau)

    err, comparisons = simulate_batch(
        [genome], sim, scenario, np.array([[seed]], dtype=np.uint64),
        observe=record,
    )
    blocks = _block_cells(grids.reshape(-1), tau + 1, B)

    def xy(flat: np.ndarray) -> np.ndarray:
        return np.stack((flat % L, flat // L), axis=-1)

    def cells(flat: np.ndarray) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, xy(flat).tolist()))

    return RunTrace(
        sim=sim,
        comparisons=comparisons,
        error_sum=float(err[0, 0]),
        start_blocks=cells(start_blocks),
        end_blocks=cells(blocks[-1]),
        robot_window=xy(robot_cells),
        block_window=xy(blocks),
        snapshots=snapshots,
    )
