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
the scenario's target code) against the fresh sensors; run the action
network (target codes: look up its table); in emergent mode run the
prediction network; actuate robots sequentially in the step's shuffled
order. Emergent mode therefore yields T - 1 comparisons (a prediction meets
the *next* step's sensors), target codes yield T.

Grid. All K worlds share one flat int32 grid, L * L cells each: 0 free,
1 robot, 2 + b block b. A push copies the block's code, so block identity
needs no other state. Block cells by id are read off the grid only where a
result reads them. ``simulate_batch``'s ``keep`` names the states a caller
reads, by step count; the call returns a row of robot cells, headings and
grid for each, 4L^2 + 16N bytes per world, filled with the placement at
setup and by the kernel's ``steps`` after each other kept step.
``simulate_traced`` keeps the snapshots' states and the metrics window,
the tests' invariant sweep every state, the GA none.

Compiled step. The C kernel ``_step.c``, a CPython extension module built
and loaded by ``kernel.py``, takes the call's arrays once, bound in one
struct whose address each call passes. It does the integer work on the grid,
the fixed scenarios' scores (a popcount against the target code) and both
emergent networks' float work between their products, which share one
product and one output buffer; its ``steps(batch, t0, t1)`` makes every
scenario's decisions and actuates. An emergent step is six calls, one of
them ``steps`` for that step. A fixed scenario's run is one ``steps``
call. numpy keeps the products (``stable_rows_matmul``), tanh and exp, and
the fixed scenarios' decision-table build. The kernel's float arithmetic is
IEEE + - * / and fabs only, in the reference's order, and one exact
comparison (see Emergent step), built with -ffp-contract=off, so its bits
are the same on every CPU.

Sensing. Every scenario senses the same way, into one code per robot.
Actuation sets the code to the robot's move << 12 (it starts at 0: no move
before the first step); sensing then ORs in bit s for a robot in sensed
cell s and bit 6 + s for a block. So the code holds the 12 sensor bits,
sensor i in bit i, and the previous move in bit 12: a robot's network
inputs are row code of ``_INPUT_ROWS``, input i being bit i, in every
scenario. The fixed scenarios' decision tables are indexed by that row;
the emergent step's sensing call copies it into the robot's inputs and,
from step 1 on, scores the pending prediction against it.

Actuation schedule. The reference actuates one robot at a time in the
step's shuffled order. A robot reads and writes only its own cell and the
two ahead of it (c1, c2); a turner touches none of them, so all turns are
applied first. A mover's heading is fixed and its cell changes only in its
own turn, so its c1 and c2 are its sensed cells 0 and 3 at the start of the
step. The kernel then runs the reference's loop over the step's order: it
skips the robots that do not move, and a mover pushes a block at c1 into c2
if c2 is free, then advances into c1 unless c1 still holds a robot or a
block. Worlds share no cell, so their order does not matter: ``steps`` runs
each world through the whole stretch before the next.

Fixed scenarios. A fixed scenario (pairs, clusters, empty) predicts one
sensor code, its target code in ``FIXED_TARGETS``, so every network input is
a bit and every error term an integer: the step does no floating-point
network work, the kernel runs the whole step. A code's mismatch count is
popcount((code ^ target) & 0xFFF), which the kernel adds straight into
each world's float64 error sum, as the emergent step adds its terms. Every
partial sum is an integer of at most T * N * 12, far below 2^53, so the
sums are exact. ``actuate`` reads each robot's (move, turn right) from its
genome's table of 8192 entries (16 KB) at code | previous move << 12,
before it resets the code. The tables are built once per call by
``_decision_tables``, which runs each genome's action network as the
reference does (stable_rows_matmul, + b, tanh, stable_rows_matmul, + b,
sigmoid >= 0.5) on the 1458 rows of ``_INPUT_ROWS`` that sensing can
produce: a sensed cell holds a robot or a block, never both, so bits s and
6 + s of a code are never both set. Every other entry is False and never
read. An entry is the decision the network makes on that row alone if
gemm computes each row of a product independently of the other rows and
of their count: the row invariance
that also makes a batched population bit-equal to single-genome calls and
to the reference's padded two-row products. That invariance belongs to the
BLAS kernel, not to gemm: OpenBLAS's Haswell, SkylakeX and Zen cores have
it; its Sandybridge, Nehalem and Prescott cores do not, and on them the
engine is not bit-equal to the reference.

Emergent step. Both networks run in one shape and share two buffers: the
product of the inputs with the hidden weights into ``product``, a kernel
pass for the hidden sum, tanh, the product with the output weights into
``out``, one kernel pass -(output + bias), exp. Per step: the sensing call
(sense, each robot's input row, score, whose terms overwrite the prediction
in ``out``); the action network, whose input 12 is the previous move (0 at
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
from typing import Optional, Sequence

import numpy as np

from . import kernel
from .networks import (
    ACTION_OUTPUTS,
    FIXED_TARGETS,
    HIDDEN_UNITS,
    NET_INPUTS,
    ActionNetwork,
    Genome,
    Scenario,
    decode,
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

# Every network input row, the one definition of a network input: row r
# holds input i as bit i of r, so the row of a robot is its sensor code |
# previous move << 12. The decision tables run the rows sensing can
# produce; the emergent sensing call copies each robot's row. The bits are
# unpacked from each r's two little-endian bytes, so the build's
# temporaries are uint16 and uint8 and the import keeps little more than
# the table.
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


@functools.cache
def _reachable_rows() -> tuple[np.ndarray, np.ndarray]:
    """The 1458 input rows sensing can produce, and their _INPUT_ROWS: a
    sensed cell holds a robot or a block, never both, so no row sets both
    bit s and bit 6 + s (3^6 sensor codes, 2 previous moves). Built on first
    use, so a process that never builds a decision table never holds it."""
    r = np.arange(1 << NET_INPUTS, dtype=np.uint16)
    rows = np.flatnonzero((r & r >> 6 & 0o77) == 0)  # robot bits & block bits
    return rows, _INPUT_ROWS[rows]


def _decision_tables(nets: Sequence[ActionNetwork]) -> np.ndarray:
    """(G, 8192, 2) bools: each action network's (move, turn right) at every
    sensor code | previous move << 12 that sensing can produce, by the
    reference's test sigmoid(y) >= 0.5 for
    y = tanh(x @ w_hidden + b_hidden) @ w_out + b_out; False at every other
    row, which the kernel never reads."""
    rows, inputs = _reachable_rows()
    tables = np.zeros((len(nets), len(_INPUT_ROWS), ACTION_OUTPUTS),
                      dtype=bool)
    hid = np.empty((len(rows), HIDDEN_UNITS), dtype=np.float64)
    y = np.empty((len(rows), ACTION_OUTPUTS), dtype=np.float64)
    for net, table in zip(nets, tables):
        stable_rows_matmul(inputs, net.w_hidden, out=hid)
        hid += net.b_hidden
        np.tanh(hid, out=hid)
        stable_rows_matmul(hid, net.w_out, out=y)
        y += net.b_out
        table[rows] = sigmoid_inplace(y) >= 0.5
    return tables


def simulate_batch(
    genomes: Sequence[Genome],
    sim: SimConfig,
    scenario: Scenario,
    seeds: np.ndarray,
    keep: Optional[Sequence[int]] = None,
) -> tuple:
    """Run seeds.shape[1] simulations per genome; return (error_sums, C).

    seeds has shape (G, W); world k = g * W + w runs genome g with seed
    seeds[g, w]. error_sums[g, w] is the total absolute prediction error of
    that world, to be turned into a fitness by ``metrics.score_run``, and C
    the comparison count.

    keep, when given, is R increasing step counts in 0 .. T, and the call
    returns (error_sums, C, (pos, rh, occ)): fresh (R, K, N) int64 robot
    cells and headings and (R, K, L * L) int32 grids, whose row r holds
    every world's state after keep[r] steps (0: the placement).
    """
    L, N, B, T = sim.side_length, sim.swarm_size, sim.block_count, sim.steps
    G = len(genomes)
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.ndim != 2 or 0 in seeds.shape:
        raise ValueError(f"seeds must be a (G, W) array with G, W >= 1, "
                         f"got shape {seeds.shape}")
    if seeds.shape[0] != G:
        raise ValueError("one seed row per genome required")
    W = seeds.shape[1]
    K = G * W
    M = W * N
    emergent = scenario is Scenario.EMERGENT
    L2 = L * L
    kept = {}
    if keep is not None:
        steps = np.asarray(keep) if len(keep) else np.arange(0)
        R = len(steps) if steps.ndim == 1 else -1
        if (R < 0 or steps.dtype.kind not in "iu"
                or np.any(steps[1:] <= steps[:-1])
                or R and not 0 <= steps[0] <= steps[-1] <= T):
            raise ValueError("keep must be R increasing steps in 0 .. T")
        # kept_row[t]: the row of the state after t steps, or -1
        kept = dict(kept_row=np.full(T + 1, -1, dtype=np.int64),
                    kept_pos=np.empty((R, K, N), dtype=np.int64),
                    kept_rh=np.empty((R, K, N), dtype=np.int64),
                    kept_occ=np.empty((R, K, L2), dtype=np.int32))
        kept["kept_row"][steps] = np.arange(R)

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
    if kept and kept["kept_row"][0] == 0:  # the placement, no step's state
        for name, a in (("kept_pos", pos), ("kept_rh", rh), ("kept_occ", occ)):
            kept[name][0] = a
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
        # network inputs: each robot's _INPUT_ROWS row, copied by the
        # sensing call before a product reads it (then input 12 by actuate)
        X = np.empty((G, M, NET_INPUTS), dtype=np.float64)
        # both networks' inputs @ hidden weights and exp(-output); the action
        # outputs are out's first G * M * 2, contiguous as BLAS needs them
        product = np.empty((G, M, HIDDEN_UNITS), dtype=np.float64)
        out = np.empty((G, M, SENSOR_COUNT), dtype=np.float64)
        a_out = out.reshape(-1)[:G * M * ACTION_OUTPUTS].reshape(G, M, -1)
        hidden = np.zeros((G, M, HIDDEN_UNITS), dtype=np.float64)
        arrays = dict(input_rows=_INPUT_ROWS, inputs=X, out=out,
                      product=product, hidden=hidden, hidden_bias=p_bh,
                      self_weight=p_self, out_bias=p_bo, a_hidden_bias=a_bh,
                      a_out_bias=a_bo)
    else:
        # The fixed prediction's sensor code, and each genome's decisions at
        # g << 13 | previous move << 12 | code.
        target = FIXED_TARGETS[scenario]
        arrays = dict(decisions=_decision_tables([d[0] for d in decoded]))

    # The kernel's view of this call, its array addresses bound once; the
    # struct lives in this frame for the whole call, its address with it.
    arrays.update(occ=occ, pos=pos, rh=rh, code=code, sensed=_tables(L),
                  perms=perms, score=err, **kept)
    lib = kernel.load()
    batch = kernel.Batch(
        worlds=K, robots=N, cells=L2, genome_robots=M, steps=T,
        perm_size=perms.itemsize, target=target,
        **{name: a.ctypes.data for name, a in arrays.items()})
    address = ctypes.addressof(batch)

    if not emergent:
        # Every step in one call: sense, score each code against the
        # target, actuate.
        lib.steps(address, 0, T)
    else:
        for t in range(T):
            # Sense, copy each robot's input row, score the prediction.
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
            lib.steps(address, t, t + 1)
            # Prediction network, fed the chosen move; the final step's
            # prediction would never meet a sensor reading, so skip it.
            if t + 1 < T:
                stable_rows_matmul(X, p_wh, out=product)
                lib.prediction_hidden(address)
                np.tanh(hidden, out=hidden)
                stable_rows_matmul(hidden, p_wo, out=out)
                lib.prediction_output(address)
                np.exp(out, out=out)

    result = err.reshape(G, W), T - 1 if emergent else T
    if keep is None:
        return result
    return *result, (kept["kept_pos"], kept["kept_rh"], kept["kept_occ"])


def simulate_traced(
    genome: Genome,
    sim: SimConfig,
    scenario: Scenario,
    seed: int,
    snapshot_every: int,
) -> RunTrace:
    """Run one fully recorded simulation: the metrics window, plus a
    snapshot every ``snapshot_every`` steps and at the last step. It keeps
    the window's tau + 1 = L^2 / 2 + 1 states and the snapshots' before it,
    4L^2 + 16N bytes each: about 2 L^4 bytes of grids (3.2 GB at L = 200),
    and ``_block_cells``' temporaries over them."""
    L, N, B, T = sim.side_length, sim.swarm_size, sim.block_count, sim.steps
    tau = metrics_window(L)
    if T < tau:
        raise ValueError(
            f"run of {T} steps is shorter than the metrics window tau={tau}")
    # The states a result reads: the snapshots' before the metrics window,
    # then the window's, the last tau + 1. (np.union1d would import numpy.ma,
    # 1.7 MiB.)
    steps = np.concatenate((np.arange(0, T - tau, snapshot_every),
                            np.arange(T - tau, T + 1)))
    err, comparisons, (pos, rh, occ) = simulate_batch(
        [genome], sim, scenario, np.array([[seed]], dtype=np.uint64),
        keep=steps)
    blocks = _block_cells(occ.reshape(-1), len(steps), B)
    snapshots = []
    for r, t in enumerate(steps.tolist()):
        if t % snapshot_every == 0 or t == T:
            robots = [RobotPose(int(c % L), int(c // L), Heading(int(h)))
                      for c, h in zip(pos[r, 0], rh[r, 0])]
            snapshots.append((t, render_cells(
                L, robots, [(int(c % L), int(c // L)) for c in blocks[r]])))

    def xy(flat: np.ndarray) -> np.ndarray:
        return np.stack((flat % L, flat // L), axis=-1)

    def cells(flat: np.ndarray) -> frozenset[tuple[int, int]]:
        return frozenset(map(tuple, xy(flat).tolist()))

    return RunTrace(
        sim=sim,
        comparisons=comparisons,
        error_sum=float(err[0, 0]),
        start_blocks=cells(blocks[0]),
        end_blocks=cells(blocks[-1]),
        robot_window=xy(pos[-tau - 1:, 0]),
        block_window=xy(blocks[-tau - 1:]),
        snapshots=snapshots,
    )
