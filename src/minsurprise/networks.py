"""Genome encoding and the paired per-robot networks.

Each robot runs two small networks decoded from one flat genome: a
feedforward action network (12 sensors + previous action -> move/turn +
turn direction) and a recurrent prediction network (12 sensors + chosen
action -> 12 predicted next-step sensor values), with per-unit
self-recurrent hidden connections only.

Weight layout: ``_LAYOUT`` gives each network's field shapes in decode
order: input-to-hidden (row-major by input), hidden biases, hidden
self-loop weights (prediction net only), hidden-to-output (row-major by
hidden unit), output biases. A genome vector holds its network's fields
flat, one after the other; ``decode`` and ``Genome``'s checks read it.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .world import SENSOR_COUNT

HIDDEN_UNITS = 8
NET_INPUTS = SENSOR_COUNT + 1  # sensors plus one action input
ACTION_OUTPUTS = 2
PREDICTION_OUTPUTS = SENSOR_COUNT

WEIGHT_LIMIT = 5.0

GENOME_HEADER = "minsurprise-genome v1"


class MalformedGenomeError(ValueError):
    pass


@dataclass(frozen=True)
class ActionNetwork:
    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray


@dataclass(frozen=True)
class PredictionNetwork:
    w_hidden: np.ndarray
    b_hidden: np.ndarray
    w_self: np.ndarray  # per-unit recurrent weights
    w_out: np.ndarray
    b_out: np.ndarray


# The genome layout: each Genome field, the network it decodes to and the
# shapes of that network's fields, in their order.
_LAYOUT = {
    "action_weights": (ActionNetwork, (
        (NET_INPUTS, HIDDEN_UNITS), (HIDDEN_UNITS,),
        (HIDDEN_UNITS, ACTION_OUTPUTS), (ACTION_OUTPUTS,))),
    "prediction_weights": (PredictionNetwork, (
        (NET_INPUTS, HIDDEN_UNITS), (HIDDEN_UNITS,), (HIDDEN_UNITS,),
        (HIDDEN_UNITS, PREDICTION_OUTPUTS), (PREDICTION_OUTPUTS,))),
}
ACTION_LENGTH, PREDICTION_LENGTH = (  # 130, 228
    sum(map(math.prod, shapes)) for _, shapes in _LAYOUT.values())


@dataclass(frozen=True)
class Genome:
    """Flat weight vectors for the action and prediction networks."""

    action_weights: np.ndarray
    prediction_weights: np.ndarray

    def __post_init__(self) -> None:
        for name, length in zip(_LAYOUT, (ACTION_LENGTH, PREDICTION_LENGTH)):
            w = np.asarray(getattr(self, name), dtype=np.float64)
            if w.shape != (length,):
                raise MalformedGenomeError(
                    f"{name} must have {length} weights, got shape {w.shape}"
                )
            if not np.all(np.isfinite(w)):
                raise MalformedGenomeError(f"{name} contains non-finite weights")
            if np.any(np.abs(w) > WEIGHT_LIMIT):
                raise MalformedGenomeError(
                    f"{name} exceeds weight limit {WEIGHT_LIMIT}")
            object.__setattr__(self, name, w)


def decode(genome: Genome) -> tuple[ActionNetwork, PredictionNetwork]:
    """Split the flat weight vectors into network matrices, by _LAYOUT."""
    nets = []
    for name, (network, shapes) in _LAYOUT.items():
        weights, i, fields = getattr(genome, name), 0, []
        for shape in shapes:
            n = math.prod(shape)
            fields.append(weights[i:i + n].reshape(shape))
            i += n
        nets.append(network(*fields))
    return tuple(nets)


def random_genome(rng: np.random.Generator) -> Genome:
    """Fresh genome with every weight uniform in [-1, 1]."""
    return Genome(
        rng.uniform(-1.0, 1.0, ACTION_LENGTH),
        rng.uniform(-1.0, 1.0, PREDICTION_LENGTH),
    )


def stable_rows_matmul(x: np.ndarray, w: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """x @ w with a guaranteed row count of at least 2.

    BLAS routes single-row products through a different kernel (gemv) whose
    rounding can differ from gemm in the last ulp; padding keeps every
    forward pass bit-identical no matter how calls are batched.
    """
    if x.shape[-2] >= 2:
        return np.matmul(x, w, out=out)
    pad = [(0, 0)] * x.ndim
    pad[-2] = (0, 2 - x.shape[-2])
    padded = np.pad(x, pad)
    result = (padded @ w)[..., : x.shape[-2], :]
    if out is None:
        return result
    out[...] = result
    return out


def sigmoid_inplace(x: np.ndarray) -> np.ndarray:
    """In-place 1 / (1 + exp(-x)), one elementwise operation at a time in
    that order, so results are bit-identical to the naive expression the
    reference in ``tests/oracle.py`` evaluates.

    The engine's inputs cannot overflow ``exp``: an output of either
    network, action or prediction, is at most HIDDEN_UNITS * WEIGHT_LIMIT +
    WEIGHT_LIMIT = 45 in absolute value (tanh outputs lie in [-1, 1], every
    weight within WEIGHT_LIMIT). Only the fixed scenarios' decision-table
    build runs this function. The emergent step holds both networks'
    outputs as exp(-output), at most e^45, which is finite: it decides on
    the action outputs in the kernel's actuation and completes the
    prediction's sigmoid in the next step's score."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.add(x, 1.0, out=x)
    np.reciprocal(x, out=x)
    return x


class Scenario(enum.Enum):
    """Prediction regime: evolved predictions, or a fixed target vector."""

    EMERGENT = "emergent"
    PAIRS = "pairs"
    CLUSTERS = "clusters"
    EMPTY = "empty"


def scenario_prediction(scenario: Scenario) -> np.ndarray:
    """Fixed prediction vector of a predefined scenario.

    Robot-sensor components are 0 in every predefined scenario; the block
    bank is 1 on the two straight-ahead cells for PAIRS, all ones for
    CLUSTERS, and all zeros for EMPTY.
    """
    if scenario is Scenario.EMERGENT:
        raise ValueError("emergent scenario has no fixed prediction vector")
    p = np.zeros(SENSOR_COUNT, dtype=np.float64)
    if scenario is Scenario.PAIRS:
        p[6] = 1.0
        p[9] = 1.0
    elif scenario is Scenario.CLUSTERS:
        p[6:] = 1.0
    return p


def save_genome(path, genome: Genome) -> None:
    """Write the genome file: header line, then weights at 17 significant
    digits, action weights first, eight per line."""
    weights = np.concatenate([genome.action_weights, genome.prediction_weights])
    lines = [f"{GENOME_HEADER} {ACTION_LENGTH} {PREDICTION_LENGTH}"]
    for i in range(0, len(weights), 8):
        lines.append(" ".join(format(w, ".17g") for w in weights[i:i + 8]))
    write_text_atomic(path, "\n".join(lines) + "\n")


def write_text_atomic(path, text: str) -> None:
    """Write UTF-8 text to a sibling temp file, then rename it onto path, so
    that a crash never leaves a partly written file under the final name.
    The temp file is removed if the write fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_genome(path) -> Genome:
    """Parse a genome file written by save_genome."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        parts = header.split()
        if parts[:2] != GENOME_HEADER.split() or len(parts) != 4:
            raise MalformedGenomeError(f"bad genome header: {header!r}")
        try:
            a_len, p_len = int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise MalformedGenomeError(f"bad genome header: {header!r}") from exc
        if (a_len, p_len) != (ACTION_LENGTH, PREDICTION_LENGTH):
            raise MalformedGenomeError(
                f"genome topology mismatch: file has {a_len}+{p_len} weights, "
                f"expected {ACTION_LENGTH}+{PREDICTION_LENGTH}"
            )
        try:
            weights = np.array(fh.read().split(), dtype=np.float64)
        except ValueError as exc:
            raise MalformedGenomeError("unparsable weight value") from exc
    if len(weights) != a_len + p_len:
        raise MalformedGenomeError(
            f"expected {a_len + p_len} weights, found {len(weights)}"
        )
    return Genome(weights[:a_len], weights[a_len:])
