"""Boundary tracing for the benchmark: spans and exact counts per layer.

Spans are recorded from this directory only, by replacing each traced name
in the module namespace where the caller looks it up (``from .x import y``
binds ``y`` into the caller's module, so ``simulation.decode`` is patched,
not ``networks.decode``). Nothing under ``src/`` changes.

Every span carries its name, start, end and parent. A span's self time is
its duration minus the durations of its direct children; summed over all
spans, self times add up to the root span's duration, which is the traced
wall time. A span's layer is the part of its name before the first dot.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from minsurprise import evolution, experiment, metrics, networks, simulation

LAYERS = ("world", "networks", "simulation", "evolution", "metrics",
          "experiment", "harness")
ROOT_SPAN = "harness.run"


class Tracer:
    """In-memory span stack plus counters computed from call arguments."""

    def __init__(self) -> None:
        # (name, start, end, parent index); a parent precedes its children.
        # Tuples of plain values are not tracked by the garbage collector,
        # so a long trace does not slow collections in the traced program.
        self.spans: list[tuple | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def _open(self) -> float:
        self._stack.append(len(self.spans))
        self.spans.append(None)
        return perf_counter()

    def _close(self, name: str, start: float) -> None:
        end = perf_counter()
        index = self._stack.pop()
        self.spans[index] = (name, start, end,
                             self._stack[-1] if self._stack else -1)

    @contextmanager
    def span(self, name: str):
        start = self._open()
        try:
            yield
        finally:
            self._close(name, start)

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, start)
            if count is not None:
                count(self.counts, *args, **kwargs)
            return result
        return traced

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Inclusive time per span name, self time per layer, traced wall."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for s, own in zip(self.spans, self.self_times()):
            key = f"{s[0]}_s"
            out[key] = out.get(key, 0.0) + (s[2] - s[1])
            out[f"{s[0].split('.', 1)[0]}.self_s"] += own
        out["trace.wall_s"] = sum(s[2] - s[1] for s in self.spans
                                  if s[3] < 0)
        return out

    def dump(self, path: Path) -> None:
        """Write all spans once, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


# --- counts computed from array shapes at the traced boundary -------------


def _count_matmul(c, x, w, out=None):
    rows = x.size // x.shape[-1]
    k, n = w.shape[-2], w.shape[-1]
    c["networks.matmul_calls"] += 1
    c["networks.matmul_rows"] += rows
    c["networks.matmul_flops"] += 2 * rows * k * n
    c["networks.matmul_bytes"] += x.itemsize * (x.size + w.size + rows * n)


def _count_sigmoid(c, x):
    c["networks.sigmoid_elems"] += x.size


def _count_placement(c, *args):
    c["world.sample_placement_calls"] += 1


def _count_batch(c, genomes, sim, scenario, seeds, *args, **kwargs):
    worlds = len(genomes) * seeds.shape[1]
    c["simulation.world_steps"] += worlds * sim.steps
    c["simulation.robot_steps"] += worlds * sim.steps * sim.swarm_size


def _count_traced(c, genome, sim, *args, **kwargs):
    c["simulation.world_steps"] += sim.steps
    c["simulation.robot_steps"] += sim.steps * sim.swarm_size


def _count_generation(c, *args):
    c["evolution.generations"] += 1


def _count_replay(c, *args, **kwargs):
    c["experiment.replays"] += 1


def _count_artifact(c, path, text):
    c["experiment.artifact_bytes"] += len(text.encode("utf-8"))


# (module, attribute looked up by the caller, span name, counter)
BOUNDARIES = (
    (simulation, "stable_rows_matmul", "networks.matmul", _count_matmul),
    (simulation, "sigmoid_inplace", "networks.sigmoid", _count_sigmoid),
    (simulation, "decode", "networks.decode", None),
    (simulation, "sample_placement", "world.sample_placement",
     _count_placement),
    (simulation, "render_cells", "world.render_cells", None),
    (evolution, "evolve", "evolution.evolve", None),
    (evolution, "evaluate_population", "evolution.evaluate_population",
     _count_generation),
    (evolution, "simulate_batch", "simulation.simulate_batch", _count_batch),
    (evolution, "mutate", "evolution.mutate", None),
    (experiment, "replay", "experiment.replay", _count_replay),
    (experiment, "simulate_traced", "simulation.simulate_traced",
     _count_traced),
    (experiment, "metrics_from_trace", "metrics.metrics_from_trace", None),
    (experiment, "posteval_csv_row", "experiment.posteval_csv_row", None),
    (experiment, "save_genome", "networks.genome_io", None),
    (experiment, "_write_text", "experiment.artifact_io", _count_artifact),
    (networks, "load_genome", "networks.genome_io", None),
    (metrics, "structure_report", "metrics.structure_report", None),
    (metrics, "movement", "metrics.movement", None),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Patch every boundary for the duration of the block, then restore."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in BOUNDARIES]
    try:
        for mod, attr, name, count in BOUNDARIES:
            setattr(mod, attr, tracer.wrap(getattr(mod, attr), name, count))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
