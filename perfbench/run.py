"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The program is imported from ``src/`` of the
same checkout and every output is checked against ``.acceptance_cache/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the metric names and units come from ``BENCHMARK.json``. The last
line of standard output is the result object; an environment record is
printed on the line before it. The exit status is 0 only when every
operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".acceptance_cache"
# Each set-up probe is a fresh interpreter: import, config parse, reference
# and genome load, warm-up. The median of these is setup_s.
SETUP_PROBES = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def parse_args(bench: dict, argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def load_program(root: Path) -> None:
    """Make ``src/`` of this checkout importable; refuse to run without it."""
    missing = [p for p in ("src/minsurprise", "configs", ".acceptance_cache")
               if not (root / p).exists()]
    if missing:
        raise SystemExit(f"perfbench: not a minsurprise checkout, missing: "
                         f"{', '.join(missing)}")
    sys.path.insert(0, str(root / "src"))


def git_commit(root: Path) -> str | None:
    """HEAD commit read from ``.git`` of the checkout, if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args: argparse.Namespace) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    return {
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": threads,
        "blas_threads_within_nproc": all(
            v is None or not v.isdigit() or int(v) <= nproc
            for v in threads.values()),
        "git_commit": git_commit(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_setup(args: argparse.Namespace) -> None:
    """Child side of a set-up probe: set up, then report the ready time."""
    import workloads

    with workloads.scratch_dir(ROOT) as tmp:
        workloads.setup_workload(ROOT, CACHE, args.workload, args.seed,
                                 Path(tmp))
        print(json.dumps({"ready": time.monotonic()}))


class SetupProbes:
    """Set-up probes spread evenly over the timed window, one at a time
    between operations, so that their median does not rest on a single
    moment of a machine whose speed drifts."""

    def __init__(self, args: argparse.Namespace):
        self.cmd = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", "0", "--probe-setup"]
        self.interval = args.seconds / SETUP_PROBES
        self.times: list[float] = []

    def probe(self) -> None:
        """Wall time from process launch to ready, once."""
        launched = time.monotonic()
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        ready = json.loads(done.stdout.strip().splitlines()[-1])["ready"]
        self.times.append(ready - launched)

    def due(self, elapsed: float) -> None:
        """Run the probes whose time in the window has come."""
        while (len(self.times) < SETUP_PROBES
               and elapsed >= len(self.times) * self.interval):
            self.probe()

    def finish(self) -> list[float]:
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


def end_to_end(args: argparse.Namespace, job) -> tuple[dict, object, dict]:
    import workloads

    probes = SetupProbes(args)
    outcome, wall_s = workloads.measure(job, args.seconds, probes.due)
    extra = {"ops": len(outcome.op_s), "warm_up_ops": outcome.warmed_up,
             "op_s": outcome.op_s, "wall_s": wall_s}
    if not outcome.op_s:
        return {}, outcome, extra
    values = workloads.summarise(outcome)
    values["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    extra["setup_probes_s"] = probes.finish()
    values["setup_s"] = statistics.median(extra["setup_probes_s"])
    return values, outcome, extra


def per_layer(args: argparse.Namespace, job) -> tuple[dict, object, dict]:
    import workloads

    outcome, tracer, plain_s, traced_s, unit_counts = workloads.measure_traced(
        job, args.seconds)
    units = len(unit_counts)
    if any(c != unit_counts[0] for c in unit_counts):
        outcome.fail(f"counts differ between traced units: {unit_counts}")
    values = {k: v / units for k, v in tracer.layer_metrics().items()}
    self_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
    if abs(self_sum - values["trace.wall_s"]) > 1e-6 * values["trace.wall_s"]:
        outcome.fail(f"self times sum to {self_sum}, traced wall is "
                     f"{values['trace.wall_s']}")
    values.update(unit_counts[0])
    values["trace.units"] = units
    values["trace.overhead_ratio"] = traced_s / plain_s
    spans = ROOT / "perfbench" / "out" / (
        f"spans-{args.workload}-{args.seed}.json")
    tracer.dump(spans)
    extra = {"units": units, "untraced_s": plain_s, "traced_s": traced_s,
             "spans_file": str(spans.relative_to(ROOT))}
    return values, outcome, extra


def select_metrics(spec: list[dict], values: dict, trace: int) -> dict:
    """The metrics BENCHMARK.json names, with units. A per-layer metric
    whose layer the workload never calls reads 0."""
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing and not trace:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(bench, argv)
    load_program(ROOT)
    if args.probe_setup:
        probe_setup(args)
        return 0
    import workloads

    with workloads.scratch_dir(ROOT) as tmp:
        job = workloads.setup_workload(ROOT, CACHE, args.workload,
                                       args.seed, Path(tmp))
        measure = per_layer if args.trace else end_to_end
        values, outcome, extra = measure(args, job)
    spec = bench["per_layer" if args.trace else "end_to_end"]
    for err in outcome.errors:
        print(f"perfbench: FAILED {err}", file=sys.stderr)
    record = environment(args)
    record.update(extra, attempted=outcome.attempted, failed=outcome.failed,
                  failed_ratio=outcome.failed / outcome.attempted)
    print(json.dumps({"env": record}))
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": select_metrics(spec, values, args.trace) if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
