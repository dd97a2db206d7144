"""Run the benchmark of a revision and of the working tree in pairs.

    python tools/bench_pair.py --against <rev> --pairs P --seconds S \\
        [--workload W] --out BENCH_<label>.json

Extracts both sides the same way, with ``git archive``: the parent side
from <rev>, the change side from the working tree's tracked files (a
``git stash create`` commit, or HEAD when no tracked file differs), each
into its own temp dir. Before the first run each tree compiles its
bytecode and its kernel, into one kernel cache dir that both share. Then,
for every workload of ``BENCHMARK.json`` (or only W) and every seed
1 .. P, it runs each tree's own ``perfbench/run.py --workload W --seed s
--seconds S``, one at a time: the parent first on odd seeds, the change
first on even ones.

The output file holds the machine, every run's environment record (without
its per-operation times) and result line, and per workload a summary of
each end-to-end metric over the pairs: both sides' medians, quartiles and
ranges, the parent's quartile distance, the change's median over the
parent's, the median and quartiles of the per-pair ratios change/parent
(a pair's two runs are adjacent in time, so drift between pairs cancels
in them), the pairs in which the change is better, whether the gain rule
holds (better in at least 9 of 10 pairs, and in the median by more than
the parent's quartile distance), and the no-regression rule's two
verdicts with the metric's ``bound``: ``worse_than_bound`` (the change's
median worse than the parent's by more than bound times the parent's) and
``unresolved`` (the parent's quartile distance over its median above the
bound, unless every change run beats every parent run); and each side's
failed operations.
Exits 1 if a run exits non-zero or prints ``"correct": false``, 2 if git
cannot archive a side.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from same_artifacts import REPO, extract

SIDES = ("parent", "change")


def pair_order(seed: int) -> tuple[str, str]:
    """The sides in the order they run at seed: the parent first on odd
    seeds, the change first on even ones."""
    return SIDES if seed % 2 else SIDES[::-1]


def parse_run(stdout: str) -> tuple[dict | None, dict | None]:
    """(environment record, result) of a run's output: its last two lines,
    or None for a line that is missing or not the expected JSON."""
    lines = stdout.strip().splitlines()

    def line(i: int, key: str) -> dict | None:
        try:
            value = json.loads(lines[i])
        except (IndexError, ValueError):
            return None
        return value if isinstance(value, dict) and key in value else None

    env, result = line(-2, "env"), line(-1, "correct")
    if env is not None:
        env = {k: v for k, v in env["env"].items() if k != "op_s"}
    return env, result


def quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload: the pairs, each side's failed operations and, per
    end-to-end metric measured on both sides of a pair, the comparison."""
    summary: dict = {}
    for run in runs:
        work = summary.setdefault(run["workload"], {
            "pairs": 0, "failed_ops": dict.fromkeys(SIDES, 0), "seeds": {}})
        work["seeds"].setdefault(run["seed"], {})[run["side"]] = run
        work["failed_ops"][run["side"]] += (run["result"] or {}).get(
            "failed", 0)
    for work in summary.values():
        pairs = [p for p in work.pop("seeds").values() if len(p) == 2]
        work["pairs"] = len(pairs)
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            values = [[(p[side]["result"] or {}).get("metrics", {})
                       .get(name, {}).get("value") for side in SIDES]
                      for p in pairs]
            values = [v for v in values if None not in v]
            if not values:
                continue
            parent, change = ([v[i] for v in values] for i in (0, 1))
            q_parent, q_change = quartiles(parent), quartiles(change)
            gap = q_change[1] - q_parent[1]
            better = sum((c > p) if higher else (c < p)
                         for p, c in zip(parent, change))
            distance = q_parent[2] - q_parent[0]
            allowed = metric["bound"] * abs(q_parent[1])
            beats_all = (min(change) > max(parent) if higher
                         else max(change) < min(parent))
            ratios = quartiles([c / p for p, c in values if p]) or [None] * 3
            work[name] = {
                "pairs": len(values),
                "parent_median": q_parent[1],
                "parent_quartiles": [q_parent[0], q_parent[2]],
                "parent_quartile_distance": distance,
                "parent_range": [min(parent), max(parent)],
                "change_median": q_change[1],
                "change_quartiles": [q_change[0], q_change[2]],
                "change_range": [min(change), max(change)],
                "change_over_parent": (q_change[1] / q_parent[1]
                                       if q_parent[1] else None),
                "pair_ratio_median": ratios[1],
                "pair_ratio_quartiles": [ratios[0], ratios[2]],
                "pairs_change_better": better,
                "gain_shown": (10 * better >= 9 * len(values)
                               and (gap if higher else -gap) > distance),
                "worse_than_bound": (-gap if higher else gap) > allowed,
                "unresolved": distance > allowed and not beats_all,
            }
    return summary


def machine() -> dict:
    """The host and numeric stack the runs share: CPUs, numpy with its
    SIMD targets, and the BLAS with the core it dispatches to."""
    import numpy as np
    from numpy._core import _multiarray_umath as umath

    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_",
                       "scipy_openblas_get_corename", "openblas_get_corename"):
            if hasattr(lib, symbol):
                getattr(lib, symbol).restype = ctypes.c_char_p
                core = getattr(lib, symbol)().decode()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numpy_simd_baseline": list(umath.__cpu_baseline__),
        "numpy_simd_dispatch": [t for t in umath.__cpu_dispatch__
                                if umath.__cpu_features__.get(t)],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": core,
        "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
    }


def run_side(tree: Path, workload: str, seed: int, seconds: float,
             env: dict) -> dict:
    """One run of tree's own perfbench/run.py: its exit status, environment
    record and result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=env, capture_output=True, text=True)
    run_env, result = parse_run(done.stdout)
    if done.returncode:
        sys.stderr.write(done.stderr)
    return {"exit": done.returncode, "env": run_env, "result": result}


def run_pairs(workloads: list[str], pairs: int, run) -> tuple[list, bool]:
    """Every run of every workload's pairs through run(side, workload,
    seed); the runs, and whether each exited 0 with "correct": true."""
    runs, ok = [], True
    for workload in workloads:
        for seed in range(1, pairs + 1):
            for side in pair_order(seed):
                record = {"workload": workload, "seed": seed, "side": side,
                          **run(side, workload, seed)}
                good = record["exit"] == 0 and bool(
                    (record["result"] or {}).get("correct"))
                if not good:
                    print(f"bench_pair: {side} {workload} seed {seed} "
                          f"failed (exit {record['exit']})", file=sys.stderr)
                ok &= good
                runs.append(record)
    return runs, ok


def _git(*argv: str) -> str:
    return subprocess.run(["git", *argv], cwd=REPO, capture_output=True,
                          text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision of the parent side")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.pairs < 1 or args.seconds < 0:
        parser.error("--pairs must be >= 1 and --seconds >= 0")
    change = _git("stash", "create") or "HEAD"
    with tempfile.TemporaryDirectory(prefix="bench_pair-") as tmp:
        tmp = Path(tmp)
        trees = {side: tmp / side for side in SIDES}
        for side, rev in zip(SIDES, (args.against, change)):
            reason = extract(rev, trees[side])
            if reason is not None:
                print(f"bench_pair: cannot archive {rev}: {reason}",
                      file=sys.stderr)
                return 2
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp / "cache"))
        for tree in trees.values():
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            "src", "perfbench"], cwd=tree, env=env,
                           check=True)
            subprocess.run([sys.executable, "-c",
                            "from minsurprise import kernel; kernel.load()"],
                           cwd=tree, env=dict(env, PYTHONPATH="src"),
                           check=True)
        runs, ok = run_pairs(
            [args.workload] if args.workload else workloads, args.pairs,
            lambda side, workload, seed: run_side(
                trees[side], workload, seed, args.seconds, env))
    record = {
        "parent": {"rev": args.against,
                   "commit": _git("rev-parse", args.against + "^{commit}")},
        "change": {"head": _git("rev-parse", "HEAD"),
                   "tracked_files_differ": change != "HEAD"},
        "command": "python3 perfbench/run.py --workload <workload> "
                   f"--seed <seed> --seconds {args.seconds:g}",
        "machine": machine(),
        "summary": summarise(runs, bench["end_to_end"]),
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
