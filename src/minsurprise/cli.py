"""Command line interface.

Subcommands: evolve, posteval, classify, render, replay. The output root
defaults to $MINSURPRISE_OUT, or ./out where that is unset or empty; an
empty --out is a config error. For evolve, --seed overrides every row's
master seed; for posteval and replay it is the world seed of the one
recorded simulation.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .experiment import (
    ExperimentPlan,
    ConfigError,
    NUMERIC_KEYS,
    matrix_plan,
    parse_config,
    posteval_csv_row,
    posteval_seed_for,
    POSTEVAL_COLUMNS,
    replay,
    run_experiment,
    run_index_for,
)
from .kernel import BuildError, load as load_kernel
from .metrics import scene_label, structure_report, StructureLabel
from .networks import MalformedGenomeError, load_genome
from .world import SnapshotError, parse_snapshot_cells, render_cells


# Each integer flag takes the config-file range of the key whose quantity
# it counts: a snapshot interval is a step count, workers run runs.
_FLAG_RANGES = {"seed": "seed", "runs": "runs", "workers": "runs",
                "every": "steps"}


def _default_out() -> str:
    return os.environ.get("MINSURPRISE_OUT") or "out"


def _check_flags(args) -> None:
    for flag, key in _FLAG_RANGES.items():
        value = getattr(args, flag, None)
        *_, lo, hi = NUMERIC_KEYS[key]
        if value is not None and not lo <= value <= hi:
            raise ConfigError(f"--{flag} {value} out of range [{lo}, {hi}]")


def _read_input(path, error,
                read=lambda p: Path(p).read_text(encoding="utf-8")):
    """read(path), reporting a file that cannot be read as error."""
    try:
        return read(path)
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc.reason
        raise error(f"cannot read {path}: {reason}") from None


def _load_plan(args) -> ExperimentPlan:
    evolve = args.command == "evolve"
    if evolve and args.matrix:
        if args.config is not None:
            raise ConfigError(f"--matrix takes no config file, got "
                              f"{args.config}")
        plan = matrix_plan()
    elif args.config is None:
        raise ConfigError("a config file (or --matrix) is required" if evolve
                          else "a config file is required")
    else:
        plan = parse_config(_read_input(args.config, ConfigError))
    if args.seed is not None:
        plan = replace(plan, rows=tuple(replace(row, master_seed=args.seed)
                                        for row in plan.rows))
    return plan


def _cmd_evolve(args) -> int:
    if not args.out:  # Path("") is the current directory
        raise ConfigError("--out must name a directory, not ''")
    plan = _load_plan(args)
    if args.runs is not None:
        plan = replace(plan, runs_per_row=args.runs)
    # Built here, not in the first run: a failed build is then one error
    # line, and workers find the library in the cache.
    load_kernel()
    return run_experiment(plan, args.out, workers=args.workers)


def _stored_genome_run(args):
    """The genome file, the plan's first row and the world seed: --seed if
    given, else the seed row0_run0 of the plan was post-evaluated at."""
    plan = _load_plan(args)
    genome = _read_input(args.genome, MalformedGenomeError, load_genome)
    seed = args.seed if args.seed is not None else posteval_seed_for(
        plan.rows[0].master_seed, run_index_for(0, 0)
    )
    return genome, plan.rows[0], seed


def _cmd_classify(args) -> int:
    text = _read_input(args.snapshot, SnapshotError)
    L, _, blocks = parse_snapshot_cells(text)
    counts = structure_report(blocks, L)
    for label in StructureLabel:
        print(f"{label.value},{counts[label]}")
    print(f"scene,{scene_label(counts).value}")
    return 0


def _cmd_render(args) -> int:
    text = _read_input(args.snapshot, SnapshotError)
    sys.stdout.write(render_cells(*parse_snapshot_cells(text)))
    return 0


def _cmd_replay(args) -> int:
    """posteval and replay: one recorded simulation's metrics row, which
    replay precedes with a snapshot every --every steps."""
    genome, row, seed = _stored_genome_run(args)
    snapshots_wanted = args.command == "replay"
    every = args.every if snapshots_wanted else row.sim.steps
    snapshots, metrics_row, _ = replay(genome, row.sim, row.scenario, seed,
                                       every)
    for t, snap in snapshots if snapshots_wanted else ():
        print(f"# t={t}")
        sys.stdout.write(snap)
    print(",".join(POSTEVAL_COLUMNS))
    print(posteval_csv_row(args.command, row.scenario, row.sim, metrics_row))
    return 0


POSTEVAL_SEED_HELP = (
    "world seed of the simulation (default: the post-evaluation seed of "
    "row0_run0 under the config's seed; any other run's seed is "
    "posteval_seed in its run.json)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minsurprise",
        description="Swarm construction by prediction-reward neuroevolution "
                    "on a torus grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_plan_args(p, seed_help="master seed (overrides the config)"):
        p.add_argument("config", nargs="?", default=None,
                       help="key=value experiment config file")
        p.add_argument("--seed", type=int, default=None, help=seed_help)

    p_evolve = sub.add_parser("evolve", help="run the evolutionary experiment")
    add_plan_args(p_evolve)
    p_evolve.add_argument("--matrix", action="store_true",
                          help="use the built-in experiment matrix; takes "
                               "no config file")
    p_evolve.add_argument("--runs", type=int, default=None,
                          help="runs per row (overrides the config)")
    p_evolve.add_argument("--out", default=_default_out(),
                          help="output directory (default $MINSURPRISE_OUT "
                               "or ./out)")
    p_evolve.add_argument("--workers", type=int, default=1,
                          help="worker processes that run the (row, run) "
                               "jobs, at most one per usable CPU")
    p_evolve.set_defaults(func=_cmd_evolve)

    p_post = sub.add_parser("posteval", help="post-evaluate a stored genome")
    p_post.add_argument("genome", help="genome file")
    add_plan_args(p_post, POSTEVAL_SEED_HELP)
    p_post.set_defaults(func=_cmd_replay)

    p_classify = sub.add_parser("classify",
                                help="classify the block structures of a "
                                     "snapshot")
    p_classify.add_argument("snapshot", help="snapshot text file")
    p_classify.set_defaults(func=_cmd_classify)

    p_render = sub.add_parser("render",
                              help="parse and re-render a snapshot file")
    p_render.add_argument("snapshot", help="snapshot text file")
    p_render.set_defaults(func=_cmd_render)

    p_replay = sub.add_parser("replay", help="re-simulate a stored genome")
    p_replay.add_argument("genome", help="genome file")
    add_plan_args(p_replay, POSTEVAL_SEED_HELP)
    p_replay.add_argument("--every", type=int, default=100,
                          help="snapshot emission interval in steps")
    p_replay.set_defaults(func=_cmd_replay)
    return parser


# The errors main reports as one stderr line, with exit status 2, by the
# prefix of that line.
_ERROR_KINDS = {ConfigError: "config", SnapshotError: "snapshot",
                MalformedGenomeError: "genome", BuildError: "build"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except tuple(_ERROR_KINDS) as exc:
        kind = next(kind for cls, kind in _ERROR_KINDS.items()
                    if isinstance(exc, cls))
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
