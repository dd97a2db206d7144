"""Check that a revision and the working tree make the same artifacts.

    python tools/same_artifacts.py --against <rev>

Writes ``git archive <rev>`` to a temp dir, then makes these sets in that
tree and in the working tree, each in its own process with its own
``src/`` on the path:

- smoke ``evolve`` of ``configs/smoke.cfg``: fresh, with ``--seed 99``,
  with ``--runs 3 --workers 2``, and resumed (a copy of the fresh output
  evolved again);
- ``evolve-pairs``: fresh smoke ``evolve`` of ``configs/smoke.cfg`` plus
  ``scenario=pairs``, a config written into the set's own dir;
- ``posteval`` and ``replay --every 250`` of the 15 cached genomes, each at
  the ``posteval_seed`` of its ``run.json``;
- ``render`` and ``classify`` of the 30 cached snapshots;
- ``labels``: ``classify_blocks`` of 100 seeded random block sets per
  L = 3..20, each of a random density, about a fifth with a full row or
  column, one line per set;
- the sha256 of generation 0's error sums of emergent, pairs, clusters and
  empty at acceptance size (50 genomes x 10 worlds x 1000 steps; pairs on
  the emergent row's world).

A command's set keeps its exit status, stdout and stderr, and evolve's
also every file of its output dir. Both trees read the working tree's
configs and ``.acceptance_cache/``, so only the code differs. Prints one
line per set, ``identical`` or its first difference, and exits 1 if any
set differs, or 2 if git cannot archive the revision.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = ("emergent", "clusters", "empty")

# Run in a tree's process, in the dir of its sets: this module from the
# working tree, minsurprise from the tree's src/ (PYTHONPATH).
_CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); "
          "import same_artifacts; same_artifacts.produce()")


def _cli(record: Path, *argv: str) -> None:
    """Run the CLI in this process; write its exit status, stdout and
    stderr to record."""
    from minsurprise import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = cli.main(list(argv))
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(f"exit {status}\n--- stdout\n{stdout.getvalue()}"
                      f"--- stderr\n{stderr.getvalue()}", encoding="utf-8")


def _generation_zero(out: Path) -> None:
    """sha256 of each scenario's generation-0 error sums, one line each."""
    import hashlib

    import numpy as np

    from minsurprise.evolution import eval_seeds_for, initial_population
    from minsurprise.experiment import parse_config
    from minsurprise.networks import Scenario
    from minsurprise.simulation import simulate_batch

    out.mkdir(parents=True)
    lines = []
    for name in ("emergent", "pairs", "clusters", "empty"):
        row = "emergent" if name == "pairs" else name
        config = parse_config((REPO / "configs" / f"acceptance_{row}.cfg")
                              .read_text(encoding="utf-8")).rows[0]
        genomes = initial_population(config, 0)
        seeds = np.stack([eval_seeds_for(config, 0, 0, i)
                          for i in range(len(genomes))])
        err, _ = simulate_batch(genomes, config.sim, Scenario(name), seeds)
        lines.append(f"{name} {hashlib.sha256(err.tobytes()).hexdigest()}\n")
    (out / "sha256.txt").write_text("".join(lines), encoding="utf-8")


def _labels(out: Path) -> None:
    """Every block's classify_blocks label, in sorted cell order, of 100
    seeded random block sets per L = 3..20, one line per set."""
    import numpy as np

    from minsurprise.metrics import classify_blocks

    out.mkdir(parents=True)
    rng = np.random.default_rng(2024)
    lines = []
    for L in range(3, 21):
        for _ in range(100):
            grid = rng.random((L, L)) < rng.random()  # grid[y, x]
            full, lane = rng.random(), int(rng.integers(L))
            if full < 0.1:
                grid[lane, :] = True
            elif full < 0.2:
                grid[:, lane] = True
            blocks = [(int(x), int(y)) for y, x in np.argwhere(grid)]
            labels = classify_blocks(blocks, L)
            lines.append(f"L={L} " + " ".join(
                f"{x},{y}={labels[x, y].value}" for x, y in sorted(blocks))
                + "\n")
    (out / "labels.txt").write_text("".join(lines), encoding="utf-8")


def produce() -> None:
    """Make every set in the current dir, one subdir each, with the
    minsurprise this process imports. Output paths are relative, so both
    trees pass the CLI the same arguments."""
    smoke = str(REPO / "configs" / "smoke.cfg")
    for name, flags in (
            ("evolve-fresh", ()), ("evolve-seed-99", ("--seed", "99")),
            ("evolve-runs-3-workers-2", ("--runs", "3", "--workers", "2"))):
        _cli(Path(name, "cli.txt"), "evolve", smoke, "--out", f"{name}/out",
             *flags)
    shutil.copytree("evolve-fresh/out", "evolve-resumed/out")
    _cli(Path("evolve-resumed", "cli.txt"), "evolve", smoke, "--out",
         "evolve-resumed/out")
    pairs = Path("evolve-pairs", "pairs.cfg")
    pairs.parent.mkdir()
    pairs.write_text(Path(smoke).read_text(encoding="utf-8")
                     + "scenario=pairs\n", encoding="utf-8")
    _cli(Path("evolve-pairs", "cli.txt"), "evolve", str(pairs), "--out",
         "evolve-pairs/out")
    for scenario in SCENARIOS:
        config = str(REPO / "configs" / f"acceptance_{scenario}.cfg")
        for run in sorted((REPO / ".acceptance_cache" / scenario)
                          .glob("row*_run*")):
            seed = str(json.loads((run / "run.json").read_text(
                encoding="utf-8"))["posteval_seed"])
            genome = str(run / "best.genome")
            record = Path(scenario, f"{run.name}.txt")
            _cli("posteval" / record, "posteval", genome, config,
                 "--seed", seed)
            _cli("replay" / record, "replay", genome, config, "--seed", seed,
                 "--every", "250")
            for snapshot in sorted(run.glob("*_snapshot.txt")):
                for command in ("render", "classify"):
                    _cli(Path(command, scenario, run.name, snapshot.name),
                         command, str(snapshot))
    _generation_zero(Path("generation-0"))
    _labels(Path("labels"))


def _first_difference(ours: Path, theirs: Path, rev: str) -> str | None:
    """The first difference between two set directories, or None."""
    files = lambda root: {p.relative_to(root) for p in root.rglob("*")
                          if p.is_file()}
    mine, other = files(ours), files(theirs)
    for path in sorted(mine | other):
        if path not in other:
            return f"{path} only in the working tree"
        if path not in mine:
            return f"{path} only in {rev}"
        a, b = (theirs / path).read_bytes(), (ours / path).read_bytes()
        if a != b:
            # lines with their endings, as bytes: any byte that differs,
            # a line ending or an undecodable one too, is in a line that does
            pairs = zip_longest(a.splitlines(keepends=True),
                                b.splitlines(keepends=True))
            i, (x, y) = next((i, xy) for i, xy in enumerate(pairs)
                             if xy[0] != xy[1])
            return f"{path} line {i + 1}: {rev} {x!r}, working tree {y!r}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision to compare the working tree with")
    args = parser.parse_args(argv)
    archive = subprocess.run(["git", "archive", args.against], cwd=REPO,
                             capture_output=True)
    if archive.returncode:
        reason = archive.stderr.decode(errors="replace").strip() or \
            f"git exited with status {archive.returncode}"
        print(f"same_artifacts: cannot archive {args.against}: "
              f"{reason.splitlines()[0]}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_artifacts-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        for tree, src in (("rev", tmp / "rev" / "src"), ("work", REPO / "src")):
            env = dict(os.environ, PYTHONPATH=str(src))
            (tmp / tree / "sets").mkdir(parents=True, exist_ok=True)
            subprocess.run([sys.executable, "-c", _CHILD, str(REPO / "tools")],
                           cwd=tmp / tree / "sets", env=env, check=True)
        differs = False
        sets = tmp / "work" / "sets"
        for name in sorted(p.name for p in sets.iterdir()):
            found = _first_difference(sets / name, tmp / "rev" / "sets" / name,
                                      args.against)
            differs |= found is not None
            print(f"{name}: {found or 'identical'}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
