"""Config parsing, batch runner artifacts, replay, and the CLI surface."""

import concurrent.futures
import json
import multiprocessing
import os

import numpy as np
import pytest

from minsurprise import cli, experiment
from minsurprise.cli import main
from minsurprise.experiment import (
    ConfigError,
    MATRIX_ROWS,
    matrix_plan,
    parse_config,
    replay,
    run_experiment,
)
from minsurprise.networks import Scenario, load_genome, random_genome, \
    save_genome, write_text_atomic
from minsurprise.world import SimConfig
from oracle import parse_snapshot, random_world, render_snapshot

SMOKE = """
# smoke-scale settings
grid=8
robots=3
blocks=5
steps=40
population=4
generations=2
eval_runs=2
runs=1
seed=11
"""

_execute_run = experiment._execute_run


class InlinePool:
    """The ProcessPoolExecutor surface of _pool_outcomes, running each job
    at submit in this process; records each pool's max_workers."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def _die_on_run1(plan, row_idx, run_idx, out_dir):
    """A job whose worker process dies, without an exception, on run 1."""
    if run_idx == 1:
        os._exit(1)
    return _execute_run(plan, row_idx, run_idx, out_dir)


class TestParseConfig:
    def test_empty_file_gives_defaults(self):
        plan = parse_config("")
        assert len(plan.rows) == 1
        row = plan.rows[0]
        assert (row.sim.side_length, row.sim.swarm_size, row.sim.block_count) \
            == (16, 10, 32)
        assert row.sim.steps == 1000
        assert row.scenario == Scenario.EMERGENT
        assert row.population_size == 50
        assert row.generations == 100
        assert row.eval_runs == 10
        assert row.mutation_rate == 0.1
        assert plan.runs_per_row == 20

    def test_explicit_row(self):
        plan = parse_config("grid=20\nrobots=50\nblocks=50\nscenario=clusters\n")
        row = plan.rows[0]
        assert (row.sim.side_length, row.sim.swarm_size, row.sim.block_count) \
            == (20, 50, 50)
        assert row.scenario == Scenario.CLUSTERS

    def test_comments_and_blank_lines_ignored(self):
        plan = parse_config("\n# hello\ngrid=12 # trailing\n\n")
        assert plan.rows[0].sim.side_length == 12

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("grid=16\nrobots=4\nturbo=1\n")

    def test_bad_value_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("grid=16\nrobots=ten\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("mutation_rate=1.5\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("grid=16\nscenario=squares\n")

    def test_line_without_equals_sign_is_named(self):
        with pytest.raises(ConfigError,
                           match="line 2: expected key=value, got 'robots 4'"):
            parse_config("grid=16\nrobots 4\n")

    def test_impossible_placement_rejected(self):
        with pytest.raises(ConfigError, match="cannot place"):
            parse_config("robots=300\ngrid=16\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("grid=16\ngrid=20\n")

    def test_run_shorter_than_metrics_window_rejected(self):
        # tau = 16 * 16 // 2 = 128 steps; the later of the two lines is named
        for text, line in (("grid=16\nsteps=20\n", 2),
                           ("steps=127\nrobots=4\ngrid=16\n", 3),
                           ("grid=50\n", 1)):  # tau 1250 > 1000 steps
            with pytest.raises(ConfigError, match=f"line {line}: .*tau="):
                parse_config(text)
        assert parse_config("grid=16\nsteps=128\n").rows[0].sim.steps == 128

    def test_builtin_matrix_rows_and_density(self):
        plan = matrix_plan()
        triples = [
            (r.sim.side_length, r.sim.swarm_size, r.sim.block_count)
            for r in plan.rows
        ]
        assert triples == list(MATRIX_ROWS)
        for L, _, B in triples[:6]:
            assert B / (L * L) == 0.125
        L, _, B = triples[6]
        assert B / (L * L) == 0.1875


class TestRunExperiment:
    def test_smoke_artifacts_exist_and_parse_back(self, tmp_path):
        plan = parse_config(SMOKE)
        assert run_experiment(plan, tmp_path) == 0
        run_dir = tmp_path / "row0_run0"
        history = (run_dir / "fitness_history.csv").read_text()
        assert history.splitlines()[0] == "generation,best,median,mean"
        assert len(history.strip().splitlines()) == 3
        genome = load_genome(run_dir / "best.genome")
        assert genome.action_weights.shape == (130,)
        for snap in ("start_snapshot.txt", "end_snapshot.txt"):
            world = parse_snapshot((run_dir / snap).read_text())
            assert world.config.swarm_size == 3
            assert world.config.block_count == 5
        record = json.loads((run_dir / "run.json").read_text())
        assert record["complete"] is True
        posteval = (tmp_path / "posteval.csv").read_text().splitlines()
        assert posteval[0].startswith("run_id,scenario,L,N,B,fitness")
        assert posteval[1].startswith("row0_run0,emergent,8,3,5,")
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        plan = parse_config(SMOKE)
        run_experiment(plan, tmp_path / "a")
        run_experiment(plan, tmp_path / "b")
        for rel in ("row0_run0/fitness_history.csv", "row0_run0/best.genome",
                    "row0_run0/run.json", "posteval.csv", "summary.csv"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                   (tmp_path / "b" / rel).read_bytes(), rel

    def test_resume_skips_completed_runs(self, tmp_path):
        plan = parse_config(SMOKE)
        run_experiment(plan, tmp_path)
        marker = tmp_path / "row0_run0" / "fitness_history.csv"
        before = marker.stat().st_mtime_ns
        csvs = ("posteval.csv", "summary.csv")
        first_bytes = [(tmp_path / name).read_bytes() for name in csvs]
        assert run_experiment(plan, tmp_path) == 0
        assert marker.stat().st_mtime_ns == before  # untouched, not recomputed
        assert [(tmp_path / name).read_bytes() for name in csvs] == first_bytes

    def test_parallel_workers_produce_identical_artifacts(self, tmp_path):
        plan = parse_config(SMOKE.replace("runs=1", "runs=3"))
        run_experiment(plan, tmp_path / "serial", workers=1)
        run_experiment(plan, tmp_path / "pool", workers=2)
        for j in range(3):
            for rel in (f"row0_run{j}/fitness_history.csv",
                        f"row0_run{j}/best.genome", f"row0_run{j}/run.json"):
                assert (tmp_path / "serial" / rel).read_bytes() == \
                       (tmp_path / "pool" / rel).read_bytes(), rel
        assert (tmp_path / "serial" / "posteval.csv").read_bytes() == \
               (tmp_path / "pool" / "posteval.csv").read_bytes()

    # the CPUs this process may run on (an affinity mask of 2 of 4 CPUs),
    # or os.cpu_count() where os has no sched_getaffinity
    @pytest.mark.parametrize("affinity", [{0, 1}, None],
                             ids=["affinity", "cpu_count"])
    def test_pool_starts_at_most_one_worker_per_cpu(self, tmp_path,
                                                     monkeypatch, affinity):
        # A fork pool starts all its workers on the first submit, so the
        # pool size is the number of processes --workers W starts at once.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(InlinePool, "sizes", [])
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 2)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity,
                                raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 4)
        plan = parse_config(SMOKE.replace("runs=1", "runs=3"))
        assert run_experiment(plan, tmp_path, workers=1_000_000) == 0
        assert InlinePool.sizes == [2]
        rows = (tmp_path / "posteval.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == \
            ["row0_run0", "row0_run1", "row0_run2"]

    def test_run_reconstructible_from_seed_record_alone(self, tmp_path):
        from minsurprise.evolution import EvolutionConfig, evolve

        plan = parse_config(SMOKE)
        run_experiment(plan, tmp_path)
        record = json.loads((tmp_path / "row0_run0" / "run.json").read_text())
        config = EvolutionConfig(
            sim=SimConfig(**record["sim"]),
            scenario=Scenario(record["scenario"]),
            population_size=record["population_size"],
            generations=record["generations"],
            eval_runs=record["eval_runs"],
            mutation_rate=record["mutation_rate"],
            master_seed=record["master_seed"],
        )
        best, _ = evolve(config, run_index=record["run_index"])
        assert best.fitness == record["best_fitness"]
        assert list(best.per_run) == record["best_per_run"]
        stored = load_genome(tmp_path / "row0_run0" / "best.genome")
        assert np.array_equal(best.genome.action_weights,
                              stored.action_weights)

    def test_posteval_row_matches_direct_post_evaluate(self, tmp_path):
        plan = parse_config(SMOKE)
        run_experiment(plan, tmp_path)
        record = json.loads((tmp_path / "row0_run0" / "run.json").read_text())
        genome = load_genome(tmp_path / "row0_run0" / "best.genome")
        row = plan.rows[0]
        _, metrics_row, _ = replay(genome, row.sim, row.scenario,
                                   record["posteval_seed"], every=row.sim.steps)
        stored = record["posteval_row"].split(",")
        assert float(stored[5]) == metrics_row.fitness
        assert float(stored[6]) == metrics_row.similarity

    @staticmethod
    def assert_only_run1_fails(out, workers, capsys):
        plan = parse_config(SMOKE.replace("runs=1", "runs=4"))
        assert run_experiment(plan, out, workers=workers) == 1
        log = capsys.readouterr().err
        assert log.startswith("row0_run1 failed: ")
        assert log.count("\n") == 1
        rows = (out / "posteval.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == \
            ["row0_run0", "row0_run2", "row0_run3"]
        for j in (0, 2, 3):
            assert (out / f"row0_run{j}" / "run.json").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_raising_run_fails_alone(self, tmp_path, workers, capsys):
        # a file where run 1's directory belongs makes that job raise
        (tmp_path / "row0_run1").write_text("not a run directory\n")
        self.assert_only_run1_fails(tmp_path, workers, capsys)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched job reaches workers only by fork")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_dead_worker_fails_only_its_run(self, tmp_path, workers,
                                            monkeypatch, capsys):
        monkeypatch.setattr(experiment, "_execute_run", _die_on_run1)
        self.assert_only_run1_fails(tmp_path, workers, capsys)

    def test_failed_artifact_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_text_atomic(path, "complete\n")
        with pytest.raises(UnicodeEncodeError):
            write_text_atomic(path, "half written \ud800")
        assert path.read_text(encoding="utf-8") == "complete\n"
        assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]


class TestReplay:
    def test_every_t_gives_start_and_end_only(self, tmp_path):
        plan = parse_config(SMOKE)
        run_experiment(plan, tmp_path)
        genome = load_genome(tmp_path / "row0_run0" / "best.genome")
        sim = plan.rows[0].sim
        snaps, _, _ = replay(genome, sim, Scenario.EMERGENT, 5, every=sim.steps)
        assert [t for t, _ in snaps] == [0, sim.steps]

    def test_replay_twice_identical(self, tmp_path):
        plan = parse_config(SMOKE)
        run_experiment(plan, tmp_path)
        genome = load_genome(tmp_path / "row0_run0" / "best.genome")
        sim = plan.rows[0].sim
        s1, m1, _ = replay(genome, sim, Scenario.EMERGENT, 5, every=10)
        s2, m2, _ = replay(genome, sim, Scenario.EMERGENT, 5, every=10)
        assert s1 == s2
        assert m1 == m2

    def test_replay_reproduces_stored_posteval_row(self, tmp_path):
        plan = parse_config(SMOKE)
        run_experiment(plan, tmp_path)
        record = json.loads((tmp_path / "row0_run0" / "run.json").read_text())
        genome = load_genome(tmp_path / "row0_run0" / "best.genome")
        row = plan.rows[0]
        _, metrics_row, _ = replay(genome, row.sim, row.scenario,
                                   record["posteval_seed"], every=row.sim.steps)
        stored = record["posteval_row"].split(",")
        assert float(stored[5]) == metrics_row.fitness
        assert float(stored[7]) == metrics_row.block_movement


class TestCli:
    def test_evolve_and_posteval_and_replay(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        out = tmp_path / "results"
        assert main(["evolve", str(cfg), "--out", str(out)]) == 0
        assert (out / "posteval.csv").exists()

        genome_path = out / "row0_run0" / "best.genome"
        assert main(["posteval", str(genome_path), str(cfg)]) == 0
        captured = capsys.readouterr().out.splitlines()
        assert captured[-2].startswith("run_id,")
        assert captured[-1].startswith("posteval,emergent,8,3,5,")
        # the default seed is row0_run0's post-evaluation seed
        record = json.loads((out / "row0_run0" / "run.json").read_text())
        assert captured[-1] == record["posteval_row"].replace(
            "row0_run0", "posteval", 1)

        assert main(["replay", str(genome_path), str(cfg), "--seed", "3",
                     "--every", "40"]) == 0
        captured = capsys.readouterr().out
        assert "# t=0" in captured and "# t=40" in captured

    def test_classify_and_render(self, tmp_path, capsys):
        world = random_world(SimConfig(8, 2, 6, steps=5),
                             np.random.default_rng(1))
        snap = tmp_path / "w.snap"
        snap.write_text(render_snapshot(world))
        assert main(["render", str(snap)]) == 0
        assert capsys.readouterr().out == render_snapshot(world)
        assert main(["classify", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "scene," in out
        counts = dict(
            line.split(",") for line in out.strip().splitlines()
        )
        total = sum(int(v) for k, v in counts.items() if k != "scene")
        assert total == 6

    def test_blockless_posteval_row(self, tmp_path, capsys):
        # B = 0: no start blocks to keep (similarity 1.0), none to move
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE.replace("blocks=5", "blocks=0"))
        genome = tmp_path / "g.genome"
        save_genome(genome, random_genome(np.random.default_rng(3)))
        assert main(["posteval", str(genome), str(cfg)]) == 0
        header, row = capsys.readouterr().out.splitlines()
        cells = dict(zip(header.split(","), row.split(","), strict=True))
        assert cells["B"] == "0"
        assert cells["similarity"] == "1.0"
        assert cells["block_movement"] == "0.0"
        for when in ("start", "end"):
            for stem in ("lines", "pairs", "clusters", "dispersed", "other"):
                assert cells[f"{stem}_{when}"] == "0"
            assert cells[f"scene_{when}"] == "other"

    def test_malformed_inputs_are_one_line_errors(self, tmp_path, capsys):
        world = random_world(SimConfig(8, 2, 6, steps=5),
                             np.random.default_rng(1))
        snap = tmp_path / "w.snap"
        snap.write_text(render_snapshot(world).replace(".", "X", 1))
        for command in ("render", "classify"):
            assert main([command, str(snap)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("snapshot error: ")
            assert "'X'" in captured.err and captured.err.count("\n") == 1
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        genome = tmp_path / "bad.genome"
        genome.write_text("garbage\n")
        for command in ("posteval", "replay"):
            assert main([command, str(genome), str(cfg)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("genome error: ")
            assert "garbage" in err and err.count("\n") == 1

    def test_missing_input_files_are_one_line_errors(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        missing = str(tmp_path / "missing")
        for argv, prefix in (
            (["posteval", missing, str(cfg)], "genome error: "),
            (["replay", str(tmp_path), str(cfg)], "genome error: "),
            (["classify", missing], "snapshot error: "),
            (["render", str(tmp_path)], "snapshot error: "),
            # an output directory under a regular file
            (["evolve", str(cfg), "--out", str(cfg / "out")],
             "config error: "),
            # an empty output root, which would be the current directory
            (["evolve", "--out", "", str(cfg)], "config error: "),
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(prefix)
            assert argv[1] in captured.err and captured.err.count("\n") == 1
        assert os.listdir(tmp_path) == ["exp.cfg"]

    @pytest.mark.parametrize("command, flag, value", [
        ("posteval", "--seed", "-1"),
        ("replay", "--seed", str(2**64)),
        ("evolve", "--seed", "-1"),
        ("evolve", "--runs", "0"),
        ("evolve", "--workers", "0"),
        ("replay", "--every", "0"),
    ])
    def test_out_of_range_flag_is_a_one_line_error(self, tmp_path, capsys,
                                                   command, flag, value):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        genome = tmp_path / "g.genome"
        save_genome(genome, random_genome(np.random.default_rng(0)))
        out = tmp_path / "results"
        if command == "evolve":
            argv = [command, str(cfg), "--out", str(out)]
        else:
            argv = [command, str(genome), str(cfg)]
        assert main(argv + [flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith(f"config error: {flag} {value} ")
        assert captured.err.count("\n") == 1

    def test_seed_flag_takes_the_whole_config_range(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        genome = tmp_path / "g.genome"
        save_genome(genome, random_genome(np.random.default_rng(0)))
        for seed in (0, 2**64 - 1):
            assert main(["posteval", str(genome), str(cfg),
                         "--seed", str(seed)]) == 0
        assert capsys.readouterr().err == ""

    def test_failed_run_is_one_stderr_line_and_exit_one(self, tmp_path,
                                                        capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        out = tmp_path / "results"
        out.mkdir()
        (out / "row0_run0").write_text("not a run directory\n")
        assert main(["evolve", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("row0_run0 failed: ") and err.count("\n") == 1

    def test_runs_flag_only_on_evolve(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        out = tmp_path / "results"
        assert main(["evolve", str(cfg), "--out", str(out), "--runs", "2"]) == 0
        assert (out / "row0_run1" / "best.genome").exists()
        genome = out / "row0_run0" / "best.genome"
        capsys.readouterr()
        for command in ("posteval", "replay"):
            for flag in (["--runs", "7"], ["--matrix"]):
                with pytest.raises(SystemExit) as exc:
                    main([command, str(genome), str(cfg), *flag])
                assert exc.value.code == 2
                assert flag[0] in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["evolve", str(cfg), "--out", str(out1), "--seed", "99"]) == 0
        assert main(["evolve", str(cfg), "--out", str(out2), "--seed", "11"]) == 0
        rec1 = json.loads((out1 / "row0_run0" / "run.json").read_text())
        rec2 = json.loads((out2 / "row0_run0" / "run.json").read_text())
        assert rec1["master_seed"] == 99
        assert rec2["master_seed"] == 11

    def test_matrix_seed_flag_sets_every_rows_seed(self, tmp_path,
                                                   monkeypatch):
        plans = []
        monkeypatch.setattr(cli, "run_experiment",
                            lambda plan, *_, **__: plans.append(plan) or 0)
        assert main(["evolve", "--matrix", "--seed", "5",
                     "--out", str(tmp_path / "out")]) == 0
        plan, = plans
        assert len(plan.rows) == len(MATRIX_ROWS)
        for i in range(len(plan.rows)):
            assert experiment._plan_record(plan, i, 0)["master_seed"] == 5

    def test_matrix_takes_no_config_file(self, tmp_path, monkeypatch,
                                         capsys):
        def never(*_, **__):
            raise AssertionError("run_experiment was called")

        monkeypatch.setattr(cli, "run_experiment", never)
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        for path in (str(cfg), str(tmp_path / "missing.cfg")):
            assert main(["evolve", path, "--matrix"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error: --matrix ")
            assert path in captured.err and captured.err.count("\n") == 1
        assert os.listdir(tmp_path) == ["exp.cfg"]

    def test_rerun_with_another_plan_is_refused(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        out = tmp_path / "results"
        assert main(["evolve", str(cfg), "--out", str(out)]) == 0
        history = out / "row0_run0" / "fitness_history.csv"
        before = {p: p.read_bytes() for p in (history, out / "summary.csv")}
        capsys.readouterr()
        for changed, stored, wanted in (
            (SMOKE.replace("generations=2", "generations=5"),
             "generations=2", "generations=5"),
            (SMOKE.replace("generations=2", "generations=5")
             .replace("steps=40", "steps=60"), "'steps': 40", "'steps': 60"),
        ):
            cfg.write_text(changed)
            assert main(["evolve", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "row0_run0" in err and stored in err and wanted in err
            assert {p: p.read_bytes() for p in before} == before

    def test_record_of_another_run_is_refused(self, tmp_path, capsys):
        # summary.csv counts a record under the row it names, so a record
        # whose row disagrees with its directory would drop out of it.
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        out = tmp_path / "results"
        assert main(["evolve", str(cfg), "--out", str(out), "--runs", "2"]) == 0
        record = out / "row0_run1" / "run.json"
        fields = json.loads(record.read_text())
        fields["row"] = 5
        record.write_text(json.dumps(fields))
        before = {p: p.read_bytes()
                  for p in (record, out / "posteval.csv", out / "summary.csv")}
        capsys.readouterr()
        assert main(["evolve", str(cfg), "--out", str(out), "--runs", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "row0_run1" in err
        assert "row=5" in err and "this plan has row=0" in err
        assert {p: p.read_bytes() for p in before} == before

    @pytest.mark.parametrize("stored", [
        b"\xff\xfe not UTF-8\n",
        b"[1]\n",
        # complete records whose posteval_row is rewritten
        lambda row: "row0_run0,emergent",
        lambda row: row + ",0",
        # a complete record whose run lost its genome
        None,
    ], ids=["not-utf8", "not-an-object", "malformed-posteval-row",
            "wrong-cell-count", "missing-genome"])
    def test_unreadable_record_is_recomputed(self, tmp_path, stored):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
        for out in (fresh, rerun):
            assert main(["evolve", str(cfg), "--out", str(out)]) == 0
        record = rerun / "row0_run0" / "run.json"
        if stored is None:
            (record.parent / "best.genome").unlink()
        elif callable(stored):
            fields = json.loads(record.read_text())
            fields["posteval_row"] = stored(fields["posteval_row"])
            record.write_text(json.dumps(fields))
        else:
            record.write_bytes(stored)
        assert main(["evolve", str(cfg), "--out", str(rerun)]) == 0

        def files(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in root.rglob("*") if p.is_file()}

        assert files(rerun) == files(fresh)

    def test_missing_config_is_a_config_error(self, tmp_path, capsys):
        for path in ("/nonexistent/x.cfg", str(tmp_path)):
            assert main(["evolve", path]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: cannot read {path}: ")
            assert err.count("\n") == 1
        genome = tmp_path / "g.genome"
        save_genome(genome, random_genome(np.random.default_rng(0)))
        for argv, wanted in (
            (["evolve"], "a config file (or --matrix) is required"),
            (["posteval", str(genome)], "a config file is required"),
            (["replay", str(genome)], "a config file is required"),
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"config error: {wanted}\n"

    def test_run_shorter_than_metrics_window_fails_before_any_run(
            self, tmp_path, capsys):
        cfg = tmp_path / "short.cfg"
        cfg.write_text("grid=16\nsteps=20\npopulation=2\ngenerations=1\n"
                       "eval_runs=1\nruns=1\n")
        genome = tmp_path / "g.genome"
        save_genome(genome, random_genome(np.random.default_rng(0)))
        out = tmp_path / "results"
        for argv in (["evolve", str(cfg), "--out", str(out)],
                     ["posteval", str(genome), str(cfg)],
                     ["replay", str(genome), str(cfg)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("config error: line 2: ")
            assert "tau=128" in captured.err
            assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_bad_config_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("grid=16\nwhat=1\n")
        assert main(["evolve", str(cfg)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_env_var_sets_default_out(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMOKE)
        monkeypatch.chdir(tmp_path)
        # an empty value is unset: ./out, not the current directory
        for value, out in ((str(tmp_path / "envout"), "envout"), ("", "out")):
            monkeypatch.setenv("MINSURPRISE_OUT", value)
            assert main(["evolve", str(cfg)]) == 0
            assert (tmp_path / out / "posteval.csv").exists()
        assert sorted(os.listdir(tmp_path)) == ["envout", "exp.cfg", "out"]
