"""The compiled step kernel: its build cache, its build errors and the
binding of its call struct."""

import ctypes
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minsurprise import kernel
from minsurprise.cli import main
from minsurprise.networks import random_genome, save_genome

SMOKE = "grid=8\nrobots=3\nblocks=5\nsteps=40\npopulation=4\ngenerations=2\n"

# One small batch in a fresh interpreter; prints repr of its error sums.
BATCH = """
import numpy as np
from minsurprise.networks import Scenario, random_genome
from minsurprise.simulation import simulate_batch
from minsurprise.world import SimConfig
genomes = [random_genome(np.random.default_rng(g)) for g in range(2)]
seeds = np.arange(4, dtype=np.uint64).reshape(2, 2)
for scenario in (Scenario.EMERGENT, Scenario.CLUSTERS):
    errs, _ = simulate_batch(genomes, SimConfig(8, 4, 6, steps=30),
                             scenario, seeds)
    print(repr(errs.tolist()))
"""


def cached_files(cache: Path) -> list[str]:
    return sorted(os.listdir(cache / "minsurprise"))


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """An empty user cache dir and no library loaded in this process."""
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(kernel, "_lib", None)
    return cache


def test_parallel_cold_builds_leave_one_library(empty_cache):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    procs = [subprocess.Popen([sys.executable, "-c", BATCH], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) for _ in range(2)]
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (_, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
    assert outputs[0][0] == outputs[1][0] != ""  # bitwise, via repr
    library, = cached_files(empty_cache)
    assert library.startswith("_step-") and library.endswith(".so")


def test_batch_fields_match_the_c_struct():
    # ctypes lays out Batch by its field list alone: a member added to, or
    # moved in, one side only shifts every later one. int64_t members are
    # c_int64, pointers of any type c_void_p.
    source = kernel.SOURCE.read_text()
    body = re.search(r"struct batch {(.*?)};", source, re.S).group(1)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    fields = []
    for declaration in filter(None, map(str.strip, body.split(";"))):
        base, declarators = re.fullmatch(
            r"((?:const\s+)?\w+)\s+(.*)", declaration, re.S).groups()
        for declarator in map(str.strip, declarators.split(",")):
            if declarator.startswith("*"):
                fields.append((declarator[1:], ctypes.c_void_p))
            else:
                assert base == "int64_t", declaration
                fields.append((declarator, ctypes.c_int64))
    assert fields == kernel.Batch._fields_


def test_one_changed_source_byte_changes_the_cache_key(tmp_path):
    source = kernel.SOURCE.read_bytes()
    edited = bytearray(source)
    edited[-2] ^= 1
    copy = tmp_path / "_step.c"
    copy.write_bytes(bytes(edited))
    command = kernel.compile_command()
    assert kernel.library_path(copy.read_bytes(), command) != \
        kernel.library_path(source, command)
    assert kernel.library_path(source, command) == \
        kernel.library_path(kernel.SOURCE.read_bytes(), command)


def test_failing_compiler_names_its_first_error_line(empty_cache, tmp_path):
    broken = tmp_path / "_step.c"
    broken.write_text("int broken(void) { return }\n")
    with pytest.raises(kernel.BuildError) as info:
        kernel.build(broken)
    message = str(info.value)
    assert message.startswith(kernel.compile_command()[0])
    assert "error" in message and "\n" not in message
    assert cached_files(empty_cache) == []  # no temp file, no library


@pytest.mark.parametrize("command", ["evolve", "posteval"])
def test_missing_compiler_is_one_build_error_line(empty_cache, tmp_path,
                                                  monkeypatch, capsys,
                                                  command):
    monkeypatch.setattr(kernel, "compile_command",
                        lambda: ["no-such-cc", "-O2", "-shared", "-fPIC"])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMOKE)
    genome = tmp_path / "g.genome"
    save_genome(genome, random_genome(np.random.default_rng(0)))
    out = tmp_path / "out"
    argv = (["evolve", str(cfg), "--out", str(out)] if command == "evolve"
            else ["posteval", str(genome), str(cfg)])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("build error: ")
    assert "no-such-cc" in captured.err and captured.err.count("\n") == 1
    assert cached_files(empty_cache) == []
    assert not out.exists()  # no run started
