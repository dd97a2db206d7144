"""The compiled step kernel: its build cache, its build errors, its
module's call surface and the binding of its call struct."""

import ctypes
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from minsurprise import kernel, simulation
from minsurprise.cli import main
from minsurprise.networks import (
    HIDDEN_UNITS,
    NET_INPUTS,
    random_genome,
    save_genome,
)
from minsurprise.world import SENSOR_COUNT, SENSOR_FRAME

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
    monkeypatch.setattr(kernel, "_module", None)
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


def test_build_prunes_month_old_libraries_only(empty_cache, monkeypatch):
    cache = empty_cache / "minsurprise"
    cache.mkdir(parents=True)
    old, fresh = cache / "_step-old.so", cache / "_step-fresh.so"
    for path in (old, fresh):
        path.write_bytes(b"")
    month_ago = time.time() - 31 * 24 * 3600
    os.utime(old, (month_ago, month_ago))
    # a stale file that another process removes between glob and stat
    glob = Path.glob
    monkeypatch.setattr(Path, "glob", lambda self, pattern: [
        self / "_step-gone.so", *glob(self, pattern)])
    target = kernel.build()
    assert cached_files(empty_cache) == sorted([fresh.name, target.name])
    # a cache hit prunes nothing
    os.utime(fresh, (month_ago, month_ago))
    assert kernel.build() == target
    assert cached_files(empty_cache) == sorted([fresh.name, target.name])


# Each function of the kernel module: the number of ints it takes, the
# Batch address first.
PASSES = {"steps": 3, "emergent_sense": 2,
          "prediction_hidden": 1, "prediction_output": 1,
          "action_hidden": 1, "action_output": 1}


def test_load_imports_the_module_once():
    module = kernel.load()
    assert kernel.load() is module
    assert {name for name in dir(module)
            if not name.startswith("_")} == set(PASSES)


@pytest.mark.parametrize("name, arity", PASSES.items())
def test_bad_arguments_raise_before_the_pass_runs(name, arity):
    # The batch address 0 is never read: the checks come first.
    fn = getattr(kernel.load(), name)
    for count in (arity - 1, arity + 1):
        with pytest.raises(TypeError, match=f"takes {arity} arguments"):
            fn(*[0] * count)
    for i in range(arity):
        for bad in (1.0, "1", None):
            args = [0] * arity
            args[i] = bad
            with pytest.raises(TypeError):
                fn(*args)


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


def test_batch_rejects_an_unknown_field_name():
    # Fields are bound by name: a misspelt one must not leave the real
    # field's pointer NULL for the kernel to read.
    with pytest.raises(AttributeError):
        kernel.Batch(ocupancy=0)


def test_c_constants_match_python():
    # The kernel's enum restates the grid codes and the network sizes; a
    # value changed on one side only would misread the shared arrays.
    body = re.search(r"enum {(.*?)};", kernel.SOURCE.read_text(), re.S).group(1)
    constants = {name: int(value) for name, value in
                 re.findall(r"(\w+)\s*=\s*(\d+)", body)}
    assert constants == {
        "FREE": simulation._FREE, "ROBOT": simulation._ROBOT,
        "BLOCK": simulation._BLOCK, "SENSORS": len(SENSOR_FRAME),
        "SENSOR_BITS": SENSOR_COUNT, "INPUTS": NET_INPUTS,
        "HIDDEN": HIDDEN_UNITS,
    }


def test_compile_command_keeps_ieee_float_semantics():
    # Without -ffp-contract=off gcc fuses a * b + c into one FMA wherever
    # the target has FMA in its baseline, as aarch64 does, and the
    # prediction net's hidden layer would no longer match the reference's
    # two roundings; x86-64 runs would still pass. Fast math reorders sums,
    # and -march would tie the library to the build host's CPU.
    command = kernel.compile_command()
    assert "-ffp-contract=off" in command
    assert not [flag for flag in command
                if flag in ("-ffast-math", "-Ofast")
                or flag.startswith("-march")]


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


@pytest.mark.parametrize("value", ["relative/cache", ""])
def test_a_relative_or_empty_cache_home_means_the_home_cache(
        value, tmp_path, monkeypatch):
    # XDG: a relative $XDG_CACHE_HOME is invalid and must be ignored
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", value)
    path = kernel.library_path(b"", kernel.compile_command())
    assert path.parent == tmp_path / ".cache" / "minsurprise"


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
