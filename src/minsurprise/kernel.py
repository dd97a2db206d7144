"""Build and load ``_step.c``, the engine's compiled step.

The source is a CPython extension module, ``_step``, that ships with the
package. It is compiled on first use with the interpreter's C compiler
(``sysconfig``'s CC) against the interpreter's headers (``Python.h``) into
the user cache dir, ``$XDG_CACHE_HOME/minsurprise``, or
``~/.cache/minsurprise`` unless that variable is an absolute path, under a
name keyed by the source, the compile command and the extension suffix.
The library is written to a temp file and renamed into place, so processes
that build at once never load a partial file. A build also deletes the
cached libraries built more than 30 days before it; a cache hit deletes
nothing.

Each of the module's functions takes the address of a ``Batch``,
``ctypes.addressof(batch)``, then its step numbers as ints; the caller
keeps the ``Batch`` and its arrays alive for the call. ``steps(batch, t0,
t1)`` actuates each world's steps t0 .. t1 - 1 before the next world's; the
others are passes of the emergent step.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import sysconfig
import time
from importlib.machinery import ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader
from pathlib import Path
from types import ModuleType
from typing import Optional

SOURCE = Path(__file__).with_name("_step.c")

_module: Optional[ModuleType] = None


class BuildError(Exception):
    """The step kernel could not be compiled."""


class Batch(ctypes.Structure):
    """``struct batch`` of _step.c: one call's shapes and array addresses,
    bound by field name; a field left out is 0 (NULL)."""

    __slots__ = ()  # a misspelt field name raises rather than binding nothing
    _fields_ = ([(name, ctypes.c_int64) for name in (
        "worlds", "robots", "cells", "genome_robots", "steps", "perm_size",
        "target")]
        + [(name, ctypes.c_void_p) for name in (
            "occ", "pos", "rh", "code", "sensed", "perms", "score",
            "decisions", "input_rows", "inputs", "out", "product", "hidden",
            "hidden_bias", "self_weight", "out_bias", "a_hidden_bias",
            "a_out_bias")])


def compile_command() -> list[str]:
    """The compiler and its flags, without the output and the source.
    -ffp-contract=off keeps a * b + c two rounded operations, as numpy
    computes them: a fused multiply-add would change the bits."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    return cc + ["-O2", "-ffp-contract=off", "-shared", "-fPIC",
                 "-I" + sysconfig.get_paths()["include"]]


def library_path(source: bytes, command: list[str]) -> Path:
    """Where the library built from source by command is cached."""
    key = hashlib.sha256(b"\0".join(
        [source, *map(str.encode, command),
         sysconfig.get_config_var("EXT_SUFFIX").encode()])).hexdigest()
    root = Path(os.environ.get("XDG_CACHE_HOME", ""))
    if not root.is_absolute():  # unset, empty, or relative (invalid by XDG)
        root = Path.home() / ".cache"
    return root / "minsurprise" / f"_step-{key}.so"


def build(source_path: Path = SOURCE) -> Path:
    """The cached library of source_path, compiled first if missing."""
    command = compile_command()
    target = library_path(source_path.read_bytes(), command)
    if target.exists():
        return target
    # imported here: it costs every process that finds the library cached
    # half a MiB of peak RSS
    import subprocess

    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        done = subprocess.run([*command, "-o", str(tmp), str(source_path)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            # gcc and clang open with a context line ("In function ...")
            lines = done.stderr.splitlines() or ["no output"]
            first = next((s for s in lines if "error" in s), lines[0])
            raise BuildError(f"{command[0]} failed on {source_path.name} "
                             f"(exit {done.returncode}): {first.strip()}")
        os.replace(tmp, target)
        cutoff = time.time() - 30 * 24 * 3600  # 30 days ago
        for old in target.parent.glob("_step-*.so"):
            try:
                if old != target and old.stat().st_mtime < cutoff:
                    old.unlink()
            except FileNotFoundError:  # another process removed it first
                pass
    except OSError as exc:
        raise BuildError(f"cannot compile {source_path.name} with "
                         f"{command[0]}: {exc}") from None
    finally:
        tmp.unlink(missing_ok=True)
    return target


def load() -> ModuleType:
    """The step kernel's module, built and imported on the first call of
    the process."""
    global _module
    if _module is None:
        loader = ExtensionFileLoader("_step", str(build()))
        module = module_from_spec(spec_from_loader(loader.name, loader))
        loader.exec_module(module)
        _module = module
    return _module
