"""C text from Python arithmetic, compiled once per text and cached on disk.

:func:`c_lines` translates straight-line float arithmetic (the templates
of ``dynamics.RhsSource``: the RHS, the per-sample series and the event
values of ``integrator``) into C with the same operations in the same
order, or raises :class:`NotC` for anything else. :func:`load` compiles C
translation units with the system compiler (``$CC``, else ``cc``) into one
shared library and loads it with ctypes. The library is cached in
``$XDG_CACHE_HOME/momentous`` (else ``~/.cache/momentous``), named by a
64-bit checksum (CRC-32 and Adler-32) of the units' text, the compiler's
path and the flags; it is built in a temporary directory and renamed into
place, so processes that build the same text at once each load a whole
file. A load refreshes the library's mtime, and a build deletes the least
recently loaded libraries beyond the ``CACHE_SIZE`` newest; a library
deleted while another process was about to load it is built again there.

The flags keep IEEE double semantics: ``-ffp-contract=off`` forbids fused
multiply-adds, and nothing like ``-ffast-math`` or ``-march`` is ever used,
so each operation rounds as Python's float operations do.
"""

from __future__ import annotations

import ast
import ctypes
import math
import os
import shlex
import shutil
import zlib
from pathlib import Path
from typing import Optional, Sequence

__all__ = ["CACHE_SIZE", "FLAGS", "NotC", "c_lines", "cache_dir", "load"]

FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
# A compile takes well under a second; a compiler that hangs is given up on.
COMPILE_TIMEOUT_S = 120
# The most libraries the cache keeps, each about 24 kB: every new kernel
# text (a new model, event set or version of the loop) adds one.
CACHE_SIZE = 64


class NotC(ValueError):
    """Source with no exact C translation."""


_OPERATORS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


def _translate(node: ast.expr, names, arrays) -> str:
    def c(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _OPERATORS:
            return f"({c(node.left)} {_OPERATORS[type(node.op)]} {c(node.right)})"
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return f"(-{c(node.operand)})"
        if isinstance(node, ast.Constant) and type(node.value) is float:
            if not math.isfinite(node.value):
                raise NotC(f"non-finite literal {node.value!r}")
            return repr(node.value)  # the shortest text that reads back exactly
        if isinstance(node, ast.Name) and node.id in names:
            return node.id
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in arrays and isinstance(node.slice, ast.Constant)
                and type(node.slice.value) is int and node.slice.value >= 0):
            return f"{node.value.id}[{node.slice.value}]"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "fabs" and len(node.args) == 1 and not node.keywords):
            return f"fabs({c(node.args[0])})"
        raise NotC(f"no C translation for {ast.unparse(node)!r}")

    return c(node)


def c_lines(source: str, names, arrays) -> list[str]:
    """Python assignments ``target = expression``, one per line, as C
    statements: a declaration of every plain name they assign, then the
    statements; a target is a new plain name or an array entry.

    An expression may read the names in ``names``, the plain names assigned
    before it, entries ``a[i]`` (a literal ``i``) of the arrays in
    ``arrays``, float literals and ``fabs(x)``, and combine them with ``+ -
    * /`` and unary minus, each fully parenthesized. ``/`` is C's, which
    gives an inf or a nan where Python raises ZeroDivisionError, so the
    translation is exact for a source that never divides by zero: the
    contract of :class:`dynamics.RhsSource`, which says why model templates
    keep it.
    """
    try:
        statements = ast.parse(source, mode="exec").body
    except SyntaxError as exc:
        raise NotC(str(exc)) from None
    known, local, lines = set(names), [], []
    for statement in statements:
        if not (isinstance(statement, ast.Assign) and len(statement.targets) == 1):
            raise NotC(f"not one assignment: {ast.unparse(statement)!r}")
        value = _translate(statement.value, known, arrays)
        target = statement.targets[0]
        if isinstance(target, ast.Name) and target.id not in names and target.id not in arrays:
            if target.id not in known:
                known.add(target.id)
                local.append(target.id)
            target_text = target.id
        else:
            target_text = _translate(target, (), arrays)  # an array entry
        lines.append(f"{target_text} = {value};")
    return ([f"double {', '.join(local)};"] if local else []) + lines


def cache_dir() -> Optional[Path]:
    """``$XDG_CACHE_HOME/momentous``, else ``~/.cache/momentous``; None
    where neither is an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base, "momentous") if os.path.isabs(base) else None


def load(units: Sequence[str]) -> Optional[ctypes.CDLL]:
    """The shared library compiled from the C translation units ``units``,
    from the cache or built into it; None where no compiler is found or the
    compiler, the cache or the loader fails."""
    try:
        command = shlex.split(os.environ.get("CC") or "cc")
        compiler = shutil.which(command[0]) if command else None
        directory = cache_dir()
        if compiler is None or directory is None:
            return None
        command[0] = compiler
        key = "\0".join([*units, *command, *FLAGS]).encode()
        path = directory / f"kernel-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
        try:
            library = ctypes.CDLL(str(path))
        except OSError:  # not built yet, or not loadable: build it afresh
            _build(units, command, path)
            _prune(directory)
            return ctypes.CDLL(str(path))
    except (OSError, ValueError):
        return None
    try:
        os.utime(path)  # the least recently loaded libraries go first
    except OSError:  # deleted by another process since: the library is loaded
        pass
    return library


def _prune(directory: Path) -> None:
    """Delete the ``kernel-*.so`` libraries in ``directory`` beyond the
    ``CACHE_SIZE`` most recently loaded (newest mtime); a file that cannot
    be read or deleted, as another process deleted it first, is passed
    over."""
    libraries = []
    for path in directory.glob("kernel-*.so"):
        try:
            libraries.append((path.stat().st_mtime_ns, path.name, path))
        except OSError:
            pass
    libraries.sort(reverse=True)
    for _, _, path in libraries[CACHE_SIZE:]:
        try:
            path.unlink()
        except OSError:
            pass


def _build(units: Sequence[str], command: list, path: Path) -> None:
    """Compile ``units`` into ``path`` in a temporary directory beside it,
    which no outcome leaves behind. The compiler takes one unit at a time,
    so its memory is that of the largest unit. Raises OSError where it
    fails."""
    # Imported here, as only a cold cache compiles: subprocess costs a
    # process that never compiles about 0.5 MB.
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=path.parent, prefix=f"{path.stem}-",
                                     suffix=".tmp") as work:
        sources = []
        for n, unit in enumerate(units):
            sources.append(os.path.join(work, f"unit{n}.c"))
            with open(sources[-1], "w", encoding="utf-8") as fh:
                fh.write(unit)
        built = os.path.join(work, path.name)
        try:
            subprocess.run([*command, *FLAGS, "-o", built, *sources, "-lm"],
                           stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, check=True, timeout=COMPILE_TIMEOUT_S)
        except subprocess.SubprocessError as exc:
            raise OSError(f"compiling the kernel failed: {exc}") from None
        os.replace(built, path)
