"""Small shared helpers: row normalization, atomic and forked file writes,
float formatting, CSV rows."""

from __future__ import annotations

import builtins
import os
import shutil
import tempfile
import warnings
from contextlib import contextmanager, suppress
from typing import Callable, Iterator

import numpy as np

# Rows whose L2 norm is at or below this cannot be normalized.
EPS_NORM = 1e-12
# Elements per block of row-blocked work (format_rows, block_rows); bounds
# its temporaries.
ROW_BLOCK_ELEMS = 1 << 16
# block_rows gives whole multiples of this many rows.
_ROW_QUANTUM = 64
# Bit pattern of -0.0, which equals its int64 cast but prints with a sign.
_NEG_ZERO = np.uint64(1 << 63)
_WIDE_DTYPE = {"f": np.float64, "i": np.int64, "u": np.uint64}


def block_rows(n: int) -> int:
    """Rows per block of work against ``n`` columns: about
    ``ROW_BLOCK_ELEMS`` (rows, n) entries, rounded down to whole multiples
    of ``_ROW_QUANTUM`` rows, and at least one quantum.

    At large n a block is 64 rows and its panel stays in cache; at small n
    one block covers a whole batch or matrix, so the fixed cost per block is
    paid once.  A block's bits need not match a whole-matrix product: BLAS
    may sum in another order for other shapes.
    """
    rows = ROW_BLOCK_ELEMS // max(1, n) // _ROW_QUANTUM * _ROW_QUANTUM
    return max(_ROW_QUANTUM, rows)


def unit_rows(z: np.ndarray, noun: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row of z divided by its L2 norm, plus the norms.

    Rejects with ValueError (near-)zero rows, and rows whose norm is not
    finite: rows holding inf or NaN, and finite rows whose squares overflow
    (entries above about 1e154), which would divide to zero.  Given
    ``noun`` (say ``"codewords"``), the message ends by naming the rows,
    as ``(codewords [2, 5])``.  Whether the overflow also warns is left to
    the caller's ``np.errstate``: the training loop sets it once, not per
    batch.
    """
    norms = np.sqrt(np.add.reduce(z * z, axis=1))
    zero = norms <= EPS_NORM
    if zero.any():
        _reject_rows("cannot normalize a zero vector", zero, noun)
    # a finite norm is below 2**512, so the sum is finite only if each is
    if not np.isfinite(np.add.reduce(norms)):
        _reject_rows("cannot normalize a vector whose norm is not finite", ~np.isfinite(norms), noun)
    return z / norms[:, None], norms


def _reject_rows(message: str, bad: np.ndarray, noun: str | None) -> None:
    """Raise ValueError ``message``, naming the ``bad`` rows after ``noun``."""
    if noun is not None:
        message += f" ({noun} {np.flatnonzero(bad).tolist()})"
    raise ValueError(message)


def frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only.  For a fresh array handed to a frozen
    dataclass, which keeps a read-only array as it is and copies a
    writable one."""
    a.setflags(write=False)
    return a


def check_seed(seed: int, name: str = "seed") -> None:
    """Reject a negative seed by name, before numpy's RNG sees it."""
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(x))


def _distinct(block: np.ndarray) -> tuple[list, np.ndarray]:
    """Distinct entries of a block, as Python numbers, and the index of each
    entry among them.

    A block of integers spanning no more values than it has entries (int
    dtypes, or floats equal to their int64 cast and holding no ``-0.0``) is
    indexed directly, by a presence table over its range; any other block
    goes through ``np.unique``, floats keyed on their bit pattern so that
    ``-0.0`` keeps its sign.
    """
    is_float = block.dtype.kind == "f"
    if block.size:
        ints = block
        if is_float:
            with np.errstate(invalid="ignore"):
                ints = block.astype(np.int64)
            if not (ints == block).all() or (block.view(np.uint64) == _NEG_ZERO).any():
                ints = None
        if ints is not None:
            lo, hi = int(ints.min()), int(ints.max())
            if hi - lo < block.size:
                offsets = ints - lo
                present = np.zeros(hi - lo + 1, dtype=bool)
                present[offsets] = True
                rank = np.cumsum(present) - 1
                distinct = [lo + j for j in np.flatnonzero(present).tolist()]
                return list(map(float, distinct)) if is_float else distinct, rank[offsets]
    if is_float:
        keys, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        return keys.view(np.float64).tolist(), inverse.reshape(block.shape)
    distinct, inverse = np.unique(block, return_inverse=True)
    return distinct.tolist(), inverse.reshape(block.shape)


def format_rows(
    values: np.ndarray, row_labels: np.ndarray | None = None
) -> Iterator[str]:
    """CSV text of a 2-d array, one line per row, yielded a block of rows
    at a time.

    Float entries print as :func:`fmt_float` (``repr``), integer entries as
    ``str``.  ``row_labels``, if given, are integers written first on each
    line.  Each block of about ``ROW_BLOCK_ELEMS`` entries formats every
    distinct value once (:func:`_distinct`) and indexes the strings.  Write
    the blocks as they come (``fh.writelines(format_rows(...))``) to keep
    memory bounded.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {values.shape}")
    if values.dtype.kind not in "fiu":
        raise TypeError(f"cannot format values of dtype {values.dtype}")
    # 64-bit entries, so a block's offsets from its minimum cannot overflow
    values = values.astype(_WIDE_DTYPE[values.dtype.kind], copy=False)
    if row_labels is not None:
        row_labels = np.asarray(row_labels, dtype=np.int64)
    step = max(1, ROW_BLOCK_ELEMS // max(1, values.shape[1]))
    for start in range(0, values.shape[0], step):
        block = values[start : start + step]
        distinct, inverse = _distinct(block)
        # repr of a Python int is its str
        text = np.array(list(map(repr, distinct)), dtype=object)
        rows = [",".join(r) for r in text[inverse].tolist()]
        if row_labels is not None:
            labels = row_labels[start : start + step].tolist()
            rows = [f"{label},{row}" for label, row in zip(labels, rows)]
        yield "\n".join(rows) + "\n"


def read_lines(path: str) -> list[str]:
    """The lines of a text file, without their line endings."""
    with open(path, "r", newline="") as fh:
        return fh.read().splitlines()


def check_rows(path: str, ok: np.ndarray, first_line: int, message: str) -> None:
    """Raise ValueError ``path:line: message`` at the first row whose ``ok``
    is False; row ``i`` is line ``first_line + i``."""
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise ValueError(f"{path}:{first_line + bad[0]}: {message}")


def parse_rows(path: str, lines: list[str], first_line: int, noun: str, width: int | None = None,
               unit: str = "values", finite: bool = True) -> np.ndarray:
    """Comma-separated float rows, ``lines[i]`` being line ``first_line + i``
    of ``path``, as a ``(len(lines), width)`` float64 array.

    ``width`` defaults to the first row's; with ``width`` 0 an empty line is
    a row of no values, as :func:`format_rows` writes it.  numpy applies
    ``float`` to each string as a row goes into the array.  A row of another
    width, a value ``float`` rejects or, with ``finite``, a non-finite value
    raises ValueError naming ``path:line``; ``noun`` and ``unit`` word it.
    """
    if width is None:
        width = lines[0].count(",") + 1 if lines else 0
    elif lines and width > len(lines[0]) + 1:  # too many for line 1: fail before allocating
        found = lines[0].count(",") + 1
        raise ValueError(f"{path}:{first_line}: expected {width} {unit}, found {found}")
    values = np.empty((len(lines), width))
    for i, line in enumerate(lines):
        parts = line.split(",") if line or width else []
        if len(parts) != width:
            raise ValueError(
                f"{path}:{first_line + i}: expected {width} {unit}, found {len(parts)}"
            )
        try:
            values[i] = parts
        except ValueError:
            raise ValueError(f"{path}:{first_line + i}: non-numeric {noun} value") from None
    if finite:
        check_rows(path, np.isfinite(values).all(axis=1), first_line, f"non-finite {noun} value")
    return values


@contextmanager
def atomic_write(path: str, binary: bool = False):
    """Write to a temp file in the target directory, then rename into place.

    Interrupted runs never leave a truncated file at `path`.  The file gets
    the mode a plain ``open`` would give it, ``0o666`` less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        mode = "wb" if binary else "w"
        with os.fdopen(fd, mode, newline=None if binary else "") as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _fork_writer(jobs: list[tuple[Callable, object, str]]) -> tuple[int, int] | None:
    """Fork a child that runs each ``save(obj, path)`` of ``jobs``; its pid
    and the read end of a pipe that carries the builtin class name and text
    of any exception it meets, or None where ``os.fork`` is missing or fails.

    The child leaves only through ``os._exit``, so it runs no exit handlers
    and flushes none of the parent's buffers.
    """
    fork = getattr(os, "fork", None)
    if fork is None:
        return None
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when BLAS worker threads are running; they
            # cannot deadlock the child, which calls no BLAS.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            for save, obj, path in jobs:
                save(obj, path)
            status = 0
        except BaseException as exc:
            # the nearest builtin class, which callers dispatch on
            # (MemoryError for numpy's _ArrayMemoryError)
            base = next(c for c in type(exc).__mro__ if c.__module__ == "builtins")
            with os.fdopen(write_end, "wb") as pipe:
                pipe.write(f"{base.__name__}\n{exc}".encode(errors="surrogatepass"))
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _join_writer(child: tuple[int, int]) -> BaseException | None:
    """Wait for a :func:`_fork_writer` child to exit; the exception it
    reported, rebuilt with the same text as its builtin class (or the
    nearest base that takes one argument), if any."""
    pid, read_end = child
    with os.fdopen(read_end, "rb") as pipe:
        report = pipe.read().decode(errors="surrogatepass")
    _, status = os.waitpid(pid, 0)
    if report:
        name, _, text = report.partition("\n")
        for cls in getattr(builtins, name).__mro__:  # UnicodeError subclasses take five
            with suppress(TypeError):
                return cls(text)
    if status:
        return OSError(f"artifact writer exited with status {os.waitstatus_to_exitcode(status)}")
    return None


@contextmanager
def forked_writes(directory: str, writes: list[tuple[Callable, object, str]]) -> Iterator[str]:
    """Stage files in one directory while the ``with`` block runs; put them
    all in place only if the block succeeds.

    Entry makes a ``.tmp-*~`` staging directory in ``directory`` and forks a
    child that runs each ``(save, obj, name)`` of ``writes`` as
    ``save(obj, stage/name)``; ``save`` must call no BLAS.  The block gets
    the stage's path and writes its own files there.  When the block ends,
    the child is joined; an exception it met is raised here as its builtin
    class with its text, so callers see what an in-process ``save`` would
    raise.  Then every staged file is renamed into ``directory``, in name
    order.  On any failure the child is reaped and the stage removed, so no
    file in ``directory`` is created or replaced, unless a rename itself
    fails part-way.  Where ``os.fork`` is missing or fails, the same writes
    run in-process when the block ends.
    """
    stage = tempfile.mkdtemp(dir=directory, prefix=".tmp-", suffix="~")
    child = None
    try:
        jobs = [(save, obj, os.path.join(stage, name)) for save, obj, name in writes]
        child = _fork_writer(jobs)
        yield stage
        if child is None:
            for save, obj, path in jobs:
                save(obj, path)
        else:
            joined, child = child, None
            error = _join_writer(joined)
            if error is not None:
                raise error
        for name in sorted(os.listdir(stage)):
            os.replace(os.path.join(stage, name), os.path.join(directory, name))
    finally:
        if child is not None:  # the block raised: reap the child, drop its report
            _join_writer(child)
        shutil.rmtree(stage, ignore_errors=True)
