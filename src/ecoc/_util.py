"""Small shared helpers: row normalization, config key declarations and
checks, atomic and forked file writes, float formatting, CSV rows."""

from __future__ import annotations

import os
import shutil
import tempfile
import warnings
from contextlib import contextmanager, suppress
from dataclasses import MISSING, Field, field
from itertools import groupby
from operator import itemgetter
from typing import Callable, Iterator

import numpy as np

# Rows whose L2 norm is at or below this cannot be normalized.
EPS_NORM = 1e-12
# Elements per block of row-blocked work (format_rows, block_rows); bounds
# its temporaries.
ROW_BLOCK_ELEMS = 1 << 16
# block_rows gives whole multiples of this many rows.
_ROW_QUANTUM = 64
# format_rows splices a row block from one template row when one value fills
# at least this share of its entries.
COMMON_SHARE = 0.9
# ASCII separators that numpy's reader strips from a value as whitespace,
# and float() does not.
_FLOAT_REJECTS = "\x1c\x1d\x1e\x1f"


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


class BadRowsError(ValueError):
    """Rows that a check refused.  ``rows`` lists their indices and ``row``
    is the first.  ``check`` names the check they failed: ``"zero"`` or
    ``"non-finite"`` norm (:func:`unit_rows`), ``"one-hot"`` or ``"sign"``
    (``CodeMatrix``).  ``noun``, if given (say ``"codewords"``), names what
    the rows are, and the message ends by naming them, as
    ``(codewords [2, 5])``."""

    def __init__(self, message: str, check: str, bad: np.ndarray, noun: str | None = None):
        self.rows = np.flatnonzero(bad).tolist()
        self.row, self.check, self.noun = self.rows[0], check, noun
        super().__init__(message if noun is None else f"{message} ({noun} {self.rows})")


def unit_rows(z: np.ndarray, noun: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Each row of z divided by its L2 norm, plus the norms.

    Rejects with :class:`BadRowsError` (near-)zero rows, and rows whose norm
    is not finite: rows holding inf or NaN, and finite rows whose squares
    overflow (entries above about 1e154), which would divide to zero.
    ``noun`` words the message.  Whether the overflow also warns is left to
    the caller's ``np.errstate``: the training loop sets it once, not per
    batch.  A batch with both kinds of bad row reports its zero rows.
    """
    norms = np.sqrt(np.add.reduce(z * z, axis=1))
    # One test for the common case: the smallest norm is above EPS_NORM
    # and the sum is finite, which a finite norm (below 2**512) cannot
    # spoil; a NaN fails both.  The checks are rerun only to word a failure.
    if not (np.minimum.reduce(norms, initial=np.inf) > EPS_NORM
            and np.add.reduce(norms) < np.inf):
        zero = norms <= EPS_NORM
        if zero.any():
            raise BadRowsError("cannot normalize a zero vector", "zero", zero, noun)
        raise BadRowsError("cannot normalize a vector whose norm is not finite", "non-finite",
                           ~np.isfinite(norms), noun)
    return z / norms[:, None], norms


def frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only.  For a fresh array handed to a frozen
    dataclass, which keeps a read-only array as it is and copies a
    writable one."""
    a.setflags(write=False)
    return a


class BadKeyError(ValueError):
    """A refused value of the parameter or config key ``key``; the message
    is ``key problem``.  The CLI names a library parameter by the config
    key or flag that sets it."""

    def __init__(self, key: str, problem: str):
        super().__init__(f"{key} {problem}")
        self.key, self.problem = key, problem


def declared(allowed: str | tuple[str, ...], default=MISSING) -> Field:
    """A config dataclass field whose allowed values are ``allowed``: an
    interval such as ``"[1, inf)"`` or ``"(0, 1]"``, or a tuple of choices.
    :func:`check_declared` checks a value against it."""
    return field(default=default, metadata={"allowed": allowed})


def check_declared(f: Field, value) -> None:
    """Refuse a value of the field ``f`` outside its declared allowed values
    (see :func:`declared`) with :class:`BadKeyError` naming the field.
    None, and any value of an undeclared field, pass; each entry of a
    ``tuple[int, ...]`` value must lie in the interval.

    The words come from the field's declared type, not the value's: an
    interval unbounded above reads ``must be >= 1`` for an int,
    ``must be finite and > 0`` for a float and ``must be >= 1 each`` for a
    tuple; a bounded one reads ``must be in (0, 1]``.  An int's high end is
    a cap on a count, so a bounded int interval reads ``must be in [1,
    100000]`` only to a value above it, and ``must be >= 1`` below it.
    """
    allowed = f.metadata.get("allowed")
    if value is None or allowed is None:
        return
    if isinstance(allowed, tuple):
        if value not in allowed:
            raise BadKeyError(f.name, f"must be one of {', '.join(allowed)}, got {value!r}")
        return
    low, high = allowed[1:-1].split(", ")
    closed_low, closed_high = allowed[0] == "[", allowed[-1] == "]"
    kind = f.type.removesuffix(" | None")
    each = kind == "tuple[int, ...]"
    values = value if each else (value,)
    above_low = all(float(low) <= v if closed_low else float(low) < v for v in values)
    if above_low and all(v <= float(high) if closed_high else v < float(high) for v in values):
        return
    shown = ",".join(map(str, value)) if each else value
    if high != "inf" and (above_low or kind == "float"):
        raise BadKeyError(f.name, f"must be in {allowed}, got {shown}")
    finite = "finite and " if kind == "float" else ""
    raise BadKeyError(f.name, f"must be {finite}{'>=' if closed_low else '>'} {low}"
                              f"{' each' if each else ''}, got {shown}")


def check_seed(seed: int) -> None:
    """Reject a negative seed, keyed ``seed``, before numpy's RNG sees it."""
    if seed < 0:
        raise BadKeyError("seed", f"must be >= 0, got {seed}")


def check_fits(factors: tuple[tuple[str, int], ...], shape: str, noun: str) -> None:
    """Refuse float64 values whose bytes pass ``np.intp``'s maximum, the
    most one numpy array can hold: 8 bytes times each ``(key, count)`` of
    ``factors`` in turn, taken in Python ints, so the product cannot wrap.
    The :class:`BadKeyError` is keyed by the factor that carries the product
    past the limit, and reads ``gives {shape} {noun} values of 8 bytes,
    more than an array can hold ({limit} bytes)``."""
    limit = np.iinfo(np.intp).max
    product = 8
    for key, count in factors:
        product *= int(count)
        if product > limit:
            raise BadKeyError(key, f"gives {shape} {noun} values of 8 bytes, more than an array "
                                   f"can hold ({limit} bytes)")


def check_code_size(n: int, k: int | None = None, k_key: str = "k") -> None:
    """Reject fewer than 2 classes, then (if ``k`` is given) fewer than 1
    code bit, and n x k float64 code values past one array
    (:func:`check_fits`): the size rule of every code and similarity graph,
    checked before anything is allocated.  The last is keyed ``n``, or
    ``k_key``, which a one-hot code, whose k is its n, sets to ``n``."""
    if n < 2:
        raise ValueError(f"need at least 2 classes, got n={n}")
    if k is None:
        return
    if k < 1:
        raise ValueError(f"need at least 1 code bit, got k={k}")
    check_fits((("n", n), (k_key, k)), f"{n} x {k}", "code")


def check_labels(labels: np.ndarray, n: int, noun: str = "labels") -> None:
    """Reject class ids that are not of an integer dtype (floats, even whole
    ones, and bools), then any id outside [0, n); ``noun`` names them in
    the message.  An empty array passes, whatever its dtype."""
    if not labels.size:
        return
    if labels.dtype.kind not in "iu":
        raise ValueError(f"{noun} must be integers, got {labels.dtype}")
    if np.minimum.reduce(labels, axis=None) < 0 or np.maximum.reduce(labels, axis=None) >= n:
        raise ValueError(f"{noun} out of range for {n} classes")


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite, with no temporary the size of
    ``a``: a NaN makes both extremes NaN, and an infinity one of them."""
    return bool(np.isfinite(np.min(a, initial=0.0)) and np.isfinite(np.max(a, initial=0.0)))


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(x))


def _common(block: np.ndarray) -> tuple[list, np.ndarray] | None:
    """What two probes of a non-empty block find: ``([v], same)`` when the
    entry ``v`` fills at least ``COMMON_SHARE`` of the block, ``([v, w],
    same)`` when the block holds exactly two values, ``v`` at ``same`` and
    ``w`` everywhere else, and None otherwise, for a block that
    :func:`format_rows` writes entry by entry.  Values are Python numbers.

    Entries are compared by bit pattern, so ``-0.0`` is not ``0.0``.  The
    first probe takes the block's first entry; where it misses the share,
    the second takes the first entry that differs from it, which finds the
    common value of a one-hot block, whose first row starts with a 1, and
    the other value of a two-valued one, such as a +-1 code's rows.  A
    block whose first two distinct entries are both rare is not spliced.
    """
    keys = block.view(np.uint64) if block.dtype.kind == "f" else block
    need = COMMON_SHARE * block.size
    same = keys == keys.flat[0]
    count = np.count_nonzero(same)
    if count >= need:
        return [block.flat[0].item()], same
    second = int(np.argmin(same))
    other = keys == keys.flat[second]
    rest = np.count_nonzero(other)
    if rest >= need:
        return [block.flat[second].item()], other
    if count + rest == block.size:
        return [block.flat[0].item(), block.flat[second].item()], same
    return None


def _spliced_rows(block: np.ndarray, common: object, same: np.ndarray) -> list[str]:
    """CSV lines of a block in which ``common`` fills the ``same`` places:
    one template row of its token, and for each row holding other entries
    one join of template slices around their tokens."""
    token = repr(common)
    template = ",".join([token] * block.shape[1])
    lines = [template] * block.shape[0]
    # a flat index is ten times faster to find than a 2-d one
    rows, cols = np.divmod(np.flatnonzero(~same), block.shape[1])
    starts = (cols * (len(token) + 1)).tolist()
    tokens = map(repr, block[rows, cols].tolist())
    for row, cells in groupby(zip(rows.tolist(), starts, tokens), key=itemgetter(0)):
        pieces, end = [], 0
        for _, start, text in cells:
            pieces += (template[end:start], text)
            end = start + len(token)
        pieces.append(template[end:])
        lines[row] = "".join(pieces)
    return lines


def format_rows(
    values: np.ndarray, row_labels: np.ndarray | None = None
) -> Iterator[str]:
    """CSV text of a 2-d array, one line per row, yielded a block of rows
    at a time.

    Float entries print as :func:`fmt_float` (``repr``), integer entries as
    ``str``.  ``row_labels``, if given, are integers written first on each
    line.  Each block of about ``ROW_BLOCK_ELEMS`` entries takes one of three
    rules, by what :func:`_common`'s probes find.  A block in which one
    value fills at least ``COMMON_SHARE`` of the entries (one-hot codes,
    sparse 0/1 attributes, confusion counts at large n) is spliced from one
    template row (:func:`_spliced_rows`).  A block of exactly two values (a
    +-1 code's rows, denser 0/1 attributes) formats each value once and
    indexes the two strings by the probes' mask.  Any other block formats
    each entry in turn.  No rule sorts.  Write the blocks as they come
    (``fh.writelines(format_rows(...))``) to keep memory bounded.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {values.shape}")
    if values.dtype.kind not in "fiu":
        raise TypeError(f"cannot format values of dtype {values.dtype}")
    if values.dtype.kind == "f":  # 64-bit floats, for the bit-pattern keys
        values = values.astype(np.float64, copy=False)
    if row_labels is not None:
        row_labels = np.asarray(row_labels, dtype=np.int64)
    step = max(1, ROW_BLOCK_ELEMS // max(1, values.shape[1]))
    for start in range(0, values.shape[0], step):
        block = values[start : start + step]
        found = _common(block) if block.size else None
        if found is not None and len(found[0]) == 1:
            rows = _spliced_rows(block, found[0][0], found[1])
        elif found is not None:  # two values: index 1 where the first one is
            # repr of a Python int is its str
            text = np.array(list(map(repr, found[0][::-1])), dtype=object)
            rows = [",".join(r) for r in text[found[1].view(np.uint8)].tolist()]
        else:
            rows = [",".join(map(repr, row)) for row in block.tolist()]
        if row_labels is not None:
            labels = row_labels[start : start + step].tolist()
            rows = [f"{label},{row}" for label, row in zip(labels, rows)]
        yield "\n".join(rows) + "\n"


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, which end at ``\\n``, ``\\r\\n`` or ``\\r``
    only (not at the other breaks ``str.splitlines`` knows, such as a form
    feed or U+2028); a final line end starts no empty line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def read_lines(path: str) -> list[str]:
    """The lines of a text file, as :func:`split_lines` splits them.

    Bytes the text encoding cannot decode raise ValueError naming
    ``path:line``.
    """
    try:
        with open(path, "r", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        head = exc.object[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        byte = exc.object[exc.start]
        raise ValueError(f"{path}:{line}: cannot decode byte {byte:#04x} as {exc.encoding}: "
                         f"{exc.reason}") from None
    return split_lines(text)


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
    a row of no values, as :func:`format_rows` writes it.  numpy's C reader
    (``np.loadtxt``) parses the rows, converting each value as ``float``
    does, so an accepted file gives the same bits.  Where it fails (it
    raises or warns, skips a blank line, finds another width, or would strip
    a character that ``float`` keeps), the per-line loop
    :func:`_parse_rows_per_line` parses them with ``float``: it reads what
    only ``float`` takes, such as ``1_0``, and words the errors.  A row of
    another width, a value ``float`` rejects or, with ``finite``, a
    non-finite value raises ValueError naming ``path:line``; ``noun`` and
    ``unit`` word it.
    """
    if width is None:
        width = lines[0].count(",") + 1 if lines else 0
    elif lines and width > len(lines[0]) + 1:  # too many for line 1: fail before allocating
        found = lines[0].count(",") + 1
        raise ValueError(f"{path}:{first_line}: expected {width} {unit}, found {found}")
    values = None
    text = "\n".join(lines)
    if lines and width and not any(c in text for c in _FLOAT_REJECTS):
        with warnings.catch_warnings():
            # numpy warns "input contained no data" when every line is blank
            warnings.simplefilter("error")
            try:
                values = np.loadtxt(lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
            except (ValueError, Warning):
                pass
    if values is None or values.shape != (len(lines), width):
        values = _parse_rows_per_line(path, lines, first_line, noun, width, unit)
    if finite:
        check_rows(path, np.isfinite(values).all(axis=1), first_line, f"non-finite {noun} value")
    return values


def _parse_rows_per_line(path: str, lines: list[str], first_line: int, noun: str, width: int,
                         unit: str) -> np.ndarray:
    """:func:`parse_rows`' per-line loop: the rows as float64, or ValueError
    ``path:line`` at the first row of another width or with a value
    ``float`` rejects."""
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


def _fork_writer(jobs: list[tuple[Callable, object, str]]) -> int | None:
    """Fork a child that runs each ``save(obj, path)`` of ``jobs`` and exits
    with status 0 when every save returns, 1 when one raises; its pid, or
    None where ``os.fork`` is missing or fails.

    The child leaves only through ``os._exit``, so it runs no exit handlers
    and flushes none of the parent's buffers.
    """
    fork = getattr(os, "fork", None)
    if fork is None:
        return None
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when BLAS worker threads are running; they
            # cannot deadlock the child, which calls no BLAS.
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = fork()
    except OSError:
        return None
    if pid == 0:
        status = 1
        try:
            for save, obj, path in jobs:
                save(obj, path)
            status = 0
        finally:
            os._exit(status)
    return pid


@contextmanager
def forked_writes(directory: str, writes: list[tuple[Callable, object, str]]) -> Iterator[str]:
    """Stage files in one directory while the ``with`` block runs; put them
    all in place only if the block succeeds.

    Entry makes a ``.tmp-*~`` staging directory in ``directory`` and forks a
    child that runs each ``(save, obj, name)`` of ``writes`` as
    ``save(obj, stage/name)``; ``save`` must call no BLAS.  The block gets
    the stage's path and writes its own files there.  When the block ends,
    the child is joined.  Where it exited with status 1 (a save raised), or
    where ``os.fork`` is missing or fails, the same saves run again
    in-process, so a fault is raised by the write itself, with its own
    class and text; a save that fails only in the child leaves no trace.
    Any other status, such as a signal's, raises OSError.  Then every
    staged file is renamed into ``directory``, in name order.  On any
    failure the child is reaped and the stage removed, so no file in
    ``directory`` is created or replaced, unless a rename itself fails
    part-way.
    """
    stage = tempfile.mkdtemp(dir=directory, prefix=".tmp-", suffix="~")
    child = None
    try:
        jobs = [(save, obj, os.path.join(stage, name)) for save, obj, name in writes]
        child = _fork_writer(jobs)
        yield stage
        joined, child = child, None
        status = 1 if joined is None else os.waitstatus_to_exitcode(os.waitpid(joined, 0)[1])
        if status not in (0, 1):
            raise OSError(f"artifact writer exited with status {status}")
        if status:
            for save, obj, path in jobs:
                save(obj, path)
        for name in sorted(os.listdir(stage)):
            os.replace(os.path.join(stage, name), os.path.join(directory, name))
    finally:
        if child is not None:  # the block raised: reap the child
            os.waitpid(child, 0)
        shutil.rmtree(stage, ignore_errors=True)
