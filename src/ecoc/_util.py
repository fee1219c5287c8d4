"""Small shared helpers: atomic file writes, float formatting and CSV rows."""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import Iterator

import numpy as np

# Elements formatted per block by format_rows; bounds its temporaries.
ROW_BLOCK_ELEMS = 1 << 16


def fmt_float(x: float) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(x))


def format_rows(
    values: np.ndarray, row_labels: np.ndarray | None = None
) -> Iterator[str]:
    """CSV text of a 2-d array, one line per row, yielded a block of rows
    at a time.

    Float entries print as :func:`fmt_float` (``repr``), integer entries as
    ``str``.  ``row_labels``, if given, are integers written first on each
    line.  Each block of about ``ROW_BLOCK_ELEMS`` entries formats every
    distinct value once and indexes the strings; floats are keyed on their
    bit pattern, so ``-0.0`` keeps its sign.  Write the blocks as they come
    (``fh.writelines(format_rows(...))``) to keep memory bounded.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {values.shape}")
    if values.dtype.kind == "f":
        keys = values.astype(np.float64, copy=False).view(np.uint64)
        fmt = repr
    elif values.dtype.kind in "iu":
        keys = values
        fmt = str
    else:
        raise TypeError(f"cannot format values of dtype {values.dtype}")
    if row_labels is not None:
        row_labels = np.asarray(row_labels, dtype=np.int64)
    step = max(1, ROW_BLOCK_ELEMS // max(1, values.shape[1]))
    for start in range(0, values.shape[0], step):
        block = keys[start : start + step]
        distinct, inverse = np.unique(block, return_inverse=True)
        if fmt is repr:
            distinct = distinct.view(np.float64)
        text = np.array(list(map(fmt, distinct.tolist())), dtype=object)
        rows = [",".join(r) for r in text[inverse.reshape(block.shape)].tolist()]
        if row_labels is not None:
            labels = row_labels[start : start + step].tolist()
            rows = [f"{label},{row}" for label, row in zip(labels, rows)]
        yield "\n".join(rows) + "\n"


@contextmanager
def atomic_write(path: str, binary: bool = False):
    """Write to a temp file in the target directory, then rename into place.

    Interrupted runs never leave a truncated file at `path`.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        mode = "wb" if binary else "w"
        with os.fdopen(fd, mode, newline=None if binary else "") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
