"""Code-matrix construction: one-hot, Gaussian, dense random, plus binarization.

A code matrix assigns each of ``n`` classes a length-``k`` codeword (one row
per class).  Training targets the codeword instead of a one-hot indicator,
which lets ``k`` be far smaller than ``n``.  Generators here cover the
data-independent strategies; data-dependent spectral codes live in
:mod:`ecoc.spectral`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from . import _util
from ._util import atomic_write, block_rows, check_seed, format_rows, frozen, parse_rows, read_lines


class CodeKind(Enum):
    """How a code matrix was constructed (also its CSV token)."""

    ONE_HOT = "onehot"
    GAUSSIAN = "gaussian"
    DENSE_RANDOM = "dense"
    SPECTRAL = "spectral"


class Binarization(Enum):
    """Thresholding applied to the code values, if any."""

    RAW = "raw"
    ZERO = "zero"
    MEDIAN = "median"


class CodeGenerationError(RuntimeError):
    """No acceptable code matrix could be produced."""


class BinarizationCollisionError(ValueError):
    """Thresholding collapsed two codewords into the same row."""


@dataclass(frozen=True)
class CodeMatrix:
    """An ``n x k`` real matrix whose row ``i`` is the codeword of class ``i``.

    Parameters
    ----------
    values : ndarray
        Shape ``(n, k)``, finite, float64.  Kept read-only: a writable
        array is copied, so the caller's stays writable, and a read-only
        one is kept as it is.
    kind : CodeKind
        Construction strategy.
    binarization : Binarization
        ``RAW`` for real-valued codes, else the thresholding that produced
        the ``{-1, +1}`` entries.

    Notes
    -----
    ``kind`` and ``binarization`` alone decide how the code is decoded
    (:attr:`normalize_rows`), so a code's CSV file carries all of it.

    Generators in this package guarantee pairwise-distinct rows (two classes
    sharing a codeword are indistinguishable); the constructor itself does
    not enforce it, because a deliberately short spectral code can assign one
    value per cluster rather than per class.
    """

    values: np.ndarray
    kind: CodeKind = CodeKind.GAUSSIAN
    binarization: Binarization = Binarization.RAW

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"code values must be 2-d, got shape {values.shape}")
        n, k = values.shape
        if n < 2:
            raise ValueError(f"need at least 2 classes, got n={n}")
        if k < 1:
            raise ValueError(f"need at least 1 code bit, got k={k}")
        if not np.isfinite(values).all():
            raise ValueError("code values must be finite")
        if self.kind is CodeKind.ONE_HOT:
            if k != n:
                raise ValueError(f"one-hot code must be square, got {n}x{k}")
            if not np.isin(values, (0.0, 1.0)).all():
                raise ValueError("one-hot code values must be 0 or 1")
            if not np.array_equal(values.sum(axis=1), np.ones(n)):
                raise ValueError("each one-hot row must contain exactly one 1")
        if self.binarization is not Binarization.RAW:
            if not np.isin(values, (-1.0, 1.0)).all():
                raise ValueError("binarized code values must be -1 or +1")
        if values.flags.writeable:  # the caller's own array: keep a read-only copy
            values = frozen(values.copy())
        object.__setattr__(self, "values", values)

    @property
    def normalize_rows(self) -> bool:
        """Whether the decoder L2-normalizes rows before measuring distances.

        True for raw gaussian and spectral codes, whose rows have uneven
        norms: unit rows keep the best attainable distance score equal
        across classes.  Binarized, one-hot and dense rows are decoded as
        stored.
        """
        return self.binarization is Binarization.RAW and self.kind in (
            CodeKind.GAUSSIAN,
            CodeKind.SPECTRAL,
        )

    @property
    def n(self) -> int:
        """Number of classes (rows)."""
        return self.values.shape[0]

    @property
    def k(self) -> int:
        """Number of code bits (columns)."""
        return self.values.shape[1]


def one_hot(n: int) -> CodeMatrix:
    """Identity-pattern code: class ``i`` maps to indicator vector ``e_i``.

    Requires ``n >= 2``.
    """
    if n < 2:
        raise ValueError(f"need at least 2 classes, got n={n}")
    return CodeMatrix(frozen(np.eye(n)), kind=CodeKind.ONE_HOT, binarization=Binarization.RAW)


def _rows_distinct(values: np.ndarray) -> bool:
    """Whether no two rows are equal.  Distinct first-column entries decide
    it at once; only a tie there takes the row sort of ``np.unique``."""
    first = np.sort(values[:, 0])
    if (first[1:] != first[:-1]).all():
        return True
    return np.unique(values, axis=0).shape[0] == values.shape[0]


def gaussian_code(n: int, k: int, seed: int = 0) -> CodeMatrix:
    """Code with i.i.d. standard-normal entries.

    Deterministic for a fixed ``seed``.  On the (measure-zero) event of
    duplicate rows the seed is incremented, up to 10 retries.
    """
    if n < 2:
        raise ValueError(f"need at least 2 classes, got n={n}")
    if k < 1:
        raise ValueError(f"need at least 1 code bit, got k={k}")
    check_seed(seed)
    for attempt in range(11):
        rng = np.random.default_rng(seed + attempt)
        values = rng.standard_normal((n, k))
        if _rows_distinct(values):
            return CodeMatrix(frozen(values), kind=CodeKind.GAUSSIAN)
    raise CodeGenerationError(
        f"duplicate rows persisted for seeds {seed}..{seed + 10} (n={n}, k={k})"
    )


def dense_candidate_stream(
    n: int, k: int, candidates: int, seed: int = 0
) -> Iterator[np.ndarray]:
    """Yield the deterministic candidate sequence used by dense_random_code.

    Each candidate is an ``n x k`` matrix of ``{-1, +1}`` entries, each +1
    with probability 0.5.  Exposed so the selection can be re-audited
    against the exact list the generator saw.  A negative ``seed`` raises
    at the call, before any draw.
    """
    blocks = _pm1_candidates(n, k, candidates, seed, np.float64)
    return (cand for block in blocks for cand in block)


def _pm1_candidates(
    n: int, k: int, candidates: int, seed: int, dtype: type
) -> Iterator[np.ndarray]:
    """dense_candidate_stream's draws as ``dtype``, in ``(b, n, k)`` blocks
    of ``b = max(1, ROW_BLOCK_ELEMS // (n k))`` candidates (the last block
    may be shorter); checks ``seed`` at once.

    One ``integers`` call per block draws the same entries as one call per
    candidate: each entry takes one 32-bit output of the generator, and
    PCG64 keeps the spare half of a 64-bit output across calls, so the
    stream does not depend on where the blocks end, even for odd ``n k``.
    """
    check_seed(seed)
    rng = np.random.default_rng(seed)
    levels = np.array([-1.0, 1.0], dtype=dtype)
    per = max(1, _util.ROW_BLOCK_ELEMS // (n * k))
    return (
        levels.take(rng.integers(0, 2, size=(min(per, candidates - lo), n, k)))
        for lo in range(0, candidates, per)
    )


# float32 holds every integer of magnitude below 2**24 exactly.
_FLOAT32_EXACT = 2**24


def _min_row_hamming(values: np.ndarray, signs: bool = False) -> np.ndarray:
    """Minimum pairwise Hamming distance between sign patterns of rows, for
    each matrix of a ``(b, m, k)`` stack, as an int64 array of ``b``.

    With sign rows ``s`` and their nonzero masks ``P`` (row sums ``p``),
    twice the agreement count of rows i and j is
    ``k + s_i.s_j + (3 P_i.P_j - 2 p_i - 2 p_j + k)``; the bracket is 0 when
    every sign is +-1, so then one Gram over k columns suffices.  Every
    term and partial sum is an integer of magnitude at most ``8 k``, so the
    arithmetic runs exactly in float32 (at twice float64's BLAS speed) while
    ``8 k < 2**24``, and in float64 above that.  The distance is k minus the
    largest off-diagonal agreement.  With ``signs`` set, ``values`` already
    holds only -1, 0 and +1 and is its own sign matrix.

    The Grams are taken in row blocks of ``block_rows(b m)`` rows, each
    against the rows at or after it, so every pair is scored once and
    memory grows with block * b * m; the integer terms make the result the
    same at any block size.
    """
    b, m, k = values.shape
    dtype = np.float32 if 8 * k < _FLOAT32_EXACT else np.float64
    if signs:
        s = values.astype(dtype, copy=False)
    else:
        s = np.sign(values, out=np.empty(values.shape, dtype))
    both = None
    if not s.all():
        nonzero = s != 0
        p = nonzero.sum(axis=2, dtype=dtype)
        both = nonzero.astype(dtype)
    step = block_rows(b * m)
    tops = np.empty((-(-m // step), b), dtype)  # each block's largest entry per matrix
    for j, lo in enumerate(range(0, m, step)):
        rows = slice(lo, lo + step)
        gram = s[:, rows] @ s[:, lo:].transpose(0, 2, 1)  # becomes 2 * agreement - k
        if both is not None:
            gram += (3 * (both[:, rows] @ both[:, lo:].transpose(0, 2, 1))
                     - 2 * p[:, rows, None] - 2 * p[:, None, lo:] + k)
        # agreement -1 on each block's own diagonal (np.fill_diagonal per
        # matrix): a single row scores k + 1, as no pair
        gram.reshape(b, -1)[:, :: gram.shape[2] + 1] = -2.0 - k
        gram.max(axis=(1, 2), out=tops[j])
    return (k - tops.max(axis=0).astype(np.int64)) // 2


def _max_abs_pair_cosine(vectors: np.ndarray) -> float:
    """Largest |cosine| over distinct pairs of the given row vectors.

    Zero-norm vectors contribute 0 (no direction, no correlation).  The
    denominator is sqrt of the product of squared norms, which is exact for
    integer-valued codes, so binary anticorrelated rows score exactly 1.

    The Gram is taken in row blocks (:func:`block_rows`), each against the
    rows at or after it, so every pair is scored once and memory grows with
    block * n.  Blocks go last to first, and each block's own diagonal
    gives its rows' squared norms, so the norms of every row a block meets
    are known when it is scored.  When all rows fit in one block, that block
    is the one product ``v @ v.T``.  A block's bits need not match the whole
    product's for real values, so above one block a real-valued cosine may
    differ from it in its last bits; entries of -1, 0 and +1 sum exactly.

    While every squared norm seen so far is equal (the rows of +-1 and
    one-hot codes, the columns of +-1 codes) the denominator is one positive
    constant.  Correctly rounded division by it is monotone, so the largest
    off-diagonal |Gram| entry over that constant is the largest quotient, bit
    for bit, with no block-sized denominator.
    """
    m = vectors.shape[0]
    if m < 2:
        return 0.0
    step = block_rows(m)
    sq = np.empty(m)
    tops = []
    for lo in reversed(range(0, m, step)):
        rows = slice(lo, lo + step)
        cos = vectors[rows] @ vectors[lo:].T
        sq[rows] = cos.diagonal()
        np.abs(cos, out=cos)
        if (sq[lo:] == sq[-1]).all():
            np.fill_diagonal(cos, 0.0)
            denom = math.sqrt(float(sq[-1]) * float(sq[-1]))
            tops.append(float(cos.max()) / denom if denom > 1e-30 else 0.0)
            continue
        denom = np.multiply.outer(sq[rows], sq[lo:])
        np.sqrt(denom, out=denom)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.divide(cos, denom, out=cos)
        cos[denom <= 1e-30] = 0.0
        np.fill_diagonal(cos, 0.0)
        tops.append(float(cos.max()))
    return float(np.max(tops))  # propagates a NaN, as one max over all would


def dense_random_code(
    n: int, k: int, candidates: int = 10000, seed: int = 0
) -> CodeMatrix:
    """Best-of-``candidates`` random ``{-1, +1}`` code.

    Selection maximizes the minimum pairwise row Hamming distance; ties are
    broken by the smaller maximum absolute column-pair correlation, then by
    candidate index.  Candidates with duplicate rows are discarded; if none
    survive, raises :class:`CodeGenerationError`.  Fewer than
    ``ceil(log2(n))`` bits cannot give ``n`` distinct rows: that raises
    ValueError before any draw.
    """
    if n < 2:
        raise ValueError(f"need at least 2 classes, got n={n}")
    if k < 1:
        raise ValueError(f"need at least 1 code bit, got k={k}")
    if candidates < 1:
        raise ValueError(f"need at least 1 candidate, got {candidates}")
    if (n - 1).bit_length() > k:
        raise ValueError(
            f"k={k} bits hold only {2 ** k} distinct +-1 rows, fewer than n={n} classes"
        )

    # A +-1 candidate is its own sign matrix.  float32 holds it and its
    # column Gram (integers of magnitude at most n) exactly.
    dtype = np.float32 if n < _FLOAT32_EXACT else np.float64
    # Running best (-min Hamming, max |column cosine|); the strict comparison
    # keeps the earliest candidate on ties.  Column correlations are computed
    # only for candidates that reach the best Hamming distance so far.
    best: tuple[int, float] | None = None
    best_values: np.ndarray | None = None
    for block in _pm1_candidates(n, k, candidates, seed, dtype):
        for cand, h in zip(block, _min_row_hamming(block, signs=True).tolist()):
            if h < 1 or (best is not None and -h > best[0]):
                continue
            key = (-h, _max_abs_pair_cosine(cand.T))
            if best is None or key < best:
                best, best_values = key, cand
    if best_values is None:
        raise CodeGenerationError(
            f"no candidate out of {candidates} had distinct rows (n={n}, k={k})"
        )
    return CodeMatrix(best_values, kind=CodeKind.DENSE_RANDOM)


def default_code_length(n: int) -> int:
    """Recommended bit count for ``n`` classes: floor(10 * log2(n))."""
    if n < 2:
        raise ValueError(f"need at least 2 classes, got n={n}")
    return math.floor(10 * math.log2(n))


def binarize(code: CodeMatrix, strategy: Binarization) -> CodeMatrix:
    """Threshold a real-valued code to ``{-1, +1}``.

    ``ZERO``: value > 0 maps to +1, else -1.  ``MEDIAN``: per-row threshold
    at that row's median, value >= median maps to +1 (ties included).
    Raises :class:`BinarizationCollisionError` if two rows end up identical,
    and rejects one-hot codes (their 0/1 rows are already categorical).
    """
    if strategy not in (Binarization.ZERO, Binarization.MEDIAN):
        raise ValueError(f"binarize strategy must be zero or median, got {strategy}")
    if code.kind is CodeKind.ONE_HOT:
        raise ValueError("one-hot codes cannot be binarized; use them raw")
    if strategy is Binarization.ZERO:
        values = np.where(code.values > 0, 1.0, -1.0)
    else:
        medians = np.median(code.values, axis=1, keepdims=True)
        values = np.where(code.values >= medians, 1.0, -1.0)
    # +-1 rows are equal exactly when their packed sign bits are: a row
    # sort of n x ceil(k / 8) bytes, not an n x n Gram
    if not _rows_distinct(np.packbits(values > 0, axis=1)):
        if strategy is Binarization.MEDIAN and code.kind is CodeKind.DENSE_RANDOM:
            raise BinarizationCollisionError(
                "median thresholding collapsed two codewords: a dense code's "
                "+-1 row with more -1 than +1 entries has median -1 and "
                "thresholds to all +1, whatever the bit count; use raw or "
                "zero binarization"
            )
        raise BinarizationCollisionError(
            f"{strategy.value} thresholding collapsed two codewords; "
            "use raw values or more bits"
        )
    return CodeMatrix(frozen(values), kind=code.kind, binarization=strategy)


@dataclass(frozen=True)
class CodeMetrics:
    """Separation and balance statistics of a code matrix."""

    min_row_hamming: int
    max_abs_row_corr: float
    max_abs_col_corr: float
    column_balance: np.ndarray


def code_metrics(code: CodeMatrix) -> CodeMetrics:
    """Measure row separation, row/column correlation, and column balance.

    Hamming distance counts sign disagreements (entry sign in {-1, 0, +1}),
    so it is exact for binary codes and a sign-pattern summary otherwise.
    Correlations are uncentered (cosine); a constant row such as ``(+1, +1)``
    still correlates perfectly with its negation.
    """
    return CodeMetrics(
        min_row_hamming=int(_min_row_hamming(code.values[None])[0]),
        max_abs_row_corr=_max_abs_pair_cosine(code.values),
        max_abs_col_corr=_max_abs_pair_cosine(code.values.T),
        column_balance=code.values.mean(axis=0),
    )


def save_code_csv(code: CodeMatrix, path: str) -> None:
    """Write a code matrix as CSV: header ``n,k,kind,binarization``, then rows.

    Values use shortest round-trip decimal formatting, so binary codes are
    restored bit-exactly.
    """
    with atomic_write(path) as fh:
        fh.write(
            f"{code.n},{code.k},{code.kind.value},{code.binarization.value}\n"
        )
        fh.writelines(format_rows(code.values))


def load_code_csv(path: str) -> CodeMatrix:
    """Read a code matrix written by :func:`save_code_csv`."""
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty code file")
    header = lines[0].split(",")
    if len(header) != 4:
        raise ValueError(
            f"{path}:1: expected header 'n,k,kind,binarization', got {lines[0]!r}"
        )
    try:
        n, k = int(header[0]), int(header[1])
        kind = CodeKind(header[2])
        binarization = Binarization(header[3])
        if n < 2 or k < 1:
            raise ValueError(f"need at least 2 classes and 1 code bit, got n={n}, k={k}")
    except ValueError as exc:
        raise ValueError(f"{path}:1: bad header: {exc}") from None
    body = lines[1:]
    if len(body) != n:
        raise ValueError(f"{path}: expected {n} codeword rows, found {len(body)}")
    values = parse_rows(path, body, 2, "code", k)
    return CodeMatrix(frozen(values), kind=kind, binarization=binarization)
