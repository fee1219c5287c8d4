"""Data-based codes from the spectral decomposition of a class-similarity graph.

Pipeline: class-mean features -> cosine similarity graph -> symmetric
normalized Laplacian -> eigenvectors by ascending eigenvalue, computed by
``numpy.linalg.eigh``.  Eigenvector ``j`` relaxes the ``j``-th cheapest
normalized-cut bi-partition of the classes, so the first code bits separate
the coarsest class clusters and later bits refine them.  Values are kept raw
rather than thresholded; the decoder reads them as partition likelihoods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._util import atomic_write, block_rows, format_rows, frozen, parse_rows, read_lines, unit_rows
from .codes import Binarization, CodeKind, CodeMatrix
from .datasets import label_blocks


class ConvergenceError(RuntimeError):
    """The eigensolver failed to converge."""


def _tile_pairs(n: int) -> Iterator[tuple[slice, slice]]:
    """Index ranges ``(rows, cols)`` of the square tiles (:func:`block_rows`
    on a side) on and above the diagonal of an n x n matrix; ``[cols,
    rows]`` is each one's mirror image.  Two tiles fit in cache, where a
    whole-matrix transpose strides across all of it."""
    step = block_rows(n)
    for lo in range(0, n, step):
        for col in range(lo, n, step):
            yield slice(lo, lo + step), slice(col, col + step)


def _symmetric(w: np.ndarray) -> bool:
    """``array_equal(w, w.T)``, one mirror-image pair of tiles at a time."""
    return all(np.array_equal(w[rows, cols], w[cols, rows].T)
               for rows, cols in _tile_pairs(len(w)))


@dataclass(frozen=True)
class SimilarityGraph:
    """Symmetric non-negative class-similarity matrix with zero diagonal.

    Every node must have strictly positive degree (row sum), since the
    normalized Laplacian rescales by inverse square-root degrees.  The
    weights are kept read-only: a writable array is copied, so the
    caller's stays writable, and a read-only one is kept as it is.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if w.shape[0] < 2:
            raise ValueError(f"need at least 2 classes, got n={w.shape[0]}")
        if not np.isfinite(w).all():
            raise ValueError("similarity weights must be finite")
        if not _symmetric(w):
            raise ValueError("similarity weights must be exactly symmetric")
        if (w < 0).any():
            raise ValueError("similarity weights must be non-negative")
        if np.diag(w).any():
            raise ValueError("similarity diagonal must be zero")
        if (w.sum(axis=1) <= 0).any():
            isolated = np.flatnonzero(w.sum(axis=1) <= 0)
            raise ValueError(f"nodes with zero degree: {isolated.tolist()}")
        if w.flags.writeable:  # the caller's own array: keep a read-only copy
            w = frozen(w.copy())
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues sorted ascending; column i of eigenvectors pairs with
    eigenvalue i and has unit L2 norm."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def similarity_from_class_means(
    features: np.ndarray, labels: np.ndarray, n: int
) -> SimilarityGraph:
    """Cosine similarity of per-class mean features, mapped to [0, 1].

    ``weights[i][j] = (1 + cos(mean_i, mean_j)) / 2`` off the diagonal, zero
    on it.  Every class 0..n-1 needs at least one sample and a mean with a
    nonzero, finite norm (:func:`unit_rows` names the classes that fail);
    one stable sort by label finds each class's rows, in ``labels == c`` order.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features must be (samples, dims) matching labels")
    # if n > samples, some class at or below samples has none: bounds stay small
    order, bounds = label_blocks(labels, min(n, labels.size + 1))
    empty = np.flatnonzero(bounds[1:] == bounds[:-1])
    if empty.size:
        raise ValueError(f"class {empty[0]} has no samples")
    means = np.empty((n, features.shape[1]))
    for c, (start, end) in enumerate(zip(bounds, bounds[1:])):
        means[c] = features[order[start:end]].mean(axis=0)
    with np.errstate(over="ignore"):  # unit_rows refuses an overflow by name
        unit, _ = unit_rows(means, "class means")
    # W is built in the Gram's own buffer.  Each mirror-image pair of tiles
    # becomes (a + b.T) / 2, written to both, so W is exactly symmetric
    # whatever the Gram's own rounding.
    w = unit @ unit.T
    for rows, cols in _tile_pairs(n):
        half = w[rows, cols] + w[cols, rows].T
        half /= 2
        w[rows, cols] = half
        w[cols, rows] = half.T
    w += 1.0
    w /= 2
    np.maximum(w, 0.0, out=w)
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(frozen(w))


def normalized_laplacian(g: SimilarityGraph) -> np.ndarray:
    """Symmetric normalized Laplacian  I - D^{-1/2} W D^{-1/2}.

    Positive semidefinite with eigenvalues in [0, 2]; the smallest
    eigenvalue is 0 (eigenvector proportional to sqrt of degrees).
    """
    inv_sqrt = 1.0 / np.sqrt(g.weights.sum(axis=1))  # degrees are > 0 (SimilarityGraph)
    # W_ij / (s_i * s_j) with commutative products keeps exact symmetry.
    lap = np.eye(g.n) - g.weights * np.outer(inv_sqrt, inv_sqrt)
    return lap


def symmetric_eigen(a: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a symmetric matrix by ``numpy.linalg.eigh``.

    The input must be square, finite, and symmetric within 1e-12; eigh reads
    only its lower triangle.  Eigenvalues are returned ascending with unit
    eigenvectors.  A LAPACK convergence failure is raised as
    :class:`ConvergenceError`.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    if np.abs(a - a.T).max(initial=0.0) > 1e-12:
        raise ValueError("matrix is not symmetric within 1e-12")
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    return EigenDecomposition(eigenvalues, eigenvectors)


def spectral_code(g: SimilarityGraph, k: int) -> CodeMatrix:
    """Code whose column j is Laplacian eigenvector j+1 (ascending eigenvalue).

    Eigenvector 0 (constant partition, eigenvalue 0) is skipped, so at most
    ``n - 1`` bits are available.  Values are kept raw.  Each eigenvector is
    flipped, if needed, so its first entry with magnitude above 1e-12 is
    positive; the sign is otherwise arbitrary.
    """
    if k < 1:
        raise ValueError(f"need at least 1 code bit, got k={k}")
    if k > g.n - 1:
        raise ValueError(f"spectral code supports at most n-1={g.n - 1} bits, got k={k}")
    eig = symmetric_eigen(normalized_laplacian(g))
    columns = eig.eigenvectors[:, 1 : k + 1]
    # a unit column has an entry above 1e-12, so argmax finds the first one
    first = columns[np.argmax(np.abs(columns) > 1e-12, axis=0), np.arange(k)]
    columns = np.where(first < 0, -columns, columns)
    return CodeMatrix(frozen(columns), kind=CodeKind.SPECTRAL, binarization=Binarization.RAW)


def save_similarity_csv(g: SimilarityGraph, path: str) -> None:
    """Write the weight matrix, one row per line."""
    with atomic_write(path) as fh:
        fh.writelines(format_rows(g.weights))


def load_similarity_csv(path: str) -> SimilarityGraph:
    """Read a similarity matrix; tolerate asymmetry up to 1e-9 by averaging."""
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty similarity file")
    w = parse_rows(path, lines, 1, "similarity")
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"{path}: expected a square matrix, got shape {w.shape}")
    if np.abs(w - w.T).max(initial=0.0) > 1e-9:
        raise ValueError(f"{path}: matrix asymmetric beyond 1e-9")
    w = (w + w.T) / 2
    if np.abs(np.diag(w)).max(initial=0.0) > 1e-9:
        raise ValueError(f"{path}: diagonal entries must be zero")
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(frozen(w))
