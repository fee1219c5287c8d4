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

import numpy as np

from ._util import (BadKeyError, all_finite, atomic_write, block_rows, check_code_size,
                    check_labels, format_rows, frozen, parse_rows, read_lines, unit_rows)
from .codes import Binarization, CodeKind, CodeMatrix
from .datasets import label_blocks


class ConvergenceError(RuntimeError):
    """The eigensolver failed to converge."""


def _asymmetry(a: np.ndarray) -> float:
    """``max |a - a.T|`` of a square matrix, bit for bit, taken one
    mirror-image pair of square tiles (:func:`block_rows` on a side) at a
    time: two tiles fit in cache, where a whole-matrix transpose strides
    across all of it, and no n x n temporary is made."""
    n = len(a)
    step = block_rows(n)
    worst = 0.0
    for lo in range(0, n, step):
        for col in range(lo, n, step):
            diff = a[lo : lo + step, col : col + step] - a[col : col + step, lo : lo + step].T
            worst = max(worst, float(np.abs(diff, out=diff).max()))
    return worst


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
        check_code_size(w.shape[0])
        if not all_finite(w):
            raise ValueError("similarity weights must be finite")
        if _asymmetry(w) > 0:
            raise ValueError("similarity weights must be exactly symmetric")
        if np.min(w) < 0:
            raise ValueError("similarity weights must be non-negative")
        if np.diag(w).any():
            raise ValueError("similarity diagonal must be zero")
        isolated = w.sum(axis=1) <= 0
        if isolated.any():
            raise ValueError(f"nodes with zero degree: {np.flatnonzero(isolated).tolist()}")
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
    A missing class is reported before labels that are not integer ids in
    [0, n) are refused, and both before any (n, dims) or n x n array is made.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    if features.ndim != 2 or features.shape[0] != labels.shape[0]:
        raise ValueError("features must be (samples, dims) matching labels")
    check_code_size(n)
    # if n > samples, some class at or below samples has none: bounds stay small
    order, bounds = label_blocks(labels, min(n, labels.size + 1))
    empty = np.flatnonzero(bounds[1:] == bounds[:-1])
    if empty.size:
        raise ValueError(f"class {empty[0]} has no samples")
    check_labels(labels, n)
    means = np.empty((n, features.shape[1]))
    for c, (start, end) in enumerate(zip(bounds, bounds[1:])):
        means[c] = features[order[start:end]].mean(axis=0)
    with np.errstate(over="ignore"):  # unit_rows refuses an overflow by name
        unit, _ = unit_rows(means, "class means")
    # W is built in the Gram's own buffer.  numpy takes a matrix times its
    # own transpose as one triangle, mirrored (BLAS syrk), so the Gram is
    # exactly symmetric; SimilarityGraph refuses it otherwise.
    w = unit @ unit.T
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
    if not all_finite(a):
        raise ValueError("matrix entries must be finite")
    if _asymmetry(a) > 1e-12:
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
    positive; the sign is otherwise arbitrary.  A ``k`` above ``n - 1`` is
    refused with a :class:`BadKeyError` keyed ``k``.
    """
    if k > g.n - 1:
        raise BadKeyError("k", f"must be at most n-1={g.n - 1} for a spectral code, got {k}")
    check_code_size(g.n, k)
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
    """Read a similarity matrix; tolerate asymmetry up to 1e-9 by averaging.
    Every refusal, :class:`SimilarityGraph`'s too, names ``path``."""
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty similarity file")
    w = parse_rows(path, lines, 1, "similarity")
    if w.shape[0] != w.shape[1]:
        raise ValueError(f"{path}: expected a square matrix, got shape {w.shape}")
    if _asymmetry(w) > 1e-9:
        raise ValueError(f"{path}: matrix asymmetric beyond 1e-9")
    w = (w + w.T) / 2
    if np.abs(np.diag(w)).max(initial=0.0) > 1e-9:
        raise ValueError(f"{path}: diagonal entries must be zero")
    np.fill_diagonal(w, 0.0)
    try:
        return SimilarityGraph(frozen(w))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
