"""Distance-decoder classification head.

The network output ``z`` is L2-normalized to ``u``, scored against every
codeword by negative half squared Euclidean distance, and pushed through a
softmax; cross-entropy against the true class gives the loss.  Prediction
is the nearest codeword, which is exactly the argmax of those scores.

The backward pass is analytic.  With ``g = probs - e_y`` (``e_y`` the true
class indicator) and ``M`` the effective decoding matrix, the distance and
softmax stages give ``d loss / d u = M^T g`` (the ``u``-proportional parts
cancel because ``g`` sums to zero), and the normalization stage projects out
the radial direction and rescales:

    grad_z = (a - (u . a) u) / ||z||,   a = M^T g

so ``grad_z . z = 0`` always; scaling ``z`` never changes the loss.
"""

from __future__ import annotations

import numpy as np

from . import _util
from .codes import CodeMatrix

EPS_NORM = 1e-12


def decoding_matrix(code: CodeMatrix) -> np.ndarray:
    """The codeword matrix the decoder actually measures distances against.

    Rows are L2-normalized for raw gaussian and spectral codes
    (``code.normalize_rows``, fixed by the code's kind and binarization), so
    each class can reach the same best score; other codes are decoded as
    stored.  The result is read-only and memoized on ``code`` (frozen, with
    read-only values), so later calls return the same array; its squared
    row norms are memoized beside it (:func:`_sq_norms`).
    """
    m = code.__dict__.get("_decoding_matrix")
    if m is not None:
        return m
    m = code.values
    if code.normalize_rows:
        norms = np.linalg.norm(m, axis=1)
        if (norms <= EPS_NORM).any():
            bad = np.flatnonzero(norms <= EPS_NORM)
            raise ValueError(f"zero-norm codewords cannot be normalized: rows {bad.tolist()}")
        m = m / norms[:, None]
        m.setflags(write=False)
    mm = np.einsum("ij,ij->i", m, m)
    mm.setflags(write=False)
    object.__setattr__(code, "_decoding_sq_norms", mm)
    object.__setattr__(code, "_decoding_matrix", m)
    return m


def _sq_norms(code: CodeMatrix) -> np.ndarray:
    """Squared row norms of ``decoding_matrix(code)``, memoized beside it;
    call :func:`decoding_matrix` first."""
    return code.__dict__["_decoding_sq_norms"]


def unit_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of z divided by its L2 norm, plus the norms.  Rejects
    (near-)zero rows, and rows whose norm is not finite: rows holding inf
    or NaN, and finite rows whose squares overflow (entries above about
    1e154), which would divide to zero."""
    norms = np.sqrt(np.add.reduce(z * z, axis=1))
    if (norms <= EPS_NORM).any():
        raise ValueError("cannot normalize a zero vector")
    # a finite norm is below 2**512, so the sum is finite only if each is
    if not np.isfinite(np.add.reduce(norms)):
        raise ValueError("cannot normalize a vector whose norm is not finite")
    return z / norms[:, None], norms


def _distance_scores(
    u: np.ndarray, m: np.ndarray, mm: np.ndarray,
    out: np.ndarray | None = None, scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Score matrix D (s x n), D[i, c] = -0.5 * ||m_c - u_i||^2.

    Computed in Gram form, ``u_i . m_c - 0.5 * (||u_i||^2 + ||m_c||^2)``:
    one ``u @ m.T`` plus two row-norm vectors, so memory grows with s * n.
    ``mm`` holds the squared codeword norms; callers compute them once and
    score every row block against them.  Both norms are
    taken as given, because ablation prefixes of unit rows are not unit
    length.  D is written into ``out`` and the norm term into ``scratch``
    when they are given (both (s, n)); otherwise both are allocated.
    """
    uu = np.einsum("ij,ij->i", u, u)
    d = np.matmul(u, m.T, out=out)
    half = np.add(uu[:, None], mm, out=scratch)
    half *= 0.5
    d -= half
    return d


def softmax_ce_in_place(
    scores: np.ndarray, ys: np.ndarray, g: np.ndarray | None = None
) -> np.ndarray:
    """Softmax cross-entropy of score rows against labels, in place.

    Returns the per-row loss ``-log probs[y]``.  With ``g`` (same shape as
    ``scores``, or ``scores`` itself), overwrites ``scores`` with the
    max-shifted softmax probabilities and ``g`` with the loss gradient
    w.r.t. the scores, ``probs - e_y``.  Without it, computes the loss
    alone: ``scores`` is left holding the shifted exponentials, and only
    the true class's entry of each row is divided by the row sum, the same
    division the full normalization does, so the loss has the same bits.
    """
    scores -= np.maximum.reduce(scores, axis=1, keepdims=True)
    np.exp(scores, out=scores)
    sums = np.add.reduce(scores, axis=1, keepdims=True)
    idx = np.arange(scores.shape[0])
    if g is None:
        return -np.log(scores[idx, ys] / sums[:, 0])
    scores /= sums
    picked = scores[idx, ys]
    if g is not scores:
        np.copyto(g, scores)
    g[idx, ys] -= 1.0
    return -np.log(picked)


def batch_loss_grad(
    z: np.ndarray, code: CodeMatrix, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized forward+backward over a batch.

    Returns (losses, probs, grads): per-sample loss (s,), probabilities
    (s, n), and loss gradients w.r.t. each z row (s, k); each row depends
    on that row of z alone.  Works through row blocks
    (:func:`_util.block_rows`) in place: besides the returned arrays, memory
    is one block-sized (rows, n) buffer and one (s, k) temporary.
    """
    z = np.asarray(z, dtype=np.float64)
    ys = np.asarray(ys)
    m = decoding_matrix(code)
    n, k = m.shape
    if z.ndim != 2 or z.shape[1] != k:
        raise ValueError(f"batch shape {z.shape} does not match code bits {k}")
    s = z.shape[0]
    if ys.shape != (s,):
        raise ValueError("labels must match batch size")
    if s and (np.minimum.reduce(ys) < 0 or np.maximum.reduce(ys) >= n):
        raise ValueError(f"labels out of range for {n} classes")
    u, norms = unit_rows(z)
    mm = _sq_norms(code)
    probs = np.empty((s, n))
    losses = np.empty(s)
    # d loss / d u = g @ m, radially projected and rescaled below
    grads = np.empty((s, k))
    step = _util.block_rows(n)
    g = np.empty((min(s, step), n))
    for start in range(0, s, step):
        rows = slice(start, start + step)
        p = probs[rows]
        gb = g[: p.shape[0]]
        _distance_scores(u[rows], m, mm, out=p, scratch=gb)
        losses[rows] = softmax_ce_in_place(p, ys[rows], gb)
        np.matmul(gb, m, out=grads[rows])
    t = grads * u
    radial = np.add.reduce(t, axis=1)
    grads -= np.multiply(radial[:, None], u, out=t)
    grads /= norms[:, None]
    return losses, probs, grads


def predict_batch(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Nearest-codeword class per row of z, against decoding rows m.

    Takes the decoding matrix directly; pass ``decoding_matrix(code)`` for
    the standard full-code path.
    """
    u, _ = unit_rows(np.asarray(z, dtype=np.float64))
    return nearest_codewords(u, m)


def nearest_codewords(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Nearest row of m per row of u, with rows of u scored as given.

    ``predict_batch`` passes unit rows; bit ablation passes prefixes of
    them, which need not have unit length.  Ties go to the smallest class
    id.  Scores are built in row blocks (:func:`_util.block_rows`), so
    memory grows with block * n.
    """
    mm = np.einsum("ij,ij->i", m, m)
    step = _util.block_rows(m.shape[0])
    preds = np.empty(u.shape[0], dtype=np.int64)
    for start in range(0, u.shape[0], step):
        rows = slice(start, start + step)
        preds[rows] = _distance_scores(u[rows], m, mm).argmax(axis=1)
    return preds
