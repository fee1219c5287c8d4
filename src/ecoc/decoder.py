"""Distance-decoder classification head.

The network output ``z`` is L2-normalized to ``u``, scored against every
codeword by negative half squared Euclidean distance, and pushed through a
softmax; cross-entropy against the true class gives the loss.  Prediction
is the nearest codeword, which is exactly the argmax of those scores.

Scores are built in row blocks (:func:`_scores`): a block is one GEMM plus
a per-codeword bias, ``u . m_c - 0.5 * ||m_c||^2``.  The distance's
remaining term, ``-0.5 * ||u||^2``, is the same across a row, so the
softmax and the argmax never see it.  One loop (:func:`_score_blocks`)
writes the blocks of a larger batch into one reused buffer.  Training
turns each block into losses and gradients, prediction into an argmax, and
evaluation (:func:`loss_and_predictions`) into one argmax and then a
loss-only softmax in the same buffer; a training batch that fits one block
skips the loop.

The public entries :func:`batch_loss_grad` and :func:`loss_and_predictions`
check shapes and labels and fetch the decoding matrix, then call a private
kernel of the same name with a leading underscore, which takes ``(z, ys,
m, bias)`` and checks nothing.  ``net.train`` checks its inputs and
fetches the matrix once per run and calls the kernels at every step, so
each numeric op has one implementation either way.

The backward pass is analytic.  With ``g = probs - e_y`` (``e_y`` the true
class indicator) and ``M`` the effective decoding matrix, the distance and
softmax stages give ``d loss / d u = M^T g`` (the ``u``-proportional parts
cancel because ``g`` sums to zero), and the normalization stage projects out
the radial direction and rescales:

    grad_z = (a - (u . a) u) / ||z||,   a = M^T g

so ``grad_z . z = 0`` always; scaling ``z`` never changes the loss.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import _util
from ._util import unit_rows
from .codes import CodeMatrix


def decoding_matrix(code: CodeMatrix) -> np.ndarray:
    """The codeword matrix the decoder actually measures distances against.

    Rows are L2-normalized (:func:`unit_rows`) for raw gaussian and
    spectral codes (``code.normalize_rows``, fixed by the code's kind and
    binarization), so each class can reach the same best score; other codes
    are decoded as stored.  A zero codeword, or one whose norm overflows,
    raises ValueError naming the rows.  The result is read-only and
    memoized on ``code`` (frozen, with read-only values), so later calls
    return the same array; its score bias ``-0.5 * ||m_c||^2`` is memoized
    beside it (:func:`_bias`).
    """
    m = code.__dict__.get("_decoding_matrix")
    if m is not None:
        return m
    m = code.values
    if code.normalize_rows:
        with np.errstate(over="ignore"):  # unit_rows refuses an overflow by name
            m = _util.frozen(unit_rows(m, "codewords")[0])
    object.__setattr__(code, "_decoding_bias", _util.frozen(_codeword_bias(m)))
    object.__setattr__(code, "_decoding_matrix", m)
    return m


def _bias(code: CodeMatrix) -> np.ndarray:
    """Score bias of ``decoding_matrix(code)``, memoized beside it; call
    :func:`decoding_matrix` first.

    Every call of :func:`batch_loss_grad` and :func:`loss_and_predictions`
    reads it here rather than recomputing it: at n = 16, k = 8 and 16 rows
    that would add about 4 us to a 38 us call.  ``net.train`` reads it once
    per run and hands it to the kernels.  :func:`nearest_codewords` is
    called once per split or ablation prefix, on matrices that may be
    prefixes, so it computes its own."""
    return code.__dict__["_decoding_bias"]


def _codeword_bias(m: np.ndarray) -> np.ndarray:
    """Per-codeword score bias ``-0.5 * ||m_c||^2``."""
    return -0.5 * np.einsum("ij,ij->i", m, m)


def _scores(
    u: np.ndarray, m: np.ndarray, bias: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Scores ``u_i . m_c + bias_c`` of rows of u against rows of m: one
    GEMM, into ``out`` when given, and one broadcast add."""
    d = np.matmul(u, m.T, out=out)
    d += bias
    return d


def _score_blocks(
    u: np.ndarray, m: np.ndarray, bias: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """Score rows of u against rows of m, one row block at a time.

    Yields ``(rows, d)`` per block of :func:`_util.block_rows` rows: ``d``
    holds the block's (rows, n) :func:`_scores`, written into one buffer
    reused for every block, so memory grows with block * n; the caller may
    overwrite it.  With the bias of :func:`_codeword_bias` that is the
    negative half squared distance less its row term, which cancels in the
    softmax and cannot move an argmax, also for ablation prefixes of unit
    rows, which are not unit length.
    """
    s, n = u.shape[0], m.shape[0]
    step = _util.block_rows(n)
    buf = np.empty((min(s, step), n))
    for start in range(0, s, step):
        rows = slice(start, min(s, start + step))
        yield rows, _scores(u[rows], m, bias, out=buf[: rows.stop - start])


def softmax_ce_in_place(scores: np.ndarray, ys: np.ndarray, grad: bool = False) -> np.ndarray:
    """Softmax cross-entropy of score rows against labels, in place.

    Returns the per-row loss ``-log probs[y]``.  With ``grad``, overwrites
    ``scores`` with the loss gradient w.r.t. the scores, ``probs - e_y``,
    from the max-shifted softmax probabilities.  Without it, computes the
    loss alone: ``scores`` is left holding the shifted exponentials, and
    only the true class's entry of each row is divided by the row sum, the
    same division the full normalization does, so the loss has the same
    bits.

    ``scores`` must be C-contiguous, as every caller's buffer is: the
    true-class entries are picked by flat index, so any other array is
    refused with ValueError rather than worked in a copy.  Labels must lie
    in ``[0, n)``; callers check them.
    """
    if not scores.flags.c_contiguous:
        raise ValueError("scores must be C-contiguous")
    scores -= np.maximum.reduce(scores, axis=1, keepdims=True)
    np.exp(scores, out=scores)
    sums = np.add.reduce(scores, axis=1, keepdims=True)
    flat = scores.reshape(-1)
    # an id in [0, n) casts to an index exactly, a uint64 one too (whose
    # plain sum with int64 is float64)
    picks = np.add(np.arange(0, flat.size, scores.shape[1]), ys, dtype=np.intp,
                   casting="unsafe")
    if not grad:
        return -np.log(flat.take(picks) / sums[:, 0])
    scores /= sums
    picked = flat.take(picks)
    flat[picks] = picked - 1.0
    return -np.log(picked)


def _loss_grad_in_place(
    g: np.ndarray, ys: np.ndarray, u: np.ndarray, norms: np.ndarray, m: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Losses and gradients w.r.t. z of the rows scored in ``g``, which
    becomes ``probs - e_y``; the gradients go into ``out`` when given.

    ``u`` and ``norms`` are those rows' unit vectors and norms.  The one
    softmax-and-gradient step of :func:`_batch_loss_grad`, whether a batch
    is one block or many.
    """
    losses = softmax_ce_in_place(g, ys, grad=True)
    # d loss / d u = g @ m, radially projected and rescaled
    a = np.matmul(g, m, out=out)
    t = a * u
    radial = np.add.reduce(t, axis=1)
    a -= np.multiply(radial[:, None], u, out=t)
    a /= norms[:, None]
    return losses, a


def _checked_batch(
    z: np.ndarray, code: CodeMatrix, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``z`` as float64, ``ys`` as an array and ``decoding_matrix(code)``,
    once ``z`` is 2-d with ``code.k`` columns and ``ys`` holds one valid
    class id per row; else ValueError."""
    z = np.asarray(z, dtype=np.float64)
    ys = np.asarray(ys)
    m = decoding_matrix(code)
    n, k = m.shape
    if z.ndim != 2 or z.shape[1] != k:
        raise ValueError(f"batch shape {z.shape} does not match code bits {k}")
    if ys.shape != (z.shape[0],):
        raise ValueError("labels must match batch size")
    _util.check_labels(ys, n)
    return z, ys, m


def batch_loss_grad(
    z: np.ndarray, code: CodeMatrix, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized forward+backward over a batch.

    Returns (losses, grads): per-sample loss (s,) and loss gradients w.r.t.
    each z row (s, k); each row depends on that row of z alone.  Shapes and
    labels are checked (:func:`_checked_batch`), then the batch is worked
    by :func:`_batch_loss_grad`.
    """
    z, ys, m = _checked_batch(z, code, ys)
    return _batch_loss_grad(z, ys, m, _bias(code))


def _batch_loss_grad(
    z: np.ndarray, ys: np.ndarray, m: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batch_loss_grad` of float64 rows ``z`` against decoding rows
    ``m`` and their score ``bias``, with no check of shapes or labels: the
    training step, whose inputs ``net.train`` checks once.

    A batch of 1 to :func:`_util.block_rows` rows, every batch at desk
    scale, is scored as one block with no block scaffolding; an empty or a
    larger one goes through the blocks of :func:`_score_blocks`.  Both
    paths take the same steps on the same rows (:func:`_loss_grad_in_place`),
    so the bits do not depend on the path.  Besides the returned arrays and
    the unit rows, memory is one block-sized (rows, n) buffer, the scores
    that become ``probs - e_y``, and one (rows, k) temporary.  A zero or
    non-finite row of ``z`` raises :class:`_util.BadRowsError` from
    :func:`unit_rows`.
    """
    s, k = z.shape
    n = m.shape[0]
    u, norms = unit_rows(z)
    if 0 < s <= _util.block_rows(n):
        return _loss_grad_in_place(_scores(u, m, bias), ys, u, norms, m)
    losses = np.empty(s)
    grads = np.empty((s, k))
    for rows, g in _score_blocks(u, m, bias):
        losses[rows], _ = _loss_grad_in_place(
            g, ys[rows], u[rows], norms[rows], m, out=grads[rows]
        )
    return losses, grads


def loss_and_predictions(
    z: np.ndarray, code: CodeMatrix, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row losses and nearest-codeword classes of a batch: the losses
    of :func:`batch_loss_grad` and the predictions of :func:`predict_batch`
    against ``decoding_matrix(code)``, bit for bit, from one scoring.
    Shapes and labels are checked as :func:`batch_loss_grad` checks them,
    then the batch is scored by :func:`_loss_and_predictions`.
    """
    z, ys, m = _checked_batch(z, code, ys)
    return _loss_and_predictions(z, ys, m, _bias(code))


def _loss_and_predictions(
    z: np.ndarray, ys: np.ndarray, m: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`loss_and_predictions` of float64 rows ``z`` against decoding
    rows ``m`` and their score ``bias``, with no check of shapes or labels:
    the evaluation pass of ``net.train``.

    ``z`` is normalized once; each block of :func:`_score_blocks` gives its
    argmax first, then its loss-only softmax cross-entropy in the same
    buffer, so no gradient is built.  A zero or non-finite row raises
    :class:`_util.BadRowsError` from :func:`unit_rows`.
    """
    u, _ = unit_rows(z)
    losses = np.empty(len(u))
    preds = np.empty(len(u), dtype=np.int64)
    for rows, d in _score_blocks(u, m, bias):
        preds[rows] = d.argmax(axis=1)
        losses[rows] = softmax_ce_in_place(d, ys[rows])
    return losses, preds


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
    id.  Scores come from :func:`_score_blocks`, against a bias computed
    once per call, so memory grows with block * n.
    """
    preds = np.empty(u.shape[0], dtype=np.int64)
    for rows, d in _score_blocks(u, m, _codeword_bias(m)):
        preds[rows] = d.argmax(axis=1)
    return preds
