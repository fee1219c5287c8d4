"""Distance-decoder classification head.

The network output ``z`` is L2-normalized to ``u``, scored against every
codeword by negative half squared Euclidean distance, and pushed through a
softmax; cross-entropy against the true class gives the loss.  Prediction
is the nearest codeword, which is exactly the argmax of those scores.

Scores are built in row blocks (:func:`_scores`): a block is one GEMM, an
``ndarray.dot``, plus a per-codeword bias, ``u . m_c - 0.5 * ||m_c||^2``.
The distance's remaining term, ``-0.5 * ||u||^2``, is the same across a
row, so the softmax and the argmax never see it.  One loop
(:func:`_score_blocks`) writes the blocks of a larger batch into one
reused buffer.  Training turns each block into true-class probabilities
and gradients (:func:`_loss_grad_in_place`), prediction into an argmax,
and evaluation into one argmax and then a loss-only softmax in the same
buffer, shifted by the entry at the argmax (:func:`_losses_and_argmax`);
a training batch that fits one block skips the loop.  All of them share
one softmax, :func:`_true_class_probs`, which finds each row's true class
by its flat index in the block (:func:`_picks`).

:func:`batch_loss_grad` is the one checked entry: it checks shapes and
labels and computes the decoding matrix, then calls the kernel
:func:`_batch_loss_grad`, which takes ``(z, picks, m, bias)``, checks
nothing and returns probabilities, whose ``-log`` is the loss.
``net.train`` checks its inputs once per run, and its head computes the
matrix and its bias once, makes each epoch's picks once, and calls that
kernel at every step and :func:`_loss_and_predictions` at every
evaluation, so each numeric op has one implementation either way.

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
    raises ValueError naming the rows.  The result is read-only: the code's
    own values, or a fresh array of its unit rows.
    """
    if not code.normalize_rows:
        return code.values
    with np.errstate(over="ignore"):  # unit_rows refuses an overflow by name
        return _util.frozen(unit_rows(code.values, "codewords")[0])


def _codeword_bias(m: np.ndarray) -> np.ndarray:
    """Per-codeword score bias ``-0.5 * ||m_c||^2``."""
    return -0.5 * np.einsum("ij,ij->i", m, m)


def _scores(
    u: np.ndarray, m: np.ndarray, bias: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Scores ``u_i . m_c + bias_c`` of rows of u against rows of m: one
    GEMM, into ``out`` when given, and one broadcast add."""
    d = u.dot(m.T, out=out)
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

    Returns the per-row loss ``-log probs[y]`` of the probabilities that
    :func:`_true_class_probs` gives; with ``grad``, ``scores`` becomes the
    loss gradient w.r.t. the scores, ``probs - e_y``, and without it the
    shifted exponentials.

    ``scores`` must be C-contiguous, as every caller's buffer is: the
    true-class entries are picked by flat index, so any other array is
    refused with ValueError rather than worked in a copy.  Labels must lie
    in ``[0, n)``; callers check them.
    """
    if not scores.flags.c_contiguous:
        raise ValueError("scores must be C-contiguous")
    picks = _picks(np.arange(0, scores.size, scores.shape[1]), ys)
    return -np.log(_true_class_probs(scores, picks, grad))


def _picks(offsets: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Flat index ``offset + y`` of each label's entry in a C-contiguous
    buffer of score rows, given the flat offset of the row its scores lie
    in."""
    # an id in [0, n) casts to an index exactly, a uint64 one too (whose
    # plain sum with int64 is float64)
    return np.add(offsets, ys, dtype=np.intp, casting="unsafe")


def _true_class_probs(
    scores: np.ndarray, picks: np.ndarray, grad: bool, top: np.ndarray | None = None
) -> np.ndarray:
    """Softmax probability ``p`` of each row's true class, in place: the
    one softmax of training, evaluation and :func:`softmax_ce_in_place`.

    ``picks`` holds the flat index of each row's true-class entry in
    ``scores``, which must be C-contiguous (:func:`_picks`).  Rows are
    shifted by their maximum, or by ``top``, a (rows, 1) column holding
    each row's entry at its argmax; where that entry is ``+0.0`` and the
    reduction's ``-0.0``, or the reverse, only the sign of shifted zeros
    differs, whose exponential is 1 either way.  With ``grad``, ``scores``
    becomes ``probs - e_y``, the gradient of ``-log p`` w.r.t. the scores.
    Without it, ``scores`` is left holding the shifted exponentials, and
    only the true class's entry of each row is divided by the row sum, the
    same division the full normalization does, so ``p`` has the same bits.
    ``p`` is 0 where the true class's exponential underflows, and NaN in a
    row holding a NaN or ``+inf``.
    """
    if top is None:
        top = np.maximum.reduce(scores, axis=1, keepdims=True)
    scores -= top
    np.exp(scores, out=scores)
    sums = np.add.reduce(scores, axis=1, keepdims=True)
    flat = scores.reshape(-1)
    if not grad:
        return flat.take(picks) / sums[:, 0]
    scores /= sums
    p = flat.take(picks)
    flat[picks] = p - 1.0
    return p


def _losses_and_argmax(d: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row softmax cross-entropy losses and argmax of the C-contiguous
    score rows ``d``, which are left holding shifted exponentials: the
    evaluation of both heads.  The softmax shifts each row by its entry
    at the argmax, so no second reduction finds the maximum."""
    offsets = np.arange(0, d.size, d.shape[1])
    preds = d.argmax(axis=1)
    top = d.reshape(-1).take(offsets + preds)[:, None]
    return -np.log(_true_class_probs(d, _picks(offsets, ys), False, top)), preds


def _loss_grad_in_place(
    g: np.ndarray, picks: np.ndarray, u: np.ndarray, norms: np.ndarray, m: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """True-class probabilities and loss gradients w.r.t. z of the rows
    scored in ``g``, which becomes ``probs - e_y``; the gradients go into
    ``out`` when given.

    ``picks`` indexes the true classes' entries of ``g`` (:func:`_picks`);
    ``u`` and ``norms`` are the rows' unit vectors and norms.  The block
    kernel of :func:`_batch_loss_grad`, for a one-block batch and for each
    block of a larger one.
    """
    p = _true_class_probs(g, picks, True)
    # d loss / d u = g @ m, radially projected and rescaled
    a = g.dot(m, out=out)
    t = a * u
    radial = np.add.reduce(t, axis=1)
    a -= np.multiply(radial[:, None], u, out=t)
    a /= norms[:, None]
    return p, a


def batch_loss_grad(
    z: np.ndarray, code: CodeMatrix, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized forward+backward over a batch.

    Returns (losses, grads): per-sample loss (s,) and loss gradients w.r.t.
    each z row (s, k); each row depends on that row of z alone.  ``z`` must
    be 2-d with ``code.k`` columns and ``ys`` hold one valid class id per
    row, else ValueError; then the batch is worked by
    :func:`_batch_loss_grad`, and the loss is ``-log`` of the true-class
    probability it returns.  Each call computes ``decoding_matrix(code)``
    and its score bias; ``net.train``'s head computes them once per run.
    """
    z = np.asarray(z, dtype=np.float64)
    ys = np.asarray(ys)
    m = decoding_matrix(code)
    n, k = m.shape
    if z.ndim != 2 or z.shape[1] != k:
        raise ValueError(f"batch shape {z.shape} does not match code bits {k}")
    if ys.shape != (z.shape[0],):
        raise ValueError("labels must match batch size")
    _util.check_labels(ys, n)
    probs, grads = _batch_loss_grad(z, _block_picks(np.arange(len(ys)), ys, n), m,
                                    _codeword_bias(m))
    return -np.log(probs), grads


def _block_picks(rows: np.ndarray, ys: np.ndarray, n: int) -> np.ndarray:
    """The ``picks`` of :func:`_batch_loss_grad`: the flat index of each
    label's entry in its score block, ``(row mod block_rows(n)) * n + y``,
    given the row of its batch that each label belongs to."""
    return _picks(rows % _util.block_rows(n) * n, ys)


def _batch_loss_grad(
    z: np.ndarray, picks: np.ndarray, m: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """True-class probabilities and loss gradients of float64 rows ``z``
    against decoding rows ``m`` and their score ``bias``, with no check of
    shapes or labels: the training step, whose inputs ``net.train`` checks
    once.  :func:`batch_loss_grad` is its checked entry, which takes
    ``-log`` of the probabilities.

    ``picks`` gives each row's true class as the flat index of its entry in
    the row's score block (:func:`_block_picks`), so the step takes no
    ``arange``; ``net.train`` makes them once per epoch.  A batch of 1 to
    :func:`_util.block_rows` rows, every batch at desk scale, is scored as
    one block with no block scaffolding; an empty or a larger one goes
    through the blocks of :func:`_score_blocks`.  Both paths take the same
    steps on the same rows (:func:`_loss_grad_in_place`), so the bits do
    not depend on the path.  Besides the returned arrays and the unit rows,
    memory is one block-sized (rows, n) buffer, the scores that become
    ``probs - e_y``, and one (rows, k) temporary.  A zero or non-finite row
    of ``z`` raises :class:`_util.BadRowsError` from :func:`unit_rows`.
    """
    s, k = z.shape
    u, norms = unit_rows(z)
    if 0 < s <= _util.block_rows(m.shape[0]):
        return _loss_grad_in_place(_scores(u, m, bias), picks, u, norms, m)
    probs = np.empty(s)
    grads = np.empty((s, k))
    for rows, g in _score_blocks(u, m, bias):
        probs[rows], _ = _loss_grad_in_place(
            g, picks[rows], u[rows], norms[rows], m, out=grads[rows]
        )
    return probs, grads


def _loss_and_predictions(
    z: np.ndarray, ys: np.ndarray, m: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row losses and nearest-codeword classes of float64 rows ``z``
    against decoding rows ``m`` and their score ``bias``, with no check of
    shapes or labels: the bits of :func:`batch_loss_grad`'s losses and of
    :func:`predict_batch`, from one scoring.

    ``z`` is normalized once; each block of :func:`_score_blocks` gives its
    argmax and then its loss-only softmax cross-entropy in the same buffer
    (:func:`_losses_and_argmax`), so no gradient is built.  A zero or
    non-finite row raises :class:`_util.BadRowsError` from
    :func:`unit_rows`.
    """
    u, _ = unit_rows(z)
    losses = np.empty(len(u))
    preds = np.empty(len(u), dtype=np.int64)
    for rows, d in _score_blocks(u, m, bias):
        losses[rows], preds[rows] = _losses_and_argmax(d, ys[rows])
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
