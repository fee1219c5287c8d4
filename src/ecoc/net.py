"""Minimal feedforward network and SGD trainer.

Hidden layers are affine + rectifier; the output layer is affine with
identity activation, so the classification head (distance decoder, or plain
softmax for the one-hot baseline) owns all output nonlinearity.  Everything
is deterministic for a fixed seed: initialization, shuffling, and batch
order, so two identical runs produce bitwise-identical metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NoReturn

import numpy as np

from ._util import (BadRowsError, all_finite, atomic_write, check_declared, check_seed, declared,
                    fmt_float)
from .codes import CodeKind, CodeMatrix
from .datasets import Dataset
from .decoder import batch_loss_grad, loss_and_predictions, softmax_ce_in_place

GRAD_ACTIVE_EPS = 1e-8

_MODEL_MAGIC = b"ECOCNET\x01"


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss, or a net output too large for
    the decoder head to normalize, so that its loss cannot be computed."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch} (non-finite loss)")
        self.epoch = epoch


class ZeroOutputError(RuntimeError):
    """The decoder head met an all-zero output row, which has no direction
    to compare with the codewords.

    ``where`` is the batch number within the epoch, or the name of the
    split (``"train"`` or ``"eval"``) whose evaluation pass met it; ``row``
    indexes the rows of that split (training batches draw from ``"train"``).
    """

    def __init__(self, epoch: int, where: int | str, row: int):
        if isinstance(where, int):
            at = f"batch {where}, train row {row}"
        else:
            at = f"the {where} split's evaluation pass, row {row}"
        super().__init__(
            f"net output is the zero vector at epoch {epoch}, {at}; "
            "the decoder cannot normalize it"
        )
        self.epoch = epoch
        self.where = where
        self.row = row


@dataclass
class NetParams:
    """Per-layer (weight, bias) pairs; weight shape (out, in), bias (out,)."""

    layers: list[tuple[np.ndarray, np.ndarray]]

    @property
    def layer_sizes(self) -> list[int]:
        """Unit counts from input to output."""
        return [self.layers[0][0].shape[1]] + [w.shape[0] for w, _ in self.layers]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for :func:`train`.

    ``lr_decay_epoch`` applies a one-time learning-rate cut: from that epoch
    on (epochs count from 0), the rate is ``learning_rate * lr_decay_factor``.
    ``head`` picks the loss: ``"decoder"`` for the distance head,
    ``"softmax"`` for the plain cross-entropy baseline, ``"auto"`` for
    softmax on one-hot codes and the decoder otherwise.  ``momentum`` is the
    heavy-ball coefficient ``mu`` of ``v = mu * v - lr * g``; 0 (the
    default) is plain SGD.  Each field declares its allowed values, and
    construction refuses a value outside them with a ``ValueError`` naming
    the field.
    """

    epochs: int = declared("[1, inf)")
    batch_size: int = declared("[1, inf)")
    learning_rate: float = declared("(0, inf)")
    lr_decay_epoch: int | None = declared("[0, inf)", None)
    lr_decay_factor: float = declared("(0, 1]", 0.1)
    seed: int = declared("[0, inf)", 0)
    shuffle: bool = True
    head: str = declared(("auto", "decoder", "softmax"), "auto")
    momentum: float = declared("[0, 1)", 0.0)

    def __post_init__(self) -> None:
        for f in fields(self):
            if self._in_force(f.name):
                check_declared(f, getattr(self, f.name))

    def _in_force(self, name: str) -> bool:
        """Whether the key ``name`` is read, and so checked: every training
        key is."""
        return True


@dataclass(frozen=True)
class MetricsRow:
    """One metrics line: per-epoch, per-split.

    ``grad_nonzero_ratio`` is a training-batch quantity (fraction of
    output-layer coordinates whose batch update vector exceeds 1e-8 in
    absolute value, averaged over the epoch's batches); eval rows carry None.
    """

    epoch: int
    split: str
    loss: float
    accuracy: float
    grad_nonzero_ratio: float | None = None


def init(layer_sizes: list[int], seed: int = 0) -> NetParams:
    """Gaussian init: weights ~ N(0, 1/fan_in), biases zero."""
    if len(layer_sizes) < 2:
        raise ValueError(f"need at least input and output sizes, got {layer_sizes}")
    if any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer sizes must be >= 1, got {layer_sizes}")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        layers.append((w, np.zeros(fan_out)))
    return NetParams(layers)


def _forward_batch(p: NetParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batch forward pass; cache holds the input to each layer."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != p.layers[0][0].shape[1]:
        raise ValueError(
            f"input shape {a.shape} does not match net input size "
            f"{p.layers[0][0].shape[1]}"
        )
    cache = []
    for i, (w, b) in enumerate(p.layers):
        cache.append(a)
        a = a @ w.T
        a += b
        if i < len(p.layers) - 1:
            np.maximum(a, 0.0, out=a)
    return a, cache


def _backward_batch(
    p: NetParams, cache: list[np.ndarray], grad_z: np.ndarray,
    out: tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]] | None = None,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mean parameter gradients for a batch of per-sample output gradients,
    one (weight, bias) pair per layer.

    ``out`` is ``(flat, layers)``, a flat buffer and its per-layer views
    (:func:`_layer_views`); fresh ones are made when it is not given.  Each
    layer's sums over the batch go into its views, then one divide of
    ``flat`` by the batch's own row count makes them means, the same bits
    as dividing each array.
    """
    if out is None:
        flat = np.empty(sum(w.size + b.size for w, b in p.layers))
        out = flat, _layer_views(flat, p.layers)
    flat, grads = out
    delta = grad_z
    for i in range(len(p.layers) - 1, -1, -1):
        gw, gb = grads[i]
        np.matmul(delta.T, cache[i], out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if i > 0:
            delta = delta @ p.layers[i][0]
            # rectifier gate: the cached input to layer i is the rectified
            # output of layer i-1, zero exactly where the unit was off
            delta *= cache[i] > 0
    flat /= grad_z.shape[0]
    return grads


def _layer_views(
    flat: np.ndarray, like: list[tuple[np.ndarray, np.ndarray]]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) views into ``flat``, shaped as ``like``, layer after layer."""
    views = []
    start = 0
    for w, b in like:
        stop = start + w.size
        views.append((flat[start:stop].reshape(w.shape), flat[stop : stop + b.size]))
        start = stop + b.size
    return views


def net_outputs(p: NetParams, x: np.ndarray) -> np.ndarray:
    """Batch forward pass returning only the outputs, one row per sample."""
    z, _ = _forward_batch(p, x)
    return z


def resolve_head(head: str, code: CodeMatrix) -> tuple[str, int]:
    """Concrete head for a :class:`TrainConfig` head setting, and its output size.

    ``"auto"`` picks softmax for one-hot codes and the decoder otherwise.  A
    softmax head has one output per class, a decoder head one per code bit.
    The softmax head trains against class indicators, so it rejects codes
    that are not one-hot.
    """
    if head == "auto":
        head = "softmax" if code.kind is CodeKind.ONE_HOT else "decoder"
    if head == "softmax" and code.kind is not CodeKind.ONE_HOT:
        raise ValueError(
            f"head 'softmax' requires a one-hot code, got a {code.kind.value} code"
        )
    return head, code.n if head == "softmax" else code.k


def _update_vector(
    head: str, z: np.ndarray, ys: np.ndarray, bias_grad: np.ndarray
) -> np.ndarray:
    """Batch mean of the per-sample output-layer update vectors whose
    support is counted.

    For the decoder head these are the true loss gradients (dense in
    general); their batch mean is the output layer's bias gradient, which
    the backward pass has already computed and which is passed as
    ``bias_grad``.  For the softmax baseline each is the hard
    label/prediction mismatch ``e_pred - e_true``: at most two active
    coordinates per sample, and the zero vector once the sample is
    classified correctly.  Their mean is a difference of class counts over
    the batch size.
    """
    if head == "decoder":
        return bias_grad
    n = z.shape[1]
    preds = z.argmax(axis=1)
    return (np.bincount(preds, minlength=n) - np.bincount(ys, minlength=n)) / len(ys)


def _raise_output_rows(
    exc: BadRowsError, epoch: int, where: int | str, rows: np.ndarray | None
) -> NoReturn:
    """Raise the training error for decoder output rows that
    :func:`unit_rows` refused: a zero row as a :class:`ZeroOutputError`
    naming the epoch, ``where`` and its index in the rows of the split,
    ``rows[exc.row]`` (``exc.row`` itself when ``rows`` is None), and a row
    whose norm is not finite as a :class:`TrainingDivergedError`.  A
    refusal of the codewords' rows, whose ``exc.row`` is a class id, is
    raised as it is."""
    if exc.noun is not None:  # the codewords' rows, not the outputs'
        raise exc
    if exc.check != "zero":
        raise TrainingDivergedError(epoch) from None
    row = exc.row if rows is None else int(rows[exc.row])
    raise ZeroOutputError(epoch, where, row) from None


def _head_loss_grad(
    head: str, z: np.ndarray, code: CodeMatrix, ys: np.ndarray,
    rows: np.ndarray, epoch: int, batch: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row losses and loss gradients w.r.t. z of training batch
    ``batch``, drawn from the training rows ``rows``, under ``head``; ``z``
    is left as it is.

    The softmax head is plain cross-entropy on the raw outputs (the one-hot
    baseline), worked in place in one copy of ``z`` that ends as the
    gradient: its head memory is that one (s, n) buffer.  The decoder head
    is ``batch_loss_grad``, with a refused output row raised by
    :func:`_raise_output_rows`.
    """
    if head == "decoder":
        try:
            return batch_loss_grad(z, code, ys)
        except BadRowsError as exc:
            _raise_output_rows(exc, epoch, batch, rows)
    grads = z.copy()
    return softmax_ce_in_place(grads, ys, grad=True), grads


def _epoch_metrics(
    p: NetParams, x: np.ndarray, ys: np.ndarray, head: str, code: CodeMatrix,
    epoch: int, split: str,
) -> tuple[float, float]:
    """Full-pass mean loss and accuracy under the trained head.

    Either head takes its predictions first and then the loss alone, with
    no gradient.  The decoder head scores the split once, in
    ``block_rows(n)``-row blocks (``loss_and_predictions``): its score
    memory grows with block * n, not with the split's rows * n, beside the
    split's (s, k) unit rows; a refused output row is raised by
    :func:`_raise_output_rows`.  The softmax head takes its predictions
    from the outputs, then computes the loss in the outputs' own buffer.
    """
    z, _ = _forward_batch(p, x)
    if head == "decoder":
        try:
            losses, preds = loss_and_predictions(z, code, ys)
        except BadRowsError as exc:
            _raise_output_rows(exc, epoch, split, None)
    else:
        preds = z.argmax(axis=1)
        losses = softmax_ce_in_place(z, ys)
    return float(losses.sum() / len(ys)), np.count_nonzero(preds == ys) / len(ys)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(
    p: NetParams,
    dataset: Dataset,
    code: CodeMatrix,
    cfg: TrainConfig,
    eval_set: Dataset | None = None,
) -> tuple[NetParams, list[MetricsRow]]:
    """Mini-batch SGD on the mean head loss.

    Trains a copy of ``p`` and returns it; the caller's arrays are never
    written.  Per epoch: shuffle (keyed to (seed, epoch)), step over
    batches, then a full evaluation pass on the training set and, when
    given, the eval set.  Each step follows the batch's mean gradient: the
    last batch of an epoch may be short, and its sums are divided by its
    own row count, not by ``batch_size``.  Emits one MetricsRow per epoch
    per split.  A dataset or eval set whose class count differs from the
    code's, or an eval set whose feature width differs from the dataset's,
    is refused with ValueError before the first step.  Raises
    :class:`TrainingDivergedError` as soon as any loss goes non-finite, and
    :class:`ZeroOutputError` when the decoder head meets an all-zero
    output.  Floating-point warnings are off for the whole call: the
    finite-loss checks, not numpy, report a diverging run.
    """
    for name, data in (("dataset", dataset), ("eval set", eval_set)):
        if data is not None and data.n != code.n:
            raise ValueError(f"{name} has {data.n} classes but code has {code.n} codewords")
    width = dataset.features.shape[1]
    if eval_set is not None and eval_set.features.shape[1] != width:
        raise ValueError(
            f"eval set has {eval_set.features.shape[1]} features but dataset has {width}")
    out_size = p.layers[-1][0].shape[0]
    head, expected = resolve_head(cfg.head, code)
    if out_size != expected:
        raise ValueError(
            f"net output size {out_size} does not match {head} head size {expected}"
        )

    x = dataset.features
    ys = dataset.labels
    samples = x.shape[0]
    # The parameters (a copy: the caller's arrays stay as given), their
    # velocities and each step's gradients live in one flat buffer apiece,
    # so a step turns the gradient sums into means with one divide and
    # updates the whole net with four in-place calls.
    flat = np.concatenate([a.ravel() for layer in p.layers for a in layer], dtype=np.float64)
    grad_flat = np.empty_like(flat)
    velocity = np.zeros_like(flat)
    grad_out = grad_flat, _layer_views(grad_flat, p.layers)
    p = NetParams(_layer_views(flat, p.layers))
    rows: list[MetricsRow] = []

    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate
        if cfg.lr_decay_epoch is not None and epoch >= cfg.lr_decay_epoch:
            lr *= cfg.lr_decay_factor
        if cfg.shuffle:
            order = np.random.default_rng([cfg.seed, epoch]).permutation(samples)
        else:
            order = np.arange(samples)
        x_epoch, ys_epoch = x[order], ys[order]

        ratio_sum = 0.0
        batches = 0
        for start in range(0, samples, cfg.batch_size):
            batch = slice(start, start + cfg.batch_size)
            xb, yb = x_epoch[batch], ys_epoch[batch]
            z, cache = _forward_batch(p, xb)
            losses, grads = _head_loss_grad(head, z, code, yb, order[batch], epoch, batches)
            if not np.isfinite(np.add.reduce(losses)):
                raise TrainingDivergedError(epoch)

            # the output layer's mean bias gradient, read before lr scales it
            bias_grad = _backward_batch(p, cache, grads, out=grad_out)[-1][1]
            active = np.abs(_update_vector(head, z, yb, bias_grad)) > GRAD_ACTIVE_EPS
            ratio_sum += np.count_nonzero(active) / active.size
            batches += 1

            # v = momentum * v - lr * g, then w = w + v
            velocity *= cfg.momentum
            grad_flat *= lr
            velocity -= grad_flat
            flat += velocity

        splits = (("train", dataset, ratio_sum / batches), ("eval", eval_set, None))
        for split, data, ratio in splits:
            if data is None:
                continue
            loss, acc = _epoch_metrics(p, data.features, data.labels, head, code, epoch, split)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch)
            rows.append(MetricsRow(epoch, split, loss, acc, ratio))
    return p, rows


def save_metrics(rows: list[MetricsRow], path: str) -> None:
    """Write the metrics CSV: header epoch,split,loss,accuracy,grad_nonzero_ratio."""
    with atomic_write(path) as fh:
        fh.write("epoch,split,loss,accuracy,grad_nonzero_ratio\n")
        for r in rows:
            ratio = "" if r.grad_nonzero_ratio is None else fmt_float(r.grad_nonzero_ratio)
            fh.write(
                f"{r.epoch},{r.split},{fmt_float(r.loss)},{fmt_float(r.accuracy)},{ratio}\n"
            )


def save_model(p: NetParams, path: str) -> None:
    """Versioned little-endian dump: magic, layer sizes, float64 parameters."""
    sizes = np.asarray(p.layer_sizes, dtype="<u4")
    with atomic_write(path, binary=True) as fh:
        fh.write(_MODEL_MAGIC)
        fh.write(np.asarray([sizes.size], dtype="<u4").tobytes())
        fh.write(sizes.tobytes())
        for w, b in p.layers:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_model(path: str) -> NetParams:
    """Read a model written by :func:`save_model`.

    A file whose size does not match its header raises ValueError naming
    the path and the expected and found byte counts; a NaN or infinite
    parameter raises one naming the path and the layer (counted from 0).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_MODEL_MAGIC):
        raise ValueError(f"{path}: not a model file (bad magic)")
    off = len(_MODEL_MAGIC) + 4
    if len(blob) < off:
        raise ValueError(f"{path}: truncated model file: no layer count")
    count = int(np.frombuffer(blob, dtype="<u4", count=1, offset=off - 4)[0])
    if count < 2:
        raise ValueError(f"{path}: model needs at least 2 layer sizes, got {count}")
    if len(blob) - off < 4 * count:
        raise ValueError(
            f"{path}: truncated model file: {count} layer sizes need "
            f"{4 * count} bytes, found {len(blob) - off}"
        )
    sizes = np.frombuffer(blob, dtype="<u4", count=count, offset=off).tolist()
    off += 4 * count
    if 0 in sizes:
        raise ValueError(f"{path}: layer sizes must be positive, got {sizes}")
    expected = sum(8 * (i + 1) * o for i, o in zip(sizes[:-1], sizes[1:]))
    found = len(blob) - off
    if found != expected:
        problem = (
            "trailing bytes after parameters" if found > expected else "truncated parameters"
        )
        raise ValueError(
            f"{path}: {problem}: layer sizes {sizes} need {expected} "
            f"parameter bytes, found {found}"
        )
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = np.frombuffer(blob, dtype="<f8", count=fan_out * fan_in, offset=off)
        off += 8 * fan_out * fan_in
        b = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=off)
        off += 8 * fan_out
        if not (all_finite(w) and all_finite(b)):
            raise ValueError(f"{path}: non-finite parameter in layer {len(layers)}")
        layers.append((w.reshape(fan_out, fan_in).copy(), b.copy()))
    return NetParams(layers)
