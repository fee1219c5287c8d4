"""Minimal feedforward network and SGD trainer.

Hidden layers are affine + rectifier; the output layer is affine with
identity activation, so the classification head (distance decoder, or plain
softmax for the one-hot baseline) owns all output nonlinearity.  Everything
is deterministic for a fixed seed: initialization, shuffling, and batch
order, so two identical runs produce bitwise-identical metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NoReturn

import numpy as np

from ._util import (BadRowsError, all_finite, atomic_write, check_declared, check_fits,
                    check_labels, check_seed, declared, fmt_float)
from .codes import CodeKind, CodeMatrix
from .datasets import Dataset
from .decoder import (_batch_loss_grad, _block_picks, _codeword_bias, _loss_and_predictions,
                      _losses_and_argmax, _picks, _true_class_probs, decoding_matrix)
# unused here, but kept as ``net.batch_loss_grad``, the name perfbench's
# tracer self-test reaches the decoder entry through
from .decoder import batch_loss_grad  # noqa: F401

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
    ``head`` names the head :func:`resolve_head` makes: ``"decoder"``, the
    distance head, ``"softmax"``, the one-hot cross-entropy baseline, or
    ``"auto"``, softmax on one-hot codes and the decoder otherwise.
    ``momentum`` is the heavy-ball coefficient ``mu`` of ``v = mu * v - lr
    * g``; 0 (the default) is plain SGD.  Each field declares its allowed
    values, and construction refuses a value outside them with a
    ``ValueError`` naming the field.
    """

    epochs: int = declared("[1, inf)", 30)
    batch_size: int = declared("[1, inf)", 16)
    learning_rate: float = declared("(0, inf)", 0.1)
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
    """Gaussian init: weights ~ N(0, 1/fan_in), biases zero.  A weight
    matrix past one array (:func:`_util.check_fits`) is refused before
    anything is allocated, keyed ``layer_sizes``."""
    if len(layer_sizes) < 2:
        raise ValueError(f"need at least input and output sizes, got {layer_sizes}")
    if any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer sizes must be >= 1, got {layer_sizes}")
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        check_fits((("layer_sizes", fan_out), ("layer_sizes", fan_in)), f"{fan_out} x {fan_in}",
                   "weight")
    check_seed(seed)
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        w = rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
        layers.append((w, np.zeros(fan_out)))
    return NetParams(layers)


def _forward_batch(p: NetParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Batch forward pass; cache holds the input to each layer.  Input that
    is not 2-d with the net's input width raises ValueError."""
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != p.layers[0][0].shape[1]:
        raise ValueError(
            f"input shape {a.shape} does not match net input size "
            f"{p.layers[0][0].shape[1]}"
        )
    return _forward(p, a)


def _forward(p: NetParams, a: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """:func:`_forward_batch` of 2-d float64 rows ``a`` of the net's input
    width, unchecked: :func:`train` checks the width once per run."""
    cache = []
    for i, (w, b) in enumerate(p.layers):
        cache.append(a)
        a = a.dot(w.T)
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
        delta.T.dot(cache[i], out=gw)
        np.add.reduce(delta, axis=0, out=gb)
        if i > 0:
            delta = delta.dot(p.layers[i][0])
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


class _SoftmaxHead:
    """Plain cross-entropy on the raw outputs, one per class: the one-hot
    baseline, which trains against class indicators and so refuses a code
    that is not one-hot.  A step works in one copy of the outputs, which
    becomes the gradient, and picks each row's true class at ``row * n +
    y`` of it; evaluation takes the argmax, then the loss in the outputs'
    own buffer, shifted by the entry at the argmax.  Its update vectors are
    the hard label/prediction mismatches ``e_pred - e_true``: at most two
    active coordinates per sample, and none once the sample is classified
    correctly."""

    name = "softmax"

    def __init__(self, code: CodeMatrix):
        if code.kind is not CodeKind.ONE_HOT:
            raise ValueError(
                f"head 'softmax' requires a one-hot code, got a {code.kind.value} code")
        self.size = code.n

    def picks(self, ys: np.ndarray, batch_size: int) -> np.ndarray:
        return _picks(np.arange(len(ys)) % batch_size * self.size, ys)

    def probs_grad(self, z: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        grads = z.copy()
        return _true_class_probs(grads, picks, True), grads

    def loss_and_predictions(self, z: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _losses_and_argmax(z, ys)

    def update_vector(self, z: np.ndarray, ys: np.ndarray, bias_grad: np.ndarray) -> np.ndarray:
        n = z.shape[1]
        preds = z.argmax(axis=1)
        return (np.bincount(preds, minlength=n) - np.bincount(ys, minlength=n)) / len(ys)


class _DecoderHead:
    """The distance decoder, one output per code bit.  It computes
    ``decoding_matrix(code)`` and its score bias once, when it is made, and
    hands them to the decoder's unchecked kernels, which raise
    :class:`_util.BadRowsError` for a zero or non-finite output row.  A
    step picks each row's true class in the row's score block
    (``decoder._block_picks``).  Its update vectors are the loss gradients,
    whose batch mean is the output layer's bias gradient."""

    name = "decoder"

    def __init__(self, code: CodeMatrix):
        self.size = code.k
        self.m = decoding_matrix(code)
        self.bias = _codeword_bias(self.m)

    def picks(self, ys: np.ndarray, batch_size: int) -> np.ndarray:
        return _block_picks(np.arange(len(ys)) % batch_size, ys, len(self.m))

    def probs_grad(self, z: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _batch_loss_grad(z, picks, self.m, self.bias)

    def loss_and_predictions(self, z: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _loss_and_predictions(z, ys, self.m, self.bias)

    def update_vector(self, z: np.ndarray, ys: np.ndarray, bias_grad: np.ndarray) -> np.ndarray:
        return bias_grad


def resolve_head(head: str, code: CodeMatrix) -> _SoftmaxHead | _DecoderHead:
    """The head for a :class:`TrainConfig` head setting and ``code``:
    ``"auto"`` picks softmax for one-hot codes and the decoder otherwise.

    A head has a ``name``, an output ``size`` and four unchecked methods:
    ``picks(ys, batch_size)``, the flat index of each label's true-class
    entry in its step's score buffer, for an epoch's labels taken in
    batches of ``batch_size``; ``probs_grad(z, picks)``, a training batch's per-row true-class
    probabilities, whose ``-log`` is the loss, and loss gradients w.r.t.
    ``z``; ``loss_and_predictions(z, ys)``, an evaluated split's per-row
    losses and predicted classes; and ``update_vector(z, ys, bias_grad)``,
    the batch mean of the update vectors whose active coordinates
    ``grad_nonzero_ratio`` counts.
    """
    if head == "auto":
        head = "softmax" if code.kind is CodeKind.ONE_HOT else "decoder"
    return _SoftmaxHead(code) if head == "softmax" else _DecoderHead(code)


def _raise_output_rows(
    exc: BadRowsError, epoch: int, where: int | str, rows: np.ndarray | None
) -> NoReturn:
    """Raise the training error for decoder output rows that
    :func:`unit_rows` refused: a zero row as a :class:`ZeroOutputError`
    naming the epoch, ``where`` and its index in the rows of the split,
    ``rows[exc.row]`` (``exc.row`` itself when ``rows`` is None), and a row
    whose norm is not finite as a :class:`TrainingDivergedError`."""
    if exc.check != "zero":
        raise TrainingDivergedError(epoch) from None
    row = exc.row if rows is None else int(rows[exc.row])
    raise ZeroOutputError(epoch, where, row) from None


def _epoch_metrics(p: NetParams, x: np.ndarray, ys: np.ndarray, head: _SoftmaxHead | _DecoderHead,
                   epoch: int, split: str) -> tuple[float, float]:
    """Full-pass mean loss and accuracy under ``head`` of float64 rows ``x``
    of the net's input width and their labels, unchecked; a refused output
    row is raised by :func:`_raise_output_rows`."""
    z, _ = _forward(p, x)
    try:
        losses, preds = head.loss_and_predictions(z, ys)
    except BadRowsError as exc:
        _raise_output_rows(exc, epoch, split, None)
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
    own row count, not by ``batch_size``.  A ``batch_size`` at or past the
    sample count, however large, gives one whole-set batch.  Emits one
    MetricsRow per epoch per split.

    Inputs are checked once, before the first step; the steps and the
    evaluation passes then run unchecked kernels.  A dataset or eval set
    whose class count differs from the code's, an eval set whose feature
    width differs from the dataset's, or a net whose input or output size
    does not fit the data or the head, is refused with ValueError naming
    both sizes; so is a label outside the code's classes, and a zero
    codeword when the decoder head computes ``decoding_matrix(code)``.
    Raises :class:`TrainingDivergedError` as soon as any loss goes
    non-finite, and :class:`ZeroOutputError` when the decoder head meets an
    all-zero output.  A step takes no ``log``: the head hands it each
    row's true-class probability ``p``, and it stops when the smallest is
    not ``> 0``.  That is exactly when the batch's loss sum ``sum(-log
    p)`` is not finite: ``p`` lies in ``[0, 1]`` or is NaN, a positive
    ``p`` gives a ``-log p`` of at most about 745, which no batch's sum
    can overflow, and ``-log p`` is infinite or NaN where ``p`` is 0 or
    NaN.  Evaluation checks its mean loss.  Floating-point
    warnings are off for the whole call: these checks, not numpy, report a
    diverging run.
    """
    for name, data in (("dataset", dataset), ("eval set", eval_set)):
        if data is None:
            continue
        if data.n != code.n:
            raise ValueError(f"{name} has {data.n} classes but code has {code.n} codewords")
        # checked when the Dataset was made, but its array may have been written since
        check_labels(data.labels, code.n, f"{name} labels")
    width = dataset.features.shape[1]
    if eval_set is not None and eval_set.features.shape[1] != width:
        raise ValueError(
            f"eval set has {eval_set.features.shape[1]} features but dataset has {width}")
    in_size = p.layers[0][0].shape[1]
    if in_size != width:
        raise ValueError(f"dataset has {width} features but net input size is {in_size}")
    out_size = p.layers[-1][0].shape[0]
    head = resolve_head(cfg.head, code)
    if out_size != head.size:
        raise ValueError(
            f"net output size {out_size} does not match {head.name} head size {head.size}")

    x = dataset.features
    ys = dataset.labels
    samples = x.shape[0]
    # keeps a batch_size past int64 out of numpy's index arithmetic
    batch_size = min(cfg.batch_size, max(samples, 1))
    # The parameters (a copy: the caller's arrays stay as given), their
    # velocities and each step's gradients live in one flat buffer apiece,
    # so a step turns the gradient sums into means with one divide and
    # updates the whole net with four in-place calls.
    flat = np.concatenate([a.ravel() for layer in p.layers for a in layer], dtype=np.float64)
    grad_flat = np.empty_like(flat)
    velocity = np.zeros_like(flat)
    grad_out = grad_flat, _layer_views(grad_flat, p.layers)
    p = NetParams(_layer_views(flat, p.layers))
    # each batch's update vector, whose active coordinates are counted once
    # an epoch's steps are done
    updates = np.empty((len(range(0, samples, batch_size)), out_size))
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
        picks = head.picks(ys_epoch, batch_size)

        for number, start in enumerate(range(0, samples, batch_size)):
            batch = slice(start, start + batch_size)
            z, cache = _forward(p, x_epoch[batch])
            try:
                probs, grads = head.probs_grad(z, picks[batch])
            except BadRowsError as exc:
                _raise_output_rows(exc, epoch, number, order[batch])
            if not np.minimum.reduce(probs) > 0.0:
                raise TrainingDivergedError(epoch)

            # the output layer's mean bias gradient, read before lr scales it
            bias_grad = _backward_batch(p, cache, grads, out=grad_out)[-1][1]
            updates[number] = head.update_vector(z, ys_epoch[batch], bias_grad)

            # v = momentum * v - lr * g, then w = w + v
            velocity *= cfg.momentum
            grad_flat *= lr
            velocity -= grad_flat
            flat += velocity

        # each batch's share of active coordinates, added one at a time in
        # batch order: numpy's pairwise sum would move the ratio's last bits
        ratio_sum = 0.0
        for count in np.count_nonzero(np.abs(updates) > GRAD_ACTIVE_EPS, axis=1).tolist():
            ratio_sum += count / out_size
        splits = (("train", dataset, ratio_sum / len(updates)), ("eval", eval_set, None))
        for split, data, ratio in splits:
            if data is None:
                continue
            loss, acc = _epoch_metrics(p, data.features, data.labels, head, epoch, split)
            if not math.isfinite(loss):
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
