"""Post-training analyses: confusion counts, code/attribute correlation,
and bit ablation.

Bit ablation measures how much class information the first ``j`` code
coordinates carry.  Each row of the trained net's output is normalized over
all ``k`` coordinates, just as ``decoding_matrix`` normalizes each codeword
over all ``k``; then both sides are truncated to their first ``j``
coordinates and each sample goes to the nearest truncated codeword by the
decoder's own distance.  Both sides thus keep one scale, so an output equal
to a codeword decodes to its class at every ``j`` whose prefix rows are
distinct, and ``j = k`` reproduces the full model exactly.  No retraining is
involved, so the curve isolates the code's information content.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._util import atomic_write, check_labels, fmt_float, format_rows
from .codes import CodeMatrix
from .datasets import Dataset
from .decoder import decoding_matrix, nearest_codewords, unit_rows
from .net import NetParams, net_outputs


@dataclass(frozen=True)
class ConfusionMatrix:
    """counts[i][j] = samples of true class i predicted as class j."""

    counts: np.ndarray

    @property
    def accuracy(self) -> float:
        total = self.counts.sum()
        if total == 0:
            raise ValueError("confusion matrix has no samples")
        return float(np.trace(self.counts) / total)


def confusion(preds: np.ndarray, labels: np.ndarray, n: int) -> ConfusionMatrix:
    """Count (true, predicted) pairs into an n x n grid; both must be
    integer class ids in [0, n)."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError("preds and labels must be equal-length vectors")
    check_labels(preds, n, "pred ids")
    check_labels(labels, n, "label ids")
    counts = np.zeros((n, n), dtype=np.int64)
    if labels.size:  # empty ids of any dtype pass the checks, but only integers index
        np.add.at(counts, (labels, preds), 1)
    return ConfusionMatrix(counts)


def pcc(xs: np.ndarray, ys: np.ndarray) -> float:
    """Pearson correlation coefficient; rejects constant inputs."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need two equal-length vectors of size >= 2")
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    sx = np.sqrt(xc @ xc)
    sy = np.sqrt(yc @ yc)
    if sx <= 0 or sy <= 0:
        raise ValueError("correlation undefined for a zero-variance input")
    return float(np.clip(xc @ yc / (sx * sy), -1.0, 1.0))


def attribute_correlation(
    code: CodeMatrix,
    attributes: np.ndarray,
    names: tuple[str, ...] | None = None,
) -> list[tuple[int, str, float]]:
    """Correlate every code bit with every per-class binary attribute.

    Returns (bit, attribute, r) triples grouped by bit (bits numbered from
    1), attributes sorted by |r| descending within each bit.  Constant
    columns on either side are skipped with a warning, since their
    correlation is undefined.
    """
    attributes = np.asarray(attributes, dtype=np.float64)
    if attributes.ndim != 2 or attributes.shape[0] != code.n:
        raise ValueError(
            f"attribute rows {attributes.shape} must match code classes {code.n}"
        )
    if names is None:
        names = tuple(f"attr{i}" for i in range(attributes.shape[1]))
    if len(names) != attributes.shape[1]:
        raise ValueError("attribute names must match attribute columns")

    constant_attrs = [a for a in range(attributes.shape[1]) if np.ptp(attributes[:, a]) == 0]
    for a in constant_attrs:
        warnings.warn(f"skipping zero-variance attribute {names[a]!r}", stacklevel=2)

    table: list[tuple[int, str, float]] = []
    for bit in range(code.k):
        column = code.values[:, bit]
        if np.ptp(column) == 0:
            warnings.warn(f"skipping zero-variance code bit {bit + 1}", stacklevel=2)
            continue
        scored = [
            (bit + 1, names[a], pcc(column, attributes[:, a]))
            for a in range(attributes.shape[1])
            if a not in constant_attrs
        ]
        scored.sort(key=lambda row: -abs(row[2]))
        table.extend(scored)
    return table


@np.errstate(over="ignore", invalid="ignore")
def ablation_predictions(
    p: NetParams, dataset: Dataset, code: CodeMatrix, js: list[int]
) -> list[tuple[int, np.ndarray]]:
    """Predicted class per sample using only the first j output
    coordinates, for each j.

    Output rows are normalized over all k coordinates before truncation,
    so a zero output prefix is scored like any other as long as the full
    output is nonzero.  j = k gives exactly ``predict_batch(z,
    decoding_matrix(code))``.  Floating-point warnings are off: an output
    that overflows fails ``unit_rows``'s finite-norm check instead.
    """
    for j in js:
        if not 1 <= j <= code.k:
            raise ValueError(f"prefix length {j} outside 1..{code.k}")
    z = net_outputs(p, dataset.features)
    if z.shape[1] != code.k:
        raise ValueError(
            f"net output size {z.shape[1]} does not match code bits {code.k}"
        )
    u, _ = unit_rows(z)
    m = decoding_matrix(code)
    return [(j, nearest_codewords(u[:, :j], m[:, :j])) for j in js]


def bit_ablation(
    p: NetParams, dataset: Dataset, code: CodeMatrix, js: list[int]
) -> list[tuple[int, float]]:
    """Accuracy using only the first j output coordinates, for each j.

    Output rows and decoding rows are both normalized over all k
    coordinates, then truncated to j (see ``ablation_predictions``).
    j = k reproduces the full model's predictions exactly.
    """
    return [
        (j, float((preds == dataset.labels).mean()))
        for j, preds in ablation_predictions(p, dataset, code, js)
    ]


def save_confusion_csv(cm: ConfusionMatrix, path: str) -> None:
    """Grid CSV: header row of predicted ids, then one row per true class."""
    n = cm.counts.shape[0]
    with atomic_write(path) as fh:
        fh.write("true\\pred," + ",".join(map(str, range(n))) + "\n")
        fh.writelines(format_rows(cm.counts, row_labels=np.arange(n)))


def save_correlation_csv(table: list[tuple[int, str, float]], path: str) -> None:
    """Rows of bit,attribute,r."""
    with atomic_write(path) as fh:
        fh.write("bit,attribute,r\n")
        for bit, name, r in table:
            fh.write(f"{bit},{name},{fmt_float(r)}\n")


def save_ablation_csv(pairs: list[tuple[int, float]], path: str) -> None:
    """Rows of bits,accuracy."""
    with atomic_write(path) as fh:
        fh.write("bits,accuracy\n")
        for j, acc in pairs:
            fh.write(f"{j},{fmt_float(acc)}\n")
