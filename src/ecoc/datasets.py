"""Synthetic hierarchical datasets and plain-CSV dataset I/O.

The generator plants a balanced class tree in feature space: each level of
the tree shifts its subtree's center by a fresh random direction whose
magnitude halves per level, so coarse splits are geometrically wider than
fine ones.  Every internal tree node also defines a binary per-class
attribute (does this class descend from the node's first child?), giving a
ground-truth table for code/attribute correlation studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from ._util import (BadKeyError, all_finite, atomic_write, check_fits, check_labels, check_rows,
                    check_seed, format_rows, parse_rows, read_lines)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer labels and an optional per-class attribute table."""

    features: np.ndarray
    labels: np.ndarray
    n: int
    attributes: np.ndarray | None = None
    attribute_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be one id per feature row")
        if not all_finite(features):
            raise ValueError("feature values must be finite")
        if self.n < 1:
            raise ValueError(f"class count must be >= 1, got {self.n}")
        check_labels(labels, self.n)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))
        if self.attributes is not None:
            attrs = np.asarray(self.attributes, dtype=np.float64)
            if attrs.ndim != 2 or attrs.shape[0] != self.n:
                raise ValueError(
                    f"attributes must have one row per class, got shape {attrs.shape}"
                )
            if not np.isin(attrs, (0.0, 1.0)).all():
                raise ValueError("attribute entries must be 0 or 1")
            object.__setattr__(self, "attributes", attrs)
            if self.attribute_names is not None:
                names = tuple(self.attribute_names)
                if len(names) != attrs.shape[1]:
                    raise ValueError("attribute names must match attribute columns")
                object.__setattr__(self, "attribute_names", names)

    @property
    def samples(self) -> int:
        return self.features.shape[0]


def label_blocks(labels: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row indices stably sorted by label, and bounds such that class c's rows
    are ``order[bounds[c]:bounds[c + 1]]``; labels outside [0, n) are in none."""
    order = np.argsort(labels, kind="stable")
    return order, np.searchsorted(labels[order], np.arange(n + 1))


def check_synth_size(depth: int, branching: int, samples_per_class: int, p: int) -> None:
    """Refuse, with a :class:`BadKeyError`, synthetic data of
    ``branching**depth`` classes (branching >= 2) x ``samples_per_class``
    x ``p`` float64 features past one array (:func:`check_fits`).

    The error is keyed by the parameter whose factor carries the product
    past the limit, multiplying 8 bytes by one ``branching`` (its own), the
    other ``depth - 1`` (the depth's), ``samples_per_class`` and ``p``, in
    that order."""
    depth, branching = int(depth), int(branching)
    # past depth 64 the class count alone is past the limit
    factors = (("branching", branching), ("depth", branching ** (min(depth, 64) - 1)),
               ("samples_per_class", samples_per_class), ("p", p))
    check_fits(factors, f"{branching}**{depth} classes x {samples_per_class} x p={p}", "feature")


def synth_hierarchical(
    depth: int,
    branching: int,
    samples_per_class: int,
    class_sep: float,
    noise_sigma: float,
    p: int,
    seed: int = 0,
) -> Dataset:
    """Balanced class tree with branching^depth leaf classes.

    Class centers follow a random tree walk: a node at tree depth d >= 1
    offsets its parent's center by ``class_sep * 2**-(d-1)`` in a fresh
    random unit direction, so the top split is the widest.  Samples add
    i.i.d. ``N(0, noise_sigma^2)`` per coordinate.  One attribute column per
    internal node (breadth-first order), set to 1 for classes descending
    from that node's first child.

    The walk runs a level at a time, one normal draw per level and one for
    all the noise: the stream, and so the bytes, of a node-by-node walk that
    redraws a direction of norm <= 1e-12 from the next p values.  A
    parameter out of range raises a ``ValueError`` (``BadKeyError``) whose
    ``key`` is the parameter's name, before any array is made; so is the
    one that :func:`check_synth_size` blames for too many values.  Centers
    past the float64 range are refused by ``class_sep``, and then feature
    values past it by ``noise_sigma``, with no numpy warning.
    """
    if depth < 1:
        raise BadKeyError("depth", f"must be >= 1, got {depth}")
    if branching < 2:
        raise BadKeyError("branching", f"must be >= 2, got {branching}")
    if p < depth:
        raise BadKeyError("p", f"must be >= depth={depth}, got {p}")
    if samples_per_class < 1:
        raise BadKeyError("samples_per_class", f"must be >= 1, got {samples_per_class}")
    check_synth_size(depth, branching, samples_per_class, p)
    for name, value in (("class_sep", class_sep), ("noise_sigma", noise_sigma)):
        if not 0 <= value < np.inf:
            raise BadKeyError(name, f"must be finite and >= 0, got {value}")
    check_seed(seed)

    rng = np.random.default_rng(seed)
    n = branching**depth
    centers = np.zeros((1, p))
    for d in range(1, depth + 1):
        v = rng.standard_normal((branching**d, p))
        while True:  # sqrt(v . v) per row, the sum np.linalg.norm takes for a vector
            norms = np.sqrt(np.matmul(v[:, None, :], v[:, :, None]).ravel())
            if (norms > 1e-12).all():
                break
            # redrawn from the next p values: every later direction moves up a row
            v = np.vstack([np.delete(v, np.argmin(norms > 1e-12), 0), rng.standard_normal((1, p))])
        magnitude = class_sep * 2.0 ** -(d - 1)
        with np.errstate(over="ignore"):  # refused by key below, with no warning
            centers = np.repeat(centers, branching, axis=0) + magnitude * (v / norms[:, None])
    if not all_finite(centers):
        raise BadKeyError("class_sep",
                          f"gives class centers past the float64 range, got {class_sep}")

    labels = np.repeat(np.arange(n), samples_per_class)
    with np.errstate(over="ignore"):
        features = centers[labels] + rng.standard_normal((n * samples_per_class, p)) * noise_sigma
    if not all_finite(features):
        raise BadKeyError("noise_sigma",
                          f"gives feature values past the float64 range, got {noise_sigma}")

    # Leaves are numbered by their path digits in base `branching`: at tree
    # level L, with s = branching**(depth-L-1), class c descends from node
    # c // (branching*s) and from its first child iff (c // s) % branching == 0.
    attributes = np.zeros((n, (n - 1) // (branching - 1)))
    names: list[str] = []
    for level in range(depth):
        s = branching ** (depth - level - 1)
        first = np.flatnonzero(np.arange(n) // s % branching == 0)
        attributes[first, len(names) + first // (branching * s)] = 1.0
        paths = product(range(branching), repeat=level)
        names += ["node-" + (".".join(map(str, path)) or "root") for path in paths]
    return Dataset(
        features, labels, n, attributes=attributes, attribute_names=tuple(names)
    )


def save_csv(dataset: Dataset, path: str) -> None:
    """One sample per line: integer label, then the feature values."""
    with atomic_write(path) as fh:
        fh.writelines(format_rows(dataset.features, row_labels=dataset.labels))


def load_csv(path: str, n: int | None = None) -> Dataset:
    """Read a dataset CSV (label-first rows).

    ``n`` declares the class count; omitted, it is inferred as max label + 1.
    Malformed rows raise ValueError naming the line.
    """
    lines = read_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    labels = np.empty(len(lines), dtype=np.int64)
    for i, line in enumerate(lines):
        label, sep, _ = line.partition(",")
        if not sep:
            raise ValueError(f"{path}:{i + 1}: need a label and at least one feature")
        try:
            labels[i] = int(label)
        except ValueError:
            raise ValueError(f"{path}:{i + 1}: label must be an integer") from None
        except OverflowError:
            raise ValueError(f"{path}:{i + 1}: label does not fit in int64") from None
    # the label column parses as a float too, so widths count it as a column
    features = parse_rows(path, lines, 1, "feature", unit="columns")[:, 1:].copy()
    check_rows(path, labels >= 0, 1, "negative label")
    if n is None:
        n = int(labels.max()) + 1
    else:
        check_rows(path, labels < n, 1, f"label >= declared class count {n}")
    return Dataset(features, labels, n)


def save_attributes_csv(dataset: Dataset, path: str) -> None:
    """Attribute table CSV: header of attribute names, then one 0/1 row per class."""
    if dataset.attributes is None:
        raise ValueError("dataset has no attribute table")
    names = dataset.attribute_names
    if names is None:
        names = tuple(f"attr{i}" for i in range(dataset.attributes.shape[1]))
    with atomic_write(path) as fh:
        fh.write(",".join(names) + "\n")
        # attributes are float64 0/1; as ints they print "1", not "1.0"
        fh.writelines(format_rows(dataset.attributes.astype(np.int64)))


def load_attributes_csv(path: str) -> tuple[tuple[str, ...], np.ndarray]:
    """Read an attribute table; returns (names, n x a matrix of 0/1)."""
    lines = read_lines(path)
    if len(lines) < 2:
        raise ValueError(f"{path}: need a header and at least one class row")
    names = tuple(lines[0].split(","))
    # the 0/1 check also rejects non-finite values, in its own words
    values = parse_rows(path, lines[1:], 2, "attribute", len(names), "columns", finite=False)
    binary = np.isin(values, (0.0, 1.0)).all(axis=1)
    check_rows(path, binary, 2, "attribute entries must be 0 or 1")
    return names, values


def split(dataset: Dataset, train_fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Stratified train/eval split, deterministic per seed.

    Each class keeps at least one sample on both sides, so every class needs
    at least 2 samples.  Classes permute their rows (found by one stable sort,
    in row order) in label order: the stream and bytes of a per-class scan.
    """
    if not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    check_seed(seed)
    # if n > samples // 2, some class at or below samples // 2 has < 2 samples
    order, bounds = label_blocks(dataset.labels, min(dataset.n, dataset.samples // 2 + 1))
    sizes = np.diff(bounds)
    if (sizes < 2).any():
        c = np.argmax(sizes < 2)
        raise ValueError(f"class {c} has {sizes[c]} sample(s); need >= 2 to appear in both splits")
    takes = np.clip(np.floor(train_fraction * sizes + 0.5).astype(np.int64), 1, sizes - 1)
    rng = np.random.default_rng(seed)
    perms = np.concatenate([rng.permutation(size) for size in sizes.tolist()])
    starts = np.repeat(bounds[:-1], sizes)
    picked = np.empty(len(order), dtype=bool)  # picked[q]: row order[q] goes to train
    picked[starts + perms] = np.arange(len(order)) < starts + np.repeat(takes, sizes)
    return tuple(
        replace(dataset, features=dataset.features[idx], labels=dataset.labels[idx])
        for idx in (order[picked], order[~picked])
    )
