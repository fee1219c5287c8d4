"""Independent reference routines the test suite checks the library against.

Nothing here may call into the library's own implementations of the same
quantity: gradients come from central finite differences, eigenvalues from
characteristic-polynomial roots (n <= 4) or cyclic Jacobi rotations (any n),
decoder scores from the explicit (s, n, k) difference tensor
(``distance_scores_broadcast``), selections from plain brute force, CSV
text from a per-element writer (``format_rows_per_element``), the
synthetic attribute table from a nested loop over tree paths
(``attribute_table_nested``), the synthetic dataset from a breadth-first
walk drawing one direction per tree node and one noise block per class
(``synth_hierarchical_per_node``), the stratified split from one label mask
per class (``split_rows_per_class``), the class-mean similarity graph from
one masked mean per class (``class_mean_similarity_masked``), the softmax
head's update-density vector
from a dense per-sample mismatch matrix (``update_vector_zeros_array``),
and its evaluation metrics from whole normalized probability rows
(``softmax_metrics_copy_normalize_scatter``).

``dense_candidate_stream`` is not an independent reference: it yields,
one float64 candidate at a time, the very candidates ``dense_random_code``
scans (``codes._pm1_candidates``), so a selection can be re-audited by
brute force against the exact list the generator saw.

The code metrics have two references each.  ``min_row_hamming_brute`` and
``max_abs_col_cosine_brute`` loop over pairs.  ``min_row_hamming_one_hot``
(signs one-hot over {-1, 0, +1}, one n x 3k product) and
``max_abs_pair_cosine_triu`` (masked division, upper-triangle gather) are
the earlier matrix forms, which the library's sign-Gram forms must match
exactly, bit for bit.

The distance-decoder head and the net have single-sample references, one
function per quantity, written from the formulas one sample at a time.
The decoder ones take the decoding matrix ``m`` (rows as the decoder
measures them) rather than a code:

- ``normalize``: ``z / ||z||``
- ``distances``: scores ``-0.5 * ||m_c - u||^2`` per codeword
- ``decoder_softmax``: max-shifted softmax of a score vector
- ``decoder_probs`` and ``decoder_loss``: class probabilities of an output
  and its cross-entropy against a label
- ``decoder_grad``: the analytic loss gradient w.r.t. the output,
  ``(a - (u . a) u) / ||z||`` with ``a = m^T (probs - e_y)``
- ``predict``: the nearest codeword
- ``net_forward`` and ``net_backward``: one sample through the net's
  affine + rectifier layers, and the per-layer parameter gradients of
  ``grad_z . z`` for that sample
- ``sparsity_ratio``: the fraction ``batch_size / n`` of one-hot output
  units a mini-batch can update at most
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterator

import numpy as np

from ecoc.codes import _pm1_candidates

FD_STEP = 1e-5
FD_REL_TOL = 1e-4


def finite_difference_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, h: float = FD_STEP
) -> np.ndarray:
    """Central-difference gradient of a scalar function, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = h
        grad.flat[i] = (f(x + step) - f(x - step)) / (2 * h)
    return grad


def max_relative_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    """Per-coordinate relative error, guarded for near-zero coordinates."""
    analytic = np.asarray(analytic, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(reference)), 1e-8)
    return float((np.abs(analytic - reference) / denom).max())


def _poly_mul(a: list[float], b: list[float]) -> list[float]:
    out = [0.0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_add(a: list[float], b: list[float]) -> list[float]:
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0.0) + (b[i] if i < len(b) else 0.0) for i in range(n)
    ]


def _char_poly(m: list[list[list[float]]]) -> list[float]:
    """Determinant of a matrix of polynomials (coefficient lists, low order first)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    acc: list[float] = [0.0]
    for col in range(n):
        minor = [
            [m[r][c] for c in range(n) if c != col] for r in range(1, n)
        ]
        term = _poly_mul(m[0][col], _char_poly(minor))
        if col % 2:
            term = [-t for t in term]
        acc = _poly_add(acc, term)
    return acc


def brute_force_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a small symmetric matrix via characteristic-polynomial roots.

    Expands det(A - t I) by cofactors with exact polynomial arithmetic, then
    finds the roots.  Only sensible for n <= 4.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    entries = [
        [
            [a[i, j], -1.0] if i == j else [a[i, j]]
            for j in range(n)
        ]
        for i in range(n)
    ]
    coeffs = _char_poly(entries)  # low order first
    roots = np.roots(coeffs[::-1])
    assert np.abs(roots.imag).max(initial=0.0) < 1e-6, "symmetric matrix, real roots"
    return np.sort(roots.real)


def jacobi_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unit eigenvectors (columns) by cyclic Jacobi.

    Pivots run in row-major order over the strict upper triangle; each
    rotation zeroes one off-diagonal pair.  Converged when the off-diagonal
    Frobenius norm falls to 1e-10 times the Frobenius norm of the input;
    raises RuntimeError after 100 sweeps without reaching it.  Ties keep a
    stable order.  O(n^2) Python-level rotations per sweep: a reference for
    moderate n, not a production solver.
    """
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    stop = 1e-10 * np.linalg.norm(a)
    v = np.eye(n)
    for _ in range(100):
        if np.linalg.norm(a - np.diag(np.diag(a))) <= stop:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                sign = 1.0 if theta >= 0 else -1.0
                t = sign / (abs(theta) + np.hypot(theta, 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = a[p, p], a[q, q]
                # rotate rows/columns p and q wholesale, then restore the
                # pivot block with the exact compact updates
                ap = a[p].copy()
                aq = a[q].copy()
                a[p] = c * ap - s * aq
                a[q] = s * ap + c * aq
                a[:, p] = a[p]
                a[:, q] = a[q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise RuntimeError(f"Jacobi sweeps did not reach off-diagonal norm {stop:g}")
    eigenvalues = np.diag(a).copy()
    order = np.argsort(eigenvalues, kind="stable")
    return eigenvalues[order], v[:, order]


def distance_scores_broadcast(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Score matrix D[i, c] = -0.5 * ||m_c - u_i||^2 from the full (s, n, k)
    difference tensor: exact formula, memory s * n * k."""
    return -0.5 * ((u[:, None, :] - m[None, :, :]) ** 2).sum(axis=2)


def dense_candidate_stream(
    n: int, k: int, candidates: int, seed: int = 0
) -> Iterator[np.ndarray]:
    """The candidates ``dense_random_code(n, k, candidates, seed)`` scans,
    in order, one float64 ``n x k`` matrix at a time.  A negative ``seed``
    raises at the call, before any draw."""
    blocks = _pm1_candidates(n, k, candidates, seed, np.float64)
    return (cand for block in blocks for cand in block)


def min_row_hamming_brute(values: np.ndarray) -> int:
    """Pairwise sign-disagreement minimum, via explicit loops."""
    n = values.shape[0]
    best = values.shape[1] + 1
    for i in range(n):
        for j in range(i + 1, n):
            d = int((np.sign(values[i]) != np.sign(values[j])).sum())
            best = min(best, d)
    return best


def max_abs_col_cosine_brute(values: np.ndarray) -> float:
    """Largest |cosine| over column pairs, via explicit loops."""
    k = values.shape[1]
    best = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            x, y = values[:, i], values[:, j]
            nx, ny = np.linalg.norm(x), np.linalg.norm(y)
            if nx <= 1e-15 or ny <= 1e-15:
                continue
            best = max(best, abs(float(x @ y) / (nx * ny)))
    return best


def min_row_hamming_one_hot(values: np.ndarray) -> int:
    """Minimum pairwise sign-pattern Hamming distance from an n x 3k one-hot
    encoding of the signs over {-1, 0, +1}: ``E @ E.T`` counts agreements.
    A single row gives k + 1."""
    signs = np.sign(values)
    e = np.concatenate([signs == s for s in (-1.0, 0.0, 1.0)], axis=1).astype(np.float64)
    agree = e @ e.T
    np.fill_diagonal(agree, -1.0)
    return int(signs.shape[1] - agree.max())


def max_abs_pair_cosine_triu(vectors: np.ndarray) -> float:
    """Largest |cosine| over distinct row pairs, read from the strict upper
    triangle; pairs whose norm product is <= 1e-30 count as 0."""
    m = vectors.shape[0]
    if m < 2:
        return 0.0
    gram = vectors @ vectors.T
    sq = np.diag(gram).copy()
    denom = np.sqrt(np.outer(sq, sq))
    with np.errstate(invalid="ignore", divide="ignore"):
        cos = np.where(denom > 1e-30, gram / np.where(denom > 0, denom, 1.0), 0.0)
    iu = np.triu_indices(m, k=1)
    return float(np.abs(cos[iu]).max())


def format_rows_per_element(
    values: np.ndarray, row_labels: np.ndarray | None = None
) -> str:
    """CSV text one element at a time: ``repr(float(v))`` for float arrays,
    ``str(int(v))`` for integer arrays, optional integer label first."""
    values = np.asarray(values)
    fmt = (lambda v: repr(float(v))) if values.dtype.kind == "f" else (lambda v: str(int(v)))
    lines = []
    for i, row in enumerate(values):
        label = "" if row_labels is None else str(int(row_labels[i])) + ","
        lines.append(label + ",".join(fmt(v) for v in row) + "\n")
    return "".join(lines)


def attribute_table_nested(depth: int, branching: int) -> tuple[np.ndarray, list[str]]:
    """Per-class first-child attribute table of a balanced tree, by comparing
    every leaf path with every internal node's first child.

    Internal nodes in breadth-first order, leaves in lexicographic path
    order; entry (c, j) is 1 when leaf c descends from node j's first child.
    """
    internal = [path for d in range(depth) for path in product(range(branching), repeat=d)]
    leaves = list(product(range(branching), repeat=depth))
    table = np.zeros((len(leaves), len(internal)))
    names = []
    for j, path in enumerate(internal):
        names.append("node-" + ".".join(map(str, path)) if path else "node-root")
        first_child = path + (0,)
        for c, leaf in enumerate(leaves):
            if leaf[: len(first_child)] == first_child:
                table[c, j] = 1.0
    return table, names


def synth_hierarchical_per_node(
    depth: int,
    branching: int,
    samples_per_class: int,
    class_sep: float,
    noise_sigma: float,
    p: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Features, labels, attribute table and names of the synthetic tree
    dataset, walking the tree breadth-first one node at a time.

    Each child offsets its parent's center by ``class_sep * 2**-(d-1)``
    times a unit direction of p fresh normals, drawn again while its norm is
    <= 1e-12; then each class in turn draws its (samples, p) noise block.
    """
    rng = np.random.default_rng(seed)

    def unit_direction() -> np.ndarray:
        while True:
            v = rng.standard_normal(p)
            norm = np.linalg.norm(v)
            if norm > 1e-12:
                return v / norm

    level = [((), np.zeros(p))]
    for d in range(1, depth + 1):
        magnitude = class_sep * 2.0 ** -(d - 1)
        level = [
            (path + (child,), center + magnitude * unit_direction())
            for path, center in level
            for child in range(branching)
        ]
    features = np.empty((len(level) * samples_per_class, p))
    labels = np.repeat(np.arange(len(level)), samples_per_class)
    for c, (_, center) in enumerate(level):
        block = slice(c * samples_per_class, (c + 1) * samples_per_class)
        noise = rng.standard_normal((samples_per_class, p)) * noise_sigma
        features[block] = center + noise
    table, names = attribute_table_nested(depth, branching)
    return features, labels, table, names


def split_rows_per_class(
    labels: np.ndarray, n: int, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Row indices of a stratified train/eval split, one class at a time.

    Class c's rows are found by the mask ``labels == c`` and permuted by
    the seed's generator; ``round(train_fraction * size)``, clamped to
    [1, size - 1], go to train.  Each side lists a class's rows ascending,
    classes in label order.
    """
    rng = np.random.default_rng(seed)
    train_idx, eval_idx = [], []
    for c in range(n):
        members = np.flatnonzero(labels == c)
        if members.size < 2:
            raise ValueError(
                f"class {c} has {members.size} sample(s); need >= 2 to appear in both splits"
            )
        perm = members[rng.permutation(members.size)]
        take = int(np.floor(train_fraction * members.size + 0.5))
        take = min(max(take, 1), members.size - 1)
        train_idx.append(np.sort(perm[:take]))
        eval_idx.append(np.sort(perm[take:]))
    return np.concatenate(train_idx), np.concatenate(eval_idx)


def class_mean_similarity_masked(features: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """Similarity weights ``(1 + cos(mean_i, mean_j)) / 2`` with a zero
    diagonal, each class mean taken over the mask ``labels == c``."""
    means = np.empty((n, features.shape[1]))
    for c in range(n):
        means[c] = features[labels == c].mean(axis=0)
    unit = means / np.linalg.norm(means, axis=1)[:, None]
    cos = unit @ unit.T
    cos = (cos + cos.T) / 2
    w = np.maximum((1.0 + cos) / 2, 0.0)
    np.fill_diagonal(w, 0.0)
    return w


def update_vector_zeros_array(z: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Batch mean of the per-sample hard mismatch vectors ``e_pred - e_true``
    (``pred`` the argmax of each row of z), built as a dense (s, n) matrix."""
    out = np.zeros_like(z)
    idx = np.arange(z.shape[0])
    out[idx, z.argmax(axis=1)] += 1.0
    out[idx, ys] -= 1.0
    return out.mean(axis=0)


def softmax_metrics_copy_normalize_scatter(z: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Mean cross-entropy and accuracy of softmax outputs z, as evaluation
    once computed them: a copy of z normalized row by row into
    probabilities, copied again into a gradient with ``-1`` scattered at the
    labels, and the loss picked from the probabilities."""
    z = np.asarray(z, dtype=np.float64)
    idx = np.arange(z.shape[0])
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        probs = z - z.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
        grads = probs.copy()
        grads[idx, ys] -= 1.0
        losses = -np.log(probs[idx, ys])
    return float(losses.sum() / len(ys)), np.count_nonzero(z.argmax(axis=1) == ys) / len(ys)


def normalize(z: np.ndarray) -> np.ndarray:
    """z / ||z||_2; rejects (near-)zero vectors."""
    z = np.asarray(z, dtype=np.float64)
    norm = np.linalg.norm(z)
    if norm <= 1e-12:
        raise ValueError("cannot normalize a zero vector")
    return z / norm


def distances(u: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Score vector D with D_c = -0.5 * ||m_c - u||^2 for decoding rows m_c."""
    return -0.5 * ((m - u) ** 2).sum(axis=1)


def decoder_softmax(d: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over a score vector."""
    e = np.exp(d - d.max())
    return e / e.sum()


def decoder_probs(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Class probabilities of one output z."""
    return decoder_softmax(distances(normalize(z), m))


def decoder_loss(z: np.ndarray, m: np.ndarray, y: int) -> float:
    """Cross-entropy of one output z against label y."""
    return float(-np.log(decoder_probs(z, m)[y]))


def decoder_grad(z: np.ndarray, m: np.ndarray, y: int) -> np.ndarray:
    """Analytic gradient of ``decoder_loss`` w.r.t. z."""
    u = normalize(z)
    g = decoder_probs(z, m)
    g[y] -= 1.0
    a = m.T @ g
    return (a - (u @ a) * u) / np.linalg.norm(z)


def predict(z: np.ndarray, m: np.ndarray) -> int:
    """Nearest decoding row to z; ties go to the smallest class id."""
    return int(np.argmax(distances(normalize(z), m)))


def net_forward(p, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """One sample through the layers of ``p``: returns the output and the
    input to each layer (the cache ``net_backward`` takes)."""
    a = np.asarray(x, dtype=np.float64)
    cache = []
    for i, (w, b) in enumerate(p.layers):
        cache.append(a)
        a = w @ a + b
        if i < len(p.layers) - 1:
            a = np.maximum(a, 0.0)
    return a, cache


def net_backward(
    p, cache: list[np.ndarray], grad_z: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (weight, bias) gradients of one sample, given d loss / d z."""
    grads = []
    delta = np.asarray(grad_z, dtype=np.float64)
    for i in range(len(p.layers) - 1, -1, -1):
        grads.append((np.outer(delta, cache[i]), delta.copy()))
        if i > 0:
            delta = (p.layers[i][0].T @ delta) * (cache[i] > 0)
    return grads[::-1]


def sparsity_ratio(batch_size: int, n: int) -> float:
    """Fraction of output units a mini-batch can update at most: bs / n."""
    if batch_size < 1 or n < 1:
        raise ValueError("batch_size and n must both be >= 1")
    return batch_size / n
