"""Distance-decoder head: scores, softmax, analytic gradient, prediction.

Every test drives the batch operations training and analysis run
(``batch_loss_grad``, ``predict_batch`` and the score and softmax steps
inside them), on one-row and multi-row batches; the single-sample
references in ``oracles`` check them row by row.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from ecoc import _util
from ecoc._util import _ROW_QUANTUM, block_rows
from ecoc.analysis import ablation_predictions
from ecoc.codes import (
    Binarization,
    BinarizationCollisionError,
    CodeKind,
    CodeMatrix,
    binarize,
    gaussian_code,
    one_hot,
)
from ecoc.datasets import Dataset
from ecoc.decoder import (
    _distance_scores,
    batch_loss_grad,
    decoding_matrix,
    nearest_codewords,
    predict_batch,
    softmax_ce_in_place,
    unit_rows,
)
from ecoc.net import NetParams
from ecoc.spectral import spectral_code
from oracles import (
    FD_REL_TOL,
    distance_scores_broadcast,
    finite_difference_gradient,
    max_relative_error,
)
from test_spectral import random_similarity


def plain_code(rows) -> CodeMatrix:
    """Code with the given rows, decoded as stored: a raw dense code is not
    row-normalized."""
    return CodeMatrix(np.asarray(rows, dtype=float), kind=CodeKind.DENSE_RANDOM)


# batch sizes at and around the decoder's row-block boundaries, which are
# every _ROW_QUANTUM rows under quantum_blocks()
ROW_COUNTS = [1, _ROW_QUANTUM - 1, _ROW_QUANTUM, _ROW_QUANTUM + 1, 3 * _ROW_QUANTUM + 5]


def quantum_blocks():
    """Shrink the score-block element budget to nothing, so every score
    block is one ``_ROW_QUANTUM``-row quantum whatever the class count."""
    return mock.patch.object(_util, "ROW_BLOCK_ELEMS", 0)


def scores(z, code) -> np.ndarray:
    """The decoder's score rows for a batch of outputs."""
    u, _ = unit_rows(np.asarray(z, dtype=float))
    m = decoding_matrix(code)
    return _distance_scores(u, m, np.einsum("ij,ij->i", m, m))


def softmax(d) -> np.ndarray:
    """Probabilities of score rows: the decoder's loss-only softmax, applied
    to a copy, leaves the shifted exponentials, and dividing by their row
    sums is the division its gradient form makes."""
    e = np.array(d, dtype=float)
    with np.errstate(divide="ignore"):  # the loss, unused, may be -log 0
        softmax_ce_in_place(e, np.zeros(len(e), dtype=int))
    return e / np.add.reduce(e, axis=1, keepdims=True)


def loss_grad(z, code, y) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss, probabilities and gradient of one output, as a one-row batch."""
    z = np.asarray(z, dtype=float)[None, :]
    losses, grads = batch_loss_grad(z, code, [y])
    return float(losses[0]), softmax(scores(z, code))[0], grads[0]


def loss(z, code, y) -> float:
    return loss_grad(z, code, y)[0]


class TestNormalize:
    def test_three_four_five(self):
        u, norms = unit_rows(np.array([[3.0, 4.0], [0.0, -2.0]]))
        assert np.array_equal(u, [[0.6, 0.8], [0.0, -1.0]])
        assert np.array_equal(norms, [5.0, 2.0])

    def test_unit_vector_unchanged(self):
        u = np.array([[0.6, 0.8]])
        assert np.array_equal(unit_rows(u)[0], u)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="cannot normalize a zero vector"):
            unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="cannot normalize a zero vector"):
            predict_batch(np.zeros((1, 2)), np.eye(2))

    def test_non_finite_norm_rejected(self):
        """Rows whose squares overflow, or that hold inf or NaN, have no
        computable direction; rows just below the overflow keep the plain
        formula's bits."""
        big = np.array([[3e153, 4e153], [1.0, 0.0]])
        u, norms = unit_rows(big)
        assert np.array_equal(norms, np.sqrt((big * big).sum(axis=1)))
        assert np.array_equal(u, big / norms[:, None])
        for bad in (1e200, np.inf, np.nan):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite$"):
                unit_rows(np.array([[1.0, 2.0], [bad, 0.0]]))

    def test_noun_names_the_rows(self):
        zero = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match=r"^cannot normalize a zero vector \(means \[0, 2\]\)$"):
            unit_rows(zero, "means")
        big = np.array([[1.0, 0.0], [1e200, 1.0], [np.nan, 1.0]])
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"not finite \(means \[1, 2\]\)$"):
                unit_rows(big, "means")

    def test_result_unit_norm(self):
        rng = np.random.default_rng(0)
        u, _ = unit_rows(rng.standard_normal((20, 5)) * 10)
        assert (np.abs(np.linalg.norm(u, axis=1) - 1.0) < 1e-12).all()


class TestDistances:
    def test_exact_codeword_scores_zero_and_max(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0]])
        d = scores([[1.0, 0.0]], code)[0]
        assert d[0] == 0.0
        assert d.argmax() == 0

    def test_hand_values(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0]])
        d = scores([[1.0, 0.0], [0.0, 3.0]], code)
        assert np.array_equal(d, [[0.0, -1.0], [-1.0, 0.0]])

    def test_shape_mismatch_rejected(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match=r"batch shape \(1, 3\) does not match code bits 2"):
            batch_loss_grad(np.ones((1, 3)), code, [0])
        with pytest.raises(ValueError, match="does not match code bits"):
            batch_loss_grad(np.ones(2), code, [0])

    def test_row_normalization_applied(self):
        raw = CodeMatrix(np.array([[2.0, 0.0], [0.0, 0.5]]), kind=CodeKind.GAUSSIAN)
        assert raw.normalize_rows
        d = scores([[1.0, 0.0]], raw)[0]
        # both rows decode as unit vectors, so the aligned one is at distance 0
        assert d[0] == 0.0
        assert d[1] == -1.0


class TestDecoderSoftmax:
    def test_uniform_on_equal_scores(self):
        probs = softmax(np.zeros((2, 3)))
        assert np.array_equal(probs, np.full((2, 3), 1.0 / 3.0))

    def test_two_point_values(self):
        probs = softmax([[0.0, -1.0]])[0]
        assert probs[0] == pytest.approx(0.7311, abs=1e-4)
        assert probs[1] == pytest.approx(0.2689, abs=1e-4)

    def test_large_scores_stable(self):
        d = np.array([[1000.0, 0.0], [0.0, 1000.0]])
        assert np.allclose(softmax(d), np.eye(2), rtol=0, atol=1e-12)
        losses = softmax_ce_in_place(d, np.array([0, 1]), grad=True)
        assert np.isfinite(d).all()
        assert np.allclose(d, 0.0, rtol=0, atol=1e-12)
        assert np.allclose(losses, 0.0, rtol=0, atol=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        probs = softmax(rng.standard_normal((50, 7)) * 100)
        assert (np.abs(probs.sum(axis=1) - 1.0) < 1e-12).all()

    @pytest.mark.parametrize("kind", ["random", "tied", "pm1000"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (7, 3), (65, 130)])
    def test_loss_only_and_in_place_forms_agree(self, kind, shape):
        """Loss alone (no ``grad``) gives the bits of the gradient form's
        losses, and that form leaves in the scores the bits of the loss-only
        form's exponentials over their row sums, less ``e_y``."""
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        d = rng.standard_normal(shape) * 4
        if kind == "tied":
            d = np.round(d)
            d[:, : min(3, shape[1])] = d.max(axis=1, keepdims=True)
        elif kind == "pm1000":
            # other rows' entries underflow to 0, so some losses are inf
            d = rng.choice([-1000.0, 0.0, 1000.0], size=shape)
        ys = rng.integers(shape[1], size=shape[0])
        with np.errstate(divide="ignore"):
            e = d.copy()
            alone = softmax_ce_in_place(e, ys)
            g = d.copy()
            losses = softmax_ce_in_place(g, ys, grad=True)
        assert alone.tobytes() == losses.tobytes()
        expected = e / np.add.reduce(e, axis=1, keepdims=True)
        expected[np.arange(shape[0]), ys] -= 1.0
        assert g.tobytes() == expected.tobytes()


class TestForward:
    def test_symmetric_pair_gives_log_two(self):
        code = plain_code([[1.0, 0.0], [-1.0, 0.0]])
        loss_, probs, _ = loss_grad([0.0, 5.0], code, 0)
        assert np.array_equal(probs, [0.5, 0.5])
        assert loss_ == pytest.approx(math.log(2), abs=1e-12)

    def test_matching_codeword_most_probable(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        loss_, probs, _ = loss_grad([0.0, 3.0], code, 1)
        assert probs.argmax() == 1
        assert loss_ == pytest.approx(-math.log(probs[1]), abs=1e-12)

    def test_label_out_of_range(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0]])
        for ys in ([2], [0, -1]):
            with pytest.raises(ValueError, match="labels out of range for 2 classes"):
                batch_loss_grad(np.ones((len(ys), 2)), code, np.array(ys))

    def test_scale_invariance(self):
        code = gaussian_code(5, 4, seed=3)
        rng = np.random.default_rng(4)
        z = rng.standard_normal((20, 4))
        ys = np.full(20, 2)
        scaled = z * rng.uniform(0.1, 100.0, (20, 1))
        a_loss, _ = batch_loss_grad(z, code, ys)
        b_loss, _ = batch_loss_grad(scaled, code, ys)
        assert np.allclose(softmax(scores(z, code)), softmax(scores(scaled, code)), atol=1e-12)
        assert np.allclose(a_loss, b_loss, rtol=0, atol=1e-12)

    def test_probs_in_simplex(self):
        code = gaussian_code(6, 3, seed=5)
        rng = np.random.default_rng(6)
        probs = softmax(scores(rng.standard_normal((30, 3)), code))
        assert (probs >= 0).all() and (probs <= 1).all()
        assert (np.abs(probs.sum(axis=1) - 1.0) < 1e-12).all()


def all_kind_codes():
    """One code of each construction kind, plus binarized variants."""
    sim = random_similarity(6, 20)
    return [
        one_hot(5),
        gaussian_code(5, 8, seed=0),
        binarize(gaussian_code(5, 8, seed=1), Binarization.ZERO),
        binarize(gaussian_code(5, 8, seed=2), Binarization.MEDIAN),
        spectral_code(sim, 4),
    ]


class TestBackward:
    def test_finite_difference_random_suite(self):
        """100 random probes on a 5-class, 8-bit gaussian code."""
        code = gaussian_code(5, 8, seed=7)
        rng = np.random.default_rng(8)
        for _ in range(100):
            z = rng.standard_normal(8) * rng.uniform(0.5, 3.0)
            y = int(rng.integers(5))
            grad = loss_grad(z, code, y)[2]
            fd = finite_difference_gradient(lambda t: loss(t, code, y), z)
            assert max_relative_error(grad, fd) < FD_REL_TOL

    def test_finite_difference_every_code_kind(self):
        rng = np.random.default_rng(9)
        for code in all_kind_codes():
            for _ in range(10):
                z = rng.standard_normal(code.k)
                y = int(rng.integers(code.n))
                grad = loss_grad(z, code, y)[2]
                fd = finite_difference_gradient(lambda t: loss(t, code, y), z)
                assert max_relative_error(grad, fd) < FD_REL_TOL

    def test_gradient_orthogonal_to_z(self):
        code = gaussian_code(6, 5, seed=10)
        rng = np.random.default_rng(11)
        z = rng.standard_normal((50, 5)) * 4
        _, grads = batch_loss_grad(z, code, np.full(50, 3))
        assert (np.abs((grads * z).sum(axis=1)) < 1e-10).all()

    def test_confident_correct_prediction_zero_gradient(self):
        # the far codeword scores about -5000, so its probability underflows
        # to 0 and the true class gets probability 1 exactly
        code = plain_code([[1.0, 0.0], [0.0, -100.0]])
        z = np.array([[3.0, 0.0]])
        _, grads = batch_loss_grad(z, code, [0])
        assert np.array_equal(softmax(scores(z, code)), [[1.0, 0.0]])
        assert np.array_equal(grads, np.zeros((1, 2)))

    def test_descent_direction(self):
        """Small steps against the gradient reduce the loss."""
        code = gaussian_code(5, 6, seed=13)
        rng = np.random.default_rng(14)
        z = rng.standard_normal((100, 6))
        ys = rng.integers(5, size=100)
        losses, grads = batch_loss_grad(z, code, ys)
        moving = np.linalg.norm(grads, axis=1) >= 1e-12
        stepped, _ = batch_loss_grad(z - 1e-4 * grads, code, ys)
        assert moving.sum() > 90
        assert (stepped[moving] < losses[moving]).all()


class TestPredict:
    def test_scaled_codeword_recovered(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        z = np.array([[0.0, 17.0], [0.0, 0.001]])
        assert predict_batch(z, decoding_matrix(code)).tolist() == [1, 1]

    def test_tie_goes_to_smaller_id(self):
        code = plain_code([[0.0, -1.0], [1.0, 0.0], [-0.6, -0.8], [-1.0, 0.0]])
        # u = (0, 1) is equidistant from codewords 1 and 3
        z = np.array([0.0, 2.0])
        assert oracles.predict(z, decoding_matrix(code)) == 1
        assert predict_batch(z[None, :], decoding_matrix(code)).tolist() == [1]
        assert predict_batch(np.tile(z, (3, 1)), decoding_matrix(code)).tolist() == [1] * 3
        identity = NetParams([(np.eye(2), np.zeros(2))])
        ds = Dataset(z[None, :], np.array([1]), code.n)
        [(_, preds)] = ablation_predictions(identity, ds, code, [2])
        assert preds.tolist() == [1]

    def test_consistent_with_forward_argmax(self):
        code = gaussian_code(7, 4, seed=15)
        rng = np.random.default_rng(16)
        z = rng.standard_normal((100, 4))
        probs = softmax(scores(z, code))
        assert np.array_equal(predict_batch(z, decoding_matrix(code)), probs.argmax(axis=1))

    def test_one_hot_reduces_to_largest_coordinate(self):
        code = one_hot(5)
        rng = np.random.default_rng(17)
        z = rng.standard_normal((50, 5))
        assert np.array_equal(predict_batch(z, decoding_matrix(code)), z.argmax(axis=1))


def assert_rows_match_oracles(z, code, ys, tol=1e-12):
    """batch_loss_grad, predict_batch and the score and softmax kernels
    against the single-sample references, row by row: losses within ``tol``
    absolute, probabilities and gradients within ``tol`` absolute and
    relative."""
    losses, grads = batch_loss_grad(z, code, ys)
    probs = softmax(scores(z, code))
    m = decoding_matrix(code)
    preds = predict_batch(z, m)
    mm_max = (m * m).sum(axis=1).max()
    rows, n = probs.shape
    assert losses.shape == (rows,) and grads.shape == z.shape and n == code.n
    for i in range(rows):
        y = int(ys[i])
        assert abs(losses[i] - oracles.decoder_loss(z[i], m, y)) <= tol
        assert np.allclose(probs[i], oracles.decoder_probs(z[i], m), rtol=tol, atol=tol)
        assert np.allclose(grads[i], oracles.decoder_grad(z[i], m, y), rtol=tol, atol=tol)
        # the argmax can move only where the two best oracle scores are
        # within the scores' combined tolerance, as in TestGramScores
        top2 = np.sort(oracles.distances(oracles.normalize(z[i]), m))[-2:]
        if top2[1] - top2[0] > 2 * tol * (2.0 + mm_max):
            assert preds[i] == oracles.predict(z[i], m)


class TestBatchOps:
    def test_matches_single_sample_ops(self):
        code = gaussian_code(6, 5, seed=18)
        rng = np.random.default_rng(19)
        assert_rows_match_oracles(rng.standard_normal((12, 5)), code, rng.integers(0, 6, size=12))

    @pytest.mark.parametrize("rows", ROW_COUNTS)
    def test_matches_single_sample_ops_across_row_blocks(self, rows):
        code = gaussian_code(7, 5, seed=23)
        rng = np.random.default_rng(rows)
        with quantum_blocks():
            assert block_rows(code.n) == _ROW_QUANTUM
            assert_rows_match_oracles(
                rng.standard_normal((rows, 5)), code, rng.integers(0, 7, size=rows)
            )

    def test_predict_batch_matches_predict(self):
        code = gaussian_code(6, 5, seed=18)
        rng = np.random.default_rng(20)
        z = rng.standard_normal((40, 5))
        m = decoding_matrix(code)
        preds = predict_batch(z, m)
        assert preds.tolist() == [oracles.predict(row, m) for row in z]

    def test_label_out_of_range(self):
        code = gaussian_code(3, 4, seed=21)
        with pytest.raises(ValueError, match="labels"):
            batch_loss_grad(np.ones((2, 4)), code, np.array([0, 3]))

    def test_zero_row_rejected(self):
        code = gaussian_code(3, 4, seed=22)
        z = np.ones((2, 4))
        z[1] = 0.0
        with pytest.raises(ValueError, match="zero vector"):
            batch_loss_grad(z, code, np.array([0, 1]))


@st.composite
def oracle_inputs(draw, kind, rows):
    """(z, code, ys): ``rows`` outputs of random scale and labels against a
    code of the given kind (one-hot, gaussian, binarized or spectral)."""
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "onehot":
        code = one_hot(n)
    elif kind == "spectral":
        code = spectral_code(random_similarity(n, seed), draw(st.integers(1, n - 1)))
    else:
        code = gaussian_code(n, draw(st.integers(1, 24)), seed=seed)
    if kind == "binarized":
        try:
            code = binarize(code, draw(st.sampled_from([Binarization.ZERO, Binarization.MEDIAN])))
        except BinarizationCollisionError:
            assume(False)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, code.k)) * rng.uniform(0.1, 10.0, (rows, 1))
    return z, code, rng.integers(0, n, size=rows)


class TestBatchAgainstOracles:
    @pytest.mark.parametrize("rows", ROW_COUNTS)
    @pytest.mark.parametrize("kind", ["onehot", "gaussian", "binarized", "spectral"])
    @settings(max_examples=8, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_rows_match_single_sample_references(self, kind, rows, data):
        z, code, ys = data.draw(oracle_inputs(kind, rows))
        with quantum_blocks():
            assert_rows_match_oracles(z, code, ys)


class TestRowBlocks:
    @pytest.mark.parametrize(
        "n, rows", [(1, 65536), (16, 4096), (512, 128), (513, 64), (1024, 64), (5000, 64)]
    )
    def test_block_rows_pinned(self, n, rows):
        assert _util.ROW_BLOCK_ELEMS == 65536
        assert block_rows(n) == rows

    @pytest.mark.parametrize("n, k, s", [(16, 8, 384), (100, 20, 700), (700, 30, 200)])
    def test_default_and_quantum_blocks_agree(self, n, k, s):
        """One default block (or a few) against many 64-row ones: BLAS may
        sum in another order for other shapes, so equal to 1e-12, not bits."""
        code = gaussian_code(n, k, seed=n)
        rng = np.random.default_rng(s)
        z = rng.standard_normal((s, k))
        ys = rng.integers(0, n, size=s)
        m = decoding_matrix(code)
        default = batch_loss_grad(z, code, ys)
        default_preds = predict_batch(z, m)
        with quantum_blocks():
            quantum = batch_loss_grad(z, code, ys)
            quantum_preds = predict_batch(z, m)
        for a, b in zip(default, quantum):
            assert np.allclose(a, b, rtol=0, atol=1e-12)
        assert np.array_equal(default_preds, quantum_preds)


@st.composite
def score_inputs(draw):
    """(u, m, ||m||^2) covering the decoder's scoring inputs: unit output
    rows against unit codewords, truncated prefixes of both (not unit
    length), +-1 codes decoded as stored (||m||^2 = k), and one-hot codes.
    The squared codeword norms are summed here, not by the library."""
    kind = draw(st.sampled_from(["unit", "prefix", "signs", "onehot"]))
    s = draw(st.integers(1, 40))
    n = draw(st.integers(2, 60))
    k = n if kind == "onehot" else draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = rng.standard_normal((s, k))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    if kind == "signs":
        m = rng.choice([-1.0, 1.0], size=(n, k))
    elif kind == "onehot":
        m = np.eye(n)
    else:
        m = rng.standard_normal((n, k))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
    if kind == "prefix":
        j = draw(st.integers(1, k))
        u, m = u[:, :j], m[:, :j]
    return u, m, (m * m).sum(axis=1)


class TestDecodingMatrix:
    def test_memoized_read_only(self):
        code = gaussian_code(5, 3, seed=24)
        m = decoding_matrix(code)
        assert not m.flags.writeable
        assert decoding_matrix(code) is m
        assert np.allclose(np.linalg.norm(m, axis=1), 1.0)
        stored = plain_code([[1.0, 2.0], [3.0, 4.0]])
        assert decoding_matrix(stored) is stored.values

    def test_zero_norm_row_raises_on_every_call(self):
        code = CodeMatrix(np.array([[1.0, 0.0], [0.0, 0.0]]), kind=CodeKind.GAUSSIAN)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"zero vector \(codewords \[1\]\)$"):
                decoding_matrix(code)

    def test_overflowing_norm_names_the_rows(self):
        """Rows whose squares overflow would divide to all-zero codewords;
        they are refused by name, with no numpy warning."""
        code = CodeMatrix(np.array([[1.0, 2.0], [3e200, 0.0], [0.0, -1e160]]),
                          kind=CodeKind.GAUSSIAN)
        with pytest.raises(ValueError, match=r"not finite \(codewords \[1, 2\]\)$"):
            decoding_matrix(code)


class TestGramScores:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(score_inputs())
    def test_matches_broadcast_oracle(self, inputs):
        u, m, mm = inputs
        ref = distance_scores_broadcast(u, m)
        tol = 1e-12 * (1.0 + (u * u).sum(axis=1)[:, None] + mm)
        assert (np.abs(_distance_scores(u, m, mm) - ref) <= tol).all()
        # the argmax can move only where two oracle scores are within the
        # combined tolerance of both
        top2 = np.sort(ref, axis=1)[:, -2:]
        clear = top2[:, -1] - top2[:, 0] > 2 * tol.max(axis=1)
        preds = nearest_codewords(u, m)
        assert np.array_equal(preds[clear], ref.argmax(axis=1)[clear])

    def test_predict_batch_memory_grows_with_rows_times_classes(self):
        """2048 rows against 512 classes of 50 bits: an (s, n, k) score
        tensor would take 210 MB per 1024-row chunk, an (s, n) one 4 MB."""
        m = decoding_matrix(gaussian_code(512, 50))
        z = np.random.default_rng(0).standard_normal((2048, 50))
        tracemalloc.start()
        try:
            predict_batch(z, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_batch_loss_grad_memory_has_no_rows_by_classes_array(self):
        """Scores, softmax and the gradient are worked through one
        block-sized (rows, n) buffer and its norm-term scratch: memory is a
        few (s, k) arrays plus two blocks, with no (s, n) term.  A returned
        (s, n) probability array alone would take 8 MB here."""
        code = gaussian_code(512, 50)
        s, n, k = 2048, code.n, code.k
        rng = np.random.default_rng(0)
        z = rng.standard_normal((s, k))
        ys = rng.integers(0, n, size=s)
        tracemalloc.start()
        try:
            batch_loss_grad(z, code, ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (4 * s * k + 2 * block_rows(n) * n) * 8
