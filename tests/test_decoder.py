"""Distance-decoder head: forward, softmax, analytic backward, prediction."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoc.analysis import ablation_predictions
from ecoc.codes import Binarization, CodeKind, CodeMatrix, binarize, gaussian_code, one_hot
from ecoc.datasets import Dataset
from ecoc.decoder import (
    _ROW_BLOCK,
    _distance_scores,
    backward,
    batch_loss_grad,
    decoder_softmax,
    decoding_matrix,
    distances,
    forward,
    nearest_codewords,
    normalize,
    predict,
    predict_batch,
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
    """Code with the given rows, decoded as stored (no row normalization)."""
    return CodeMatrix(np.asarray(rows, dtype=float), kind=CodeKind.GAUSSIAN,
                      normalize_rows=False)


class TestNormalize:
    def test_three_four_five(self):
        assert np.array_equal(normalize(np.array([3.0, 4.0])), [0.6, 0.8])

    def test_unit_vector_unchanged(self):
        u = np.array([0.6, 0.8])
        assert np.array_equal(normalize(u), u)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            normalize(np.zeros(2))

    def test_result_unit_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = normalize(rng.standard_normal(5) * 10)
            assert abs(np.linalg.norm(u) - 1.0) < 1e-12


class TestDistances:
    def test_exact_codeword_scores_zero_and_max(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0]])
        d = distances(np.array([1.0, 0.0]), code)
        assert d[0] == 0.0
        assert d.argmax() == 0

    def test_hand_values(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0]])
        d = distances(np.array([1.0, 0.0]), code)
        assert np.array_equal(d, [0.0, -1.0])

    def test_shape_mismatch_rejected(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="match"):
            distances(np.ones(3), code)

    def test_row_normalization_applied(self):
        raw = CodeMatrix(np.array([[2.0, 0.0], [0.0, 0.5]]), kind=CodeKind.GAUSSIAN)
        assert raw.normalize_rows
        d = distances(np.array([1.0, 0.0]), raw)
        # both rows decode as unit vectors, so the aligned one is at distance 0
        assert d[0] == 0.0
        assert d[1] == -1.0


class TestDecoderSoftmax:
    def test_uniform_on_equal_scores(self):
        probs = decoder_softmax(np.zeros(3))
        assert np.array_equal(probs, np.full(3, 1.0 / 3.0))

    def test_two_point_values(self):
        probs = decoder_softmax(np.array([0.0, -1.0]))
        assert probs[0] == pytest.approx(0.7311, abs=1e-4)
        assert probs[1] == pytest.approx(0.2689, abs=1e-4)

    def test_large_scores_stable(self):
        probs = decoder_softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            probs = decoder_softmax(rng.standard_normal(7) * 100)
            assert abs(probs.sum() - 1.0) < 1e-12


class TestForward:
    def test_symmetric_pair_gives_log_two(self):
        code = plain_code([[1.0, 0.0], [-1.0, 0.0]])
        res = forward(np.array([0.0, 5.0]), code, 0)
        assert np.array_equal(res.probs, [0.5, 0.5])
        assert res.loss == pytest.approx(math.log(2), abs=1e-12)

    def test_matching_codeword_most_probable(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        res = forward(np.array([0.0, 3.0]), code, 1)
        assert res.probs.argmax() == 1
        assert res.loss == pytest.approx(-math.log(res.probs[1]), abs=1e-12)

    def test_label_out_of_range(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="label"):
            forward(np.ones(2), code, 2)

    def test_scale_invariance(self):
        code = gaussian_code(5, 4, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(20):
            z = rng.standard_normal(4)
            a = forward(z, code, 2)
            b = forward(z * rng.uniform(0.1, 100.0), code, 2)
            assert np.allclose(a.probs, b.probs, atol=1e-12)
            assert a.loss == pytest.approx(b.loss, abs=1e-12)

    def test_probs_in_simplex(self):
        code = gaussian_code(6, 3, seed=5)
        rng = np.random.default_rng(6)
        for _ in range(30):
            res = forward(rng.standard_normal(3), code, 0)
            assert (res.probs >= 0).all() and (res.probs <= 1).all()
            assert abs(res.probs.sum() - 1.0) < 1e-12


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
            res = forward(z, code, y)
            grad = backward(z, code, y, res.probs)
            fd = finite_difference_gradient(lambda t: forward(t, code, y).loss, z)
            assert max_relative_error(grad, fd) < FD_REL_TOL

    def test_finite_difference_every_code_kind(self):
        rng = np.random.default_rng(9)
        for code in all_kind_codes():
            for _ in range(10):
                z = rng.standard_normal(code.k)
                y = int(rng.integers(code.n))
                res = forward(z, code, y)
                grad = backward(z, code, y, res.probs)
                fd = finite_difference_gradient(lambda t: forward(t, code, y).loss, z)
                assert max_relative_error(grad, fd) < FD_REL_TOL

    def test_gradient_orthogonal_to_z(self):
        code = gaussian_code(6, 5, seed=10)
        rng = np.random.default_rng(11)
        for _ in range(50):
            z = rng.standard_normal(5) * 4
            res = forward(z, code, 3)
            grad = backward(z, code, 3, res.probs)
            assert abs(grad @ z) < 1e-10

    def test_confident_correct_prediction_zero_gradient(self):
        code = gaussian_code(4, 3, seed=12)
        z = np.ones(3)
        probs = np.array([0.0, 1.0, 0.0, 0.0])
        assert np.array_equal(backward(z, code, 1, probs), np.zeros(3))

    def test_descent_direction(self):
        """Small steps against the gradient reduce the loss."""
        code = gaussian_code(5, 6, seed=13)
        rng = np.random.default_rng(14)
        for _ in range(100):
            z = rng.standard_normal(6)
            y = int(rng.integers(5))
            res = forward(z, code, y)
            grad = backward(z, code, y, res.probs)
            if np.linalg.norm(grad) < 1e-12:
                continue
            stepped = forward(z - 1e-4 * grad, code, y)
            assert stepped.loss < res.loss


class TestPredict:
    def test_scaled_codeword_recovered(self):
        code = plain_code([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert predict(np.array([0.0, 17.0]), code) == 1
        assert predict(np.array([0.0, 0.001]), code) == 1

    def test_tie_goes_to_smaller_id(self):
        code = plain_code([[0.0, -1.0], [1.0, 0.0], [-0.6, -0.8], [-1.0, 0.0]])
        # u = (0, 1) is equidistant from codewords 1 and 3
        z = np.array([0.0, 2.0])
        assert predict(z, code) == 1
        assert predict_batch(z[None, :], decoding_matrix(code)).tolist() == [1]
        identity = NetParams([(np.eye(2), np.zeros(2))])
        ds = Dataset(z[None, :], np.array([1]), code.n)
        [(_, preds)] = ablation_predictions(identity, ds, code, [2])
        assert preds.tolist() == [1]

    def test_consistent_with_forward_argmax(self):
        code = gaussian_code(7, 4, seed=15)
        rng = np.random.default_rng(16)
        for _ in range(100):
            z = rng.standard_normal(4)
            assert predict(z, code) == forward(z, code, 0).probs.argmax()

    def test_one_hot_reduces_to_largest_coordinate(self):
        code = one_hot(5)
        rng = np.random.default_rng(17)
        for _ in range(50):
            z = rng.standard_normal(5)
            u = z / np.linalg.norm(z)
            assert predict(z, code) == int(np.argmax(u))


class TestBatchOps:
    def test_matches_single_sample_ops(self):
        code = gaussian_code(6, 5, seed=18)
        rng = np.random.default_rng(19)
        z = rng.standard_normal((12, 5))
        ys = rng.integers(0, 6, size=12)
        losses, probs, grads = batch_loss_grad(z, code, ys)
        for i in range(12):
            res = forward(z[i], code, int(ys[i]))
            grad = backward(z[i], code, int(ys[i]), res.probs)
            assert losses[i] == pytest.approx(res.loss, abs=1e-12)
            assert np.allclose(probs[i], res.probs, atol=1e-12)
            assert np.allclose(grads[i], grad, atol=1e-12)

    @pytest.mark.parametrize(
        "rows", [1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 5]
    )
    def test_matches_single_sample_ops_across_row_blocks(self, rows):
        code = gaussian_code(7, 5, seed=23)
        rng = np.random.default_rng(rows)
        z = rng.standard_normal((rows, 5))
        ys = rng.integers(0, 7, size=rows)
        losses, probs, grads = batch_loss_grad(z, code, ys)
        assert losses.shape == (rows,) and probs.shape == (rows, 7)
        assert grads.shape == (rows, 5)
        for i in range(rows):
            res = forward(z[i], code, int(ys[i]))
            grad = backward(z[i], code, int(ys[i]), res.probs)
            assert losses[i] == pytest.approx(res.loss, abs=1e-12)
            assert np.allclose(probs[i], res.probs, atol=1e-12)
            assert np.allclose(grads[i], grad, atol=1e-12)

    def test_predict_batch_matches_predict(self):
        code = gaussian_code(6, 5, seed=18)
        rng = np.random.default_rng(20)
        z = rng.standard_normal((40, 5))
        preds = predict_batch(z, decoding_matrix(code))
        for i in range(40):
            assert preds[i] == predict(z[i], code)

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
def score_inputs(draw):
    """(u, m) pairs covering the decoder's scoring inputs: unit output rows
    against unit codewords, truncated prefixes of both (not unit length),
    +-1 codes decoded as stored (||m||^2 = k), and one-hot codes."""
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
    return u, m


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
            with pytest.raises(ValueError, match=r"zero-norm codewords .* rows \[1\]"):
                decoding_matrix(code)


class TestGramScores:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(score_inputs())
    def test_matches_broadcast_oracle(self, inputs):
        u, m = inputs
        ref = distance_scores_broadcast(u, m)
        tol = 1e-12 * (1.0 + (u * u).sum(axis=1)[:, None] + (m * m).sum(axis=1))
        assert (np.abs(_distance_scores(u, m) - ref) <= tol).all()
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

    def test_batch_loss_grad_memory_is_one_probs_matrix_plus_a_block(self):
        """Besides the returned (s, n) probabilities, scores, softmax and the
        gradient's (s, n) factor are worked through one block at a time."""
        code = gaussian_code(512, 50)
        s, n = 2048, code.n
        rng = np.random.default_rng(0)
        z = rng.standard_normal((s, 50))
        ys = rng.integers(0, n, size=s)
        tracemalloc.start()
        try:
            batch_loss_grad(z, code, ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * s * n * 8
