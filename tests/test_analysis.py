"""Confusion counts, correlation tables, bit ablation, and the reference
sparsity ratio."""

import os

import numpy as np
import pytest

from ecoc.analysis import (
    ConfusionMatrix,
    ablation_predictions,
    attribute_correlation,
    bit_ablation,
    confusion,
    pcc,
    save_ablation_csv,
    save_confusion_csv,
    save_correlation_csv,
)
from ecoc.codes import Binarization, CodeKind, CodeMatrix, gaussian_code
from ecoc.datasets import Dataset
from ecoc.decoder import decoding_matrix, predict_batch
from ecoc.net import NetParams, net_outputs
from ecoc.spectral import SimilarityGraph, spectral_code
from oracles import sparsity_ratio


def signed_code(rows) -> CodeMatrix:
    return CodeMatrix(
        np.asarray(rows, dtype=np.float64),
        kind=CodeKind.GAUSSIAN,
        binarization=Binarization.ZERO,
    )


def identity_net(k: int) -> NetParams:
    return NetParams([(np.eye(k), np.zeros(k))])


def dense_graph(n: int, seed: int) -> SimilarityGraph:
    """Uniform positive weights, symmetric, zero diagonal."""
    w = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return SimilarityGraph(w)


class TestConfusion:
    def test_perfect_predictions_fill_diagonal(self):
        labels = np.array([0, 1, 2, 2, 1])
        cm = confusion(labels, labels, 3)
        assert np.array_equal(cm.counts, np.diag([1, 2, 2]))
        assert cm.accuracy == 1.0

    def test_collapsed_predictor(self):
        cm = confusion(np.zeros(4, dtype=int), np.array([0, 1, 1, 1]), 2)
        assert np.array_equal(cm.counts, [[1, 0], [3, 0]])
        assert cm.accuracy == 0.25

    def test_half_right(self):
        cm = confusion(np.array([0, 1]), np.array([1, 1]), 2)
        assert np.array_equal(cm.counts, [[0, 0], [1, 1]])
        assert cm.accuracy == 0.5

    def test_rows_are_true_classes(self):
        # one sample: true 2 predicted 0 -> counts[2][0]
        cm = confusion(np.array([0]), np.array([2]), 3)
        assert cm.counts[2, 0] == 1
        assert cm.counts.sum() == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="pred"):
            confusion(np.array([2]), np.array([0]), 2)
        with pytest.raises(ValueError, match="label"):
            confusion(np.array([0]), np.array([-1]), 2)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion(np.array([0, 1]), np.array([0]), 2)

    def test_accuracy_matches_elementwise_mean(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 5, 100)
        labels = rng.integers(0, 5, 100)
        cm = confusion(preds, labels, 5)
        assert cm.accuracy == pytest.approx((preds == labels).mean())
        assert cm.counts.sum() == 100

    def test_empty_accuracy_rejected(self):
        cm = ConfusionMatrix(np.zeros((2, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="no samples"):
            cm.accuracy


class TestPcc:
    def test_identical_is_one(self):
        xs = np.array([1.0, 2.0, 5.0, -1.0])
        assert pcc(xs, xs) == pytest.approx(1.0, abs=1e-12)

    def test_negated_is_minus_one(self):
        xs = np.array([1.0, 2.0, 5.0, -1.0])
        assert pcc(xs, -xs) == pytest.approx(-1.0, abs=1e-12)

    def test_constant_rejected(self):
        with pytest.raises(ValueError, match="zero-variance"):
            pcc(np.array([1.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]))

    def test_hand_value(self):
        # cov = 2, sd_x = sqrt(2), sd_y = sqrt(2)
        assert pcc(np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])) == pytest.approx(1.0)
        assert pcc(np.array([0.0, 1.0, 2.0]), np.array([3.0, 1.0, 2.0])) == pytest.approx(-0.5)

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            xs = rng.standard_normal(12)
            ys = rng.standard_normal(12)
            r = pcc(xs, ys)
            assert pcc(ys, xs) == pytest.approx(r)
            assert pcc(3.0 * xs + 7.0, ys) == pytest.approx(r)
            assert pcc(-2.0 * xs + 1.0, ys) == pytest.approx(-r)
            assert -1.0 <= r <= 1.0


class TestAttributeCorrelation:
    def test_planted_bit_scores_one(self):
        attr = np.array([1, 0, 1, 0])
        rows = np.array([
            [+1, +1],
            [-1, +1],
            [+1, -1],
            [-1, -1],
        ], dtype=np.float64)  # bit 1 is the attribute recoded to +-1
        code = signed_code(rows)
        table = attribute_correlation(code, attr[:, None], ("side",))
        assert table[0] == (1, "side", 1.0)

    def test_grouped_by_bit_sorted_by_strength(self):
        attrs = np.array([
            [1, 1],
            [0, 1],
            [1, 0],
            [0, 0],
        ], dtype=np.float64)
        rows = np.array([
            [+1, +1],
            [-1, +1],
            [+1, -1],
            [-1, -1],
        ], dtype=np.float64)
        table = attribute_correlation(signed_code(rows), attrs, ("a", "b"))
        assert [t[0] for t in table] == [1, 1, 2, 2]
        for bit in (1, 2):
            rs = [abs(t[2]) for t in table if t[0] == bit]
            assert rs == sorted(rs, reverse=True)
        # bit 1 recodes attribute a exactly; bit 2 recodes attribute b
        assert table[0][1] == "a" and table[0][2] == pytest.approx(1.0)
        assert table[2][1] == "b" and table[2][2] == pytest.approx(1.0)

    def test_constant_attribute_warned_and_skipped(self):
        rows = np.array([[+1.0], [-1.0]])
        attrs = np.array([[1, 1], [1, 0]], dtype=np.float64)
        with pytest.warns(UserWarning, match="flat"):
            table = attribute_correlation(signed_code(rows), attrs, ("flat", "ok"))
        assert [t[1] for t in table] == ["ok"]

    def test_constant_code_bit_warned_and_skipped(self):
        rows = np.array([[+1.0, +1.0], [+1.0, -1.0]])
        attrs = np.array([[1], [0]], dtype=np.float64)
        with pytest.warns(UserWarning, match="bit 1"):
            table = attribute_correlation(signed_code(rows), attrs)
        assert [t[0] for t in table] == [2]

    def test_default_names(self):
        rows = np.array([[+1.0], [-1.0]])
        attrs = np.array([[1], [0]], dtype=np.float64)
        table = attribute_correlation(signed_code(rows), attrs)
        assert table[0][1] == "attr0"

    def test_shape_validation(self):
        rows = np.array([[+1.0], [-1.0]])
        with pytest.raises(ValueError, match="classes"):
            attribute_correlation(signed_code(rows), np.zeros((3, 1)))
        with pytest.raises(ValueError, match="names"):
            attribute_correlation(signed_code(rows), np.zeros((2, 1)), ("a", "b"))

    def test_unrelated_attribute_null_is_weak(self):
        """Random codes against random attributes: the typical |r| on 100
        classes sits well under 0.2."""
        rng = np.random.default_rng(7)
        n = 100
        values = rng.integers(0, 2, (n, 50)) * 2.0 - 1.0
        code = signed_code(values)
        attr = rng.integers(0, 2, n).astype(np.float64)
        attr[0] = 1.0 - attr[0] if np.ptp(attr) == 0 else attr[0]
        table = attribute_correlation(code, attr[:, None])
        magnitudes = sorted(abs(t[2]) for t in table)
        assert np.median(magnitudes) < 0.2


class TestBitAblation:
    def test_full_prefix_reproduces_model(self):
        code = gaussian_code(4, 3, seed=0)
        labels = np.array([0, 1, 2, 3, 0, 2])
        ds = Dataset(code.values[labels] + 0.01, labels, 4)
        p = identity_net(3)
        pairs = bit_ablation(p, ds, code, [3])
        z = net_outputs(p, ds.features)
        full = predict_batch(z, decoding_matrix(code))
        assert pairs == [(3, float((full == labels).mean()))]

    def test_exact_features_score_perfectly(self):
        """An output equal to a codeword decodes to its own class at every
        prefix length, since these codes' prefix rows are all distinct."""
        codes = [gaussian_code(4, 3, seed=0)] + [
            spectral_code(dense_graph(n, seed=n), n - 1) for n in (6, 10, 16)
        ]
        for code in codes:
            labels = np.arange(code.n)
            ds = Dataset(code.values[labels], labels, code.n)
            js = list(range(1, code.k + 1))
            pairs = bit_ablation(identity_net(code.k), ds, code, js)
            assert pairs == [(j, 1.0) for j in js], (code.kind, code.n)

    def test_zero_prefix_of_nonzero_output_is_scored(self):
        # class 1's prefix equals the all-zero output prefix exactly
        code = CodeMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
        ds = Dataset(np.array([[0.0, 2.0]]), np.array([1]), 2)
        assert bit_ablation(identity_net(2), ds, code, [1, 2]) == [(1, 1.0), (2, 1.0)]

    def test_prefix_predictions_match_accuracy(self):
        code = gaussian_code(5, 4, seed=2)
        rng = np.random.default_rng(2)
        labels = np.repeat(np.arange(5), 4)
        ds = Dataset(code.values[labels] + 0.5 * rng.standard_normal((20, 4)), labels, 5)
        p = identity_net(4)
        preds = ablation_predictions(p, ds, code, [2, 4])
        assert [j for j, _ in preds] == [2, 4]
        assert np.array_equal(preds[1][1], predict_batch(net_outputs(p, ds.features),
                                                         decoding_matrix(code)))
        assert bit_ablation(p, ds, code, [2, 4]) == [
            (j, float((pr == labels).mean())) for j, pr in preds
        ]

    def test_constant_first_bit_gives_first_class(self):
        # prefix of length 1 sees identical scores -> always predicts class 0
        code = signed_code([[1.0, 1.0], [1.0, -1.0]])
        labels = np.array([0, 1])
        ds = Dataset(code.values[labels], labels, 2)
        pairs = bit_ablation(identity_net(2), ds, code, [1, 2])
        assert pairs == [(1, 0.5), (2, 1.0)]

    def test_one_bit_bounded_by_two_classes(self):
        """A single +-1 coordinate distinguishes at most two classes."""
        rng = np.random.default_rng(3)
        code = signed_code(rng.integers(0, 2, (6, 5)) * 2.0 - 1.0)
        labels = np.repeat(np.arange(6), 10)
        feats = code.values[labels] + 0.3 * rng.standard_normal((60, 5))
        ds = Dataset(feats, labels, 6)
        (j, acc), = bit_ablation(identity_net(5), ds, code, [1])
        shares = np.bincount(labels, minlength=6) / 60
        assert acc <= sorted(shares)[-2:][0] + sorted(shares)[-2:][1] + 1e-12

    def test_prefix_range_validated(self):
        code = gaussian_code(3, 2, seed=0)
        ds = Dataset(code.values[[0, 1, 2]], np.arange(3), 3)
        p = identity_net(2)
        for j in (0, 3, -1):
            with pytest.raises(ValueError, match="prefix"):
                bit_ablation(p, ds, code, [j])

    def test_output_width_must_match_code(self):
        code = gaussian_code(3, 4, seed=0)
        ds = Dataset(np.zeros((3, 2)), np.arange(3), 3)
        with pytest.raises(ValueError, match="output size"):
            bit_ablation(identity_net(2), ds, code, [1])


class TestSparsityRatio:
    """The reference bound behind the softmax head's update-density test."""

    def test_values(self):
        assert sparsity_ratio(16, 200) == 0.08
        assert sparsity_ratio(256, 1000) == 0.256
        assert sparsity_ratio(64, 64) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            sparsity_ratio(0, 10)
        with pytest.raises(ValueError):
            sparsity_ratio(10, 0)


class TestCsvWriters:
    def test_confusion_grid(self, tmp_path):
        cm = confusion(np.array([0, 1, 1]), np.array([0, 1, 0]), 2)
        path = os.path.join(tmp_path, "confusion.csv")
        save_confusion_csv(cm, path)
        assert open(path).read() == "true\\pred,0,1\n0,1,1\n1,0,1\n"

    def test_correlation_rows(self, tmp_path):
        path = os.path.join(tmp_path, "corr.csv")
        save_correlation_csv([(1, "side", 1.0), (2, "side", -0.25)], path)
        assert open(path).read() == "bit,attribute,r\n1,side,1.0\n2,side,-0.25\n"

    def test_ablation_rows(self, tmp_path):
        path = os.path.join(tmp_path, "ablation.csv")
        save_ablation_csv([(1, 0.5), (2, 1.0)], path)
        assert open(path).read() == "bits,accuracy\n1,0.5\n2,1.0\n"
