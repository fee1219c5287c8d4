"""Feedforward net: init, batch forward/backward, the SGD trainer, model files."""

import inspect
import math
import os
import struct
import sys
import tempfile
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from ecoc import _util, decoder, net
from ecoc.codes import (Binarization, CodeKind, CodeMatrix, binarize, dense_random_code,
                        gaussian_code, one_hot)
from ecoc.datasets import Dataset, synth_hierarchical
from ecoc.decoder import batch_loss_grad
from ecoc.net import (
    GRAD_ACTIVE_EPS,
    MetricsRow,
    NetParams,
    TrainConfig,
    TrainingDivergedError,
    ZeroOutputError,
    _backward_batch,
    _epoch_metrics,
    _forward_batch,
    _layer_views,
    init,
    load_model,
    net_outputs,
    resolve_head,
    save_metrics,
    save_model,
    train,
)
from ecoc.spectral import SimilarityGraph, spectral_code
from oracles import FD_REL_TOL, max_relative_error, sparsity_ratio, update_vector_zeros_array


def separable_dataset(seed: int = 0) -> Dataset:
    """Four widely separated classes, negligible noise."""
    return synth_hierarchical(
        depth=2, branching=2, samples_per_class=10, class_sep=8.0,
        noise_sigma=0.05, p=4, seed=seed,
    )


class TestInit:
    def test_layer_shapes(self):
        p = init([4, 8, 3], seed=0)
        assert [(w.shape, b.shape) for w, b in p.layers] == [
            ((8, 4), (8,)),
            ((3, 8), (3,)),
        ]
        assert p.layer_sizes == [4, 8, 3]

    def test_deterministic(self):
        a = init([4, 8, 3], seed=5)
        b = init([4, 8, 3], seed=5)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_single_size_rejected(self):
        with pytest.raises(ValueError):
            init([4], seed=0)

    def test_biases_zero_weights_scaled(self):
        p = init([100, 50], seed=1)
        w, b = p.layers[0]
        assert np.array_equal(b, np.zeros(50))
        # N(0, 1/fan_in): sample std close to 1/10
        assert w.std() == pytest.approx(0.1, rel=0.1)


class TestNetForward:
    def test_output_bias_only_when_weights_zero(self):
        p = NetParams([(np.zeros((3, 2)), np.array([1.0, -2.0, 0.5]))])
        z, _ = _forward_batch(p, np.array([[7.0, -4.0], [0.0, 1.0]]))
        assert np.array_equal(z, [[1.0, -2.0, 0.5]] * 2)

    def test_single_linear_layer(self):
        w = np.array([[1.0, 2.0], [0.0, -1.0]])
        b = np.array([0.5, 0.0])
        p = NetParams([(w, b)])
        x = np.array([3.0, 1.0])
        z, _ = _forward_batch(p, x[None, :])
        assert np.array_equal(z[0], w @ x + b)

    def test_rectifier_clamps_hidden(self):
        # hidden pre-activation forced negative; output reads only the bias
        p = NetParams([
            (-np.eye(2), np.zeros(2)),
            (np.ones((1, 2)), np.array([4.0])),
        ])
        z, cache = _forward_batch(p, np.array([[3.0, 5.0]]))
        assert np.array_equal(z, [[4.0]])
        assert np.array_equal(cache[1], np.zeros((1, 2)))

    def test_shape_mismatch_rejected(self):
        p = init([4, 3], seed=0)
        with pytest.raises(ValueError, match=r"shape \(1, 5\) does not match net input size 4"):
            _forward_batch(p, np.ones((1, 5)))
        with pytest.raises(ValueError, match="input"):
            _forward_batch(p, np.ones(4))


PRODUCT_SIZES = (1, 2, 3, 7, 8, 9, 16, 17, 64, 65, 100)


class TestProductIdentity:
    """The forward and backward passes and the decoder's scores and
    gradient take their 2-d products with ``ndarray.dot``, into a buffer
    where one exists, and their bits were pinned when they used ``@``.  So
    a numpy or BLAS build whose ``dot`` sums in another order than its
    ``matmul`` fails here, not as a silent change in ``model.bin``."""

    @staticmethod
    def operand(rng, rows, cols, transposed):
        """A (rows, cols) operand of mixed magnitudes, so that summing in
        another order moves bits: C-ordered, or a transposed view."""
        shape = (cols, rows) if transposed else (rows, cols)
        a = rng.standard_normal(shape) * np.exp2(rng.integers(-20, 21, shape))
        return a.T if transposed else a

    def test_dot_equals_matmul(self):
        rng = np.random.default_rng(35)
        cases = 0
        for rows in PRODUCT_SIZES:
            for inner in PRODUCT_SIZES:
                for cols in PRODUCT_SIZES:
                    for ta in (False, True):
                        for tb in (False, True):
                            a = self.operand(rng, rows, inner, ta)
                            b = self.operand(rng, inner, cols, tb)
                            ref = (a @ b).tobytes()
                            out = np.empty((rows, cols))
                            assert a.dot(b).tobytes() == ref, (rows, inner, cols, ta, tb)
                            assert a.dot(b, out=out) is out and out.tobytes() == ref
                            cases += 1
        assert cases == 4 * len(PRODUCT_SIZES) ** 3

    def test_dot_with_own_transpose_equals_matmul(self):
        """``a.dot(a.T)``, which BLAS may work as a symmetric rank-k update."""
        rng = np.random.default_rng(36)
        for rows in PRODUCT_SIZES:
            for inner in PRODUCT_SIZES:
                for transposed in (False, True):
                    a = self.operand(rng, rows, inner, transposed)
                    ref = (a @ a.T).tobytes()
                    out = np.empty((rows, rows))
                    assert a.dot(a.T).tobytes() == ref, (rows, inner, transposed)
                    assert a.dot(a.T, out=out) is out and out.tobytes() == ref


class TestNetBackward:
    def test_zero_output_gradient(self):
        p = init([4, 8, 3], seed=2)
        _, cache = _forward_batch(p, np.ones((5, 4)))
        grads = _backward_batch(p, cache, np.zeros((5, 3)))
        for gw, gb in grads:
            assert not gw.any()
            assert not gb.any()

    def test_finite_difference_on_parameters(self):
        """50 probes: d(mean_i v_i . net(x_i))/d(theta) against central
        differences, on batches of 1 to 4 rows."""
        rng = np.random.default_rng(3)
        p = init([4, 8, 3], seed=3)
        h = 1e-5
        for probe_no in range(50):
            rows = 1 + probe_no % 4
            x = rng.standard_normal((rows, 4))
            v = rng.standard_normal((rows, 3))
            _, cache = _forward_batch(p, x)
            grads = _backward_batch(p, cache, v)
            li = int(rng.integers(len(p.layers)))
            w, b = p.layers[li]
            flat = int(rng.integers(w.size + b.size))

            def probe(delta: float) -> float:
                layers = [(wi.copy(), bi.copy()) for wi, bi in p.layers]
                wi, bi = layers[li]
                if flat < w.size:
                    wi.flat[flat] += delta
                else:
                    bi[flat - w.size] += delta
                return float((v * net_outputs(NetParams(layers), x)).sum() / rows)

            fd = (probe(h) - probe(-h)) / (2 * h)
            gw, gb = grads[li]
            analytic = gw.flat[flat] if flat < w.size else gb[flat - w.size]
            assert max_relative_error(np.array([analytic]), np.array([fd])) < FD_REL_TOL

    def test_mean_of_single_sample_gradients(self):
        """The batch gradient is the mean of the per-sample references."""
        rng = np.random.default_rng(4)
        p = init([4, 8, 5, 3], seed=4)
        x = rng.standard_normal((7, 4))
        v = rng.standard_normal((7, 3))
        _, cache = _forward_batch(p, x)
        grads = _backward_batch(p, cache, v)
        singles = [
            oracles.net_backward(p, oracles.net_forward(p, x[i])[1], v[i]) for i in range(7)
        ]
        for li, (gw, gb) in enumerate(grads):
            assert np.allclose(gw, np.mean([g[li][0] for g in singles], axis=0), atol=1e-12)
            assert np.allclose(gb, np.mean([g[li][1] for g in singles], axis=0), atol=1e-12)

    def test_means_are_one_divide_of_the_sums(self):
        """The gradients are the per-layer batch sums over the batch's row
        count, with the bits of dividing each array, whether fresh arrays
        are made or views into a given flat buffer are filled."""
        rng = np.random.default_rng(8)
        p = init([4, 8, 5, 3], seed=8)
        x = rng.standard_normal((7, 4))
        v = rng.standard_normal((7, 3))
        _, cache = _forward_batch(p, x)
        expected = []
        delta = v
        for i in range(len(p.layers) - 1, -1, -1):
            expected.insert(0, (delta.T @ cache[i] / 7, np.add.reduce(delta, axis=0) / 7))
            if i > 0:
                delta = (delta @ p.layers[i][0]) * (cache[i] > 0)
        flat = np.full(sum(w.size + b.size for w, b in p.layers), np.nan)
        views = _layer_views(flat, p.layers)
        given = _backward_batch(p, cache, v, out=(flat, views))
        assert given is views
        for grads in (_backward_batch(p, cache, v), given):
            for (gw, gb), (ew, eb) in zip(grads, expected, strict=True):
                assert gw.tobytes() == ew.tobytes() and gb.tobytes() == eb.tobytes()
        assert np.array_equal(flat, np.concatenate([a.ravel() for pair in expected for a in pair]))

    def test_descent_shrinks_loss_and_gradient(self):
        """Plain gradient descent on a linear net with the distance-decoder
        loss: the chained analytic gradient must drive the mean loss down
        and itself decay (the loss is scale-free in the output, so the
        gradient falls off as the output norm grows)."""
        code = gaussian_code(3, 2, seed=4)
        rng = np.random.default_rng(5)
        ys = np.array([0, 1, 2] * 4)
        # features are a fixed linear image of each class codeword plus a
        # little noise, so a linear net can actually fit the task
        mix = rng.standard_normal((2, 3))
        x = code.values[ys] @ mix + 0.01 * rng.standard_normal((12, 3))
        p = init([3, 2], seed=4)

        def mean_loss_and_grad(p):
            z, cache = _forward_batch(p, x)
            losses, gz = batch_loss_grad(z, code, ys)
            (gw, gb), = _backward_batch(p, cache, gz)
            return losses.mean(), gw, gb

        loss0, gw, gb = mean_loss_and_grad(p)
        norm0 = np.sqrt((gw**2).sum() + (gb**2).sum())
        for _ in range(2000):
            _, gw, gb = mean_loss_and_grad(p)
            p = NetParams([(p.layers[0][0] - 0.5 * gw, p.layers[0][1] - 0.5 * gb)])
        loss1, gw, gb = mean_loss_and_grad(p)
        norm1 = np.sqrt((gw**2).sum() + (gb**2).sum())
        # loss attained when every sample lands exactly on its codeword;
        # finite codeword spacing keeps this strictly positive
        floor = batch_loss_grad(code.values, code, np.arange(3))[0].mean()
        assert loss1 < loss0
        assert loss1 - floor < 0.02
        assert norm1 < norm0 / 10


def record_steps(monkeypatch) -> list[tuple[bool, np.ndarray]]:
    """Record each training step the head takes, as ``train`` calls it:
    whether the batch's outputs were all finite, and the true-class
    probabilities the head handed back."""
    steps = []
    resolve = net.resolve_head

    def recording(setting, code):
        head = resolve(setting, code)
        step = head.probs_grad

        def probs_grad(z, picks):
            probs, grads = step(z, picks)
            steps.append((bool(np.isfinite(z).all()), probs.copy()))
            return probs, grads

        head.probs_grad = probs_grad
        return head

    monkeypatch.setattr(net, "resolve_head", recording)
    return steps


def assert_stopped_at(steps, batch: int, outputs_finite: bool) -> None:
    """Training stopped at step ``batch`` of epoch 0, the first step whose
    loss sum ``sum(-log p)`` is not finite, and so the first whose smallest
    ``p`` is not ``> 0``."""
    assert len(steps) == batch + 1
    with np.errstate(divide="ignore", invalid="ignore"):
        sums = [np.add.reduce(-np.log(probs)) for _, probs in steps]
    assert [math.isfinite(x) for x in sums] == [True] * batch + [False]
    assert [bool(np.minimum.reduce(probs) > 0) for _, probs in steps] == [True] * batch + [False]
    assert steps[-1][0] == outputs_finite


class TestTrain:
    def test_learns_separable_task(self):
        ds = separable_dataset()
        code = one_hot(4)
        p = init([4, 16, 4], seed=0)
        cfg = TrainConfig(epochs=200, batch_size=8, learning_rate=0.2, seed=0)
        _, rows = train(p, ds, code, cfg)
        final = [r for r in rows if r.split == "train"][-1]
        assert final.accuracy >= 0.95

    def test_deterministic_metric_rows(self):
        ds = separable_dataset()
        code = gaussian_code(4, 6, seed=1)
        cfg = TrainConfig(epochs=5, batch_size=4, learning_rate=0.1, seed=3)
        _, rows_a = train(init([4, 8, 6], seed=2), ds, code, cfg)
        _, rows_b = train(init([4, 8, 6], seed=2), ds, code, cfg)
        assert rows_a == rows_b

    def test_divergence_detected(self, monkeypatch):
        """Runaway updates blow the softmax cross-entropy head up: the
        second step's outputs are finite, but some true-class probabilities
        underflow to exactly 0.0, so ``-log p`` is the only infinity."""
        steps = record_steps(monkeypatch)
        ds = separable_dataset()
        cfg = TrainConfig(epochs=10, batch_size=8, learning_rate=1e6, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train(init([4, 8, 4], seed=0), ds, one_hot(4), cfg)
        assert err.value.epoch == 0
        assert_stopped_at(steps, batch=1, outputs_finite=True)
        assert (steps[-1][1] == 0.0).any() and not np.isnan(steps[-1][1]).any()

    @pytest.mark.parametrize("case", ["softmax-nan", "decoder-underflow"])
    def test_divergence_stops_at_the_pinned_step(self, monkeypatch, case):
        """The step at which training stops, pinned from the loss-sum rule
        (stop when ``sum(-log p)`` is not finite) that ``p > 0`` replaced.
        ``softmax-nan``: a rate of 1e300 overflows the second step's outputs,
        so its probabilities are NaN.  ``decoder-underflow``: every output is
        the finite bias ``e_2``, which the first steps turn toward codeword
        0 of a code whose codewords are 760 apart; row 17, the one sample of
        class 1, lies opposite, and in the third batch its probability
        underflows to exactly 0.0 while the outputs stay finite."""
        steps = record_steps(monkeypatch)
        ds = separable_dataset()
        if case == "softmax-nan":
            p, code, batch, finite = init([4, 8, 4], seed=0), one_hot(4), 1, False
            cfg = TrainConfig(epochs=10, batch_size=8, learning_rate=1e300, seed=0)
        else:
            ys = np.zeros(ds.samples, dtype=np.int64)
            ys[17] = 1
            ds = Dataset(ds.features, ys, 4)
            e = np.eye(8)
            code = CodeMatrix(380.0 * np.array([e[0], -e[0], e[1], -e[1]]),
                              kind=CodeKind.DENSE_RANDOM)
            p, batch, finite = NetParams([(np.zeros((8, 4)), e[2].copy())]), 2, True
            cfg = TrainConfig(epochs=40, batch_size=8, learning_rate=1e-3, seed=0)
        with pytest.raises(TrainingDivergedError,
                           match=r"^training diverged at epoch 0 \(non-finite loss\)$"):
            train(p, ds, code, cfg)
        assert_stopped_at(steps, batch, finite)
        if case == "decoder-underflow":
            assert np.count_nonzero(steps[-1][1] == 0.0) == 1

    def test_non_finite_evaluation_loss_is_divergence(self):
        """One step per epoch at a huge rate: the step's loss is finite, and
        only the train split's evaluation loss after it is not."""
        ds = separable_dataset()
        cfg = TrainConfig(epochs=1, batch_size=ds.samples, learning_rate=1e10, head="softmax")
        with pytest.raises(TrainingDivergedError) as err:
            train(init([4, 8, 4], seed=0), ds, one_hot(4), cfg)
        assert err.value.epoch == 0

    def test_decoder_output_overflow_is_divergence(self):
        """Finite outputs near 1e200 overflow their squares, so they have no
        computable direction: the decoder head reports divergence instead of
        scoring them as zero vectors with a finite loss."""
        ds = separable_dataset()
        p = init([4, 6], seed=0)
        p.layers[-1][0][...] *= 1e200
        cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1, seed=0)
        with pytest.raises(TrainingDivergedError) as err:
            train(p, ds, gaussian_code(4, 6, seed=1), cfg)
        assert err.value.epoch == 0

    def test_signature_survives_the_errstate_decorator(self):
        """Callers that bind train's arguments by name still see them."""
        params = inspect.signature(train).parameters
        assert list(params) == ["p", "dataset", "code", "cfg", "eval_set"]

    def test_decoder_head_survives_huge_learning_rate(self):
        """The distance-decoder loss is bounded (codewords and the projected
        output both live on the unit sphere), so even absurd step sizes keep
        it finite."""
        ds = separable_dataset()
        code = gaussian_code(4, 6, seed=1)
        cfg = TrainConfig(epochs=10, batch_size=8, learning_rate=1e6, seed=0)
        _, rows = train(init([4, 8, 6], seed=0), ds, code, cfg)
        assert all(np.isfinite(r.loss) for r in rows)

    def test_full_batch_equals_gradient_descent_step(self):
        """One epoch at batch_size = dataset size reproduces one full-batch
        GD update."""
        ds = separable_dataset()
        code = gaussian_code(4, 6, seed=6)
        p0 = init([4, 6], seed=7)
        cfg = TrainConfig(
            epochs=1, batch_size=ds.samples, learning_rate=0.3, seed=0, shuffle=False
        )
        trained, _ = train(p0, ds, code, cfg)

        from ecoc.decoder import batch_loss_grad
        from ecoc.net import _backward_batch, _forward_batch

        z, cache = _forward_batch(p0, ds.features)
        _, grads = batch_loss_grad(z, code, ds.labels)
        (gw, gb), = _backward_batch(p0, cache, grads)
        assert np.allclose(trained.layers[0][0], p0.layers[0][0] - 0.3 * gw, atol=1e-12)
        assert np.allclose(trained.layers[0][1], p0.layers[0][1] - 0.3 * gb, atol=1e-12)

    @pytest.mark.parametrize("code", [gaussian_code(4, 6, seed=6), one_hot(4)],
                             ids=["decoder", "softmax"])
    def test_batch_past_int64_is_one_whole_set_batch(self, code):
        """A batch_size too large for numpy's index arithmetic trains, bit
        for bit, as a batch_size of the sample count: a batch at or past it
        is the whole set."""
        ds = separable_dataset()
        runs = [train(init([4, 8, code.k], seed=7), ds, code,
                      TrainConfig(epochs=2, batch_size=size, learning_rate=0.1, seed=0))
                for size in (2**64, ds.samples)]
        (huge, huge_rows), (whole, whole_rows) = runs
        assert huge_rows == whole_rows
        for (w, b), (w2, b2) in zip(huge.layers, whole.layers):
            assert w.tobytes() == w2.tobytes() and b.tobytes() == b2.tobytes()

    def test_default_hyperparameters(self):
        """TrainConfig's defaults are the train command's."""
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.batch_size, cfg.learning_rate) == (30, 16, 0.1)

    def test_shuffle_order_keyed_to_seed_and_epoch(self):
        ds = separable_dataset()
        code = gaussian_code(4, 6, seed=1)
        cfg_a = TrainConfig(epochs=3, batch_size=4, learning_rate=0.1, seed=3)
        cfg_b = TrainConfig(epochs=3, batch_size=4, learning_rate=0.1, seed=4)
        _, rows_a = train(init([4, 6], seed=2), ds, code, cfg_a)
        _, rows_b = train(init([4, 6], seed=2), ds, code, cfg_b)
        assert rows_a != rows_b

    def test_eval_rows_emitted(self):
        ds = separable_dataset()
        tr = Dataset(ds.features[::2], ds.labels[::2], ds.n)
        ev = Dataset(ds.features[1::2], ds.labels[1::2], ds.n)
        code = gaussian_code(4, 6, seed=1)
        cfg = TrainConfig(epochs=4, batch_size=4, learning_rate=0.1, seed=0)
        _, rows = train(init([4, 6], seed=0), tr, code, cfg, eval_set=ev)
        assert len(rows) == 8
        assert [r.split for r in rows[:2]] == ["train", "eval"]
        assert all(r.grad_nonzero_ratio is None for r in rows if r.split == "eval")
        assert all(r.grad_nonzero_ratio is not None for r in rows if r.split == "train")

    @pytest.mark.parametrize("head", ["softmax", "decoder"])
    @pytest.mark.parametrize("fault, message", [
        ("label 4 last", "eval set has 5 classes but code has 4 codewords"),
        ("label 4 first", "eval set has 5 classes but code has 4 codewords"),
        ("width 3", "eval set has 3 features but dataset has 4"),
        ("net width 5", "dataset has 4 features but net input size is 5"),
        ("written eval set", "eval set labels out of range for 4 classes"),
        ("written dataset", "dataset labels out of range for 4 classes"),
    ], ids=["label-4-last", "label-4-first", "width-3", "net-width-5", "written-eval-set",
            "written-dataset"])
    def test_mismatched_eval_set_refused_before_the_first_step(self, monkeypatch, head, fault,
                                                                message):
        """An eval set that does not fit the code or the training set, a
        net whose input size does not fit the training set, or a label of n
        written into a Dataset after it was made, is refused, naming both
        values or the split, before any step.  A 5-class eval set against a
        4-class code would otherwise index past the softmax outputs (label
        4 on the last row), read the next row's output as its loss (label 4
        elsewhere), or fail only after a full epoch (decoder head); the
        steps and evaluation passes check neither widths nor labels."""
        ds = separable_dataset()
        ev = Dataset(ds.features[1::2], ds.labels[1::2].copy(), ds.n)
        in_size = 5 if fault == "net width 5" else 4
        if fault == "width 3":
            ev = Dataset(ev.features[:, :3], ev.labels, ev.n)
        elif fault.startswith("label"):
            labels = ev.labels.copy()
            labels[-1 if fault.endswith("last") else 0] = 4
            ev = Dataset(ev.features, labels, 5)
        elif fault.startswith("written"):
            (ds if fault.endswith("dataset") else ev).labels[0] = 4
        monkeypatch.setattr(net, "_forward", mock.Mock(side_effect=AssertionError))
        cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=0.1, head=head)
        with pytest.raises(ValueError, match=f"^{message}$"):
            train(init([in_size, 4], seed=0), ds, one_hot(4), cfg, eval_set=ev)

    def test_zero_output_in_batch_names_epoch_batch_and_row(self):
        # a step of 1e-20 leaves the biases far below the zero-norm cutoff,
        # so the zero feature row still maps to a zero output in batch 1
        ds = separable_dataset()
        x = ds.features[:8].copy()
        x[5] = 0.0
        tr = Dataset(x, ds.labels[:8], ds.n)
        cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=1e-20, shuffle=False)
        with pytest.raises(ZeroOutputError) as err:
            train(init([4, 6], seed=0), tr, gaussian_code(4, 6, seed=1), cfg)
        assert (err.value.epoch, err.value.where, err.value.row) == (0, 1, 5)
        assert "epoch 0, batch 1, train row 5" in str(err.value)

    def test_zero_output_under_shuffle_names_the_dataset_row(self):
        ds = separable_dataset()
        x = ds.features[:8].copy()
        x[5] = 0.0
        tr = Dataset(x, ds.labels[:8], ds.n)
        cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=1e-20, seed=1)
        pos = int(np.flatnonzero(np.random.default_rng([1, 0]).permutation(8) == 5)[0])
        assert pos != 5  # the shuffled position differs from the row index
        with pytest.raises(ZeroOutputError) as err:
            train(init([4, 6], seed=0), tr, gaussian_code(4, 6, seed=1), cfg)
        assert (err.value.epoch, err.value.where, err.value.row) == (0, pos // 4, 5)

    def test_zero_output_in_eval_pass_names_split_and_row(self):
        ds = separable_dataset()
        ev_x = ds.features[1::2].copy()
        ev_x[3] = 0.0
        tr = Dataset(ds.features[::2], ds.labels[::2], ds.n)
        ev = Dataset(ev_x, ds.labels[1::2], ds.n)
        cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=1e-20)
        with pytest.raises(ZeroOutputError) as err:
            train(init([4, 6], seed=0), tr, gaussian_code(4, 6, seed=1), cfg, eval_set=ev)
        assert (err.value.epoch, err.value.where, err.value.row) == (0, "eval", 3)
        assert "the eval split's evaluation pass, row 3" in str(err.value)

    def test_lr_decay_changes_trajectory(self):
        ds = separable_dataset()
        code = gaussian_code(4, 6, seed=1)
        base = dict(epochs=6, batch_size=8, learning_rate=0.2, seed=0)
        _, rows_a = train(init([4, 6], seed=1), ds, code, TrainConfig(**base))
        _, rows_b = train(
            init([4, 6], seed=1),
            ds,
            code,
            TrainConfig(**base, lr_decay_epoch=3, lr_decay_factor=0.1),
        )
        assert rows_a[:3] == rows_b[:3]
        assert rows_a[3:] != rows_b[3:]

    def test_head_size_validated(self):
        ds = separable_dataset()
        code = gaussian_code(4, 6, seed=1)
        cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1)
        with pytest.raises(ValueError, match="output size"):
            train(init([4, 5], seed=0), ds, code, cfg)
        # one-hot defaults to the softmax head, so output must be n, not k
        with pytest.raises(ValueError, match="softmax"):
            train(init([4, 3], seed=0), ds, one_hot(4), cfg)

    @pytest.mark.parametrize("code, kind", [
        (gaussian_code(4, 6, seed=1), "gaussian"),
        (binarize(gaussian_code(4, 6, seed=1), Binarization.ZERO), "gaussian"),
        (dense_random_code(4, 4, candidates=20, seed=0), "dense"),
        (spectral_code(SimilarityGraph(np.ones((4, 4)) - np.eye(4)), 3), "spectral"),
    ], ids=["gaussian", "binarized", "dense", "spectral"])
    def test_softmax_head_needs_one_hot(self, code, kind):
        """The softmax head trains against class indicators: on any other
        code, resolution names the head and the code kind, and train
        refuses before a step, even with n outputs."""
        message = f"head 'softmax' requires a one-hot code, got a {kind} code"
        with pytest.raises(ValueError, match=message):
            resolve_head("softmax", code)
        cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1, head="softmax")
        with pytest.raises(ValueError, match=message):
            train(init([4, 4], seed=0), separable_dataset(), code, cfg)
        head = resolve_head("softmax", one_hot(4))
        assert (head.name, head.size) == ("softmax", 4)

    @pytest.mark.parametrize("code", [
        one_hot(4),
        gaussian_code(4, 6, seed=1),
        binarize(gaussian_code(4, 6, seed=1), Binarization.ZERO),
        dense_random_code(4, 5, candidates=20, seed=0),
        spectral_code(SimilarityGraph(np.ones((4, 4)) - np.eye(4)), 3),
    ], ids=["onehot", "gaussian", "binarized", "dense", "spectral"])
    @pytest.mark.parametrize("setting", ["auto", "decoder", "softmax"])
    def test_resolved_head_name_and_size(self, setting, code):
        """``auto`` resolves a one-hot code to softmax, with one output per
        class, and any other code to the decoder, with one per bit; the
        decoder takes every code, and softmax refuses all but one-hot."""
        is_one_hot = code.kind.value == "onehot"
        if setting == "softmax" and not is_one_hot:
            message = f"head 'softmax' requires a one-hot code, got a {code.kind.value} code"
            with pytest.raises(ValueError, match=message):
                resolve_head(setting, code)
            return
        head = resolve_head(setting, code)
        softmax = setting == "softmax" or (setting == "auto" and is_one_hot)
        assert (head.name, head.size) == (("softmax", 4) if softmax else ("decoder", code.k))

    def test_explicit_decoder_head_on_one_hot(self):
        ds = separable_dataset()
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.1, head="decoder")
        _, rows = train(init([4, 4], seed=0), ds, one_hot(4), cfg)
        assert len(rows) == 2

    def test_code_class_count_must_match(self):
        ds = separable_dataset()
        cfg = TrainConfig(epochs=1, batch_size=8, learning_rate=0.1)
        with pytest.raises(ValueError, match="classes"):
            train(init([4, 6], seed=0), ds, gaussian_code(5, 6, seed=0), cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0, batch_size=1, learning_rate=0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=0, learning_rate=0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=1, learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, lr_decay_factor=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, head="magic")
        with pytest.raises(ValueError, match="lr_decay_epoch must be >= 0, got -2"):
            TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, lr_decay_epoch=-2)
        with pytest.raises(ValueError, match=r"momentum must be in \[0, 1\), got 1.0"):
            TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, momentum=1.0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, seed=-1)
        for lr in (np.inf, np.nan):
            with pytest.raises(ValueError, match=f"learning_rate must be finite and > 0, got {lr}"):
                TrainConfig(epochs=1, batch_size=1, learning_rate=lr)
        TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, lr_decay_epoch=0)  # 0-indexed
        TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, seed=0)


def reference_head_loss_grad(head, z, code, ys):
    """Per-row losses and gradients of a training batch through the checked
    public entries: ``batch_loss_grad`` for the decoder head, and the
    softmax cross-entropy of a copy of ``z`` for the one-hot baseline."""
    if head == "decoder":
        return batch_loss_grad(z, code, ys)
    grads = z.copy()
    return decoder.softmax_ce_in_place(grads, ys, grad=True), grads


def reference_metrics(p, x, ys, head, code):
    """Mean loss and accuracy of a split through the checked forward pass
    and the checked public ``batch_loss_grad`` and ``predict_batch``
    (decoder head), or the softmax cross-entropy of the outputs (one-hot
    baseline)."""
    z, _ = _forward_batch(p, x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if head == "decoder":
            losses, _ = batch_loss_grad(z, code, ys)
            preds = decoder.predict_batch(z, decoder.decoding_matrix(code))
        else:
            preds = z.argmax(axis=1)
            losses = decoder.softmax_ce_in_place(z, ys)
    return float(losses.sum() / len(ys)), np.count_nonzero(preds == ys) / len(ys)


def reference_train(p, dataset, code, cfg, eval_set=None):
    """``train`` as it stepped with out-of-place arrays and checked calls: a
    gather per batch, the checked forward pass and head entries, mean
    gradients as ``sum / batch``, each batch's active coordinates counted
    as it is taken, and new parameter and velocity arrays ``v = momentum *
    v - lr * g``, ``w + v`` at every step."""
    resolved = resolve_head(cfg.head, code)
    head = resolved.name
    x, ys = dataset.features, dataset.labels
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in p.layers]
    rows = []
    for epoch in range(cfg.epochs):
        lr = cfg.learning_rate
        if cfg.lr_decay_epoch is not None and epoch >= cfg.lr_decay_epoch:
            lr *= cfg.lr_decay_factor
        if cfg.shuffle:
            order = np.random.default_rng([cfg.seed, epoch]).permutation(len(ys))
        else:
            order = np.arange(len(ys))
        ratio_sum, batches = 0.0, 0
        for start in range(0, len(ys), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            xb, yb = x[idx], ys[idx]
            z, cache = _forward_batch(p, xb)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                _, grads = reference_head_loss_grad(head, z, code, yb)
            param_grads = []
            delta = grads
            for i in range(len(p.layers) - 1, -1, -1):
                gw = delta.T @ cache[i]
                gw /= len(yb)
                param_grads.insert(0, (gw, delta.sum(axis=0) / len(yb)))
                if i > 0:
                    delta = delta @ p.layers[i][0]
                    delta *= cache[i] > 0
            # the decoder's mean update vector is grads.sum(axis=0) / len(yb)
            bias_grad = param_grads[-1][1]
            active = np.abs(resolved.update_vector(z, yb, bias_grad)) > GRAD_ACTIVE_EPS
            ratio_sum += np.count_nonzero(active) / active.size
            batches += 1
            new_layers, new_velocity = [], []
            for (w, b), (gw, gb), (vw, vb) in zip(p.layers, param_grads, velocity):
                vw = cfg.momentum * vw - lr * gw
                vb = cfg.momentum * vb - lr * gb
                new_layers.append((w + vw, b + vb))
                new_velocity.append((vw, vb))
            velocity = new_velocity
            p = NetParams(new_layers)
        loss, acc = reference_metrics(p, x, ys, head, code)
        rows.append(MetricsRow(epoch, "train", loss, acc, ratio_sum / batches))
        if eval_set is not None:
            loss, acc = reference_metrics(p, eval_set.features, eval_set.labels, head, code)
            rows.append(MetricsRow(epoch, "eval", loss, acc, None))
    return p, rows


class TestInPlaceStepBitIdentical:
    """The in-place step over sliced batches gives the same bits as the
    out-of-place reference, parameters and metrics alike."""

    @pytest.mark.parametrize("with_eval", [False, True])
    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("lr_decay_epoch", [None, 2])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    @pytest.mark.parametrize("head", ["decoder", "softmax"])
    def test_matches_out_of_place_reference(
        self, head, momentum, lr_decay_epoch, shuffle, with_eval
    ):
        ds = separable_dataset(seed=5)
        tr = Dataset(ds.features[::2], ds.labels[::2], ds.n)
        ev = Dataset(ds.features[1::2], ds.labels[1::2], ds.n) if with_eval else None
        full = ds if ev is None else tr
        code = gaussian_code(4, 6, seed=1) if head == "decoder" else one_hot(4)
        cfg = TrainConfig(
            epochs=4, batch_size=6, learning_rate=0.05, seed=2, shuffle=shuffle,
            lr_decay_epoch=lr_decay_epoch, momentum=momentum, head=head,
        )
        sizes = [4, 8, code.k if head == "decoder" else 4]
        got, rows = train(init(sizes, seed=3), full, code, cfg, eval_set=ev)
        ref, ref_rows = reference_train(init(sizes, seed=3), full, code, cfg, eval_set=ev)
        assert rows == ref_rows
        for (w, b), (rw, rb) in zip(got.layers, ref.layers):
            assert np.array_equal(w, rw)
            assert np.array_equal(b, rb)

    def test_ratio_sums_in_batch_order(self):
        """40 one-row batches of 7 softmax outputs: each share, 0 or 2/7,
        is inexact, so only the reference's order of additions gives the
        reference's grad_nonzero_ratio bits; numpy's pairwise sum of the
        same shares does not."""
        rng = np.random.default_rng(0)
        ds = Dataset(rng.standard_normal((40, 4)), np.arange(40) % 7, 7)
        cfg = TrainConfig(epochs=3, batch_size=1, learning_rate=0.05, seed=2, head="softmax")
        _, rows = train(init([4, 8, 7], seed=3), ds, one_hot(7), cfg)
        _, ref_rows = reference_train(init([4, 8, 7], seed=3), ds, one_hot(7), cfg)
        assert rows == ref_rows


class TestGradRatioInstrument:
    def test_decoder_head_ratio_near_one(self):
        ds = separable_dataset()
        code = gaussian_code(4, 6, seed=1)
        cfg = TrainConfig(epochs=3, batch_size=4, learning_rate=0.1, seed=0)
        _, rows = train(init([4, 8, 6], seed=0), ds, code, cfg)
        for r in rows:
            if r.split == "train":
                assert r.grad_nonzero_ratio > 0.9

    def test_decoder_ratio_counts_gradients_not_steps(self):
        """The instrument reads the mean gradient before the learning rate
        scales it: at lr 1e-9 every step is below the 1e-8 threshold, but
        the gradients it counts are not."""
        ds = separable_dataset()
        code = gaussian_code(4, 6, seed=1)
        for lr in (0.1, 1e-9):
            cfg = TrainConfig(epochs=1, batch_size=4, learning_rate=lr, seed=0)
            _, rows = train(init([4, 8, 6], seed=0), ds, code, cfg)
            assert rows[0].grad_nonzero_ratio > 0.9

    def test_softmax_head_ratio_bounded_by_mismatches(self):
        """Hard-decision updates touch at most 2*batch_size coordinates."""
        ds = synth_hierarchical(
            depth=2, branching=4, samples_per_class=8, class_sep=6.0,
            noise_sigma=0.3, p=6, seed=1,
        )
        code = one_hot(16)
        cfg = TrainConfig(epochs=5, batch_size=2, learning_rate=0.2, seed=0)
        _, rows = train(init([6, 16, 16], seed=0), ds, code, cfg)
        bound = 2 * sparsity_ratio(2, 16)
        for r in rows:
            if r.split == "train":
                assert r.grad_nonzero_ratio <= bound + 1e-12

    def test_softmax_ratio_vanishes_once_fitted(self):
        """The one-hot instrument counts hard prediction mismatches, so it
        drops to zero once the training split is fully fitted."""
        ds = separable_dataset()
        cfg = TrainConfig(epochs=40, batch_size=4, learning_rate=0.1, seed=0)
        _, rows = train(init([4, 16, 4], seed=0), ds, one_hot(4), cfg)
        train_rows = [r for r in rows if r.split == "train"]
        assert train_rows[-1].accuracy >= train_rows[0].accuracy
        assert train_rows[0].grad_nonzero_ratio > 0.0
        assert train_rows[-1].grad_nonzero_ratio == 0.0


    def test_softmax_vector_matches_dense_mismatch_oracle(self):
        rng = np.random.default_rng(8)
        for s, n in [(1, 2), (5, 3), (16, 16), (33, 7)]:
            z = rng.standard_normal((s, n))
            ys = rng.integers(0, n, size=s)
            ys[: s // 2] = z[: s // 2].argmax(axis=1)  # some rows classified right
            got = resolve_head("softmax", one_hot(n)).update_vector(z, ys, np.empty((s, n)))
            assert np.array_equal(got, update_vector_zeros_array(z, ys))


class TestSoftmaxEvaluation:
    """The softmax head's evaluation pass takes the argmax and the loss
    alone, in the forward output's own buffer."""

    @pytest.mark.parametrize("scale", [0.0, 1.0, 300.0])
    @pytest.mark.parametrize("s, n", [(1, 2), (7, 3), (130, 65)])
    def test_matches_copy_normalize_scatter_oracle(self, s, n, scale):
        """Bit for bit, with every output tied (scale 0) and with logits
        large enough that exponentials underflow and losses go infinite."""
        rng = np.random.default_rng(s * 100 + n)
        p = init([5, 12, n], seed=s)
        p = NetParams([(w * scale, b * scale) for w, b in p.layers])
        x = rng.standard_normal((s, 5))
        ys = rng.integers(n, size=s)
        ref = oracles.softmax_metrics_copy_normalize_scatter(net_outputs(p, x), ys)
        with np.errstate(divide="ignore"):  # train's error state: log(0) at scale 300
            got = _epoch_metrics(p, x, ys, resolve_head("softmax", one_hot(n)), 0, "eval")
        assert repr(got) == repr(ref)

    def test_edge_rows_match_the_argmax_and_softmax_oracle(self):
        """Rows with a repeated maximum, a maximum of 0.0 beside -0.0 (and
        the reverse), all entries equal, and a +inf, -inf or NaN entry:
        losses (bits) and predictions equal ``argmax`` plus
        ``softmax_ce_in_place``, which shifts by a second reduction.
        Evaluation shifts by the entry at the argmax instead; in one of the
        two signed-zero rows that entry's sign differs from the
        reduction's, and only the sign of a shifted zero moves, whose
        exponential is 1 either way."""
        z = np.array([
            [1.0, 3.0, 3.0, 2.0],
            [-0.0, 0.0, -1.0, -2.0],
            [0.0, -0.0, -1.0, -2.0],
            [2.0, 2.0, 2.0, 2.0],
            [np.inf, 0.0, 1.0, 2.0],
            [1.0, np.inf, 0.0, 2.0],
            [1.0, -np.inf, 0.0, 2.0],
            [np.nan, 0.0, 1.0, 2.0],
            [0.0, 1.0, np.nan, 2.0],
        ])
        ys = np.array([2, 1, 0, 3, 0, 2, 1, 0, 3])
        tops = z.reshape(-1).take(np.arange(0, z.size, 4) + z.argmax(axis=1))
        assert np.signbit(tops[1]) != np.signbit(tops[2])
        with np.errstate(invalid="ignore", divide="ignore"):  # train's error state
            ref_losses = decoder.softmax_ce_in_place(z.copy(), ys)
            losses, preds = resolve_head("softmax", one_hot(4)).loss_and_predictions(z.copy(), ys)
        assert losses.tobytes() == ref_losses.tobytes()
        assert np.array_equal(preds, z.argmax(axis=1))
        assert np.isnan(losses[4:6]).all() and np.isnan(losses[7:]).all()
        assert np.isinf(losses[6]) and np.isfinite(losses[:4]).all()

    def test_memory_is_the_forward_pass(self):
        """At 1024 x 1024, evaluation holds the (s, n) outputs and the
        forward cache; no probability or gradient copy."""
        s = n = 1024
        p = init([16, 32, n], seed=0)
        x = np.random.default_rng(0).standard_normal((s, 16))
        ys = np.arange(s) % n
        head = resolve_head("softmax", one_hot(n))
        z, cache = _forward_batch(p, x)
        bound = 1.25 * z.nbytes + sum(a.nbytes for a in cache[1:])
        del z, cache
        tracemalloc.start()
        try:
            _epoch_metrics(p, x, ys, head, 0, "eval")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestDecoderEvaluation:
    """The decoder head's evaluation pass scores the split once, in
    block_rows(n)-row blocks, and gives the bits of one batch_loss_grad and
    one predict_batch call over the whole split."""

    @pytest.mark.parametrize("s, n, k", [(1, 3, 2), (200, 1024, 9), (1300, 100, 7), (128, 1024, 5)])
    def test_equals_one_whole_split_call(self, s, n, k):
        """Bit for bit the loss and accuracy of one call over the whole
        split, whether the split is one row block, ends in a short one or
        ends on a block edge."""
        rng = np.random.default_rng(s + n)
        p = init([6, k], seed=2)
        x = rng.standard_normal((s, 6))
        ys = rng.integers(0, n, size=s)
        code = gaussian_code(n, k, seed=3)
        z, _ = _forward_batch(p, x)
        losses, _ = batch_loss_grad(z, code, ys)
        preds = decoder.predict_batch(z, decoder.decoding_matrix(code))
        ref = (float(losses.sum() / s), np.count_nonzero(preds == ys) / s)
        head = resolve_head("decoder", code)
        assert repr(_epoch_metrics(p, x, ys, head, 0, "eval")) == repr(ref)

    def test_zero_output_in_a_later_block_names_the_split_row(self):
        n = 1024
        assert _util.block_rows(n) == 64
        p = init([4, 6], seed=0)
        p = NetParams([(w, np.zeros_like(b)) for w, b in p.layers])
        x = np.random.default_rng(1).standard_normal((200, 4))
        x[150] = 0.0
        code = gaussian_code(n, 6, seed=1)
        with pytest.raises(ZeroOutputError) as err:
            _epoch_metrics(p, x, np.arange(200), resolve_head("decoder", code), 2, "eval")
        assert (err.value.epoch, err.value.where, err.value.row) == (2, "eval", 150)

    def test_memory_grows_with_block_not_split(self):
        """4096 rows at n = 1024 hold the forward pass, a few (s, k) arrays
        and block-sized (rows, n) buffers; a whole-split (4096, n)
        probability array alone would take 32 MB."""
        s, n = 4096, 1024
        p = init([8, 16, 16], seed=0)
        x = np.random.default_rng(0).standard_normal((s, 8))
        ys = np.arange(s) % n
        code = gaussian_code(n, 16, seed=0)
        z, cache = _forward_batch(p, x)
        bound = z.nbytes + sum(a.nbytes for a in cache[1:]) + 4 * _util.block_rows(n) * n * 8
        del z, cache
        head = resolve_head("decoder", code)
        _epoch_metrics(p, x, ys, head, 0, "eval")
        tracemalloc.start()
        try:
            _epoch_metrics(p, x, ys, head, 0, "eval")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert bound < s * n  # an eighth of the whole-split (s, n) float64 array
        assert peak < bound


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


class TestNoWritesIntoInputs:
    """Forward, both heads and backward work in place only on arrays they
    allocate: a write into any array handed to them raises here."""

    def _forward(self, sizes):
        p = init(sizes, seed=9)
        for w, b in p.layers:
            _freeze(w, b)
        x = np.random.default_rng(10).standard_normal((70, sizes[0]))
        _freeze(x)
        z, cache = _forward_batch(p, x)
        _freeze(z, *cache)
        return p, z, cache

    def test_decoder_head(self):
        p, z, cache = self._forward([4, 32, 5])
        code = gaussian_code(9, 5, seed=11)
        _, grads = batch_loss_grad(z, code, np.arange(70) % 9)
        _freeze(grads)
        _backward_batch(p, cache, grads)
        resolve_head("decoder", code).loss_and_predictions(z, np.arange(70) % 9)

    def test_softmax_head(self):
        p, z, cache = self._forward([4, 32, 9])
        ys = np.arange(70) % 9
        head = resolve_head("softmax", one_hot(9))
        _, grads = head.probs_grad(z, head.picks(ys, len(ys)))
        _freeze(grads)
        _backward_batch(p, cache, grads)
        head.update_vector(z, ys, grads)


    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_train_leaves_callers_params(self, momentum):
        ds = separable_dataset()
        _freeze(ds.features, ds.labels)
        p = init([4, 8, 6], seed=4)
        before = [(w.copy(), b.copy()) for w, b in p.layers]
        for w, b in p.layers:
            _freeze(w, b)
        cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.2, momentum=momentum)
        trained, _ = train(p, ds, gaussian_code(4, 6, seed=1), cfg, eval_set=ds)
        for (w, b), (w0, b0), (tw, _) in zip(p.layers, before, trained.layers):
            assert np.array_equal(w, w0) and np.array_equal(b, b0)
            assert not np.array_equal(tw, w0)


def test_train_decoder_call_structure(monkeypatch):
    """Per epoch: one unchecked _batch_loss_grad per batch and one
    _loss_and_predictions per evaluated split; none of the checked public
    entries, and one decoding_matrix call for the whole run.
    _batch_loss_grad sees each training row once per epoch in its batch,
    _loss_and_predictions once in the evaluation.  Counted through every
    ecoc module attribute bound to each function, as the per-module tracer
    does."""
    watched = (decoder.batch_loss_grad, decoder.predict_batch, decoder.decoding_matrix,
               decoder._batch_loss_grad, decoder._loss_and_predictions)
    counts = dict.fromkeys((f.__name__ for f in watched), 0)
    rows_seen = dict.fromkeys(("_batch_loss_grad", "_loss_and_predictions"), 0)

    def counting(fn):
        def wrapper(*args, **kwargs):
            counts[fn.__name__] += 1
            if fn.__name__ in rows_seen:
                rows_seen[fn.__name__] += len(args[0])
            return fn(*args, **kwargs)
        return wrapper

    for name, mod in list(sys.modules.items()):
        if name == "ecoc" or name.startswith("ecoc."):
            for attr, value in list(vars(mod).items()):
                if any(value is fn for fn in watched):
                    monkeypatch.setattr(mod, attr, counting(value))

    ds = synth_hierarchical(2, 2, 4, 4.0, 1.0, 4, seed=0)
    cfg = TrainConfig(epochs=2, batch_size=8, learning_rate=0.1)
    train(init([4, 3], seed=0), ds, gaussian_code(4, 3, seed=0), cfg)
    # 16 samples: 2 batches per epoch
    assert counts == {"batch_loss_grad": 0, "predict_batch": 0, "decoding_matrix": 1,
                      "_batch_loss_grad": 4, "_loss_and_predictions": 2}
    assert rows_seen == {"_batch_loss_grad": 2 * 16, "_loss_and_predictions": 2 * 16}


class TestModelFile:
    def test_round_trip_exact(self, tmp_path):
        p = init([4, 8, 3], seed=9)
        path = os.path.join(tmp_path, "model.bin")
        save_model(p, path)
        back = load_model(path)
        assert back.layer_sizes == p.layer_sizes
        for (wa, ba), (wb, bb) in zip(p.layers, back.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    def test_bad_magic_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "model.bin")
        with open(path, "wb") as fh:
            fh.write(b"NOTAMODEL")
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated_rejected(self, tmp_path):
        p = init([4, 3], seed=0)
        path = os.path.join(tmp_path, "model.bin")
        save_model(p, path)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)

    @settings(max_examples=15, deadline=None)
    @given(sizes=st.lists(st.integers(1, 4), min_size=2, max_size=4))
    def test_every_strict_prefix_rejected(self, sizes):
        header = 8 + 4 + 4 * len(sizes)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "model.bin")
            save_model(init(sizes, seed=0), path)
            blob = open(path, "rb").read()
            params = len(blob) - header
            for cut in range(len(blob)):
                with open(path, "wb") as fh:
                    fh.write(blob[:cut])
                with pytest.raises(ValueError) as err:
                    load_model(path)
                assert str(err.value).startswith(f"{path}: ")
                if cut >= header:
                    assert f"need {params} parameter bytes, found {cut - header}" in str(
                        err.value
                    )

    def write_header(self, path, count, sizes, params=b""):
        with open(path, "wb") as fh:
            fh.write(b"ECOCNET\x01" + struct.pack("<I", count))
            fh.write(struct.pack(f"<{len(sizes)}I", *sizes) + params)

    def test_out_of_range_layer_count_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "model.bin")
        self.write_header(path, 2**32 - 1, [4, 3])
        with pytest.raises(ValueError, match="4294967295 layer sizes need 17179869180 bytes"):
            load_model(path)
        self.write_header(path, 1, [4])
        with pytest.raises(ValueError, match="at least 2 layer sizes"):
            load_model(path)

    def test_huge_layer_sizes_rejected_by_byte_count(self, tmp_path):
        path = os.path.join(tmp_path, "model.bin")
        self.write_header(path, 2, [2**32 - 1, 2**32 - 1], params=b"\x00" * 16)
        expected = 8 * (2**32) * (2**32 - 1)
        with pytest.raises(ValueError, match=f"need {expected} parameter bytes, found 16"):
            load_model(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layer, offset", [(0, 0), (1, 8 * (4 * 8 + 8 + 5))])
    def test_non_finite_parameter_rejected(self, tmp_path, value, layer, offset):
        """A NaN or infinite weight or bias names the layer it sits in."""
        path = os.path.join(tmp_path, "model.bin")
        save_model(init([4, 8, 3], seed=0), path)
        blob = bytearray(open(path, "rb").read())
        start = 8 + 4 + 4 * 3 + offset
        blob[start : start + 8] = struct.pack("<d", value)
        with open(path, "wb") as fh:
            fh.write(blob)
        with pytest.raises(ValueError) as err:
            load_model(path)
        assert str(err.value) == f"{path}: non-finite parameter in layer {layer}"

    def test_zero_layer_size_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "model.bin")
        self.write_header(path, 3, [4, 0, 3], params=b"\x00" * 24)
        with pytest.raises(ValueError, match=r"layer sizes must be positive, got \[4, 0, 3\]"):
            load_model(path)


class TestMetricsCsv:
    def test_format(self, tmp_path):
        rows = [
            MetricsRow(0, "train", 1.5, 0.25, 0.75),
            MetricsRow(0, "eval", 1.25, 0.5, None),
        ]
        path = os.path.join(tmp_path, "metrics.csv")
        save_metrics(rows, path)
        lines = open(path).read().splitlines()
        assert lines[0] == "epoch,split,loss,accuracy,grad_nonzero_ratio"
        assert lines[1] == "0,train,1.5,0.25,0.75"
        assert lines[2] == "0,eval,1.25,0.5,"

    def test_full_precision(self, tmp_path):
        loss = 1 / 3
        path = os.path.join(tmp_path, "metrics.csv")
        save_metrics([MetricsRow(0, "train", loss, 2 / 3, None)], path)
        cells = open(path).read().splitlines()[1].split(",")
        assert float(cells[2]) == loss
        assert float(cells[3]) == 2 / 3


def test_net_outputs_matches_single_forward():
    p = init([3, 5, 2], seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((9, 3))
    z = net_outputs(p, x)
    for i in range(9):
        zi, _ = oracles.net_forward(p, x[i])
        # batched matmul may differ from the single-row product in the last bit
        assert np.allclose(z[i], zi, rtol=1e-12, atol=1e-14)
