"""End-to-end CLI behavior: subcommands, config handling, exit codes."""

import argparse
import errno
import hashlib
import inspect
import math
import os
import signal
import stat
import struct
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from ecoc import cli, codes, datasets, net
from ecoc._util import BadKeyError, check_seed
from ecoc.cli import ExperimentConfig, format_value, main, parse_config_text, resolve_config
from ecoc.codes import CodeKind, CodeMatrix, gaussian_code, load_code_csv, save_code_csv
from ecoc.datasets import (Dataset, load_csv, save_attributes_csv, save_csv, split,
                           synth_hierarchical)
from ecoc.spectral import SimilarityGraph, save_similarity_csv


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def write_config(path: str, out_dir: str, **overrides) -> str:
    """A small, fast experiment; overrides replace default lines."""
    entries = {
        "synth_depth": "1",
        "synth_branching": "2",
        "synth_samples_per_class": "10",
        "synth_class_sep": "4.0",
        "synth_noise_sigma": "0.5",
        "synth_dim": "3",
        "train_fraction": "0.8",
        "code_strategy": "gaussian",
        "code_bits": "4",
        "hidden_sizes": "8",
        "epochs": "2",
        "batch_size": "4",
        "learning_rate": "0.1",
        "seed": "0",
        "out_dir": out_dir,
    }
    entries.update(overrides)
    with open(path, "w") as fh:
        for key, value in entries.items():
            if value is not None:
                fh.write(f"{key} = {value}\n")
    return path


def assert_usage_error(capsys, argv, message) -> None:
    """argv is refused by the argument parser: exit 2, message on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def run_in_subprocess(*argv: str) -> subprocess.CompletedProcess:
    """``python -m ecoc.cli argv`` in a fresh interpreter with the default
    warning filters, so a numpy warning would reach its stderr."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run([sys.executable, "-m", "ecoc.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)


def final_eval_accuracy(run_dir: str) -> float:
    """The last eval row's accuracy in a run's metrics.csv."""
    lines = open(os.path.join(run_dir, "metrics.csv")).read().splitlines()[1:]
    return float([ln.split(",") for ln in lines if ln.split(",")[1] == "eval"][-1][3])


class TestGenCode:
    def test_onehot(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "onehot", "--classes", "5",
                     "--out", out]) == 0
        code = load_code_csv(out)
        assert code.kind is CodeKind.ONE_HOT
        assert np.array_equal(code.values, np.eye(5))
        assert "n=5 k=5" in capsys.readouterr().out

    def test_onehot_rejects_other_bit_count(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "onehot", "--classes", "5",
                     "--bits", "3", "--out", out]) == 2
        assert "n=5" in capsys.readouterr().err

    def test_gaussian_default_bits(self, tmp_path):
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "gaussian", "--classes", "8",
                     "--out", out]) == 0
        assert load_code_csv(out).k == 30  # floor(10 * log2(8))

    def test_dense_with_too_few_bits_exits_2(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "dense", "--classes", "100", "--bits", "3",
                     "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: k=3 bits hold only 8 distinct +-1 rows, fewer than n=100 classes\n")
        assert not os.path.exists(out)

    def test_classes_required_without_data(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "gaussian", "--out", out]) == 2
        assert "--classes" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, floor", [("--bits", 1), ("--candidates", 1),
                                             ("--classes", 2)])
    def test_count_below_one_names_the_flag(self, tmp_path, capsys, flag, floor):
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "dense", "--classes", "4", "--bits", "3",
                     flag, "0", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be >= {floor}, got 0\n"
        assert not os.path.exists(out)

    def test_dense_is_reproducible(self, tmp_path):
        a = os.path.join(tmp_path, "a.csv")
        b = os.path.join(tmp_path, "b.csv")
        argv = ["gen-code", "--strategy", "dense", "--classes", "6",
                "--bits", "8", "--candidates", "200", "--seed", "3"]
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--out", b]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_binarize_zero(self, tmp_path):
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "gaussian", "--classes", "4",
                     "--bits", "8", "--binarize", "zero", "--out", out]) == 0
        code = load_code_csv(out)
        assert set(np.unique(code.values)) == {-1.0, 1.0}

    def test_binarize_raw_is_the_default(self, tmp_path):
        argv = ["gen-code", "--strategy", "gaussian", "--classes", "4", "--bits", "8"]
        a = os.path.join(tmp_path, "a.csv")
        b = os.path.join(tmp_path, "b.csv")
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--binarize", "raw", "--out", b]) == 0
        assert read_bytes(a) == read_bytes(b)

    def test_spectral_from_similarity(self, tmp_path):
        w = np.array([
            [0.0, 1.0, 0.05, 0.05],
            [1.0, 0.0, 0.05, 0.05],
            [0.05, 0.05, 0.0, 1.0],
            [0.05, 0.05, 1.0, 0.0],
        ])
        sim = os.path.join(tmp_path, "sim.csv")
        save_similarity_csv(SimilarityGraph(w), sim)
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "spectral", "--similarity", sim,
                     "--bits", "2", "--out", out]) == 0
        code = load_code_csv(out)
        assert code.kind is CodeKind.SPECTRAL
        assert (code.n, code.k) == (4, 2)

    def test_spectral_bits_capped(self, tmp_path, capsys):
        data = os.path.join(tmp_path, "data.csv")
        assert main(["synth-data", "--depth", "1", "--branching", "2",
                     "--samples-per-class", "5", "--dim", "3", "--out", data]) == 0
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "spectral", "--data", data,
                     "--bits", "2", "--out", out]) == 2
        assert "--bits" in capsys.readouterr().err

    def test_eigensolver_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        sim = os.path.join(tmp_path, "sim.csv")
        save_similarity_csv(SimilarityGraph(np.ones((3, 3)) - np.eye(3)), sim)
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "spectral", "--similarity", sim,
                     "--bits", "2", "--out", out]) == 3
        assert "did not converge" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_spectral_ragged_similarity_exits_2(self, tmp_path, capsys):
        sim = os.path.join(tmp_path, "sim.csv")
        with open(sim, "w") as fh:
            fh.write("0.0,0.5\n0.5\n")
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "spectral", "--similarity", sim,
                     "--bits", "1", "--out", out]) == 2
        assert f"{sim}:2: expected 2 values, found 1" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_spectral_data_with_a_huge_label_gap_exits_2(self, tmp_path, capsys):
        """The missing class is found from the labels, before the
        (classes, features) class means are allocated."""
        data = os.path.join(tmp_path, "data.csv")
        with open(data, "w") as fh:
            fh.write(f"0,1.0\n0,2.0\n{10**15},3.0\n")
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "spectral", "--data", data,
                     "--bits", "1", "--out", out]) == 2
        assert "error: class 1 has no samples\n" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_spectral_data_row_with_a_next_line_character_exits_2(self, tmp_path, capsys):
        """A U+0085 inside a row does not split it into two samples."""
        data = os.path.join(tmp_path, "data.csv")
        with open(data, "w") as fh:
            fh.write("0,1.0,2.0\n1,3.0,4.0\x851,5.0,6.0\n0,7.0,8.0\n")
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "spectral", "--data", data,
                     "--bits", "1", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {data}:2: expected 3 columns, found 5\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("rows, problem", [
        ("0,-1,1\n-1,0,1\n1,1,0\n", "similarity weights must be non-negative"),
        ("0,1,0\n1,0,0\n0,0,0\n", "nodes with zero degree: [2]"),
    ], ids=["negative", "isolated"])
    def test_similarity_graph_refusal_names_the_file(self, tmp_path, capsys, rows, problem):
        sim, out = os.path.join(tmp_path, "sim.csv"), os.path.join(tmp_path, "code.csv")
        with open(sim, "w") as fh:
            fh.write(rows)
        assert main(["gen-code", "--strategy", "spectral", "--similarity", sim,
                     "--bits", "1", "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {sim}: {problem}\n"
        assert not os.path.exists(out)

    def test_classes_must_match_the_similarity_size(self, tmp_path, capsys):
        sim, out = os.path.join(tmp_path, "sim.csv"), os.path.join(tmp_path, "code.csv")
        save_similarity_csv(SimilarityGraph(np.ones((2, 2)) - np.eye(2)), sim)
        assert main(["gen-code", "--strategy", "spectral", "--similarity", sim,
                     "--classes", "3", "--bits", "1", "--out", out]) == 2
        assert capsys.readouterr().err == "error: --classes=3 does not match similarity size 2\n"
        assert not os.path.exists(out)

    def test_classes_must_match_the_dataset(self, tmp_path, capsys):
        data, out = os.path.join(tmp_path, "data.csv"), os.path.join(tmp_path, "code.csv")
        save_csv(synth_hierarchical(1, 3, 4, 4.0, 0.5, 3, seed=0), data)
        assert main(["gen-code", "--strategy", "spectral", "--data", data,
                     "--classes", "4", "--bits", "1", "--out", out]) == 2
        assert capsys.readouterr().err == "error: --classes=4 does not match dataset classes 3\n"
        assert not os.path.exists(out)

    def test_spectral_needs_a_source(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "code.csv")
        assert main(["gen-code", "--strategy", "spectral", "--classes", "4",
                     "--out", out]) == 2
        assert "--similarity" in capsys.readouterr().err

    def test_normalize_rows_flag_removed(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "code.csv")
        assert_usage_error(capsys, ["gen-code", "--strategy", "gaussian", "--classes", "4",
                                    "--normalize-rows", "false", "--out", out],
                           "unrecognized arguments: --normalize-rows false")
        assert not os.path.exists(out)


class TestSynthData:
    def test_row_counts(self, tmp_path, capsys):
        data = os.path.join(tmp_path, "data.csv")
        attrs = os.path.join(tmp_path, "attrs.csv")
        assert main(["synth-data", "--depth", "2", "--branching", "2",
                     "--samples-per-class", "3", "--dim", "4",
                     "--out", data, "--attributes-out", attrs]) == 0
        assert len(open(data).read().splitlines()) == 12
        # 4 classes + header
        assert len(open(attrs).read().splitlines()) == 5
        out = capsys.readouterr().out
        assert "12 samples, 4 classes" in out

    def test_deterministic(self, tmp_path):
        a = os.path.join(tmp_path, "a.csv")
        b = os.path.join(tmp_path, "b.csv")
        argv = ["synth-data", "--depth", "1", "--branching", "2",
                "--samples-per-class", "4", "--dim", "3", "--seed", "9"]
        assert main(argv + ["--out", a]) == 0
        assert main(argv + ["--out", b]) == 0
        assert read_bytes(a) == read_bytes(b)


class TestTrain:
    def test_minimal_run_writes_artifacts(self, tmp_path, capsys):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir)
        assert main(["train", "--config", cfg]) == 0
        for name in ("metrics.csv", "model.bin", "code.csv", "train.csv",
                     "eval.csv", "attributes.csv", "config.echo"):
            assert os.path.exists(os.path.join(out_dir, name)), name
        lines = open(os.path.join(out_dir, "metrics.csv")).read().splitlines()
        assert lines[0] == "epoch,split,loss,accuracy,grad_nonzero_ratio"
        # one train row and one eval row per epoch
        assert len(lines) == 1 + 2 * 2
        assert "final eval accuracy" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir)
        assert main(["train", "--config", cfg]) == 0
        snap = {
            name: read_bytes(os.path.join(out_dir, name))
            for name in ("metrics.csv", "model.bin", "code.csv", "train.csv",
                         "eval.csv", "config.echo")
        }
        assert main(["train", "--config", cfg]) == 0
        for name, blob in snap.items():
            assert read_bytes(os.path.join(out_dir, name)) == blob, name

    @pytest.mark.parametrize("seed, model_sha256, metrics_sha256", [
        (0, "14839fd941d87bae05150f9690ae95c0f1f90ada19628f3553f31c04149f1809",
         "6e4aefc20a21c8084c007f05d4d872c09fb2932aa86fd2467fc487fb1569e7a4"),
        (1, "f64970db39b5cdc024647d368a0f0d7611c668448b7b6aa6c0119d88a2dfee0f",
         "872144eae5458b5ebb494e614983e079b931c227269a8295ceeeab5a56672769"),
    ])
    def test_ragged_last_batch_pinned(self, tmp_path, seed, model_sha256, metrics_sha256):
        """30 training rows in batches of 8 end each epoch on a 6-row
        batch, whose mean gradient divides by 6, not by ``batch_size``.
        The digests were recorded from a trainer that divided each gradient
        array by its batch's row count (numpy with OpenBLAS on x86-64)."""
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir, synth_branching="3",
                           synth_samples_per_class="12", batch_size="8", epochs="3",
                           seed=str(seed))
        assert main(["train", "--config", cfg]) == 0
        assert len(read_bytes(os.path.join(out_dir, "train.csv")).splitlines()) == 30
        for name, digest in (("model.bin", model_sha256), ("metrics.csv", metrics_sha256)):
            assert hashlib.sha256(read_bytes(os.path.join(out_dir, name))).hexdigest() == digest

    def test_config_echo_reproduces_run(self, tmp_path):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir)
        assert main(["train", "--config", cfg]) == 0
        echo = os.path.join(out_dir, "config.echo")
        snap = read_bytes(os.path.join(out_dir, "metrics.csv"))
        echo_blob = read_bytes(echo)
        assert main(["train", "--config", echo]) == 0
        assert read_bytes(os.path.join(out_dir, "metrics.csv")) == snap
        assert read_bytes(echo) == echo_blob

    def test_divergence_exit_code(self, tmp_path, capsys):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(
            os.path.join(tmp_path, "exp.cfg"), out_dir,
            code_strategy="onehot", code_bits=None, learning_rate="1e6",
        )
        assert main(["train", "--config", cfg]) == 3
        assert "error" in capsys.readouterr().err

    def test_output_overflow_is_divergence(self, tmp_path, capsys):
        """A step that overflows the outputs' squares but leaves every loss
        finite still fails the run, rather than scoring the outputs as
        zero vectors and finishing at chance."""
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), os.path.join(tmp_path, "run"),
                           synth_depth="2", learning_rate="1e100")
        assert main(["train", "--config", cfg]) == 3
        assert capsys.readouterr().err == "error: training diverged at epoch 0 (non-finite loss)\n"

    @pytest.mark.parametrize("strategy, bits", [("gaussian", "4"), ("onehot", None)])
    def test_divergence_writes_one_stderr_line(self, tmp_path, strategy, bits):
        """A run that overflows at once, under the decoder head (gaussian)
        or the softmax head (one-hot), prints its error and no numpy
        warning, in a fresh interpreter with the default warning filters."""
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), os.path.join(tmp_path, "run"),
                           synth_depth="2", code_strategy=strategy, code_bits=bits,
                           learning_rate="1e300")
        proc = run_in_subprocess("train", "--config", cfg)
        assert proc.returncode == 3
        assert proc.stderr == "error: training diverged at epoch 0 (non-finite loss)\n"

    def test_zero_output_row_is_a_training_failure(self, tmp_path, capsys):
        # at init the biases are zero, so an all-zero feature row in the
        # first unshuffled batch gives the decoder a zero output
        ds = synth_hierarchical(1, 4, 10, 4.0, 0.5, 3, seed=0)
        x = ds.features.copy()
        x[0] = 0.0
        data = os.path.join(tmp_path, "data.csv")
        save_csv(Dataset(x, ds.labels, ds.n), data)
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"),
                           os.path.join(tmp_path, "run"), data_csv=data, shuffle="false")
        assert main(["train", "--config", cfg]) == 3
        assert "epoch 0, batch 0, train row 0" in capsys.readouterr().err

    def test_spectral_strategy_end_to_end(self, tmp_path):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(
            os.path.join(tmp_path, "exp.cfg"), out_dir,
            code_strategy="spectral", code_bits="1",
        )
        assert main(["train", "--config", cfg]) == 0
        code = load_code_csv(os.path.join(out_dir, "code.csv"))
        assert code.kind is CodeKind.SPECTRAL
        assert code.k == 1

    def test_spectral_bits_error_names_config_key(self, tmp_path, capsys):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(
            os.path.join(tmp_path, "exp.cfg"), out_dir,
            synth_depth="2", code_strategy="spectral", code_bits="4",
        )
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "code_bits" in err and "n-1=3" in err
        assert "--bits" not in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir,
                           typo_key="1")
        assert main(["train", "--config", cfg]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_code_normalize_rows_key_removed(self, tmp_path, capsys):
        """The code file alone decides decoding, so an echo that still
        carries the old override is refused rather than ignored."""
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir,
                           code_normalize_rows="auto")
        assert main(["train", "--config", cfg]) == 2
        assert "unknown config keys: code_normalize_rows" in capsys.readouterr().err
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("strategy", ["gaussian", "dense", "spectral"])
    def test_softmax_head_needs_one_hot(self, tmp_path, capsys, strategy):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir, synth_depth="2",
                           code_strategy=strategy, code_bits="3", code_candidates="50",
                           head="softmax")
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert f"head 'softmax' requires a one-hot code, got a {strategy} code" in err
        assert not os.path.exists(out_dir)

    def test_dense_code_with_too_few_bits_exits_2(self, tmp_path, capsys):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir, synth_branching="3",
                           code_strategy="dense", code_bits="1")
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: k=1 bits hold only 2 distinct +-1 rows, fewer than n=3 classes\n")
        assert not os.path.exists(out_dir)

    def test_median_binarized_dense_code_collision_says_why(self, tmp_path, capsys):
        """At 16 classes median-thresholded dense rows collide whatever the
        bit count, so the message explains the median and names the
        binarizations that work."""
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir, synth_depth="2",
                           synth_branching="4", code_strategy="dense", code_bits="10",
                           code_candidates="50", code_binarize="median")
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "median -1 and thresholds to all +1" in err
        assert "use raw or zero binarization" in err
        assert "more bits" not in err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "exp.cfg")
        with open(path, "w") as fh:
            fh.write("out_dir = a\nout_dir = b\n")
        assert main(["train", "--config", path]) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_out_dir_required(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "exp.cfg")
        with open(path, "w") as fh:
            fh.write("epochs = 1\n")
        assert main(["train", "--config", path]) == 2
        assert "out_dir" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["train", "--config", os.path.join(tmp_path, "nope.cfg")]) == 2
        assert "error" in capsys.readouterr().err

    def test_undecodable_config_names_path_and_line(self, tmp_path, capsys):
        path = os.path.join(tmp_path, "exp.cfg")
        with open(path, "wb") as fh:
            fh.write(b"epochs = 1\nout_dir = \xff\n")
        assert main(["train", "--config", path]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:2: cannot decode byte 0xff as utf-8: invalid start byte\n")

    def test_training_keys_checked_before_the_data(self, tmp_path, capsys):
        """A bad training value is reported before the data file is read."""
        data = os.path.join(tmp_path, "data.csv")
        with open(data, "w") as fh:
            fh.write("0,1.0\nnot a row\n")
        out = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, data_csv=data, epochs="0")
        assert main(["train", "--config", cfg]) == 2
        assert f"error: {cfg}: key 'epochs' must be >= 1, got 0\n" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value, rule", [
        ("batch_size", "0", "must be >= 1, got 0"),
        ("learning_rate", "0", "must be finite and > 0, got 0.0"),
        ("learning_rate", "inf", "must be finite and > 0, got inf"),
        ("hidden_sizes", "8,0", "must be >= 1 each, got 8,0"),
        ("lr_decay_epoch", "-2", "must be >= 0, got -2"),
        ("lr_decay_factor", "1.5", "must be in (0, 1], got 1.5"),
        ("momentum", "1", "must be in [0, 1), got 1.0"),
        ("synth_depth", "0", "must be >= 1, got 0"),
        ("synth_branching", "1", "must be >= 2, got 1"),
        ("synth_samples_per_class", "1", "must be >= 2, got 1"),
        ("synth_dim", "0", "must be >= synth_depth=1, got 0"),
        ("synth_class_sep", "-0.5", "must be finite and >= 0, got -0.5"),
        ("synth_noise_sigma", "-1", "must be finite and >= 0, got -1.0"),
        ("train_fraction", "1.5", "must be in (0, 1), got 1.5"),
        ("code_bits", "0", "must be >= 1, got 0"),
        ("code_candidates", "0", "must be >= 1, got 0"),
        # an existing path, so only the missing data_csv is at fault
        ("attributes_csv", os.devnull,
         "needs data_csv; a synthetic dataset has its own attributes"),
    ])
    def test_training_key_error_names_file_and_key(self, tmp_path, capsys, key, value, rule):
        out = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, **{key: value})
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: key {key!r} {rule}\n"
        assert not os.path.exists(out)

    def test_batch_size_past_int64_is_one_whole_set_batch(self, tmp_path):
        """A batch_size past int64 runs, and writes the files of a
        batch_size of the 12 training rows: a batch at or past them is the
        whole set."""
        runs = []
        for size in ("100000000000000000000000", "12"):
            out = os.path.join(tmp_path, size)
            cfg = write_config(os.path.join(tmp_path, size + ".cfg"), out, synth_depth="1",
                               synth_branching="4", synth_samples_per_class="4", synth_dim="4",
                               epochs="1", batch_size=size)
            assert main(["train", "--config", cfg]) == 0
            assert len(load_csv(os.path.join(out, "train.csv")).labels) == 12
            runs.append([read_bytes(os.path.join(out, name))
                         for name in ("metrics.csv", "model.bin")])
        assert runs[0] == runs[1]

    def test_hidden_sizes_checked_before_the_data(self, tmp_path, capsys):
        data = os.path.join(tmp_path, "data.csv")
        with open(data, "w") as fh:
            fh.write("0,1.0\nnot a row\n")
        out = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, data_csv=data,
                           hidden_sizes="0")
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: key 'hidden_sizes' must be >= 1 each, got 0\n"
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value", [("synth_class_sep", "nan"),
                                            ("synth_noise_sigma", "inf")])
    def test_non_finite_synth_value_names_the_parameter(self, tmp_path, capsys, key, value):
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), os.path.join(tmp_path, "run"),
                           **{key: value})
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}: key {key!r} must be finite and >= 0, got {value}\n"

    @pytest.mark.parametrize("key, value", [
        ("synth_samples_per_class", 2**64), ("synth_samples_per_class", 2**63 - 1),
        ("synth_samples_per_class", 2**59), ("synth_dim", 2**64), ("synth_branching", 2**64),
    ])
    def test_samples_past_an_array_index_name_the_key(self, tmp_path, capsys, key, value):
        """2 classes x 10 samples x 3 float64 feature values, with one of
        the three set to ``value``, do not fit one array, also at 2**59
        samples, whose values alone an index could count: refused by the
        key or flag set to ``value``, exit 2, before any array is made, by
        train and synth-data."""
        out = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, **{key: str(value)})
        sizes = {"synth_branching": 2, "synth_samples_per_class": 10, "synth_dim": 3, key: value}
        problem = (f"gives {sizes['synth_branching']}**1 classes x "
                   f"{sizes['synth_samples_per_class']} x p={sizes['synth_dim']} feature values "
                   f"of 8 bytes, more than an array can hold ({2**63 - 1} bytes)")
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: key {key!r} {problem}\n"
        assert not os.path.exists(out)
        data = os.path.join(tmp_path, "data.csv")
        flags = {"synth_branching": "--branching",
                 "synth_samples_per_class": "--samples-per-class", "synth_dim": "--dim"}
        assert main(["synth-data", "--depth", "1", "--out", data,
                     *(a for k, flag in flags.items() for a in (flag, str(sizes[k])))]) == 2
        assert capsys.readouterr().err == f"error: {flags[key]} {problem}\n"
        assert not os.path.exists(data)

    @pytest.mark.parametrize("depth, key, value, problem", [
        ("2", "noise_sigma", "1e308", "gives feature values past the float64 range, got 1e+308"),
        ("3", "class_sep", "1.7e308",
         "gives class centers past the float64 range, got 1.7e+308"),
    ])
    def test_values_past_float64_name_the_key(self, tmp_path, capsys, depth, key, value,
                                             problem):
        """Finite settings whose centers or features overflow float64 are
        refused by the key or flag that set them, exit 2, with nothing
        written and no numpy warning, by train and synth-data."""
        out = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, synth_depth=depth,
                           synth_branching="4", synth_samples_per_class="4", synth_dim="8",
                           **{f"synth_{key}": value})
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: key 'synth_{key}' {problem}\n"
        assert not os.path.exists(out)
        data = os.path.join(tmp_path, "data.csv")
        flag = "--" + key.replace("_", "-")
        assert main(["synth-data", "--depth", depth, "--branching", "4", "--samples-per-class",
                     "4", "--dim", "8", flag, value, "--out", data]) == 2
        assert capsys.readouterr().err == f"error: {flag} {problem}\n"
        assert not os.path.exists(data)

    @pytest.mark.parametrize("key, value, shape", [
        ("code_bits", str(2**64), f"2 x {2**64} code"),
        ("code_bits", str(2**63 - 1), f"2 x {2**63 - 1} code"),
        ("hidden_sizes", str(2**64), f"{2**64} x 3 weight"),
        ("hidden_sizes", f"8,{2**63 - 1}", f"{2**63 - 1} x 8 weight"),
    ])
    def test_code_or_layer_past_an_array_index_names_the_key(self, tmp_path, capsys, key,
                                                             value, shape):
        """A code of 2 classes x code_bits, or a weight matrix with a hidden
        size, whose float64 values do not fit one array: refused by the key,
        exit 2, before the array or out_dir is made."""
        out = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, **{key: value})
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: key {key!r} gives {shape} values of 8 bytes, more than an array "
            f"can hold ({2**63 - 1} bytes)\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("key, value", [("synth_depth", "0"), ("synth_dim", "0"),
                                            ("code_bits", "0"), ("code_strategy", "magic")])
    def test_keys_of_an_unused_source_are_not_checked(self, tmp_path, key, value):
        """synth_* keys are not read with data_csv, nor code_* keys with
        code_csv, and config.echo leaves them out; a bad value there is
        not an error."""
        data, code = os.path.join(tmp_path, "data.csv"), os.path.join(tmp_path, "code.csv")
        save_csv(synth_hierarchical(1, 2, 10, 4.0, 0.5, 3, seed=0), data)
        assert main(["gen-code", "--strategy", "gaussian", "--classes", "2", "--bits", "4",
                     "--out", code]) == 0
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), os.path.join(tmp_path, "run"),
                           data_csv=data, code_csv=code, **{key: value})
        assert main(["train", "--config", cfg]) == 0

    @pytest.mark.parametrize("rows, line", [("0,1,0\n0,0,1\n1,0,0\n", 2),
                                            ("1,0,0\n1,0,0\n0,0,1\n", 3)],
                             ids=["permuted", "repeated"])
    def test_one_hot_code_other_than_the_identity_exits_2(self, tmp_path, capsys, rows, line):
        """The softmax head trains output i for class i whatever the rows
        say, so a permuted identity would train to full accuracy and
        analyze to none; the code file is refused at its first bad row."""
        data, code = os.path.join(tmp_path, "data.csv"), os.path.join(tmp_path, "code.csv")
        assert main(["synth-data", "--depth", "1", "--branching", "3", "--samples-per-class",
                     "20", "--dim", "4", "--class-sep", "8", "--seed", "0", "--out", data]) == 0
        with open(code, "w") as fh:
            fh.write("3,3,onehot,raw\n" + rows)
        out = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, data_csv=data, code_csv=code,
                           epochs="20", learning_rate="0.5")
        capsys.readouterr()
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"error: {code}:{line}: a one-hot row must hold a single 1, in its class's column\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flag", ["--noise-sigma", "--class-sep"])
    @pytest.mark.parametrize("value, shown", [("-inf", "-inf"), ("-1e3", "-1000.0"),
                                              ("-Infinity", "-inf"), ("-nan", "nan")])
    def test_negative_number_spellings_reach_the_range_check(self, tmp_path, capsys, flag,
                                                             value, shown):
        """argparse would read ``-inf`` and ``-1e3`` as option names; they
        are values, and the range check names the flag."""
        out = os.path.join(tmp_path, "data.csv")
        assert main(["synth-data", "--depth", "1", "--branching", "2", flag, value,
                     "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {flag} must be finite and >= 0, got {shown}\n"
        assert not os.path.exists(out)

    def test_label_beyond_int64_exits_2(self, tmp_path, capsys):
        data = os.path.join(tmp_path, "data.csv")
        with open(data, "w") as fh:
            fh.write("0,1.0\n99999999999999999999,2.0\n")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), os.path.join(tmp_path, "run"),
                           data_csv=data)
        assert main(["train", "--config", cfg]) == 2
        assert f"error: {data}:2: label does not fit in int64\n" in capsys.readouterr().err


class ArrayMemoryError(MemoryError):
    """A MemoryError subclass defined outside builtins, as numpy's is."""


RUN_INPUTS = ("code.csv", "train.csv", "eval.csv", "attributes.csv", "config.echo")


def snapshot(directory: str) -> dict[str, bytes]:
    """Every file in a directory, temp files included, by name."""
    return {name: read_bytes(os.path.join(directory, name)) for name in os.listdir(directory)}


def in_process_inputs(cfg_path: str, out_dir: str) -> dict[str, bytes]:
    """A run's input artifacts as in-process ``save_*`` calls write them."""
    cfg = resolve_config(parse_config_text(read_bytes(cfg_path).decode()))
    full = cli._load_dataset(cfg)
    train_set, eval_set = split(full, cfg.train_fraction, seed=cfg.seed)
    if cfg.code_csv is not None:
        code = load_code_csv(cfg.code_csv)
    else:  # the gaussian code of write_config
        code = gaussian_code(full.n, cfg.code_bits, seed=cfg.seed)
    path = {name: os.path.join(out_dir, name) for name in RUN_INPUTS}
    save_code_csv(code, path["code.csv"])
    save_csv(train_set, path["train.csv"])
    save_csv(eval_set, path["eval.csv"])
    if full.attributes is not None:
        save_attributes_csv(full, path["attributes.csv"])
    with open(path["config.echo"], "w") as fh:
        fh.writelines(line + "\n" for line in cfg.echo_lines())
    return snapshot(out_dir)


def set_writer(monkeypatch, writer: str) -> list[int]:
    """Make the next runs fork their writer, find ``os.fork`` failing, or
    find it missing; returns a list that gets one entry per fork call."""
    forks: list[int] = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        if writer == "fork fails":
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    if writer == "no fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", fork)
    return forks


WRITERS = ["fork", "fork fails", "no fork"]
FAILURES = ["diverge", "interrupt", "writer fault"]


def fail_run(tmp_path, capsys, monkeypatch, out_dir: str, writer: str, failure: str) -> None:
    """Run ``train`` into ``out_dir`` with another seed, split and code, so
    that every file it writes would change, and make it fail in training
    (exit 3), by an interrupt, or in the input artifact writer (exit 2)."""
    cfg = write_config(os.path.join(tmp_path, "bad.cfg"), out_dir, seed="1",
                       train_fraction="0.6", code_strategy="onehot", code_bits=None,
                       learning_rate="1e6" if failure == "diverge" else "0.1")
    set_writer(monkeypatch, writer)
    if failure == "interrupt":
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(net, "train", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["train", "--config", cfg])
        return
    if failure == "writer fault":
        def full_disk(dataset, path):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(datasets, "save_csv", full_disk)
    assert main(["train", "--config", cfg]) == (3 if failure == "diverge" else 2)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


class TestTrainWriter:
    """The input artifacts are written by a forked child during training;
    every file of a run is staged and put in place only when the run
    succeeds."""

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_inputs_match_in_process_writes(self, tmp_path, monkeypatch, writer, source):
        out_dir = os.path.join(tmp_path, "run")
        overrides = {}
        if source == "csv":
            data, code = os.path.join(tmp_path, "data.csv"), os.path.join(tmp_path, "code.csv")
            assert main(["synth-data", "--depth", "1", "--branching", "3", "--dim", "3",
                         "--samples-per-class", "8", "--out", data]) == 0
            assert main(["gen-code", "--strategy", "dense", "--classes", "3", "--bits", "5",
                         "--candidates", "20", "--out", code]) == 0
            overrides = {"data_csv": data, "code_csv": code}
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir, **overrides)
        forks = set_writer(monkeypatch, writer)
        assert main(["train", "--config", cfg]) == 0
        assert len(forks) == (writer != "no fork")
        got = snapshot(out_dir)
        want = in_process_inputs(cfg, os.path.join(tmp_path, "expected"))
        inputs = [n for n in RUN_INPUTS if source == "synthetic" or n != "attributes.csv"]
        assert sorted(want) == sorted(inputs)
        assert sorted(got) == sorted([*want, "metrics.csv", "model.bin"])
        for name, blob in want.items():
            assert got[name] == blob, name

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("failure", FAILURES)
    def test_failed_run_leaves_out_dir_untouched(self, tmp_path, capsys, monkeypatch,
                                                 writer, failure):
        out_dir = os.path.join(tmp_path, "run")
        assert main(["train", "--config",
                     write_config(os.path.join(tmp_path, "ok.cfg"), out_dir)]) == 0
        before = snapshot(out_dir)
        assert sorted(before) == sorted(["metrics.csv", "model.bin", *RUN_INPUTS])
        fail_run(tmp_path, capsys, monkeypatch, out_dir, writer, failure)
        assert snapshot(out_dir) == before

    @pytest.mark.parametrize("writer", WRITERS)
    @pytest.mark.parametrize("failure", FAILURES)
    def test_failed_run_into_a_new_out_dir_leaves_it_empty(self, tmp_path, capsys,
                                                           monkeypatch, writer, failure):
        out_dir = os.path.join(tmp_path, "run")
        fail_run(tmp_path, capsys, monkeypatch, out_dir, writer, failure)
        assert os.listdir(out_dir) == []

    def test_rename_fault_exits_2_with_one_error_line(self, tmp_path, capsys):
        out_dir = os.path.join(tmp_path, "run")
        os.makedirs(os.path.join(out_dir, "train.csv"))
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir)
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "train.csv" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not [n for n in os.listdir(out_dir) if n.startswith(".tmp-")]

    @pytest.mark.parametrize("exc, exit_code", [
        (OSError(errno.ENOSPC, "No space left on device"), 2),
        (ArrayMemoryError("Unable to allocate 8.00 EiB"), 2),
        (ValueError("bad rows"), 2),
        (UnicodeEncodeError("ascii", "\u00e9", 0, 1, "ordinal not in range(128)"), 2),
        (RuntimeError("writer broke"), 3),
    ])
    def test_writer_fault_reads_as_in_process(self, tmp_path, capsys, monkeypatch, exc, exit_code):
        """An exception in the forked writer gives the error line and exit
        code the same fault gives an in-process write, and no input
        artifact is put in place."""
        def broken_save(dataset, path):
            raise exc

        monkeypatch.setattr(datasets, "save_csv", broken_save)
        errors = []
        for writer in WRITERS:
            out_dir = os.path.join(tmp_path, writer)
            cfg = write_config(os.path.join(tmp_path, f"{writer}.cfg"), out_dir)
            with monkeypatch.context() as patch:
                set_writer(patch, writer)
                assert main(["train", "--config", cfg]) == exit_code
            errors.append(capsys.readouterr().err)
            assert os.listdir(out_dir) == []
        assert errors == [f"error: {exc}\n"] * len(WRITERS)

    def test_save_failing_only_in_the_child_is_written_in_process(self, tmp_path, monkeypatch):
        """A save that raises in the forked writer alone runs again
        in-process: the run succeeds with the inputs an in-process write
        gives, and the parent saves once."""
        parent, real_save, saved = os.getpid(), codes.save_code_csv, []

        def child_only_fault(code, path):
            if os.getpid() != parent:
                raise OSError(errno.ENOSPC, "No space left on device")
            saved.append(path)
            real_save(code, path)

        monkeypatch.setattr(codes, "save_code_csv", child_only_fault)
        forks = set_writer(monkeypatch, "fork")
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir)
        assert main(["train", "--config", cfg]) == 0
        assert len(forks) == 1 and len(saved) == 1
        got = snapshot(out_dir)
        for name, blob in in_process_inputs(cfg, os.path.join(tmp_path, "expected")).items():
            assert got[name] == blob, name

    def test_killed_writer_exits_2(self, tmp_path, capsys, monkeypatch):
        parent = os.getpid()

        def killed_save(dataset, path):
            assert os.getpid() != parent, "the save ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(datasets, "save_csv", killed_save)
        out_dir = os.path.join(tmp_path, "run")
        assert main(["train", "--config", write_config(os.path.join(tmp_path, "exp.cfg"),
                                                       out_dir)]) == 2
        assert capsys.readouterr().err == (
            f"error: artifact writer exited with status {-signal.SIGKILL}\n")
        assert os.listdir(out_dir) == []

    def test_out_dir_fault_surfaces_before_training(self, tmp_path, capsys, monkeypatch):
        out_dir = os.path.join(tmp_path, "run")
        open(out_dir, "w").close()
        started = []

        def train(*args, **kwargs):
            started.append(1)
            raise RuntimeError("training started")

        monkeypatch.setattr(net, "train", train)
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir)
        assert main(["train", "--config", cfg]) == 2
        assert "File exists" in capsys.readouterr().err
        assert started == []
        assert read_bytes(out_dir) == b""

    def test_fork_warning_is_filtered(self, tmp_path, monkeypatch):
        """Python 3.12+ warns at ``fork()`` while BLAS threads run.  The
        writer filters that warning, so a run that turns warnings into
        errors still forks and writes the same files."""
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir)
        assert main(["train", "--config", cfg]) == 0
        before = snapshot(out_dir)
        real_fork = os.fork
        forks = []

        def warning_fork():
            forks.append(1)
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return real_fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["train", "--config", cfg]) == 0
        assert forks == [1]
        assert snapshot(out_dir) == before

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_files_get_the_umask_mode(self, tmp_path, monkeypatch, umask):
        """Every file ecoc writes has mode 0o666 less the umask, as after a
        plain open()."""
        monkeypatch.chdir(tmp_path)
        old = os.umask(umask)
        try:
            assert main(["synth-data", "--depth", "1", "--branching", "3", "--dim", "3",
                         "--samples-per-class", "8", "--out", "data.csv",
                         "--attributes-out", "attrs.csv"]) == 0
            assert main(["gen-code", "--strategy", "gaussian", "--classes", "3", "--bits", "4",
                         "--out", "code.csv"]) == 0
            cfg = write_config("exp.cfg", "run", data_csv="data.csv", code_csv="code.csv",
                               attributes_csv="attrs.csv")
            assert main(["train", "--config", cfg]) == 0
            assert main(["analyze", "--model", "run/model.bin", "--data", "run/eval.csv",
                         "--code", "run/code.csv", "--mode", "confusion",
                         "--out", "confusion.csv"]) == 0
        finally:
            os.umask(old)
        written = ["data.csv", "attrs.csv", "code.csv", "confusion.csv",
                   *(os.path.join("run", name) for name in os.listdir("run"))]
        assert len(written) == 4 + 7
        assert {name: stat.S_IMODE(os.stat(name).st_mode) for name in written} == dict.fromkeys(
            written, 0o666 & ~umask)


def test_blas_thread_count_leaves_inputs_byte_identical(tmp_path):
    """The same run at 1 and at 2 BLAS threads writes byte-identical files
    wherever no BLAS call is made: the splits, the code and config.echo
    (``out_dir`` aside).  The trained weights may differ in the last bits,
    as BLAS sums in another order; the largest weight and loss differences
    are printed."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    runs = {}
    for threads in ("1", "2"):
        out_dir = os.path.join(tmp_path, f"threads{threads}")
        cfg = write_config(os.path.join(tmp_path, f"threads{threads}.cfg"), out_dir,
                           synth_depth="2", synth_branching="4", synth_dim="8",
                           hidden_sizes="32")
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "ecoc.cli", "train", "--config", cfg],
                       env=env, check=True, capture_output=True)
        runs[threads] = out_dir
    one, two = (snapshot(runs[t]) for t in ("1", "2"))
    for name in ("train.csv", "eval.csv", "code.csv"):
        assert one[name] == two[name], name

    def echo(blob: bytes) -> list[bytes]:
        return [line for line in blob.splitlines() if not line.startswith(b"out_dir = ")]

    assert echo(one["config.echo"]) == echo(two["config.echo"])
    layers = zip(*(net.load_model(os.path.join(runs[t], "model.bin")).layers
                   for t in ("1", "2")))
    weights = max(np.abs(a - b).max() for pair in layers for a, b in zip(*pair))
    losses = [[float(line.split(b",")[2]) for line in files["metrics.csv"].splitlines()[1:]]
              for files in (one, two)]
    loss = np.abs(np.subtract(*losses)).max()
    print(f"1 vs 2 BLAS threads: largest weight difference {weights:.3g}, "
          f"largest metrics.csv loss difference {loss:.3g}")


@pytest.mark.parametrize("command", ["train", "gen-code", "synth-data"])
def test_negative_seed_names_key_or_flag(tmp_path, capsys, command):
    """A negative seed is refused where it is read, by config key or flag
    and value, before anything is written."""
    out = os.path.join(tmp_path, "out")
    cfg = os.path.join(tmp_path, "exp.cfg")
    argv, name = {
        "train": (["train", "--config", write_config(cfg, out, seed="-1")], f"{cfg}: key 'seed'"),
        "gen-code": (["gen-code", "--strategy", "gaussian", "--classes", "4", "--seed", "-1",
                      "--out", out], "--seed"),
        "synth-data": (["synth-data", "--seed", "-1", "--out", out], "--seed"),
    }[command]
    assert main(argv) == 2
    assert f"error: {name} must be >= 0, got -1\n" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("strategy, bits, problem", [
    ("onehot", "3", "must equal n=4 for a one-hot code, got 3"),
    ("spectral", "4", "must be at most n-1=3 for a spectral code, got 4"),
], ids=["onehot", "spectral"])
def test_code_bits_the_strategy_cannot_have_names_key_or_flag(tmp_path, capsys, strategy, bits,
                                                              problem):
    """A bit count that a one-hot code (n) or a spectral code (at most n-1)
    of 4 classes cannot have: one stderr line naming the config key under
    train and the flag under gen-code, exit 2, nothing written."""
    out = os.path.join(tmp_path, "out")
    cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, synth_depth="2",
                       code_strategy=strategy, code_bits=bits)
    assert main(["train", "--config", cfg]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: key 'code_bits' {problem}\n"
    sim = os.path.join(tmp_path, "sim.csv")
    save_similarity_csv(SimilarityGraph(np.ones((4, 4)) - np.eye(4)), sim)
    assert main(["gen-code", "--strategy", strategy, "--classes", "4", "--similarity", sim,
                 "--bits", bits, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: --bits {problem}\n"
    assert not os.path.exists(out)


def test_every_library_parameter_has_a_key_and_a_flag():
    """Each parameter the CLI hands the library under another name has a
    config key (the class count has only a flag), and each key gen-code or
    synth-data reads has a flag there: a parameter or key added without a
    name fails here."""
    keys = {f.name for f in fields(ExperimentConfig)}
    synth = [name for name in inspect.signature(synth_hierarchical).parameters if name != "seed"]
    for name in synth + ["k", "layer_sizes"]:
        assert cli._KEYS[name] in keys, name
    assert cli._KEYS["n"] == "classes"
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {command: {flag for action in sub.choices[command]._actions
                         for flag in action.option_strings}
               for command in ("synth-data", "gen-code")}
    for key in sorted(keys):
        if key.startswith("synth_"):
            assert cli._flag(key) in options["synth-data"], key
    for key in ("seed", "code_strategy", "code_bits", "code_binarize", "code_candidates",
                "classes"):
        assert cli._flag(key) in options["gen-code"], key
    assert cli._flag("seed") in options["synth-data"]


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys, monkeypatch):
    """main builds its parser on its first call and keeps it: across two
    subcommands and an argv that argparse refuses, after which the same
    command writes the same bytes.  The subcommand's function is looked up
    at each call, so one bound to the module name later is the one run."""
    cli._parser.cache_clear()
    out = str(tmp_path / "code.csv")
    gen = ["gen-code", "--strategy", "dense", "--classes", "6", "--bits", "5",
           "--candidates", "10", "--out", out]
    assert main(gen) == 0
    first = (read_bytes(out), capsys.readouterr().out)
    assert main(["synth-data", "--depth", "1", "--out", str(tmp_path / "data.csv")]) == 0
    assert_usage_error(capsys, ["gen-code", "--strategy", "dense", "--classes", "x",
                                "--out", out], "invalid int value: 'x'")
    assert main(gen) == 0
    assert (read_bytes(out), capsys.readouterr().out) == first
    calls = []
    monkeypatch.setattr(cli, "cmd_synth_data", lambda args: calls.append(args.out) or 0)
    assert main(["synth-data", "--out", "unused.csv"]) == 0
    assert calls == ["unused.csv"]
    assert cli._parser.cache_info().misses == 1


def test_impossible_allocation_exits_2_with_numpy_size(tmp_path, capsys):
    """A 10**8-class one-hot code asks numpy for 71 PiB, beyond any 48-bit
    address space, so it fails at once: one error line, exit 2."""
    out = os.path.join(tmp_path, "code.csv")
    assert main(["gen-code", "--strategy", "onehot", "--classes", "100000000",
                 "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate 71.1 PiB")
    assert err.count("\n") == 1
    assert not os.path.exists(out)


class TestAnalyze:
    @pytest.fixture()
    def run_dir(self, tmp_path):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(
            os.path.join(tmp_path, "exp.cfg"), out_dir,
            synth_depth="2", synth_samples_per_class="10", epochs="3",
            synth_dim="4", code_bits="4",
        )
        assert main(["train", "--config", cfg]) == 0
        return out_dir

    def test_confusion(self, run_dir, tmp_path, capsys):
        out = os.path.join(tmp_path, "confusion.csv")
        assert main(["analyze",
                     "--model", os.path.join(run_dir, "model.bin"),
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", "confusion", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "true\\pred,0,1,2,3"
        counts = np.array([[int(v) for v in ln.split(",")[1:]] for ln in lines[1:]])
        eval_rows = len(open(os.path.join(run_dir, "eval.csv")).read().splitlines())
        assert counts.sum() == eval_rows
        assert "accuracy" in capsys.readouterr().out

    def test_confusion_rejects_code_of_other_width(self, run_dir, tmp_path, capsys):
        code = os.path.join(tmp_path, "wide.csv")
        assert main(["gen-code", "--strategy", "gaussian", "--classes", "16",
                     "--bits", "5", "--out", code]) == 0
        out = os.path.join(tmp_path, "confusion.csv")
        assert main(["analyze",
                     "--model", os.path.join(run_dir, "model.bin"),
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", code,
                     "--mode", "confusion", "--out", out]) == 2
        assert "net output size 4 does not match code bits 5" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["confusion", "ablate"])
    def test_overflowing_outputs_exit_2(self, run_dir, tmp_path, capsys, mode):
        """A finite model whose outputs' squares overflow fails with one
        error line and writes nothing, instead of decoding zero vectors."""
        p = net.load_model(os.path.join(run_dir, "model.bin"))
        p.layers[0][0][0, 0] = 1e300
        model = os.path.join(tmp_path, "big.bin")
        net.save_model(p, model)
        out = os.path.join(tmp_path, "out.csv")
        assert main(["analyze", "--model", model,
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", mode, "--out", out]) == 2
        assert capsys.readouterr().err == (
            "error: cannot normalize a vector whose norm is not finite\n"
        )
        assert not os.path.exists(out)

    def test_ablate_default_sweeps_all_prefixes(self, run_dir, tmp_path):
        out = os.path.join(tmp_path, "ablation.csv")
        assert main(["analyze",
                     "--model", os.path.join(run_dir, "model.bin"),
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", "ablate", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "bits,accuracy"
        assert len(lines) == 1 + 4
        assert [int(ln.split(",")[0]) for ln in lines[1:]] == [1, 2, 3, 4]

    def test_ablate_explicit_js(self, run_dir, tmp_path):
        out = os.path.join(tmp_path, "ablation.csv")
        assert main(["analyze",
                     "--model", os.path.join(run_dir, "model.bin"),
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", "ablate", "--js", "1,4", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert [ln.split(",")[0] for ln in lines[1:]] == ["1", "4"]

    @pytest.mark.parametrize("mode", ["confusion", "ablate"])
    def test_label_beyond_code_classes_rejected(self, run_dir, tmp_path, capsys, mode):
        """The code fixes the class count: a data row labelled 4 against
        the run's 4-class code is named by path and line."""
        ds = load_csv(os.path.join(run_dir, "eval.csv"), n=4)
        labels = ds.labels.copy()
        labels[2] = 4
        data = os.path.join(tmp_path, "five.csv")
        save_csv(Dataset(ds.features, labels, 5), data)
        out = os.path.join(tmp_path, f"{mode}.csv")
        assert main(["analyze", "--model", os.path.join(run_dir, "model.bin"),
                     "--data", data, "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", mode, "--out", out]) == 2
        assert f"{data}:3: label >= declared class count 4" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("js, bad", [("1,,2", "''"), ("a", "'a'")])
    def test_malformed_js_names_the_entry(self, run_dir, tmp_path, capsys, js, bad):
        out = os.path.join(tmp_path, "ablation.csv")
        assert main(["analyze",
                     "--model", os.path.join(run_dir, "model.bin"),
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", "ablate", "--js", js, "--out", out]) == 2
        assert f"--js entry {bad} is not an integer" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_correlate(self, run_dir, tmp_path):
        out = os.path.join(tmp_path, "corr.csv")
        assert main(["analyze",
                     "--model", os.path.join(run_dir, "model.bin"),
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", "correlate",
                     "--attributes", os.path.join(run_dir, "attributes.csv"),
                     "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "bit,attribute,r"
        # 4 bits x 3 attributes
        assert len(lines) == 1 + 12

    def test_correlate_reads_neither_model_nor_data(self, run_dir, tmp_path, capsys):
        argv = ["analyze", "--code", os.path.join(run_dir, "code.csv"),
                "--mode", "correlate",
                "--attributes", os.path.join(run_dir, "attributes.csv")]
        ref = os.path.join(tmp_path, "ref.csv")
        assert main(argv + ["--model", os.path.join(run_dir, "model.bin"),
                            "--data", os.path.join(run_dir, "eval.csv"),
                            "--out", ref]) == 0
        out = os.path.join(tmp_path, "corr.csv")
        assert main(argv + ["--model", os.path.join(tmp_path, "missing.bin"),
                            "--data", os.path.join(tmp_path, "missing.csv"),
                            "--out", out]) == 0
        assert read_bytes(out) == read_bytes(ref)
        bare = os.path.join(tmp_path, "bare.csv")
        assert main(argv + ["--out", bare]) == 0
        assert read_bytes(bare) == read_bytes(ref)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("missing", ["--model", "--data"])
    @pytest.mark.parametrize("mode", ["confusion", "ablate"])
    def test_model_and_data_required_outside_correlate(
        self, run_dir, tmp_path, capsys, mode, missing
    ):
        given = {"--model": os.path.join(run_dir, "model.bin"),
                 "--data": os.path.join(run_dir, "eval.csv")}
        del given[missing]
        out = os.path.join(tmp_path, f"{mode}.csv")
        argv = ["analyze", "--code", os.path.join(run_dir, "code.csv"),
                "--mode", mode, "--out", out]
        for flag, path in given.items():
            argv += [flag, path]
        assert main(argv) == 2
        assert f"error: {missing} is required for mode={mode}" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_confusion_missing_model_exits_2(self, run_dir, tmp_path, capsys):
        model = os.path.join(tmp_path, "missing.bin")
        out = os.path.join(tmp_path, "confusion.csv")
        assert main(["analyze", "--model", model,
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", "confusion", "--out", out]) == 2
        assert model in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_classes_flag_removed(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "c.csv")
        assert_usage_error(capsys, ["analyze", "--model", "model.bin", "--data", "eval.csv",
                                    "--code", "code.csv", "--mode", "confusion",
                                    "--classes", "4", "--out", out],
                           "unrecognized arguments: --classes 4")
        assert not os.path.exists(out)

    def test_truncated_model_exits_2(self, run_dir, tmp_path, capsys):
        model = os.path.join(tmp_path, "model.bin")
        blob = read_bytes(os.path.join(run_dir, "model.bin"))
        with open(model, "wb") as fh:
            fh.write(blob[:-8])
        assert main(["analyze", "--model", model,
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", "confusion",
                     "--out", os.path.join(tmp_path, "confusion.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{model}: truncated parameters" in err
        assert f"found {len(blob) - 8 - 8 - 4 - 4 * 3}" in err

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_model_weight_exits_2(self, run_dir, tmp_path, capsys, value):
        """A model.bin whose first weight is NaN or inf is refused: one
        error line naming the file and layer, exit 2, no report written."""
        model = os.path.join(tmp_path, "model.bin")
        blob = bytearray(read_bytes(os.path.join(run_dir, "model.bin")))
        blob[24:32] = struct.pack("<d", value)  # magic, count, 3 sizes, then layer 0
        with open(model, "wb") as fh:
            fh.write(blob)
        out = os.path.join(tmp_path, "confusion.csv")
        assert main(["analyze", "--model", model,
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", "confusion", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {model}: non-finite parameter in layer 0\n"
        assert captured.out == ""
        assert not os.path.exists(out)

    def test_non_finite_code_exits_2(self, run_dir, tmp_path, capsys):
        code = os.path.join(tmp_path, "code.csv")
        lines = open(os.path.join(run_dir, "code.csv")).read().splitlines()
        lines[2] = ",".join(["nan"] + lines[2].split(",")[1:])
        with open(code, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        assert main(["analyze",
                     "--model", os.path.join(run_dir, "model.bin"),
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", code,
                     "--mode", "confusion",
                     "--out", os.path.join(tmp_path, "confusion.csv")]) == 2
        assert f"{code}:3: non-finite code value" in capsys.readouterr().err

    def test_correlate_requires_attributes(self, run_dir, tmp_path, capsys):
        out = os.path.join(tmp_path, "corr.csv")
        assert main(["analyze",
                     "--model", os.path.join(run_dir, "model.bin"),
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", "correlate", "--out", out]) == 2
        assert "--attributes" in capsys.readouterr().err


    def test_empty_values_take_the_defaults(self, tmp_path):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir, epochs="",
                           learning_rate="", shuffle="")
        assert main(["train", "--config", cfg]) == 0
        echo = open(os.path.join(out_dir, "config.echo")).read().splitlines()
        for line in ("epochs = 30", "learning_rate = 0.1", "shuffle = true"):
            assert line in echo

    @pytest.fixture()
    def three_classes(self, tmp_path) -> str:
        data = os.path.join(tmp_path, "data.csv")
        save_csv(synth_hierarchical(1, 3, 10, 4.0, 0.5, 3, seed=0), data)
        return data

    def test_attribute_rows_must_match_the_classes(self, tmp_path, capsys, three_classes):
        attrs, out = os.path.join(tmp_path, "attrs.csv"), os.path.join(tmp_path, "run")
        with open(attrs, "w") as fh:
            fh.write("a\n1\n0\n")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, data_csv=three_classes,
                           attributes_csv=attrs)
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: attributes_csv has 2 rows for 3 classes\n"
        assert not os.path.exists(out)

    def test_codewords_must_match_the_classes(self, tmp_path, capsys, three_classes):
        code, out = os.path.join(tmp_path, "code.csv"), os.path.join(tmp_path, "run")
        save_code_csv(gaussian_code(4, 2, seed=0), code)
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, data_csv=three_classes,
                           code_csv=code)
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == "error: code has 4 codewords for 3 classes\n"
        assert not os.path.exists(out)

    def test_zero_codeword_is_refused_by_row(self, tmp_path, capsys, three_classes):
        """A raw gaussian code is decoded on unit rows, and a zero row has
        none: the run stops before out_dir is made."""
        code, out = os.path.join(tmp_path, "code.csv"), os.path.join(tmp_path, "run")
        with open(code, "w") as fh:
            fh.write("3,2,gaussian,raw\n0.5,1.0\n0.0,0.0\n-1.0,0.25\n")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, data_csv=three_classes,
                           code_csv=code)
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: cannot normalize a zero vector (codewords [1])\n")
        assert not os.path.exists(out)

    def test_zero_codeword_past_the_batch_is_refused_by_row(self, tmp_path, capsys,
                                                            three_classes):
        """The codeword's row index is not a row of the one-row batch that
        first meets it."""
        code, out = os.path.join(tmp_path, "code.csv"), os.path.join(tmp_path, "run")
        with open(code, "w") as fh:
            fh.write("3,2,gaussian,raw\n0.5,1.0\n-1.0,0.25\n0.0,0.0\n")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, data_csv=three_classes,
                           code_csv=code, batch_size="1")
        assert main(["train", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "error: cannot normalize a zero vector (codewords [2])\n")
        assert not os.path.exists(out)


class TestOverflowingNorms:
    """A class mean or codeword whose squares overflow would normalize to a
    zero row: a flat similarity graph, or a code that scores every output
    alike.  Each command refuses it by name with exit 2, one error line
    and no numpy warning."""

    NOT_FINITE = "error: cannot normalize a vector whose norm is not finite"

    def test_gen_code_spectral_from_data(self, tmp_path):
        ds = synth_hierarchical(2, 2, 5, 4.0, 0.5, 3, seed=0)
        data, out = os.path.join(tmp_path, "big.csv"), os.path.join(tmp_path, "code.csv")
        save_csv(Dataset(ds.features * 1e200, ds.labels, ds.n), data)
        proc = run_in_subprocess("gen-code", "--strategy", "spectral", "--data", data,
                                 "--bits", "2", "--out", out)
        assert proc.returncode == 2
        assert proc.stderr == f"{self.NOT_FINITE} (class means [0, 1, 2, 3])\n"
        assert not os.path.exists(out)

    @pytest.fixture()
    def big_code(self, tmp_path) -> str:
        path = os.path.join(tmp_path, "big_code.csv")
        save_code_csv(CodeMatrix(gaussian_code(4, 4, seed=0).values * 1e200), path)
        return path

    def test_train_with_code_csv(self, tmp_path, big_code):
        out_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out_dir,
                           synth_depth="2", code_csv=big_code)
        proc = run_in_subprocess("train", "--config", cfg)
        assert proc.returncode == 2
        assert proc.stderr == f"{self.NOT_FINITE} (codewords [0, 1, 2, 3])\n"
        assert not os.path.exists(out_dir)

    @pytest.mark.parametrize("mode", ["confusion", "ablate"])
    def test_analyze(self, tmp_path, big_code, mode):
        run_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), run_dir, synth_depth="2")
        assert main(["train", "--config", cfg]) == 0
        out = os.path.join(tmp_path, "out.csv")
        proc = run_in_subprocess("analyze", "--model", os.path.join(run_dir, "model.bin"),
                                 "--data", os.path.join(run_dir, "eval.csv"),
                                 "--code", big_code, "--mode", mode, "--out", out)
        assert proc.returncode == 2
        assert proc.stderr == f"{self.NOT_FINITE} (codewords [0, 1, 2, 3])\n"
        assert not os.path.exists(out)


class TestTrainAnalyzeAgree:
    """``analyze`` decodes a run from its own code.csv exactly as ``train``
    did: the confusion accuracy on eval.csv is the final eval accuracy in
    metrics.csv, for every code strategy and binarization ``train`` takes."""

    # (strategy, binarize, bits, branching): 16 classes, apart from the
    # median-binarized dense code, whose rows collapse at 16 classes
    CASES = [
        ("onehot", "raw", None, "4"),
        ("gaussian", "raw", "10", "4"),
        ("gaussian", "zero", "10", "4"),
        ("gaussian", "median", "10", "4"),
        ("dense", "raw", "10", "4"),
        ("dense", "zero", "10", "4"),
        ("dense", "median", "3", "2"),
        ("spectral", "raw", "10", "4"),
        ("spectral", "zero", "14", "4"),
        ("spectral", "median", "14", "4"),
    ]

    def _agree(self, tmp_path, capsys, **overrides):
        run_dir = os.path.join(tmp_path, "run")
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), run_dir, synth_depth="2",
                           code_candidates="50", **overrides)
        assert main(["train", "--config", cfg]) == 0
        out = os.path.join(tmp_path, "confusion.csv")
        assert main(["analyze", "--model", os.path.join(run_dir, "model.bin"),
                     "--data", os.path.join(run_dir, "eval.csv"),
                     "--code", os.path.join(run_dir, "code.csv"),
                     "--mode", "confusion", "--out", out]) == 0
        lines = open(out).read().splitlines()[1:]
        counts = np.array([[int(v) for v in ln.split(",")[1:]] for ln in lines])
        assert np.trace(counts) / counts.sum() == final_eval_accuracy(run_dir)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("strategy, binarize, bits, branching", CASES)
    def test_confusion_matches_final_eval_accuracy(
        self, tmp_path, capsys, strategy, binarize, bits, branching
    ):
        self._agree(tmp_path, capsys, synth_branching=branching, code_strategy=strategy,
                    code_binarize=binarize, code_bits=bits)

    def test_decoder_head_on_one_hot(self, tmp_path, capsys):
        self._agree(tmp_path, capsys, synth_branching="4", code_strategy="onehot",
                    code_bits=None, head="decoder")


class TestConfigParsing:
    def test_comments_and_blanks(self):
        entries = parse_config_text("# note\n\nepochs = 3  # trailing\n")
        assert entries == {"epochs": "3"}

    def test_malformed_line(self):
        with pytest.raises(ValueError, match=":2"):
            parse_config_text("a = 1\nnot a pair\n")

    def test_duplicate_key(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")

    def test_lines_end_only_at_line_ends(self):
        """A form feed or U+2028 inside a line neither ends it nor shifts
        the line numbers after it."""
        assert parse_config_text("a = 1 \x0c\r\nb = x\u2028y\r") == {"a": "1", "b": "x\u2028y"}
        with pytest.raises(ValueError, match=r"^config:2: expected 'key = value'"):
            parse_config_text("a = 1\x0c\nnot a pair\n")

    def test_resolve_defaults(self, tmp_path):
        cfg = resolve_config({"out_dir": str(tmp_path)})
        assert cfg.epochs == 30
        assert cfg.batch_size == 16
        assert cfg.code_strategy == "gaussian"
        assert cfg.hidden_sizes == (32,)
        assert cfg.head == "auto"

    def test_resolve_type_errors(self, tmp_path):
        base = {"out_dir": str(tmp_path)}
        with pytest.raises(ValueError, match="epochs"):
            resolve_config(dict(base, epochs="three"))
        with pytest.raises(ValueError, match="shuffle"):
            resolve_config(dict(base, shuffle="yes"))
        with pytest.raises(ValueError, match="code_strategy"):
            resolve_config(dict(base, code_strategy="magic"))

    def test_echo_is_a_fixed_point(self, tmp_path):
        cfg = resolve_config({
            "out_dir": str(tmp_path),
            "hidden_sizes": "16,8",
            "learning_rate": "0.25",
            "lr_decay_epoch": "5",
        })
        echoed = resolve_config(parse_config_text("\n".join(cfg.echo_lines())))
        assert echoed == cfg
        assert echoed.echo_lines() == cfg.echo_lines()

    def test_echo_skips_keys_the_csv_paths_replace(self, tmp_path, monkeypatch):
        """data_csv drops the synth_* keys and code_csv every other code_*
        key, whatever the config set them to."""
        monkeypatch.chdir(tmp_path)
        for name in ("data.csv", "code.csv"):
            open(name, "w").close()
        cfg = resolve_config({
            "data_csv": "data.csv", "code_csv": "code.csv", "synth_depth": "3",
            "synth_class_sep": "2.5", "code_strategy": "dense", "code_bits": "5",
            "code_binarize": "zero", "epochs": "5", "learning_rate": "0.5", "seed": "3",
            "out_dir": "run",
        })
        assert cfg.echo_lines() == [
            "batch_size = 16",
            "code_csv = code.csv",
            "data_csv = data.csv",
            "epochs = 5",
            "head = auto",
            "hidden_sizes = 32",
            "learning_rate = 0.5",
            "lr_decay_factor = 0.1",
            "momentum = 0.0",
            "out_dir = run",
            "seed = 3",
            "shuffle = true",
            "train_fraction = 0.8",
        ]

    def test_echo_of_synthetic_config(self):
        """Unset optional keys (code_bits, lr_decay_epoch) are left out; an
        empty hidden_sizes is echoed empty."""
        cfg = resolve_config({
            "hidden_sizes": "", "synth_noise_sigma": "0.75", "shuffle": "false",
            "code_strategy": "onehot", "out_dir": "run",
        })
        assert cfg.echo_lines() == [
            "batch_size = 16",
            "code_binarize = raw",
            "code_candidates = 10000",
            "code_strategy = onehot",
            "epochs = 30",
            "head = auto",
            "hidden_sizes = ",
            "learning_rate = 0.1",
            "lr_decay_factor = 0.1",
            "momentum = 0.0",
            "out_dir = run",
            "seed = 0",
            "shuffle = false",
            "synth_branching = 4",
            "synth_class_sep = 4.0",
            "synth_depth = 2",
            "synth_dim = 8",
            "synth_noise_sigma = 0.75",
            "synth_samples_per_class = 50",
            "train_fraction = 0.8",
        ]

    def test_missing_data_path_reported(self, tmp_path):
        with pytest.raises(ValueError, match="data_csv"):
            resolve_config({"out_dir": str(tmp_path), "data_csv": "/nope.csv"})


# Single bad values to try on each config key, by its annotation.  A path
# value names this file, which exists.
BAD_VALUES = {
    "int": (-1, 0, 1),
    "int | None": (-1, 0, 1),
    "float": (-1.0, 0.0, 1.0, math.inf, math.nan),
    "tuple[int, ...]": ((0,), (4, -1)),
    "str": ("x",),
    "str | None": (__file__,),
}
# Every refusal of one of those values, by key and config text: what
# resolve_config writes after "<source>: key '<key>' ".  These lines are
# pinned byte for byte.
REFUSALS = {
    ("attributes_csv", __file__): "needs data_csv; a synthetic dataset has its own attributes",
    ("batch_size", "-1"): "must be >= 1, got -1",
    ("batch_size", "0"): "must be >= 1, got 0",
    ("code_binarize", "x"): "must be one of raw, zero, median, got 'x'",
    ("code_bits", "-1"): "must be >= 1, got -1",
    ("code_bits", "0"): "must be >= 1, got 0",
    ("code_candidates", "-1"): "must be >= 1, got -1",
    ("code_candidates", "0"): "must be >= 1, got 0",
    ("code_strategy", "x"): "must be one of onehot, gaussian, dense, spectral, got 'x'",
    ("epochs", "-1"): "must be >= 1, got -1",
    ("epochs", "0"): "must be >= 1, got 0",
    ("head", "x"): "must be one of auto, decoder, softmax, got 'x'",
    ("hidden_sizes", "0"): "must be >= 1 each, got 0",
    ("hidden_sizes", "4,-1"): "must be >= 1 each, got 4,-1",
    ("learning_rate", "-1.0"): "must be finite and > 0, got -1.0",
    ("learning_rate", "0.0"): "must be finite and > 0, got 0.0",
    ("learning_rate", "inf"): "must be finite and > 0, got inf",
    ("learning_rate", "nan"): "must be finite and > 0, got nan",
    ("lr_decay_epoch", "-1"): "must be >= 0, got -1",
    ("lr_decay_factor", "-1.0"): "must be in (0, 1], got -1.0",
    ("lr_decay_factor", "0.0"): "must be in (0, 1], got 0.0",
    ("lr_decay_factor", "inf"): "must be in (0, 1], got inf",
    ("lr_decay_factor", "nan"): "must be in (0, 1], got nan",
    ("momentum", "-1.0"): "must be in [0, 1), got -1.0",
    ("momentum", "1.0"): "must be in [0, 1), got 1.0",
    ("momentum", "inf"): "must be in [0, 1), got inf",
    ("momentum", "nan"): "must be in [0, 1), got nan",
    ("seed", "-1"): "must be >= 0, got -1",
    ("synth_branching", "-1"): "must be >= 2, got -1",
    ("synth_branching", "0"): "must be >= 2, got 0",
    ("synth_branching", "1"): "must be >= 2, got 1",
    ("synth_class_sep", "-1.0"): "must be finite and >= 0, got -1.0",
    ("synth_class_sep", "inf"): "must be finite and >= 0, got inf",
    ("synth_class_sep", "nan"): "must be finite and >= 0, got nan",
    ("synth_depth", "-1"): "must be >= 1, got -1",
    ("synth_depth", "0"): "must be >= 1, got 0",
    ("synth_dim", "-1"): "must be >= synth_depth=2, got -1",
    ("synth_dim", "0"): "must be >= synth_depth=2, got 0",
    ("synth_dim", "1"): "must be >= synth_depth=2, got 1",
    ("synth_noise_sigma", "-1.0"): "must be finite and >= 0, got -1.0",
    ("synth_noise_sigma", "inf"): "must be finite and >= 0, got inf",
    ("synth_noise_sigma", "nan"): "must be finite and >= 0, got nan",
    ("synth_samples_per_class", "-1"): "must be >= 2, got -1",
    ("synth_samples_per_class", "0"): "must be >= 2, got 0",
    ("synth_samples_per_class", "1"): "must be >= 2, got 1",
    ("train_fraction", "-1.0"): "must be in (0, 1), got -1.0",
    ("train_fraction", "0.0"): "must be in (0, 1), got 0.0",
    ("train_fraction", "1.0"): "must be in (0, 1), got 1.0",
    ("train_fraction", "inf"): "must be in (0, 1), got inf",
    ("train_fraction", "nan"): "must be in (0, 1), got nan",
}
TRAIN_KEYS = {f.name for f in fields(net.TrainConfig)}


def refused(key: str, value) -> bool:
    try:
        ExperimentConfig(**{key: value})
    except ValueError:
        return True
    return False


# Each (key, value) of BAD_VALUES that ExperimentConfig refuses, walked
# from its fields, so a new key or check joins the table below.
CONFIG_REFUSALS = [(f.name, v) for f in fields(ExperimentConfig)
                   for v in BAD_VALUES.get(f.type, ()) if refused(f.name, v)]


def test_every_config_refusal_is_in_the_table():
    assert {(key, format_value(value)) for key, value in CONFIG_REFUSALS} == set(REFUSALS)


@pytest.mark.parametrize("key, value", CONFIG_REFUSALS,
                         ids=[f"{k}={format_value(v)}" for k, v in CONFIG_REFUSALS])
def test_config_refusal_names_its_key(key, value):
    """Each check raises the key error naming the field it refuses, with
    the message it has always had; resolve_config writes its line from
    that key."""
    raw = format_value(value)
    problem = REFUSALS[key, raw]
    builds = [lambda: ExperimentConfig(**{key: value})]
    if key in TRAIN_KEYS:
        required = dict(epochs=1, batch_size=1, learning_rate=0.1)
        builds.append(lambda: net.TrainConfig(**dict(required, **{key: value})))
    for build in builds:
        with pytest.raises(BadKeyError) as exc:
            build()
        assert (exc.value.key, exc.value.problem) == (key, problem)
        assert str(exc.value) == f"{key} {problem}"
    with pytest.raises(ValueError) as exc:
        resolve_config({key: raw, "out_dir": "run"}, source="exp.cfg")
    assert str(exc.value) == f"exp.cfg: key {key!r} {problem}"


def test_check_seed_names_its_key():
    with pytest.raises(BadKeyError) as exc:
        check_seed(-1)
    assert (exc.value.key, str(exc.value)) == ("seed", "seed must be >= 0, got -1")
    check_seed(0)


@pytest.mark.parametrize("entries, line", [
    ({"epochs": "three"}, "key 'epochs' must be an integer, got 'three'"),
    ({"code_bits": "1.5"}, "key 'code_bits' must be an integer, got '1.5'"),
    ({"learning_rate": "fast"}, "key 'learning_rate' must be a number, got 'fast'"),
    ({"shuffle": "yes"}, "key 'shuffle' must be true or false, got 'yes'"),
    ({"hidden_sizes": "8,a"}, "key 'hidden_sizes' must be comma-separated integers"),
    ({"code_strategy": "magic"},
     "key 'code_strategy' must be one of onehot, gaussian, dense, spectral, got 'magic'"),
    ({"out_dir": ""}, "key 'out_dir' is required"),
])
def test_config_value_errors_name_file_and_key(entries, line):
    """A value of the wrong type, or a missing out_dir, is refused through
    the same key error, with the line it has always had."""
    with pytest.raises(ValueError) as exc:
        resolve_config(dict({"out_dir": "run"}, **entries), source="exp.cfg")
    assert str(exc.value) == f"exp.cfg: {line}"


def test_first_refusal_follows_field_order():
    """Several bad keys: the first field among them is reported, whatever
    its kind (epochs comes before code_strategy)."""
    with pytest.raises(ValueError) as exc:
        resolve_config({"epochs": "0", "code_strategy": "magic", "out_dir": "run"},
                       source="exp.cfg")
    assert str(exc.value) == "exp.cfg: key 'epochs' must be >= 1, got 0"


# Numeric and tuple keys with no declared allowed values, and why.
UNDECLARED = {"synth_dim": "bounded only by synth_depth, a rule across keys"}


def test_every_bounded_key_declares_its_allowed_values():
    """Every int, float and tuple key declares an interval unless it is
    named above; every str key declares its choices unless it holds a path;
    a choice key's default is one of its choices."""
    for f in fields(ExperimentConfig):
        kind, allowed = f.type.removesuffix(" | None"), f.metadata.get("allowed")
        if kind in ("int", "float", "tuple[int, ...]"):
            assert isinstance(allowed, str) != (f.name in UNDECLARED), f.name
        elif kind == "str":
            is_path = f.name.endswith("_csv") or f.name == "out_dir"
            assert isinstance(allowed, tuple) != is_path, f.name
            assert allowed is None or f.default in allowed, f.name
        else:
            assert allowed is None, f.name


def declared_edges() -> list[tuple[str, object, bool]]:
    """(key, value, passes) next to each finite end of each declared
    interval: the nearest value inside it passes and the nearest outside
    is refused (±1 for ints, the next double for floats; an open end is
    itself outside)."""
    cases = []
    for f in fields(ExperimentConfig):
        allowed = f.metadata.get("allowed")
        if not isinstance(allowed, str):
            continue
        kind = f.type.removesuffix(" | None")
        ends = zip(allowed[1:-1].split(", "), (allowed[0] == "[", allowed[-1] == "]"), (-1, 1))
        for text, closed, outward in ends:
            end = float(text)
            if math.isinf(end):
                continue
            if kind == "float":
                beyond, within = (float(np.nextafter(end, outward * math.inf)),
                                  float(np.nextafter(end, -outward * math.inf)))
            else:
                end, beyond, within = int(end), int(end) + outward, int(end) - outward
            inside, outside = (end, beyond) if closed else (within, end)
            if kind == "tuple[int, ...]":
                inside, outside = (inside,), (outside,)
            cases += [(f.name, inside, True), (f.name, outside, False)]
    return cases


@pytest.mark.parametrize("key, value, passes", declared_edges(),
                         ids=[f"{k}={format_value(v)}" for k, v, _ in declared_edges()])
def test_declared_edges(key, value, passes):
    """A value just inside a declared end is taken; one just outside is
    refused in the wording the REFUSALS table pins for that key, or, past a
    finite high end, in the bounded wording (``must be in [1, 100000]``)."""
    if passes:
        ExperimentConfig(**{key: value})
        return
    allowed = cli._FIELDS[key].metadata["allowed"]
    if not isinstance(value, tuple) and value > float(allowed[1:-1].split(", ")[1]):
        rule = f"must be in {allowed}"
    else:
        rule = next(problem for (k, _), problem in REFUSALS.items() if k == key)
    with pytest.raises(BadKeyError) as exc:
        ExperimentConfig(**{key: value})
    assert (exc.value.key, exc.value.problem) == (
        key, f"{rule.rsplit(', got ', 1)[0]}, got {format_value(value)}")


def test_wording_follows_the_declared_type():
    """A float key given an int still reads "finite"; an int key never does."""
    required = dict(epochs=1, batch_size=1, learning_rate=0.1)
    for key, value, problem in [("learning_rate", 0, "must be finite and > 0, got 0"),
                                ("momentum", 1, "must be in [0, 1), got 1"),
                                ("epochs", 0.0, "must be >= 1, got 0.0")]:
        with pytest.raises(BadKeyError) as exc:
            net.TrainConfig(**dict(required, **{key: value}))
        assert (exc.value.key, exc.value.problem) == (key, problem)


@pytest.mark.parametrize("command, key, cap", [("train", "epochs", 100000),
                                               ("train", "code_candidates", 1000000),
                                               ("gen-code", "code_candidates", 1000000)])
def test_huge_count_is_refused_before_any_work(tmp_path, command, key, cap):
    """10**23 epochs or dense candidates would run until killed; it is
    refused at once, exit 2, naming the key in train and the flag in
    gen-code.  The command runs in a subprocess under a short timeout."""
    huge = str(10**23)
    out = os.path.join(tmp_path, "out")
    if command == "train":
        cfg = write_config(os.path.join(tmp_path, "exp.cfg"), out, code_strategy="dense",
                           **{key: huge})
        argv, name = ["train", "--config", cfg], f"{cfg}: key {key!r}"
    else:
        argv = ["gen-code", "--strategy", "dense", "--classes", "4", "--bits", "3",
                "--candidates", huge, "--out", out]
        name = "--candidates"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-m", "ecoc.cli", *argv], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src), text=True, timeout=30)
    assert (proc.returncode, proc.stderr) == (2, f"error: {name} must be in [1, {cap}], got {huge}\n")
    assert not os.path.exists(out)


# A tiny valid command line per subcommand that has int, float or choice
# flags; "{out}" is the output path and "{run}" a trained run's directory.
FLAG_WALK_BASES = {
    "gen-code": "gen-code --strategy gaussian --classes 4 --bits 2 --out {out}",
    "synth-data": "synth-data --depth 1 --branching 2 --samples-per-class 2 --dim 2 --out {out}",
    "analyze": "analyze --code {run}/code.csv --model {run}/model.bin --data {run}/eval.csv "
               "--mode ablate --js 1 --out {out}",
}
FLAG_WALK_VALUES = ["", "x", "nan", "inf", "-inf", "-1", "0", "1.5"]


def walked_flags() -> list[tuple[str, str]]:
    """(subcommand, flag) of every int, float and choice option the parser
    declares, and analyze's --js, which it parses itself."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = [(name, action.option_strings[0]) for name, parser in sub.choices.items()
             for action in parser._actions
             if action.type in (int, float) or action.choices is not None]
    return flags + [("analyze", "--js")]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A finished 2-epoch run with a k = 4 code."""
    tmp = tmp_path_factory.mktemp("flag_walk")
    out = os.path.join(tmp, "run")
    assert main(["train", "--config", write_config(os.path.join(tmp, "exp.cfg"), out)]) == 0
    return out


@pytest.mark.parametrize("value", FLAG_WALK_VALUES)
@pytest.mark.parametrize("command, flag", walked_flags())
def test_flag_value_runs_or_names_the_flag(tmp_path, capsys, trained_run, command, flag, value):
    """Each bad value of each flag, on a valid command line: exit 0, or
    exit 2 with a last stderr line that names the flag, no traceback and
    no output file."""
    out = os.path.join(tmp_path, "out.csv")
    argv = FLAG_WALK_BASES[command].format(out=out, run=trained_run).split() + [flag, value]
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own refusal
        code = exc.code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code != 0:
        assert code == 2
        assert flag in err.splitlines()[-1]
        assert not os.path.exists(out)


@pytest.mark.parametrize("value", [2**64, 2**63 - 1])
@pytest.mark.parametrize("flag, shape", [("--bits", "4 x {}"), ("--classes", "{} x 2")])
def test_code_past_an_array_index_names_the_flag(tmp_path, capsys, flag, shape, value):
    """The walk's gen-code line with a class or bit count whose 4 x k or
    n x 2 float64 code does not fit one array: refused by the flag, exit 2,
    before the code or the output file is made."""
    out = os.path.join(tmp_path, "out.csv")
    argv = FLAG_WALK_BASES["gen-code"].format(out=out).split() + [flag, str(value)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} gives {shape.format(value)} code values of 8 bytes, more than an "
        f"array can hold ({2**63 - 1} bytes)\n")
    assert not os.path.exists(out)
