"""The four benchmark workloads: their inputs, their operations, and output checks.

A workload writes its inputs (config files, data CSVs) under ``<workdir>/in``
during set-up.  One pass runs its operations, each one ``ecoc.cli.main(argv)``
call, back to back; every output lands under ``<workdir>/out``.  The checks
read those outputs with plain numpy, independently of ``ecoc``.

``small=True`` shrinks every size so the self-tests run in seconds; the
shape of each workload (which commands, which code paths) stays the same.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np


@dataclass
class Op:
    """One ``ecoc`` CLI invocation and the files it writes."""

    argv: list[str]
    outputs: list[str]
    kind: str = ""  # "train" or "predict": counted in the matching throughput


@dataclass
class Work:
    """What one pass processed, read back from its outputs."""

    train_samples: int = 0  # epochs x train rows, over all train ops
    predict_rows: int = 0  # rows classified by predict ops, one pass per ablation prefix
    eval_accuracy: float | None = None
    eval_loss: float | None = None


# ------------------------------------------------------------ file readers --


def _read_rows(path: str) -> list[list[str]]:
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh)]


def _code(path: str) -> tuple[list[str], np.ndarray]:
    rows = _read_rows(path)
    return rows[0], np.array(rows[1:], dtype=np.float64)


def _data_rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for _ in fh)


def _metrics(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _confusion_accuracy(path: str) -> tuple[int, float]:
    counts = np.array([r[1:] for r in _read_rows(path)[1:]], dtype=np.int64)
    total = int(counts.sum())
    return total, float(np.trace(counts)) / total


def _ablation(path: str) -> list[tuple[int, float]]:
    return [(int(j), float(a)) for j, a in _read_rows(path)[1:]]


def _model_sizes(path: str) -> list[int]:
    with open(path, "rb") as fh:
        blob = fh.read(64)
    count = int(np.frombuffer(blob, dtype="<u4", count=1, offset=8)[0])
    return np.frombuffer(blob, dtype="<u4", count=count, offset=12).astype(int).tolist()


# ----------------------------------------------------------------- checks --


def _check_code(path: str, header: list[str], binary: bool = False, orthonormal: bool = False):
    got, values = _code(path)
    n, k = int(header[0]), int(header[1])
    if got != header:
        yield f"{path}: header {got} != {header}"
        return
    if values.shape != (n, k) or not np.isfinite(values).all():
        yield f"{path}: values shape {values.shape} != ({n}, {k}) or not finite"
        return
    if binary and not np.isin(values, (-1.0, 1.0)).all():
        yield f"{path}: binarized code has entries other than -1 and +1"
    if binary and np.unique(values, axis=0).shape[0] != n:
        yield f"{path}: codewords are not distinct"
    if orthonormal:
        err = np.abs(values.T @ values - np.eye(k)).max()
        if err > 1e-8:
            yield f"{path}: eigenvector columns not orthonormal (max error {err:.3g})"


def _check_training(metrics_path: str, epochs: int):
    rows = _metrics(metrics_path)
    if [(int(r["epoch"]), r["split"]) for r in rows] != [
        (e, s) for e in range(epochs) for s in ("train", "eval")
    ]:
        yield f"{metrics_path}: expected train and eval rows for {epochs} epochs"
        return
    for r in rows:
        loss, acc = float(r["loss"]), float(r["accuracy"])
        if not (math.isfinite(loss) and loss >= 0 and 0 <= acc <= 1):
            yield f"{metrics_path}: bad row {r}"


def _final_eval(metrics_path: str) -> tuple[float, float]:
    last = [r for r in _metrics(metrics_path) if r["split"] == "eval"][-1]
    return float(last["accuracy"]), float(last["loss"])


def _check_analysis(metrics_path, eval_csv, confusion_csv, ablation_csv, js):
    """Confusion, full-code ablation and the trainer's own final eval accuracy agree."""
    total, acc = _confusion_accuracy(confusion_csv)
    rows = _data_rows(eval_csv)
    if total != rows:
        yield f"{confusion_csv}: counts sum to {total}, eval split has {rows} rows"
    pairs = _ablation(ablation_csv)
    if [j for j, _ in pairs] != js:
        yield f"{ablation_csv}: prefixes {[j for j, _ in pairs]} != {js}"
    elif pairs[-1][1] != acc:
        yield f"{ablation_csv}: full-code accuracy {pairs[-1][1]} != confusion {acc}"
    trained, _ = _final_eval(metrics_path)
    if trained != acc:
        yield f"{metrics_path}: final eval accuracy {trained} != confusion {acc}"


# -------------------------------------------------------------- workloads --


class Workload:
    """Base: a set of ops over inputs in ``in/`` writing outputs to ``out/``."""

    name = ""

    def __init__(self, workdir: str, seed: int):
        self.inp = os.path.join(workdir, "in")
        self.out = os.path.join(workdir, "out")
        self.seed = seed
        self.ops: list[Op] = []

    def i(self, name: str) -> str:
        return os.path.join(self.inp, name)

    def o(self, name: str) -> str:
        return os.path.join(self.out, name)

    def setup(self) -> None:
        """Write the inputs; may run more than once, with identical results."""
        os.makedirs(self.inp, exist_ok=True)
        os.makedirs(self.out, exist_ok=True)

    def clear_outputs(self) -> None:
        for op in self.ops:
            for path in op.outputs:
                if os.path.exists(path):
                    os.remove(path)

    def check(self) -> dict[int, list[str]]:
        """Problems found in the outputs, keyed by the index of the op at fault."""
        return {}

    def work(self) -> Work:
        return Work()

    def _config(self, path: str, entries: dict[str, object]) -> None:
        with open(path, "w") as fh:
            for key, value in entries.items():
                fh.write(f"{key} = {value}\n")


def _run_outputs(run_dir: str, attributes: bool) -> list[str]:
    names = ["metrics.csv", "model.bin", "code.csv", "train.csv", "eval.csv", "config.echo"]
    if attributes:
        names.append("attributes.csv")
    return [os.path.join(run_dir, n) for n in names]


class Desk(Workload):
    """The README walkthrough at n=16, verbatim apart from seeds and paths."""

    name = "desk"

    def __init__(self, workdir: str, seed: int, small: bool = False):
        super().__init__(workdir, seed)
        self.epochs = 2 if small else 60
        self.bits = 8
        s = str(seed)
        data, attrs = self.o("data.csv"), self.o("attrs.csv")
        run = self.o("run")
        model, eval_csv, code = (os.path.join(run, f) for f in ("model.bin", "eval.csv", "code.csv"))
        analyze = ["analyze", "--model", model, "--data", eval_csv, "--code", code]
        self.ops = [
            Op(["synth-data", "--depth", "2", "--branching", "4", "--samples-per-class",
                "30", "--dim", "8", "--seed", s, "--out", data, "--attributes-out", attrs],
               [data, attrs]),
            Op(["gen-code", "--strategy", "gaussian", "--classes", "16", "--bits", "8",
                "--seed", s, "--out", self.o("gauss.csv")], [self.o("gauss.csv")]),
            Op(["gen-code", "--strategy", "spectral", "--data", data, "--bits", "8",
                "--seed", s, "--out", self.o("spect.csv")], [self.o("spect.csv")]),
            Op(["train", "--config", self.i("exp.cfg")], _run_outputs(run, True), "train"),
            Op(analyze + ["--mode", "confusion", "--out", self.o("confusion.csv")],
               [self.o("confusion.csv")], "predict"),
            Op(analyze + ["--mode", "ablate", "--out", self.o("ablation.csv")],
               [self.o("ablation.csv")], "predict"),
            Op(analyze + ["--mode", "correlate", "--attributes",
                          os.path.join(run, "attributes.csv"), "--out", self.o("corr.csv")],
               [self.o("corr.csv")]),
        ]

    def setup(self) -> None:
        super().setup()
        self._config(self.i("exp.cfg"), {
            "data_csv": self.o("data.csv"),
            "attributes_csv": self.o("attrs.csv"),
            "code_csv": self.o("spect.csv"),
            "hidden_sizes": 32,
            "epochs": self.epochs,
            "batch_size": 16,
            "learning_rate": 0.5,
            "train_fraction": 0.8,
            "seed": self.seed,
            "out_dir": self.o("run"),
        })

    def check(self) -> dict[int, list[str]]:
        run = self.o("run")
        metrics = os.path.join(run, "metrics.csv")
        problems: dict[int, list[str]] = {}
        rows = _data_rows(self.o("data.csv"))
        if rows != 16 * 30:
            problems[0] = [f"data.csv has {rows} rows, expected 480"]
        problems[1] = list(_check_code(self.o("gauss.csv"), ["16", "8", "gaussian", "raw"]))
        problems[2] = list(_check_code(self.o("spect.csv"), ["16", "8", "spectral", "raw"],
                                       orthonormal=True))
        problems[3] = list(_check_training(metrics, self.epochs))
        problems[4] = list(_check_analysis(
            metrics, os.path.join(run, "eval.csv"), self.o("confusion.csv"),
            self.o("ablation.csv"), list(range(1, self.bits + 1))))
        corr = _read_rows(self.o("corr.csv"))
        if corr[0] != ["bit", "attribute", "r"] or len(corr) < 2 or any(
            abs(float(r[2])) > 1 for r in corr[1:]
        ):
            problems[6] = ["corr.csv: expected bit,attribute,r rows with |r| <= 1"]
        return {i: p for i, p in problems.items() if p}

    def work(self) -> Work:
        run = self.o("run")
        acc, loss = _final_eval(os.path.join(run, "metrics.csv"))
        eval_rows = _data_rows(os.path.join(run, "eval.csv"))
        return Work(
            train_samples=self.epochs * _data_rows(os.path.join(run, "train.csv")),
            predict_rows=eval_rows * (1 + self.bits),
            eval_accuracy=acc,
            eval_loss=loss,
        )


class Wide(Workload):
    """Decoder-head training at n=1024, k=100, then confusion and ablation."""

    name = "wide"
    analyze = True

    def __init__(self, workdir: str, seed: int, small: bool = False):
        super().__init__(workdir, seed)
        # depth 5, branching 4: n=1024 classes; 2 samples per class so the
        # decoder's (rows, n, k) score tensor for a 1024-row chunk (0.84 GB)
        # fits in memory.  It still shows as the peak RSS.
        self.depth = 3 if small else 5
        self.n = 4**self.depth
        self.k = math.floor(10 * math.log2(self.n))
        self.epochs = 1 if small else 3
        self.hidden = 16 if small else 128
        self.js = [self.k // 4 * q for q in (1, 2, 3)] + [self.k]
        run = self.o("run")
        self.ops = [Op(["train", "--config", self.i("wide.cfg")], _run_outputs(run, False), "train")]
        if self.analyze:
            analyze = ["analyze", "--model", os.path.join(run, "model.bin"), "--data",
                       os.path.join(run, "eval.csv"), "--code", os.path.join(run, "code.csv")]
            self.ops += [
                Op(analyze + ["--mode", "confusion", "--out", self.o("confusion.csv")],
                   [self.o("confusion.csv")], "predict"),
                Op(analyze + ["--mode", "ablate", "--js", ",".join(map(str, self.js)),
                              "--out", self.o("ablation.csv")],
                   [self.o("ablation.csv")], "predict"),
            ]

    def code_entries(self) -> dict[str, object]:
        return {"code_strategy": "gaussian", "code_binarize": "zero"}

    def setup(self) -> None:
        super().setup()
        self._config(self.i("wide.cfg"), {
            "synth_depth": self.depth,
            "synth_branching": 4,
            "synth_samples_per_class": 2,
            "synth_dim": 32,
            **self.code_entries(),
            "hidden_sizes": self.hidden,
            "epochs": self.epochs,
            "batch_size": 256,
            "learning_rate": 0.2,
            "seed": self.seed,
            "out_dir": self.o("run"),
        })

    def code_header(self) -> list[str]:
        return [str(self.n), str(self.k), "gaussian", "zero"]

    def check(self) -> dict[int, list[str]]:
        run = self.o("run")
        metrics = os.path.join(run, "metrics.csv")
        problems = list(_check_code(os.path.join(run, "code.csv"), self.code_header(),
                                    binary=self.code_header()[3] == "zero"))
        problems += _check_training(metrics, self.epochs)
        sizes = _model_sizes(os.path.join(run, "model.bin"))
        if sizes != [32, self.hidden, int(self.code_header()[1])]:
            problems.append(f"model.bin: layer sizes {sizes}")
        out = {0: problems}
        if self.analyze:
            out[1] = list(_check_analysis(metrics, os.path.join(run, "eval.csv"),
                                          self.o("confusion.csv"), self.o("ablation.csv"),
                                          self.js))
        return {i: p for i, p in out.items() if p}

    def work(self) -> Work:
        run = self.o("run")
        acc, loss = _final_eval(os.path.join(run, "metrics.csv"))
        eval_rows = _data_rows(os.path.join(run, "eval.csv"))
        return Work(
            train_samples=self.epochs * _data_rows(os.path.join(run, "train.csv")),
            predict_rows=eval_rows * (1 + len(self.js)) if self.analyze else 0,
            eval_accuracy=acc,
            eval_loss=loss,
        )


class WideOnehot(Wide):
    """``wide`` with a one-hot code, so the softmax head replaces the decoder.

    No analyze step: ``analyze`` always decodes through ``predict_batch``,
    which on a 1024-class one-hot code would allocate 1024*1024*1024
    doubles (8.6 GB), the defect ``wide`` already shows at 0.84 GB.
    """

    name = "wide_onehot"
    analyze = False

    def code_entries(self) -> dict[str, object]:
        return {"code_strategy": "onehot"}

    def code_header(self) -> list[str]:
        return [str(self.n), str(self.n), "onehot", "raw"]


class Codegen(Workload):
    """Code generation only: spectral (n=256), dense search, 1024-class gaussian."""

    name = "codegen"

    def __init__(self, workdir: str, seed: int, small: bool = False):
        super().__init__(workdir, seed)
        self.depth = 2 if small else 4
        self.n = 4**self.depth
        self.spectral_k = min(math.floor(10 * math.log2(self.n)), self.n - 1)
        self.dense = (16, 8, 20) if small else (100, 66, 1000)
        self.gauss_n = 64 if small else 1024
        s = str(seed)
        dn, dk, dc = (str(v) for v in self.dense)
        self.ops = [
            Op(["gen-code", "--strategy", "spectral", "--data", self.i("data.csv"),
                "--seed", s, "--out", self.o("spectral.csv")], [self.o("spectral.csv")]),
            Op(["gen-code", "--strategy", "dense", "--classes", dn, "--bits", dk,
                "--candidates", dc, "--seed", s, "--out", self.o("dense.csv")],
               [self.o("dense.csv")]),
            Op(["gen-code", "--strategy", "gaussian", "--classes", str(self.gauss_n),
                "--binarize", "zero", "--seed", s, "--out", self.o("gaussian.csv")],
               [self.o("gaussian.csv")]),
        ]

    def setup(self) -> None:
        import ecoc.cli

        super().setup()
        argv = ["synth-data", "--depth", str(self.depth), "--branching", "4",
                "--samples-per-class", "4", "--dim", "16", "--seed", str(self.seed),
                "--out", self.i("data.csv")]
        if ecoc.cli.main(argv) != 0:
            raise RuntimeError(f"set-up command failed: ecoc {' '.join(argv)}")

    def check(self) -> dict[int, list[str]]:
        dn, dk, _ = self.dense
        gk = math.floor(10 * math.log2(self.gauss_n))
        problems = {
            0: list(_check_code(self.o("spectral.csv"),
                                [str(self.n), str(self.spectral_k), "spectral", "raw"],
                                orthonormal=True)),
            1: list(_check_code(self.o("dense.csv"), [str(dn), str(dk), "dense", "raw"],
                                binary=True)),
            2: list(_check_code(self.o("gaussian.csv"),
                                [str(self.gauss_n), str(gk), "gaussian", "zero"], binary=True)),
        }
        return {i: p for i, p in problems.items() if p}


WORKLOADS = {w.name: w for w in (Desk, Wide, WideOnehot, Codegen)}
