"""Self-tests of the benchmark: ``python3 -m pytest perfbench``.

Workloads run at reduced size (``--small``) and a single pass, so the whole
file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

# The human-readable metrics each workload prints besides the JSON line.
PRINTED = {
    "desk": ["train_samples_per_s", "predict_rows_per_s", "eval_accuracy", "eval_loss"],
    "wide": ["train_samples_per_s", "predict_rows_per_s", "eval_accuracy", "eval_loss"],
    "wide_onehot": ["train_samples_per_s", "eval_accuracy", "eval_loss"],
    "codegen": [],
}


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.per_layer_units()
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(bench_workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_small_workload_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", trace, "--small")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stderr
    passes = 3 if trace == "1" else 1  # traced: untraced, tracemalloc and timed passes
    assert result["attempted"] == len(bench_workloads.WORKLOADS[workload]("", 0).ops) * passes
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["seed"] == 3 and env["blas_threads"] == 1
    for key in ("python", "numpy", "blas", "nproc", "mem_total_mb"):
        assert env[key]
    if trace == "0":
        printed = {line.split()[0] for line in lines[2:-1]}
        assert set(PRINTED[workload]) | {"error_rate"} <= printed
        assert all(result["metrics"][m]["value"] > 0 for m in run.END_TO_END_UNITS)
    else:
        assert "trace.overhead_s" in result["metrics"]


def test_tracer_restores_every_attribute():
    import ecoc.cli  # noqa: F401  (loads every ecoc module)
    import ecoc.net

    before = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "ecoc" or name.startswith("ecoc.")
        for attr, value in vars(mod).items()
    }
    original = ecoc.net.batch_loss_grad
    with bench_trace.Tracer(memory=False) as tracer:
        assert ecoc.net.batch_loss_grad is not original
        assert ecoc.decoder.batch_loss_grad is ecoc.net.batch_loss_grad
        assert ecoc.batch_loss_grad is ecoc.net.batch_loss_grad
    assert tracer.restored()
    after = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "ecoc" or name.startswith("ecoc.")
        for attr, value in vars(mod).items()
    }
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_catches_calls_through_imported_copies():
    from ecoc import codes, datasets, net

    ds = datasets.synth_hierarchical(2, 2, 4, 4.0, 1.0, 4, seed=0)
    code = codes.gaussian_code(4, 3, seed=0)
    cfg = net.TrainConfig(epochs=2, batch_size=8, learning_rate=0.1)
    params = net.init([4, 3], seed=0)
    with bench_trace.Tracer(memory=True) as tracer:
        net.train(params, ds, code, cfg)
        tally = tracer.take()
    # 2 batches per epoch plus one full-pass evaluation, for 2 epochs
    assert tally["decoder.batch_loss_grad.calls"] == 6
    assert tally["decoder.batch_loss_grad.rows"] == 2 * (16 + 16)
    assert tally["decoder.batch_loss_grad.score_elems"] == 2 * (16 + 16) * 4 * 3
    assert tally["decoder.predict_batch.calls"] == 2
    assert tally["net.train.calls"] == 1 and tally["net.train.samples"] == 32
    assert 0 < tally["decoder.batch_loss_grad.peak_mb"] <= tally["net.train.peak_mb"]
    assert tally["net.train.self_s"] > 0
    # decoding_matrix: once inside every batch_loss_grad, once per evaluation
    assert tally["decoder.decoding_matrix.calls"] == 6 + 2
    assert sum(v for k, v in tally.items() if k.endswith(".calls")) == 6 + 2 + 8 + 1


def test_failed_operations_are_counted(tmp_path):
    workload = bench_workloads.Desk(str(tmp_path), seed=0, small=True)
    out = workload.o("gauss.csv")
    workload.ops = [
        bench_workloads.Op(["gen-code", "--strategy", "gaussian", "--classes", "4",
                            "--bits", "3", "--out", out], [out]),
        bench_workloads.Op(["train", "--config", workload.i("missing.cfg")], []),
    ]
    workload.check = lambda: {}
    workload.work = bench_workloads.Work
    workload.setup()
    runner = run.Runner(workload)
    first = runner.run_pass()
    assert list(first.op_failures) == [1]  # exit 2: no such config
    workload.ops[0].argv += ["--seed", "1"]  # same path, different bytes
    second = runner.run_pass()
    assert sorted(second.op_failures) == [0, 1]
    assert "differ from the first pass" in second.op_failures[0]
    assert runner.attempted == 4 and len(runner.failures) == 3


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "desk", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_nominal_time_rescales_each_stretch_between_reference_samples():
    host = run.HostSpeed()
    ref = run.REF_NOMINAL_S
    # samples lasting ref, 3 ref and 2 ref; the middle one falls inside the span
    host.samples = [(0.0, ref), (2.0, 2.0 + 3 * ref), (5.0, 5.0 + 2 * ref)]
    wall, nominal = host.measure(1.0, 4.0)
    assert wall == pytest.approx(1.0 + (4.0 - 2.0 - 3 * ref))
    # first stretch at half nominal speed, second at 2/5 of it
    assert nominal == pytest.approx(1.0 / 2 + (4.0 - 2.0 - 3 * ref) / 2.5)
    assert host.measure(3.0, 4.0) == pytest.approx((1.0, 1.0 / 2.5))


def test_timer_samples_inside_a_long_operation():
    host = run.HostSpeed()
    host.sample()
    with host.every(0.05):
        start = time.perf_counter()
        while time.perf_counter() - start < 0.5:
            pass
        end = time.perf_counter()
    host.sample()
    inside = [s for s in host.samples if start < s[0] < end]
    assert len(inside) >= 3
    wall, _ = host.measure(start, end)
    assert wall == pytest.approx(end - start - sum(e - s for s, e in inside))
