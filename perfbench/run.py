"""Benchmark for ecoc: end-to-end metrics, or per-module metrics when traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Load model: one process, one client, closed loop.  A pass runs the
workload's ``ecoc`` CLI commands back to back in-process through
``ecoc.cli.main(argv)``, so interpreter start-up is paid once, in set-up.
Passes repeat until ``--seconds`` have elapsed (at least one pass).  BLAS
runs single-threaded.  After every pass the outputs are checked: each
command must return 0, and every file it writes must be byte-identical to
the first pass; the first pass is also checked for correctness.  A failed
check fails that command, and ``failed`` counts failed commands.

Timing metrics are given at a nominal host speed.  On a virtual machine
that shares its host's cores, speed drifts by tens of percent over
minutes, more than the bounds allow between runs of the same code.  So
while passes run, a timer interrupts them every ``REF_EVERY_S`` to time a
fixed reference loop (:class:`HostSpeed`), also in the middle of a long
operation.  Each stretch of an operation between two such samples is
multiplied by ``REF_NOMINAL_S`` over the mean of the two reference times;
the samples' own time is left out.  A change to ``ecoc`` moves the
rescaled times; a change in host load mostly does not.  The raw wall times,
without the samples, are printed beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs untraced
passes for a third of the time, one pass with ``tracemalloc`` for the peak
allocations, and traced passes for the rest; it reports per-module metrics
from the traced passes (see ``bench_trace``).  Every traced output must
match the untraced ones byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the environment and each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
# Imports ecoc in a fresh interpreter and prints how long the import took.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import ecoc.cli; print(time.perf_counter() - t)"
)
# The reference loop's typical time on a 2-vCPU shared VM (Python 3.11,
# numpy 2.4, OpenBLAS); it only sets the scale of the rescaled times.
REF_NOMINAL_S = 0.036
REF_EVERY_S = 0.5
MODULES = ("cli", "datasets", "codes", "spectral", "decoder", "net", "analysis")
END_TO_END_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    import bench_trace

    units = bench_trace.metric_units()
    for mod in MODULES:
        units[f"{mod}.share"] = "fraction"
    units["trace.overhead_s"] = "s"
    return units


# ------------------------------------------------------------------ passes --


class HostSpeed:
    """Times a fixed reference loop, the yardstick for the host's speed.

    The loop mixes the kinds of work ``ecoc`` passes do, in about equal
    parts: interpreted calls on small arrays (as in per-batch training),
    streaming passes over large arrays (as in the decoder's score tensor),
    and formatting floats as text (as in every CSV it writes).  Its arrays
    are allocated once, before set-up, so they add a constant 16 MB to the
    peak RSS.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((16, 32))
        self._b = rng.standard_normal((32, 8))
        self._x = rng.standard_normal(1 << 20)
        self._y = self._x.copy()
        self.samples: list[tuple[float, float]] = []  # (start, end) of each timing

    def sample(self) -> int:
        """Time the loop once; return the sample's index."""
        import numpy as np

        start = time.perf_counter()
        for _ in range(3000):
            np.tanh(self._a @ self._b).sum()
        for _ in range(8):
            np.multiply(self._x, 1.0001, out=self._y)
            np.add(self._y, self._x, out=self._y)
        for _ in range(5):
            ",".join(repr(float(v)) for v in self._x[:1000])
        self.samples.append((start, time.perf_counter()))
        return len(self.samples) - 1

    def durations(self) -> list[float]:
        return [end - start for start, end in self.samples]

    @contextlib.contextmanager
    def every(self, seconds: float):
        """Sample on a wall-clock timer while the block runs.

        The handler runs in the main thread between bytecodes, so a sample
        lands inside an operation, or right after a long C call returns.
        """
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, seconds, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, i: int) -> float:
        """Factor to nominal speed for work done between samples ``i`` and ``i + 1``."""
        (s0, e0), (s1, e1) = self.samples[i], self.samples[i + 1]
        return 2 * REF_NOMINAL_S / (e0 - s0 + e1 - s1)

    def measure(self, a: float, b: float) -> tuple[float, float]:
        """Wall and nominal seconds of the span ``a``..``b``, without samples in it.

        Needs a sample before ``a`` and one after ``b``.
        """
        i = bisect.bisect_right(self.samples, (a, a)) - 1
        wall = nominal = 0.0
        t = a
        while True:
            stop = min(b, self.samples[i + 1][0])
            wall += stop - t
            nominal += (stop - t) * self.scale(i)
            if stop == b:
                return wall, nominal
            i += 1
            t = self.samples[i][1]


@dataclass
class PassResult:
    seconds: float  # wall time of the operations
    op_spans: list[tuple[float, float]]  # perf_counter() at the start and end of each op
    op_failures: dict[int, str]


def _digest(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs passes of one workload and checks each pass's outputs."""

    def __init__(self, workload, host: HostSpeed | None = None):
        self.workload = workload
        self.host = host  # needed only for measure()
        self.reference: list[dict[str, str | None]] | None = None
        self.work = None
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> PassResult:
        import ecoc.cli

        wl = self.workload
        wl.clear_outputs()
        op_spans: list[tuple[float, float]] = []
        codes: list[object] = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for op in wl.ops:
                t = time.perf_counter()
                try:
                    rc = ecoc.cli.main(op.argv)
                except SystemExit as exc:  # argparse rejected the arguments
                    rc = exc.code
                except Exception:  # a raising command is a failed operation
                    rc = traceback.format_exc()
                op_spans.append((t, time.perf_counter()))
                codes.append(rc)

        failures: dict[int, str] = {}
        for i, rc in enumerate(codes):
            if rc != 0:
                failures[i] = f"exit {rc}: {sink.getvalue().strip()[-300:]}"
        digests = [{p: _digest(p) for p in op.outputs} for op in wl.ops]
        if self.reference is None:
            self.reference = digests
            if not failures:
                try:
                    found = wl.check()
                except (OSError, ValueError, IndexError, KeyError) as exc:
                    found = {len(wl.ops) - 1: [f"outputs unreadable: {exc!r}"]}
                failures = {i: "; ".join(problems) for i, problems in found.items()}
            if not failures:
                self.work = wl.work()
        for i, (got, want) in enumerate(zip(digests, self.reference)):
            changed = [p for p in want if got[p] is None or got[p] != want[p]]
            if changed and i not in failures:
                failures[i] = f"outputs differ from the first pass: {changed}"
        self.attempted += len(wl.ops)
        for i, why in sorted(failures.items()):
            self.failures.append(f"{wl.name} op {i} (ecoc {wl.ops[i].argv[0]}): {why}")
        return PassResult(sum(b - a for a, b in op_spans), op_spans, failures)

    def run_for(self, seconds: float, start: float) -> list[PassResult]:
        """Passes until ``seconds`` have elapsed since ``start``; at least one."""
        results = [self.run_pass()]
        while time.perf_counter() - start < seconds:
            results.append(self.run_pass())
        return results

    def measure(self, result: PassResult, ops=None) -> tuple[float, float]:
        """Wall and nominal seconds of the pass's operations (or of those in ``ops``)."""
        spans = [self.host.measure(a, b) for n, (a, b) in enumerate(result.op_spans)
                 if ops is None or n in ops]
        return sum(w for w, _ in spans), sum(n for _, n in spans)


# --------------------------------------------------------------- reporting --


def environment(seed: int) -> dict[str, object]:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "seed": seed,
        "load": "closed loop, 1 client, passes back to back",
    }


def _line(name: str, value, unit: str, note: str = "") -> str:
    text = f"{name:<34} {value:>14.6g} {unit:<14}"
    return f"{text} {note}".rstrip()


def _spread(values: list[float]) -> str:
    return f"median of {len(values)} passes [min {min(values):.6g}, max {max(values):.6g}]"


def end_to_end(
    runner: Runner, results: list[PassResult], setups: list[tuple[float, float]]
) -> dict[str, float]:
    """Print every end-to-end metric; return those the JSON line carries.

    ``setups`` holds one (nominal, wall) pair of seconds per set-up.
    """
    wl = runner.workload
    walls, passes = zip(*(runner.measure(r) for r in results))
    metrics = {
        "setup_s": statistics.median(nominal for nominal, _ in setups),
        "pass_s": statistics.median(passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(_line("setup_s", metrics["setup_s"], "s",
                f"median of {len(setups)} set-ups (import ecoc + build inputs), nominal speed"))
    print(_line("setup_wall_s", statistics.median(wall for _, wall in setups), "s",
                "the same, wall time"))
    print(_line("pass_s", metrics["pass_s"], "s", _spread(passes) + ", nominal speed"))
    print(_line("pass_wall_s", statistics.median(walls), "s", _spread(walls) + ", wall time"))
    refs = runner.host.durations()
    print(_line("host_ref_s", statistics.median(refs), "s",
                f"reference loop, median of {len(refs)} samples [min {min(refs):.6g}, "
                f"max {max(refs):.6g}]; nominal {REF_NOMINAL_S}"))
    work = runner.work
    for kind, metric, unit, count in (
        ("train", "train_samples_per_s", "samples/s", work and work.train_samples),
        ("predict", "predict_rows_per_s", "rows/s", work and work.predict_rows),
    ):
        idx = {i for i, op in enumerate(wl.ops) if op.kind == kind}
        if not idx or not count:
            continue
        rates = [count / runner.measure(r, idx)[1] for r in results]
        print(_line(metric, statistics.median(rates), unit, _spread(rates) + ", nominal speed"))
    print(_line("peak_rss_mb", metrics["peak_rss_mb"], "MB", "process high-water RSS"))
    if work and work.eval_accuracy is not None:
        print(_line("eval_accuracy", work.eval_accuracy, "fraction", "final eval epoch"))
        print(_line("eval_loss", work.eval_loss, "nats", "final eval epoch"))
    failed = len(runner.failures)
    print(_line("error_rate", failed / runner.attempted, "fraction",
                f"{failed} of {runner.attempted} operations failed"))
    return metrics


def per_layer(
    untraced: list[PassResult], traced: list[PassResult], tallies: list[dict[str, float]]
) -> tuple[dict[str, float], list[str]]:
    """Median per-layer metrics over the traced passes, plus accounting problems."""
    units = per_layer_units()
    problems = []
    for result, tally in zip(traced, tallies):
        for mod in MODULES:
            self_s = sum(v for k, v in tally.items() if k.startswith(mod + ".") and k.endswith(".self_s"))
            tally[f"{mod}.share"] = self_s / result.seconds
        covered = sum(tally[f"{mod}.share"] for mod in MODULES)
        if not 0.99 <= covered <= 1.0 + 1e-9:
            problems.append(f"module self times cover {covered:.4f} of the traced pass")
    metrics = {name: statistics.median(t[name] for t in tallies) for name in tallies[0]}
    metrics["trace.overhead_s"] = (
        statistics.median(r.seconds for r in traced) - statistics.median(r.seconds for r in untraced)
    )
    for name in sorted(metrics):
        print(_line(name, metrics[name], units[name]))
    print(f"traced {len(traced)} passes after {len(untraced)} untraced")
    return {name: metrics[name] for name in units}, problems


# -------------------------------------------------------------------- main --


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, one after another."""
    import bench_workloads

    status = 0
    summary = {}
    for name in bench_workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.small:
            argv.append("--small")
        print(f"== {name}", flush=True)
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        summary[name] = result
        if result is None or not result["correct"]:
            status = 1
    print(json.dumps(summary))
    return status


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    import bench_workloads

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*bench_workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="reduced sizes, for the self-tests")
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    # Pin BLAS to one thread before numpy loads, so every workload has a
    # plain single-threaded baseline; child processes inherit the setting.
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    package = os.path.join(ROOT, "src", "ecoc", "__init__.py")
    if not os.path.isfile(package):
        print(f"error: ecoc sources not found at {package}", file=sys.stderr)
        return 2
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import bench_workloads

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        workload = bench_workloads.WORKLOADS[args.workload](workdir, args.seed, args.small)
        host = HostSpeed()
        setups = []
        i = host.sample()
        for _ in range(SETUP_REPEATS):
            probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                                   capture_output=True, text=True, check=True)
            t = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                workload.setup()
            wall = float(probe.stdout) + time.perf_counter() - t
            after = host.sample()
            setups.append((wall * host.scale(i), wall))
            i = after

        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
        print("env " + json.dumps(environment(args.seed)))
        runner = Runner(workload, host)
        start = time.perf_counter()
        problems = []
        if not args.trace:
            with host.every(REF_EVERY_S):
                results = runner.run_for(args.seconds, start)
            host.sample()  # closes the stretch after the last timer sample
            metrics = end_to_end(runner, results, setups)
        else:
            import bench_trace

            untraced = runner.run_for(args.seconds / 3, start)
            if tracemalloc.is_tracing():
                problems.append("tracemalloc ran during untraced passes")
            # One pass for the tracemalloc peaks, whose bookkeeping would
            # inflate self times, then timed passes without it.
            with bench_trace.Tracer(memory=True) as memory_tracer:
                runner.run_pass()
                peaks = {k: v for k, v in memory_tracer.take().items() if k.endswith(".peak_mb")}
            traced, tallies = [], []
            with bench_trace.Tracer(memory=False) as tracer:
                while not traced or time.perf_counter() - start < args.seconds:
                    traced.append(runner.run_pass())
                    tallies.append(tracer.take() | peaks)
            if not (memory_tracer.restored() and tracer.restored()) or tracemalloc.is_tracing():
                problems.append("tracer left wrapped functions or tracemalloc behind")
            metrics, more = per_layer(untraced, traced, tallies)
            problems += more
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    for line in runner.failures[:10] + problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not runner.failures and not problems,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": (END_TO_END_UNITS | per_layer_units())[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
