"""Per-module tracing of ``ecoc``, installed from outside the package.

A :class:`Tracer` replaces every public function listed in :data:`TRACED`
with a timing wrapper, on every ``ecoc`` module attribute bound to that
function: the defining module, the package's re-exports, and copies made
with ``from .decoder import ...`` (so ``net``'s calls into ``decoder`` are
caught).  Leaving the ``with`` block puts the original objects back.

Each wrapper records, per pass, the call count and the self time (its
inclusive time minus the inclusive time of wrapped callees), plus a few
counters taken from argument shapes.  With ``memory=True``, the functions in
:data:`PEAK` also report the peak ``tracemalloc`` allocation inside the call.
``tracemalloc`` runs only while such a call is open, so its bookkeeping does
not slow the rest of the pass.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

TRACED: dict[str, tuple[str, ...]] = {
    "cli": ("main", "cmd_gen_code", "cmd_synth_data", "cmd_train", "cmd_analyze"),
    "datasets": (
        "synth_hierarchical",
        "split",
        "save_csv",
        "load_csv",
        "save_attributes_csv",
        "load_attributes_csv",
    ),
    "codes": (
        "gaussian_code",
        "dense_random_code",
        "binarize",
        "code_metrics",
        "save_code_csv",
        "load_code_csv",
    ),
    "spectral": (
        "similarity_from_class_means",
        "normalized_laplacian",
        "symmetric_eigen",
        "spectral_code",
    ),
    "decoder": ("batch_loss_grad", "predict_batch", "decoding_matrix"),
    "net": ("init", "train", "net_outputs", "save_model", "load_model", "save_metrics"),
    "analysis": (
        "confusion",
        "bit_ablation",
        "attribute_correlation",
        "save_confusion_csv",
        "save_ablation_csv",
        "save_correlation_csv",
    ),
}

# Functions whose tracemalloc peak is reported as ``<name>.peak_mb``.
PEAK = ("decoder.batch_loss_grad", "decoder.predict_batch", "net.train")


def _decoder_batch(z, code, ys):
    rows = len(z)
    return {"rows": rows, "score_elems": rows * code.n * code.k}


def _decoder_predict(z, m):
    rows = len(z)
    return {"rows": rows, "score_elems": rows * m.shape[0] * m.shape[1]}


def _file_bytes(path, **_):
    return {"bytes": os.path.getsize(path)}


# name -> (function of the bound arguments giving counters, {counter: unit})
COUNTERS = {
    "decoder.batch_loss_grad": (_decoder_batch, {"rows": "count", "score_elems": "elems-computed"}),
    "decoder.predict_batch": (_decoder_predict, {"rows": "count", "score_elems": "elems-computed"}),
    "net.train": (
        lambda dataset, cfg, **_: {"samples": cfg.epochs * len(dataset.labels)},
        {"samples": "count"},
    ),
    "spectral.symmetric_eigen": (lambda a, **_: {"n": len(a)}, {"n": "count"}),
    "codes.dense_random_code": (
        lambda candidates, **_: {"candidates": candidates},
        {"candidates": "count"},
    ),
}
for _name in (
    "datasets.save_csv",
    "datasets.load_csv",
    "datasets.save_attributes_csv",
    "datasets.load_attributes_csv",
    "codes.save_code_csv",
    "codes.load_code_csv",
    "net.save_metrics",
    "net.save_model",
    "net.load_model",
    "analysis.save_confusion_csv",
    "analysis.save_ablation_csv",
    "analysis.save_correlation_csv",
):
    COUNTERS[_name] = (_file_bytes, {"bytes": "B"})


def function_names() -> list[str]:
    """``<module>.<function>`` for every traced function."""
    return [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]


def metric_units() -> dict[str, str]:
    """Every per-function metric a traced pass reports, with its unit."""
    units: dict[str, str] = {}
    for name in function_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for counter, unit in COUNTERS.get(name, (None, {}))[1].items():
            units[f"{name}.{counter}"] = unit
        if name in PEAK:
            units[f"{name}.peak_mb"] = "MB"
    return units


def _ecoc_modules() -> list:
    return [
        m
        for key, m in list(sys.modules.items())
        if m is not None and (key == "ecoc" or key.startswith("ecoc."))
    ]


class Tracer:
    """Context manager that wraps the :data:`TRACED` functions of ``ecoc``.

    ``take()`` returns the metrics gathered since the previous ``take()``
    and starts a fresh tally, so each benchmark pass is reported on its own.
    """

    def __init__(self, memory: bool = True):
        self.memory = memory
        self.patched: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []  # [child inclusive seconds] per open call
        self._peaks: list[list[int]] = []  # [bytes at entry, high-water bytes]
        self._owns_tracemalloc = False
        self._tally: dict[str, float] = defaultdict(float)

    # ---------------------------------------------------------- install --

    def __enter__(self) -> "Tracer":
        modules = _ecoc_modules()
        for mod, fns in TRACED.items():
            home = sys.modules[f"ecoc.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self.patched.append((m, attr, original))
                            setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, original in reversed(self.patched):
            setattr(m, attr, original)

    def restored(self) -> bool:
        """True when every attribute the tracer replaced holds its original again."""
        return all(getattr(m, attr) is original for m, attr, original in self.patched)

    # ---------------------------------------------------------- tallies --

    def take(self) -> dict[str, float]:
        """Metrics since the last call: every name in :func:`metric_units`."""
        out = dict.fromkeys(metric_units(), 0.0) | self._tally
        for name in PEAK:
            out[f"{name}.peak_mb"] = out[f"{name}.peak_mb"] / 2**20
        self._tally = defaultdict(float)
        return out

    def _peak_enter(self) -> None:
        if not self._peaks:
            self._owns_tracemalloc = not tracemalloc.is_tracing()
            if self._owns_tracemalloc:
                tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._peaks:  # fold the caller's high-water mark in before resetting it
            self._peaks[-1][1] = max(self._peaks[-1][1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([current, current])

    def _peak_exit(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        base, high = self._peaks.pop()
        high = max(high, peak)
        if self._peaks:
            self._peaks[-1][1] = max(self._peaks[-1][1], high)
        elif self._owns_tracemalloc:
            tracemalloc.stop()
        return high - base

    def _wrap(self, name: str, original):
        counter = COUNTERS.get(name, (None, None))[0]
        signature = inspect.signature(original) if counter else None
        track_peak = self.memory and name in PEAK
        stack = self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if track_peak:
                self._peak_enter()
            ok = False
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tally = self._tally
                tally[f"{name}.calls"] += 1
                tally[f"{name}.self_s"] += elapsed - frame[0]
                if track_peak:
                    key = f"{name}.peak_mb"
                    tally[key] = max(tally[key], self._peak_exit())
                if ok and counter is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    for key, value in counter(**bound.arguments).items():
                        tally[f"{name}.{key}"] += value

        return wrapper
