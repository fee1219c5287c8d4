"""Command-line entry point: code generation, synthetic data, training, analysis.

Experiments are driven by a flat ``key = value`` config file (``#`` starts a
comment).  Every run writes a ``config.echo`` with all resolved settings,
itself a valid config file, so any run can be reproduced from its output
directory alone.  All outputs are written atomically and all randomness is
seeded, so identical invocations produce byte-identical files at a fixed
numpy/BLAS build and BLAS thread count.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import Field, dataclass, fields

import numpy as np

from ._util import (BadKeyError, atomic_write, check_declared, check_seed, declared, fmt_float,
                    forked_writes, read_lines, split_lines)
from . import analysis, codes, datasets, net, spectral
from .codes import Binarization, CodeKind, CodeMatrix
from .datasets import Dataset
from .net import TrainConfig
from .spectral import SimilarityGraph

# Parser and error noun of the numeric annotations.
_NUMBERS = {"int": (int, "an integer"), "float": (float, "a number")}


# ---------------------------------------------------------------- config ----


def _cli_default(name: str, default) -> Field:
    """TrainConfig's required field ``name``, declared as there, with the
    CLI's default."""
    return declared(TrainConfig.__dataclass_fields__[name].metadata["allowed"], default)


@dataclass(frozen=True)
class ExperimentConfig(TrainConfig):
    """Fully resolved settings for one training run.

    Each field is one ``train`` config key: its name, annotation and default
    are the key's name, type and default, and its declaration
    (``_util.declared``) its allowed values.  The training keys are the
    inherited :class:`TrainConfig` fields; only the CLI's defaults of its
    required keys are given here.  Construction checks each key in force
    (:meth:`_in_force`) against its declaration, in field order, then the
    three rules that tie keys together: ``attributes_csv`` needs
    ``data_csv``, ``synth_dim`` must be at least ``synth_depth``, and the
    synthetic features must fit one array
    (:func:`datasets.check_synth_size`).
    """

    # training: the CLI's defaults for TrainConfig's required keys
    epochs: int = _cli_default("epochs", 30)
    batch_size: int = _cli_default("batch_size", 16)
    learning_rate: float = _cli_default("learning_rate", 0.1)
    # dataset: either a CSV path or synthetic generation parameters
    data_csv: str | None = None
    attributes_csv: str | None = None
    synth_depth: int = declared("[1, inf)", 2)
    synth_branching: int = declared("[2, inf)", 4)
    synth_samples_per_class: int = declared("[2, inf)", 50)  # a sample in each split
    synth_class_sep: float = declared("[0, inf)", 4.0)
    synth_noise_sigma: float = declared("[0, inf)", 1.0)
    synth_dim: int = 8
    train_fraction: float = declared("(0, 1)", 0.8)
    # code: either a CSV path or a generation strategy
    code_csv: str | None = None
    code_strategy: str = declared(tuple(k.value for k in CodeKind), "gaussian")
    code_bits: int | None = declared("[1, inf)", None)
    code_binarize: str = declared(tuple(b.value for b in Binarization), "raw")
    code_candidates: int = declared("[1, inf)", 10000)
    # net
    hidden_sizes: tuple[int, ...] = declared("[1, inf)", (32,))
    out_dir: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.attributes_csv is not None and self.data_csv is None:
            raise BadKeyError("attributes_csv",
                              "needs data_csv; a synthetic dataset has its own attributes")
        if self._in_force("synth_dim") and self.synth_dim < self.synth_depth:
            raise BadKeyError("synth_dim", f"must be >= synth_depth={self.synth_depth}, "
                                           f"got {self.synth_dim}")
        if self._in_force("synth_samples_per_class"):
            keys = ("synth_depth", "synth_branching", "synth_samples_per_class", "synth_dim")
            datasets.check_synth_size(*(getattr(self, key) for key in keys), keys=keys)

    def _in_force(self, name: str) -> bool:
        """Whether the key ``name`` is read, and so checked and echoed: not a
        ``synth_*`` key when ``data_csv`` is set, nor a ``code_*`` key other
        than ``code_csv`` when ``code_csv`` is set."""
        if name.startswith("synth_"):
            return self.data_csv is None
        if name.startswith("code_") and name != "code_csv":
            return self.code_csv is None
        return True

    def echo_lines(self) -> list[str]:
        """``key = value`` lines, sorted by key, that resolve back to self:
        one for each key in force that is set."""
        return [f"{name} = {format_value(getattr(self, name))}"
                for name in sorted(f.name for f in fields(self))
                if getattr(self, name) is not None and self._in_force(name)]


# The config's fields by key.
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def format_value(value) -> str:
    """A config value as ``config.echo`` writes it."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt_float(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def parse_config_text(text: str, source: str = "config") -> dict[str, str]:
    """Flat ``key = value`` lines; ``#`` comments; duplicate keys rejected."""
    entries: dict[str, str] = {}
    for i, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key:
            raise ValueError(f"{source}:{i}: expected 'key = value', got {raw!r}")
        if key in entries:
            raise ValueError(f"{source}:{i}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _parse_value(field: Field, raw: str | None):
    """One config value, typed by its field; an absent key takes the default.
    An empty value also takes it for int, float and bool keys, and means no
    hidden layers for ``hidden_sizes``.  A value not of the key's type
    raises :class:`BadKeyError`; :class:`ExperimentConfig` checks the rest."""
    key = field.name
    if raw is None:
        return field.default
    kind = field.type.removesuffix(" | None")
    if kind == "str":
        return raw
    if kind == "tuple[int, ...]":
        try:
            return tuple(int(v.strip()) for v in raw.split(",")) if raw else ()
        except ValueError:
            raise BadKeyError(key, "must be comma-separated integers") from None
    if raw == "":
        return field.default
    if kind == "bool":
        if raw not in ("true", "false"):
            raise BadKeyError(key, f"must be true or false, got {raw!r}")
        return raw == "true"
    parse, noun = _NUMBERS[kind]
    try:
        return parse(raw)
    except ValueError:
        raise BadKeyError(key, f"must be {noun}, got {raw!r}") from None


def resolve_config(entries: dict[str, str], source: str = "config") -> ExperimentConfig:
    """The :class:`ExperimentConfig` of a config file's entries; ``source``
    names the file in errors, and a refused key as ``source: key 'k' ...``."""
    try:
        values = {key: _parse_value(f, entries.get(key)) for key, f in _FIELDS.items()}
        unknown = sorted(set(entries) - set(values))
        if unknown:
            raise ValueError(f"{source}: unknown config keys: {', '.join(unknown)}")
        if not values["out_dir"]:
            raise BadKeyError("out_dir", "is required")
        for key in ("data_csv", "attributes_csv", "code_csv"):
            path = values[key]
            if path is not None and not os.path.exists(path):
                raise ValueError(f"{source}: {key} path does not exist: {path}")
        return ExperimentConfig(**values)
    except BadKeyError as exc:
        raise ValueError(f"{source}: key {exc.key!r} {exc.problem}") from None


# ------------------------------------------------------------- experiment ---


def _build_code(
    strategy: str,
    n: int,
    bits: int | None,
    seed: int,
    candidates: int,
    binarize_mode: str,
    graph: SimilarityGraph | None,
    flag: str = "--strategy",
    bits_flag: str = "--bits",
) -> CodeMatrix:
    """Shared by gen-code and train; `flag` and `bits_flag` name the caller's
    strategy and bit-count options in errors.  Spectral codes need `graph`."""
    if strategy == "onehot":
        if bits is not None and bits != n:
            raise ValueError(f"{flag}=onehot fixes the bit count at n={n}, got {bits}")
        code = codes.one_hot(n)
    elif strategy == "gaussian":
        k = bits if bits is not None else codes.default_code_length(n)
        code = codes.gaussian_code(n, k, seed=seed)
    elif strategy == "dense":
        k = bits if bits is not None else codes.default_code_length(n)
        code = codes.dense_random_code(n, k, candidates=candidates, seed=seed)
    else:  # spectral: the code_strategy declaration admits only CodeKind values
        k = bits if bits is not None else min(codes.default_code_length(n), n - 1)
        if k > n - 1:
            raise ValueError(
                f"{bits_flag}: spectral codes support at most n-1={n - 1} bits, got {k}"
            )
        code = spectral.spectral_code(graph, k)

    if binarize_mode != "raw":
        code = codes.binarize(code, Binarization(binarize_mode))
    return code


def _load_dataset(cfg: ExperimentConfig) -> Dataset:
    if cfg.data_csv is not None:
        ds = datasets.load_csv(cfg.data_csv)
        if cfg.attributes_csv is not None:
            names, attrs = datasets.load_attributes_csv(cfg.attributes_csv)
            if attrs.shape[0] != ds.n:
                raise ValueError(
                    f"attributes_csv has {attrs.shape[0]} rows for {ds.n} classes"
                )
            ds = datasets.with_attributes(ds, attrs, names)
        return ds
    return datasets.synth_hierarchical(
        depth=cfg.synth_depth,
        branching=cfg.synth_branching,
        samples_per_class=cfg.synth_samples_per_class,
        class_sep=cfg.synth_class_sep,
        noise_sigma=cfg.synth_noise_sigma,
        p=cfg.synth_dim,
        seed=cfg.seed,
    )


def run_experiment(cfg: ExperimentConfig) -> list[net.MetricsRow]:
    """Data -> code -> train -> artifacts in cfg.out_dir; returns metric rows."""
    full = _load_dataset(cfg)
    train_set, eval_set = datasets.split(full, cfg.train_fraction, seed=cfg.seed)

    if cfg.code_csv is not None:
        code = codes.load_code_csv(cfg.code_csv)
        if code.n != full.n:
            raise ValueError(f"code has {code.n} codewords for {full.n} classes")
    else:
        graph = None
        if cfg.code_strategy == "spectral":
            graph = spectral.similarity_from_class_means(
                train_set.features, train_set.labels, full.n
            )
        code = _build_code(
            cfg.code_strategy,
            full.n,
            cfg.code_bits,
            cfg.seed,
            cfg.code_candidates,
            cfg.code_binarize,
            graph,
            flag="code_strategy",
            bits_flag="code_bits",
        )

    _, out_size = net.resolve_head(cfg.head, code)
    layer_sizes = [full.features.shape[1], *cfg.hidden_sizes, out_size]

    params = net.init(layer_sizes, seed=cfg.seed + 1)
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)

    # The input artifacts are fixed before training, so a forked child
    # writes them while it runs.  Every file is staged and put in place only
    # if the whole run succeeds.
    inputs = [
        (codes.save_code_csv, code, "code.csv"),
        (datasets.save_csv, train_set, "train.csv"),
        (datasets.save_csv, eval_set, "eval.csv"),
    ]
    if full.attributes is not None:
        inputs.append((datasets.save_attributes_csv, full, "attributes.csv"))
    inputs.append((_save_config_echo, cfg, "config.echo"))
    with forked_writes(out, inputs) as stage:
        trained, rows = net.train(params, train_set, code, cfg, eval_set=eval_set)
        net.save_metrics(rows, os.path.join(stage, "metrics.csv"))
        net.save_model(trained, os.path.join(stage, "model.bin"))
    return rows


def _save_config_echo(cfg: ExperimentConfig, path: str) -> None:
    with atomic_write(path) as fh:
        fh.writelines(line + "\n" for line in cfg.echo_lines())


# ------------------------------------------------------------ subcommands ---


def cmd_gen_code(args: argparse.Namespace) -> int:
    check_seed(args.seed, "--seed")
    if args.classes is not None and args.classes < 2:
        raise ValueError(f"--classes must be >= 2, got {args.classes}")
    check_declared(_FIELDS["code_bits"], args.bits, "--bits")
    check_declared(_FIELDS["code_candidates"], args.candidates, "--candidates")
    n = args.classes
    graph = None
    if args.strategy == "spectral":
        if args.similarity is not None:
            graph = spectral.load_similarity_csv(args.similarity)
            if n is not None and n != graph.n:
                raise ValueError(f"--classes={n} does not match similarity size {graph.n}")
        elif args.data is not None:
            ds = datasets.load_csv(args.data)
            if n is not None and n != ds.n:
                raise ValueError(f"--classes={n} does not match dataset classes {ds.n}")
            graph = spectral.similarity_from_class_means(ds.features, ds.labels, ds.n)
        else:
            raise ValueError("--strategy=spectral needs --similarity or --data")
        n = graph.n
    elif n is None:
        raise ValueError("--classes is required for data-independent strategies")
    code = _build_code(
        args.strategy,
        n,
        args.bits,
        args.seed,
        args.candidates,
        args.binarize,
        graph,
    )

    codes.save_code_csv(code, args.out)
    m = codes.code_metrics(code)
    print(
        f"wrote {args.out}: n={code.n} k={code.k} kind={code.kind.value} "
        f"binarization={code.binarization.value}"
    )
    print(
        f"min_row_hamming={m.min_row_hamming} "
        f"max_abs_row_corr={m.max_abs_row_corr:.6f} "
        f"max_abs_col_corr={m.max_abs_col_corr:.6f} "
        f"max_abs_column_balance={np.abs(m.column_balance).max():.6f}"
    )
    return 0


def cmd_synth_data(args: argparse.Namespace) -> int:
    try:
        ds = datasets.synth_hierarchical(
            depth=args.depth,
            branching=args.branching,
            samples_per_class=args.samples_per_class,
            class_sep=args.class_sep,
            noise_sigma=args.noise_sigma,
            p=args.dim,
            seed=args.seed,
        )
    except BadKeyError as exc:  # name the flag that set the refused parameter
        flag = "--dim" if exc.key == "p" else "--" + exc.key.replace("_", "-")
        raise BadKeyError(flag, exc.problem) from None
    datasets.save_csv(ds, args.out)
    print(f"wrote {args.out}: {ds.samples} samples, {ds.n} classes, dim {args.dim}")
    if args.attributes_out is not None:
        datasets.save_attributes_csv(ds, args.attributes_out)
        print(f"wrote {args.attributes_out}: {ds.attributes.shape[1]} attributes")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    entries = parse_config_text("\n".join(read_lines(args.config)), source=args.config)
    cfg = resolve_config(entries, source=args.config)
    rows = run_experiment(cfg)
    final = [r for r in rows if r.split == "eval"] or rows
    print(
        f"wrote {cfg.out_dir}: {len(rows)} metric rows; "
        f"final {final[-1].split} accuracy {final[-1].accuracy:.4f}"
    )
    return 0


def _parse_js(text: str, k: int) -> list[int]:
    """Prefix lengths, each in 1..k, from the comma-separated ``--js`` value."""
    js = []
    for entry in text.split(","):
        try:
            js.append(int(entry))
        except ValueError:
            raise ValueError(f"--js entry {entry!r} is not an integer") from None
        if not 1 <= js[-1] <= k:
            raise ValueError(f"--js entry {js[-1]} outside 1..{k}")
    return js


def cmd_analyze(args: argparse.Namespace) -> int:
    code = codes.load_code_csv(args.code)

    if args.mode == "correlate":  # reads only the code and the attributes
        if args.attributes is None:
            raise ValueError("--attributes is required for mode=correlate")
        names, attrs = datasets.load_attributes_csv(args.attributes)
        table = analysis.attribute_correlation(code, attrs, names)
        analysis.save_correlation_csv(table, args.out)
        print(f"wrote {args.out}: {len(table)} correlations")
        return 0

    for flag, value in (("--model", args.model), ("--data", args.data)):
        if value is None:
            raise ValueError(f"{flag} is required for mode={args.mode}")
    params = net.load_model(args.model)
    ds = datasets.load_csv(args.data, n=code.n)
    if args.mode == "confusion":
        [(_, preds)] = analysis.ablation_predictions(params, ds, code, [code.k])
        cm = analysis.confusion(preds, ds.labels, ds.n)
        analysis.save_confusion_csv(cm, args.out)
        print(f"wrote {args.out}: accuracy {cm.accuracy:.4f}")
    else:  # ablate
        if args.js is not None:
            js = _parse_js(args.js, code.k)
        else:
            js = list(range(1, code.k + 1))
        pairs = analysis.bit_ablation(params, ds, code, js)
        analysis.save_ablation_csv(pairs, args.out)
        print(f"wrote {args.out}: {len(pairs)} ablation points")
    return 0


# ------------------------------------------------------------------ parser --


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads ``-1e3``, ``-inf`` and ``-nan`` as
    values, as it reads ``-1``: a token is an option name unless it goes on
    from the sign with a digit, ``.`` and a digit, ``inf`` or ``nan``, as no
    ``ecoc`` option does.  ``add_subparsers`` makes parsers of this class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ecoc",
        description="Code-matrix generation, training, and analysis for "
        "low-dimensional class embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-code", help="generate a code matrix CSV")
    g.add_argument("--strategy", required=True,
                   choices=_FIELDS["code_strategy"].metadata["allowed"])
    g.add_argument("--classes", type=int, default=None, help="number of classes n")
    g.add_argument("--bits", type=int, default=None, help="code length k")
    g.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    g.add_argument(
        "--candidates", type=int, default=ExperimentConfig.code_candidates,
        help="dense strategy pool size",
    )
    g.add_argument(
        "--binarize", choices=_FIELDS["code_binarize"].metadata["allowed"],
        default=ExperimentConfig.code_binarize,
    )
    g.add_argument("--similarity", default=None, help="similarity CSV (spectral)")
    g.add_argument("--data", default=None, help="dataset CSV to derive similarity (spectral)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_code)

    s = sub.add_parser("synth-data", help="generate a synthetic hierarchical dataset")
    for f in _FIELDS.values():
        if f.name.startswith("synth_"):
            flag = "--" + f.name.removeprefix("synth_").replace("_", "-")
            s.add_argument(flag, type=_NUMBERS[f.type][0], default=f.default)
    s.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    s.add_argument("--out", required=True)
    s.add_argument("--attributes-out", default=None)
    s.set_defaults(func=cmd_synth_data)

    t = sub.add_parser("train", help="run a training experiment from a config file")
    t.add_argument("--config", required=True)
    t.set_defaults(func=cmd_train)

    a = sub.add_parser("analyze", help="produce a report CSV from training artifacts")
    a.add_argument("--model", default=None, help="model file (confusion, ablate)")
    a.add_argument("--data", default=None, help="dataset CSV (confusion, ablate)")
    a.add_argument("--code", required=True)
    a.add_argument("--mode", required=True, choices=("confusion", "ablate", "correlate"))
    a.add_argument("--attributes", default=None)
    a.add_argument("--js", default=None, help="comma-separated prefix lengths (ablate)")
    a.add_argument("--out", required=True)
    a.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
