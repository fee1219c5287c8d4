"""Code-matrix generators, binarization, metrics, and CSV round-trips."""

import hashlib
import math
import os
import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ecoc import _util, cli, codes
from ecoc.codes import (
    Binarization,
    BinarizationCollisionError,
    CodeGenerationError,
    CodeKind,
    CodeMatrix,
    binarize,
    code_metrics,
    default_code_length,
    dense_random_code,
    gaussian_code,
    load_code_csv,
    one_hot,
    save_code_csv,
)
from oracles import (
    dense_candidate_stream,
    max_abs_col_cosine_brute,
    max_abs_pair_cosine_triu,
    min_row_hamming_brute,
    min_row_hamming_one_hot,
)


class TestOneHot:
    def test_three_classes_is_identity(self):
        code = one_hot(3)
        assert np.array_equal(code.values, np.eye(3))
        assert code.kind is CodeKind.ONE_HOT

    def test_two_classes(self):
        assert np.array_equal(one_hot(2).values, [[1.0, 0.0], [0.0, 1.0]])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            one_hot(1)

    def test_rows_orthogonal(self):
        """Dot product of distinct one-hot rows is 0."""
        for n in (2, 5, 17):
            v = one_hot(n).values
            gram = v @ v.T
            assert np.array_equal(gram, np.eye(n))

    def test_row_normalization_off(self):
        assert one_hot(4).normalize_rows is False


class TestGaussianCode:
    def test_deterministic_per_seed(self):
        a = gaussian_code(4, 3, seed=7)
        b = gaussian_code(4, 3, seed=7)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, gaussian_code(4, 3, seed=8).values)

    def test_standard_normal_moments(self):
        """Sample mean of n*k iid N(0,1) draws stays within 5 sigma of 0."""
        code = gaussian_code(100, 66, seed=0)
        assert code.values.shape == (100, 66)
        assert abs(code.values.mean()) < 5 / math.sqrt(100 * 66)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            gaussian_code(1, 3)

    def test_rows_distinct(self):
        for seed in range(5):
            values = gaussian_code(20, 4, seed=seed).values
            assert np.unique(values, axis=0).shape[0] == 20

    def test_row_normalization_on_for_raw(self):
        assert gaussian_code(4, 3).normalize_rows is True


class TestDenseRandomCode:
    def test_two_classes_one_bit_forced(self):
        """The only distinct-row option is one +1 row and one -1 row."""
        code = dense_random_code(2, 1, candidates=100, seed=3)
        assert sorted(code.values.ravel().tolist()) == [-1.0, 1.0]

    def test_dominates_every_candidate(self):
        """Brute-force re-scan: no inspected candidate separates rows better."""
        code = dense_random_code(4, 8, candidates=1000, seed=5)
        got = min_row_hamming_brute(code.values)
        seen = False
        for cand in dense_candidate_stream(4, 8, 1000, seed=5):
            assert got >= min_row_hamming_brute(cand)
            seen = seen or np.array_equal(cand, code.values)
        assert seen, "selected code must come from the inspected candidates"

    def test_tie_break_order(self):
        """Among max-separation candidates: lowest column correlation, then
        earliest index."""
        for n, k, count, seed in ((4, 4, 200, 11), (16, 8, 300, 0)):
            code = dense_random_code(n, k, candidates=count, seed=seed)
            best = None
            for idx, cand in enumerate(dense_candidate_stream(n, k, count, seed=seed)):
                h = min_row_hamming_brute(cand)
                if h < 1:
                    continue
                key = (-h, max_abs_col_cosine_brute(cand), idx)
                if best is None or key < best[0]:
                    best = (key, cand)
            assert best is not None
            assert np.array_equal(code.values, best[1])

    def test_too_few_bits_raise_before_any_draw(self, monkeypatch):
        """Fewer than log2(n) bits cannot give n distinct rows: bad input,
        refused by name before a candidate is drawn."""
        def no_draw(*args):
            raise AssertionError("a candidate was drawn")

        monkeypatch.setattr(codes, "_pm1_candidates", no_draw)
        message = r"^k=3 bits hold only 8 distinct \+-1 rows, fewer than n=100 classes$"
        with pytest.raises(ValueError, match=message):
            dense_random_code(100, 3)
        with pytest.raises(ValueError, match="n=3 classes"):
            dense_random_code(3, 1)
        with pytest.raises(AssertionError, match="a candidate was drawn"):
            dense_random_code(4, 2)  # 2 bits hold 4 rows: a search is made

    def test_no_distinct_candidate_raises(self):
        """16 rows of 4 bits are distinct only as a permutation of all 16
        patterns, which none of 50 random candidates is."""
        with pytest.raises(CodeGenerationError, match="distinct rows"):
            dense_random_code(16, 4, candidates=50, seed=0)

    @pytest.mark.parametrize(
        "n, k, count, seed, digest",
        [
            (100, 66, 1000, 1, "4057919460adcd824dbd9b9c9c60946c53420c378f88e7f56ab2b95f27eb90b3"),
            (100, 66, 1000, 7, "56c4d20ae0f2b8a3c098b693b10440a3e6b02ed026e93c0f7627054b46d1bbfb"),
            (16, 8, 2000, 0, "03262ebf53cef6b1b3ecab328aebf7af68da3531ffc509903a543d30853a742f"),
            (8, 4, 300, 2, "981956b573fd80c259388932e3c4fb70d1d2b4fd751698591698bcb3c3d9bb75"),
        ],
    )
    def test_selection_pinned(self, n, k, count, seed, digest):
        """SHA-256 of the selected values' float64 bytes, as the one-hot
        Hamming and triangle-gather cosine forms selected them."""
        values = dense_random_code(n, k, candidates=count, seed=seed).values
        assert hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest() == digest

    def test_codegen_dense_printed_line_pinned(self, tmp_path, capsys):
        """The metrics line of the codegen benchmark's dense op, as the
        one-``integers``-call-a-block draw printed it; the seed-7 row of
        ``test_selection_pinned`` pins the same code's values."""
        argv = ["gen-code", "--strategy", "dense", "--classes", "100", "--bits", "66",
                "--candidates", "1000", "--seed", "7", "--out", str(tmp_path / "dense.csv")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "min_row_hamming=21 max_abs_row_corr=0.424242 max_abs_col_corr=0.320000 "
            "max_abs_column_balance=0.200000"
        )

    def test_large_code_has_distinct_rows(self):
        code = dense_random_code(100, 66, candidates=50, seed=0)
        assert code.values.shape == (100, 66)
        assert min_row_hamming_brute(code.values) >= 1

    def test_all_entries_binary(self):
        code = dense_random_code(6, 5, candidates=50, seed=1)
        assert set(np.unique(code.values)) <= {-1.0, 1.0}
        assert code.kind is CodeKind.DENSE_RANDOM


class TestDefaultCodeLength:
    def test_hundred_classes(self):
        assert default_code_length(100) == 66

    def test_two_classes(self):
        assert default_code_length(2) == 10

    def test_two_hundred_classes(self):
        assert default_code_length(200) == 76

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            default_code_length(1)


class TestBinarize:
    def test_zero_threshold(self):
        code = CodeMatrix(
            np.array([[0.1, -0.5, 0.9], [-2.0, 1.0, -0.1]]), kind=CodeKind.GAUSSIAN
        )
        out = binarize(code, Binarization.ZERO)
        assert np.array_equal(out.values[0], [1.0, -1.0, 1.0])

    def test_median_threshold_ties_up(self):
        code = CodeMatrix(
            np.array([[0.1, 0.5, 0.9], [3.0, 1.0, 2.0]]), kind=CodeKind.GAUSSIAN
        )
        out = binarize(code, Binarization.MEDIAN)
        # median of the first row is 0.5 and the tie maps to +1
        assert np.array_equal(out.values[0], [-1.0, 1.0, 1.0])

    def test_collision_detected(self):
        code = CodeMatrix(
            np.array([[0.1, -0.5], [0.9, -0.1]]), kind=CodeKind.GAUSSIAN
        )
        with pytest.raises(BinarizationCollisionError):
            binarize(code, Binarization.ZERO)

    def test_zero_is_idempotent_on_binary(self):
        code = gaussian_code(5, 16, seed=2)
        for strategy in (Binarization.ZERO, Binarization.MEDIAN):
            once = binarize(code, strategy)
            again = binarize(once, Binarization.ZERO)
            assert np.array_equal(once.values, again.values)

    def test_one_hot_rejected(self):
        with pytest.raises(ValueError):
            binarize(one_hot(3), Binarization.ZERO)

    def test_raw_is_not_a_threshold(self):
        with pytest.raises(ValueError):
            binarize(gaussian_code(4, 8), Binarization.RAW)

    def test_zero_maps_to_minus_one(self):
        code = CodeMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), kind=CodeKind.SPECTRAL)
        out = binarize(code, Binarization.ZERO)
        assert np.array_equal(out.values, [[-1.0, 1.0], [1.0, -1.0]])


class TestCodeMetrics:
    def test_one_hot_hamming_is_two(self):
        assert code_metrics(one_hot(3)).min_row_hamming == 2
        for n in (2, 4, 9):
            assert code_metrics(one_hot(n)).min_row_hamming == 2

    def test_anticorrelated_rows(self):
        code = CodeMatrix(
            np.array([[1.0, 1.0], [-1.0, -1.0]]),
            kind=CodeKind.DENSE_RANDOM,
            binarization=Binarization.ZERO,
        )
        assert code_metrics(code).max_abs_row_corr == 1.0

    def test_constant_column_balance(self):
        code = CodeMatrix(
            np.array([[1.0, 1.0], [1.0, -1.0]]),
            kind=CodeKind.DENSE_RANDOM,
            binarization=Binarization.ZERO,
        )
        balance = code_metrics(code).column_balance
        assert balance[0] == 1.0
        assert balance[1] == 0.0

    def test_matches_brute_force(self):
        code = dense_random_code(6, 7, candidates=40, seed=9)
        m = code_metrics(code)
        assert m.min_row_hamming == min_row_hamming_brute(code.values)
        assert m.max_abs_col_corr == pytest.approx(
            max_abs_col_cosine_brute(code.values), abs=1e-12
        )

    def test_sign_zero_entries_match_brute_force(self):
        # a zero entry has sign 0, which disagrees with both -1 and +1
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.integers(-1, 2, size=(7, 5)) * rng.uniform(0.1, 3.0)
            code = CodeMatrix(values, kind=CodeKind.GAUSSIAN)
            assert code_metrics(code).min_row_hamming == min_row_hamming_brute(values)

    def test_binarized_gaussian_peak_memory(self):
        """Peak allocation stays under three n x n float64 matrices (the
        one-hot Hamming and where/triangle-gather cosine forms took five)."""
        n = 1024
        code = binarize(gaussian_code(n, 100, seed=0), Binarization.ZERO)
        tracemalloc.start()
        try:
            code_metrics(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 8

    def test_binarized_gaussian_peak_memory_one_gram(self):
        """Peak allocation stays under 1.25 n x n float64 matrices: the
        float32 sign Gram is half of one, and the shared-norm cosine needs
        no n x n denominator."""
        n = 1024
        code = binarize(gaussian_code(n, 100, seed=0), Binarization.ZERO)
        tracemalloc.start()
        try:
            code_metrics(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8

    def test_binarized_gaussian_peak_memory_in_block_rows(self):
        """Peak allocation grows with block * n, not n**2: at most four
        block-sized float64 buffers and two n x k copies (about 30 MB at
        n = 8192, where two n x n Grams took over 500 MB)."""
        n, k = 8192, 100
        code = binarize(gaussian_code(n, k, seed=0), Binarization.ZERO)
        tracemalloc.start()
        try:
            code_metrics(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * _util.block_rows(n) * n * 8 + 2 * n * k * 8

    def test_large_gaussian_printed_line_pinned(self, tmp_path, capsys):
        """The 6-decimal metrics line of a code that spans many row blocks,
        as the whole-matrix Grams printed it."""
        argv = ["gen-code", "--strategy", "gaussian", "--classes", "1024", "--bits", "100",
                "--seed", "1", "--out", str(tmp_path / "code.csv")]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1] == (
            "min_row_hamming=27 max_abs_row_corr=0.461285 max_abs_col_corr=0.138971 "
            "max_abs_column_balance=0.095270"
        )

    @pytest.mark.parametrize("seed", [1, 2])
    def test_codegen_workload_codes_pinned(self, tmp_path, seed):
        """code_metrics of the codegen benchmark's three codes at its small
        size, exact by repr, as the float64 Gram forms measured them."""
        s = str(seed)
        out = {name: os.path.join(tmp_path, f"{name}.csv")
               for name in ("data", "spectral", "dense", "gaussian")}
        argvs = [
            ["synth-data", "--depth", "2", "--branching", "4", "--samples-per-class", "4",
             "--dim", "16", "--seed", s, "--out", out["data"]],
            ["gen-code", "--strategy", "spectral", "--data", out["data"], "--seed", s,
             "--out", out["spectral"]],
            ["gen-code", "--strategy", "dense", "--classes", "16", "--bits", "8",
             "--candidates", "20", "--seed", s, "--out", out["dense"]],
            ["gen-code", "--strategy", "gaussian", "--classes", "64", "--binarize", "zero",
             "--seed", s, "--out", out["gaussian"]],
        ]
        for argv in argvs:
            assert cli.main(argv) == 0
        got = {}
        for name in ("spectral", "dense", "gaussian"):
            m = code_metrics(load_code_csv(out[name]))
            got[name] = (m.min_row_hamming, repr(m.max_abs_row_corr), repr(m.max_abs_col_corr))
        assert got == _CODEGEN_METRICS[seed]

    @pytest.mark.parametrize("strategy", [Binarization.ZERO, Binarization.MEDIAN, None])
    def test_large_gaussian_matches_matrix_oracles(self, strategy):
        code = gaussian_code(1024, 100, seed=1)
        if strategy is not None:
            code = binarize(code, strategy)
        m = code_metrics(code)
        assert m.min_row_hamming == min_row_hamming_one_hot(code.values)
        assert m.max_abs_row_corr == max_abs_pair_cosine_triu(code.values)
        assert m.max_abs_col_corr == max_abs_pair_cosine_triu(code.values.T)


_CODEGEN_METRICS = {
    1: {
        "spectral": (3, "0.07336897001899334", "6.54424431312251e-16"),
        "dense": (1, "0.75", "0.5"),
        "gaussian": (16, "0.4666666666666667", "0.40625"),
    },
    2: {
        "spectral": (4, "0.07503726460532702", "8.604228440844964e-16"),
        "dense": (2, "0.75", "0.375"),
        "gaussian": (17, "0.43333333333333335", "0.46875"),
    },
}


@contextmanager
def row_blocks(rows: int | None, m: int):
    """Make the one block rule give ``rows``-row blocks for an m-row Gram
    (the rule at a quantum of one row and a budget of ``rows * m``
    entries), or leave it as it is when ``rows`` is None."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(_util, "_ROW_QUANTUM", 1)
            mp.setattr(_util, "ROW_BLOCK_ELEMS", rows * m)
            assert _util.block_rows(m) == rows
        yield


def blockings(m: int) -> list[int | None]:
    """Block sizes to score an m-row Gram at: the default (None), then
    blocks of one row, of three and of m - 1 rows, so that above two rows
    the Gram spans several blocks and ends in a block of one row whenever
    m is 1 more than a multiple of the block size."""
    return [None, 1, 3, max(1, m - 1)]


def _unit_entries(v: np.ndarray) -> bool:
    """Whether every entry is -1, 0 or +1, as in +-1, one-hot and sign
    codes, whose Grams sum exactly in any order."""
    return bool(np.isin(v, (-1.0, 0.0, 1.0)).all())


def _close(a: float, b: float, ulps: int = 4) -> bool:
    """Equal, both NaN, or within ``ulps`` units in the last place of 1.0.

    A cosine is a dot product scaled into [0, 1], so the rounding of a sum
    taken in another order is on the scale of 1, whatever the cosine's own
    size: a cosine near 0 comes from cancelling terms."""
    return _same(a, b) or abs(a - b) <= ulps * math.ulp(1.0)


_ROW_SCALES = (0.0, 1e-16, 1e-15, 1.0)  # zero rows; norm products <= 1e-30 and near it


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    m=st.integers(1, 40),
    k=st.integers(1, 40),
    kind=st.sampled_from(["pm1", "signs", "gaussian"]),
    degenerate_rows=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=1, k=3, kind="pm1", degenerate_rows=False, seed=0)
@example(m=1, k=3, kind="signs", degenerate_rows=True, seed=0)
@example(m=2, k=1, kind="pm1", degenerate_rows=False, seed=0)
@example(m=2, k=5, kind="signs", degenerate_rows=True, seed=1)
@example(m=2, k=4, kind="gaussian", degenerate_rows=True, seed=2)
@example(m=40, k=7, kind="gaussian", degenerate_rows=False, seed=3)
def test_sign_gram_metrics_equal_matrix_oracles(m, k, kind, degenerate_rows, seed):
    """The sign-Gram Hamming and in-place cosine equal the one-hot and
    triangle-gather forms exactly, on rows and on columns, in one row block.
    Across several blocks the Hamming stays exact; the cosine agrees within
    4 ulp of 1.0 unless every entry is -1, 0 or +1, when it stays exact."""
    rng = np.random.default_rng(seed)
    if kind == "pm1":
        values = rng.choice([-1.0, 1.0], size=(m, k))
    elif kind == "signs":
        values = rng.integers(-1, 2, size=(m, k)) * rng.uniform(0.1, 3.0, size=(m, k))
    else:
        values = rng.standard_normal((m, k))
    if degenerate_rows:
        values *= rng.choice(_ROW_SCALES, size=(m, 1))
    for v in (values, values.T):
        hamming, cosine = min_row_hamming_one_hot(v), max_abs_pair_cosine_triu(v)
        for rows in blockings(v.shape[0]):
            with row_blocks(rows, v.shape[0]):
                assert codes._min_row_hamming(v[None]).tolist() == [hamming]
                got = codes._max_abs_pair_cosine(v)
            if rows is None or _unit_entries(v):
                assert got == cosine
            else:
                assert _close(got, cosine)


class TestCodeMatrixValidation:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CodeMatrix(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_rejects_single_row(self):
        with pytest.raises(ValueError):
            CodeMatrix(np.array([[1.0, 2.0]]))

    def test_one_hot_must_be_square(self):
        with pytest.raises(ValueError):
            CodeMatrix(np.eye(3)[:, :2], kind=CodeKind.ONE_HOT)

    @pytest.mark.parametrize("rows, bad", [
        ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], 0),
        ([[1, 0, 0], [1, 0, 0], [0, 0, 1]], 1),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 2]], 2),
        ([[1, 0, 0], [0, 1, -1], [0, 0, 1]], 1),
        ([[1, 0.5, 0], [0, 0.5, 0], [0, 0, 1]], 0),
    ], ids=["permuted", "repeated", "two", "negative", "halves"])
    def test_one_hot_must_be_the_identity(self, rows, bad):
        """The softmax head trains output i for class i, so row i must hold
        its one 1 in column i; the error names the first row that does not."""
        message = "a one-hot row must hold a single 1, in its class's column"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
            CodeMatrix(np.array(rows, dtype=np.float64), kind=CodeKind.ONE_HOT)
        assert exc.value.row == bad

    @pytest.mark.parametrize("values, kind, binarization, rows, check", [
        ([[1, 0, 0], [1, 0, 0], [0, 0, 2]], CodeKind.ONE_HOT, Binarization.RAW, [1, 2], "one-hot"),
        ([[1, -1], [0.5, 1], [1, 1], [-1, 2]], CodeKind.DENSE_RANDOM, Binarization.ZERO, [1, 3],
         "sign"),
    ], ids=["one-hot", "sign"])
    def test_row_refusals_carry_every_row_and_the_check(self, values, kind, binarization, rows,
                                                         check):
        """A refused code raises the shared row error: every bad row, the
        first as ``row`` (which ``load_code_csv`` maps to its line), and the
        check that failed."""
        with pytest.raises(_util.BadRowsError) as exc:
            CodeMatrix(np.array(values, dtype=np.float64), kind=kind, binarization=binarization)
        assert (exc.value.rows, exc.value.row, exc.value.check) == (rows, rows[0], check)

    def test_one_hot_check_allocates_no_n_by_n_temporary(self):
        """Neither the checks every code gets (finite values) nor the
        identity check allocate an eighth of an n x n bool array (1 MiB)."""
        values = np.eye(1024)
        values.setflags(write=False)  # kept without a copy
        for kind in (CodeKind.GAUSSIAN, CodeKind.ONE_HOT):
            tracemalloc.start()
            try:
                CodeMatrix(values, kind=kind)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1024 * 1024 // 8, kind

    def test_binary_kinds_must_hold_signs(self):
        with pytest.raises(ValueError):
            CodeMatrix(
                np.array([[0.5, 1.0], [-1.0, 1.0]]),
                kind=CodeKind.GAUSSIAN,
                binarization=Binarization.ZERO,
            )

    def test_values_read_only(self):
        code = gaussian_code(3, 4, seed=0)
        with pytest.raises(ValueError):
            code.values[0, 0] = 99.0

    def test_callers_writable_array_is_copied(self):
        """The caller's array stays writable, and writing to it leaves the
        code as it was."""
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        code = CodeMatrix(a)
        assert a.flags.writeable and not code.values.flags.writeable
        a[0, 0] = 99.0
        assert code.values[0, 0] == 1.0

    def test_read_only_array_is_kept_without_a_copy(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        a.setflags(write=False)
        assert CodeMatrix(a).values is a

    @pytest.mark.parametrize("kind, binarization", [
        (kind, binarization) for kind in CodeKind for binarization in Binarization
        if kind is not CodeKind.ONE_HOT or binarization is Binarization.RAW
    ])
    def test_kind_and_binarization_decide_row_normalization(self, kind, binarization):
        """Only raw gaussian and spectral rows are normalized, and nothing
        else can say otherwise: a code's CSV header fixes its decoding."""
        values = np.eye(3) if kind is CodeKind.ONE_HOT else np.array(
            [[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0]]
        )
        code = CodeMatrix(values, kind=kind, binarization=binarization)
        assert code.normalize_rows is (
            binarization is Binarization.RAW and kind in (CodeKind.GAUSSIAN, CodeKind.SPECTRAL)
        )
        with pytest.raises(AttributeError):
            code.normalize_rows = not code.normalize_rows
        with pytest.raises(TypeError):
            CodeMatrix(values, kind=kind, binarization=binarization, normalize_rows=False)


class TestCodeCsv:
    def test_round_trip_binary_exact(self, tmp_path):
        code = binarize(gaussian_code(6, 12, seed=4), Binarization.ZERO)
        path = os.path.join(tmp_path, "code.csv")
        save_code_csv(code, path)
        back = load_code_csv(path)
        assert np.array_equal(back.values, code.values)
        assert back.kind is code.kind
        assert back.binarization is code.binarization
        assert back.normalize_rows is False

    def test_round_trip_raw_exact(self, tmp_path):
        code = gaussian_code(5, 7, seed=1)
        path = os.path.join(tmp_path, "code.csv")
        save_code_csv(code, path)
        back = load_code_csv(path)
        # repr formatting round-trips doubles exactly
        assert np.array_equal(back.values, code.values)
        assert back.normalize_rows is True

    def test_header_format(self, tmp_path):
        path = os.path.join(tmp_path, "code.csv")
        save_code_csv(one_hot(3), path)
        first = open(path).read().splitlines()[0]
        assert first == "3,3,onehot,raw"

    def test_wrong_width_rejected_with_line(self, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write("2,2,gaussian,raw\n1.0,2.0\n3.0\n")
        with pytest.raises(ValueError, match=":3"):
            load_code_csv(path)

    def test_huge_declared_width_rejected_before_allocating(self, tmp_path):
        """k = 10**12 would need terabytes; the first row shows it is wrong."""
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write(f"2,{10**12},gaussian,raw\n1.0\n2.0\n")
        message = f"{path}:2: expected {10**12} values, found 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_code_csv(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_rejected_with_line(self, tmp_path, token):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write(f"3,2,gaussian,raw\n1.0,2.0\n3.0,{token}\n5.0,6.0\n")
        with pytest.raises(ValueError, match=r"bad\.csv:3: non-finite code value"):
            load_code_csv(path)

    @pytest.mark.parametrize(
        "text, counts",
        [("2,-1,gaussian,raw\n1.0\n2.0\n", "n=2, k=-1"), ("0,3,gaussian,raw\n", "n=0, k=3"),
         ("1,3,gaussian,raw\n1.0,2.0,3.0\n", "n=1, k=3")],
        ids=["negative_bits", "no_classes", "one_class"],
    )
    def test_bad_header_counts_name_the_header_line(self, tmp_path, text, counts):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write(text)
        message = f"{path}:1: bad header: need at least 2 classes and 1 code bit, got {counts}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_code_csv(path)

    @pytest.mark.parametrize("text, where, message", [
        ("3,2,gaussian,zero\n1.0,-1.0\n-1.0,1.0\n0.5,1.0\n", ":4",
         "binarized code values must be -1 or +1"),
        ("3,3,onehot,raw\n1.0,0.0,0.0\n1.0,1.0,0.0\n0.0,0.0,1.0\n", ":3",
         "a one-hot row must hold a single 1, in its class's column"),
        ("2,3,onehot,raw\n1.0,0.0,0.0\n0.0,1.0,0.0\n", "",
         "one-hot code must be square, got 2x3"),
    ], ids=["binarized", "onehot", "onehot_not_square"])
    def test_refused_values_name_the_path(self, tmp_path, text, where, message):
        """A value check of the code matrix names the file, and the line of
        the first bad row where the check is per row."""
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}{where}: {message}')}$"):
            load_code_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = os.path.join(tmp_path, "bad.csv")
        with open(path, "w") as fh:
            fh.write("2,2,mystery,raw\n1.0,2.0\n3.0,4.0\n")
        with pytest.raises(ValueError, match=":1"):
            load_code_csv(path)


def _sign_rows(rng, m, k, kind):
    if kind == "pm1":
        return rng.choice([-1.0, 1.0], size=(m, k))
    return rng.integers(-1, 2, size=(m, k)) * rng.uniform(0.1, 3.0, size=(m, k))


@pytest.mark.parametrize("kind", ["pm1", "signs"])
@pytest.mark.parametrize("float64_branch", [False, True])
def test_sign_gram_hamming_exact_in_both_precisions(monkeypatch, kind, float64_branch):
    """Lowering the float32 limit to 8 k sends a small code through the
    float64 branch; both branches equal the one-hot oracle, in one row block
    and across several."""
    rng = np.random.default_rng(4)
    for m, k in [(2, 1), (7, 5), (40, 33), (33, 40)]:
        values = _sign_rows(rng, m, k, kind)
        for v in (values, values.T):
            limit = 8 * v.shape[1] + (0 if float64_branch else 1)
            monkeypatch.setattr(codes, "_FLOAT32_EXACT", limit)
            expected = min_row_hamming_one_hot(v)
            for rows in blockings(v.shape[0]):
                with row_blocks(rows, v.shape[0]):
                    assert codes._min_row_hamming(v[None]).tolist() == [expected]
                    signs = np.sign(v)[None]
                    assert codes._min_row_hamming(signs, signs=True).tolist() == [expected]


@pytest.mark.parametrize("kind", ["pm1", "signs"])
@pytest.mark.parametrize("k", [2**21 - 1, 2**21])
def test_sign_gram_hamming_exact_at_float32_limit(kind, k):
    """Either side of 8 k = 2**24 (float32 just below, float64 at it) on
    rows that agree almost everywhere, so the counts are near k."""
    rng = np.random.default_rng(5)
    rows = np.repeat(_sign_rows(rng, 1, k, kind), 3, axis=0)
    for i in range(3):
        flip = rng.choice(k, size=10 + i, replace=False)
        rows[i, flip] = -rows[i, flip]
    rows[2, :7] = 0.0
    assert codes._min_row_hamming(rows[None]).tolist() == [min_row_hamming_brute(rows)]


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize(
    "scale", [1.0, 0.3, 1e-16, 1e-15, 1e80, 1e160], ids=lambda s: f"scale{s:g}"
)
@pytest.mark.parametrize("kind", ["pm1", "one_hot", "real"])
def test_shared_norm_cosine_equals_triangle_oracle(kind, scale):
    """Rows sharing one squared norm take the constant-denominator form;
    it equals the element-wise triangle oracle bit for bit, on rows and
    columns, down to norm products <= 1e-30 (0.0) and up to overflowing
    squares.  Across several row blocks rows of -1, 0 and +1 stay exact,
    and other rows agree within 4 ulp of 1.0."""
    rng = np.random.default_rng(6)
    for m, k in [(2, 3), (9, 4), (6, 40), (30, 17)]:
        if kind == "pm1":
            values = rng.choice([-1.0, 1.0], size=(m, k))
        elif kind == "one_hot":
            values = np.eye(m)
        else:  # one real magnitude per column, random signs per entry
            values = rng.choice([-1.0, 1.0], size=(m, k)) * rng.uniform(0.1, 3.0, size=k)
        values = values * scale
        with np.errstate(over="ignore", invalid="ignore"):
            sq = np.diag(values @ values.T)
            assert (sq == sq[0]).all(), "rows must share one squared norm"
            for v in (values, values.T) if kind == "pm1" else (values,):
                expected = max_abs_pair_cosine_triu(v)
                for rows in blockings(v.shape[0]):
                    with row_blocks(rows, v.shape[0]):
                        got = codes._max_abs_pair_cosine(v)
                    if rows is None or _unit_entries(v):
                        assert _same(got, expected)
                    else:
                        assert _close(got, expected)


@pytest.mark.parametrize("seed", [0, 13, 2**40])
@pytest.mark.parametrize("count", [7, 10])
def test_integers_range_two_is_the_top_bit_of_each_raw_half(seed, count):
    """numpy's bounded draw of a range of 2 is the top bit of one 32-bit
    output, the halves of each 64-bit PCG64 output taken low half first:
    the rule _pm1_candidates builds its entries by."""
    drawn = np.random.Generator(np.random.PCG64(seed)).integers(0, 2, count)
    raw = np.random.PCG64(seed).random_raw(-(-count // 2))
    halves = raw.astype("<u8").view("<u4")[:count]
    assert np.array_equal(drawn, halves >> 31), "integers(0, 2) is not the raw top bit"


@pytest.mark.parametrize("seed", [0, 13, 2**40])
@pytest.mark.parametrize(
    "n, k, count, budget, sizes",
    [
        (3, 5, 7, 2 * 15 + 14, [2, 2, 2, 1]),  # odd n k; the budget rounds down
        (5, 5, 9, 4 * 25, [4, 4, 1]),
        (4, 6, 8, 4 * 24, [4, 4]),  # the last block ends on the last candidate
        (9, 9, 5, 81, [1] * 5),  # one candidate a block, odd n k
        # 45 entries a block: the second block starts on the first's spare
        # half, and the third block on a fresh word, in turn
        (3, 5, 8, 3 * 15, [3, 3, 2]),
        (33, 40, 3, 1000, [1] * 3),  # a candidate above the budget: still one a block
    ],
)
def test_candidate_blocks_equal_one_draw_per_candidate(
    monkeypatch, n, k, count, budget, sizes, seed
):
    """Blocks of ``ROW_BLOCK_ELEMS // (n k)`` candidates (at least one) hold,
    in order, the entries one ``integers(0, 2, (n, k))`` call per candidate
    draws, across every block edge, also where a block starts on the spare
    half of its predecessor's last word; dense_candidate_stream yields them
    one float64 candidate at a time."""
    monkeypatch.setattr(_util, "ROW_BLOCK_ELEMS", budget)
    rng = np.random.default_rng(seed)
    expected = np.stack([rng.integers(0, 2, size=(n, k)) * 2.0 - 1.0 for _ in range(count)])
    blocks = list(codes._pm1_candidates(n, k, count, seed, np.float32))
    assert [len(b) for b in blocks] == sizes
    assert all(b.dtype == np.float32 and b.shape[1:] == (n, k) for b in blocks)
    assert np.array_equal(np.concatenate(blocks), expected)
    stream = list(dense_candidate_stream(n, k, count, seed=seed))
    assert all(c.dtype == np.float64 and c.shape == (n, k) for c in stream)
    assert np.array_equal(np.stack(stream), expected)


def test_candidate_blocks_stay_within_the_block_budget():
    """At codegen's 100 x 66 a block holds 9 candidates, 59 400 entries."""
    blocks = codes._pm1_candidates(100, 66, 20, 0, np.float32)
    assert [b.shape for b in blocks] == [(9, 100, 66), (9, 100, 66), (2, 100, 66)]
    assert 9 * 100 * 66 <= _util.ROW_BLOCK_ELEMS < 10 * 100 * 66


@pytest.mark.parametrize("kind", ["pm1", "signs"])
@pytest.mark.parametrize("b, m, k", [(1, 5, 3), (4, 7, 5), (6, 2, 1), (3, 40, 33), (5, 1, 4)])
def test_stacked_hamming_equals_each_matrix(kind, b, m, k):
    """A (b, m, k) stack gives each matrix's own distance, as an int64
    array, at the default blocks and at one-row blocks, with and without
    zero signs; a matrix whose rows repeat scores 0."""
    rng = np.random.default_rng(b * 100 + m)
    stack = np.stack([_sign_rows(rng, m, k, kind) for _ in range(b)])
    if m > 1:
        stack[0, 1] = stack[0, 0]
    expected = [min_row_hamming_one_hot(v) for v in stack]
    for rows in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(_util, "_ROW_QUANTUM", 1)
                mp.setattr(_util, "ROW_BLOCK_ELEMS", b * m)
                assert _util.block_rows(b * m) == 1
            got = codes._min_row_hamming(stack)
            signed = codes._min_row_hamming(np.sign(stack).astype(np.float32), signs=True)
        assert got.dtype == np.int64 and got.tolist() == expected
        assert signed.tolist() == expected
        if m > 1:
            assert expected[0] == 0


@pytest.mark.parametrize("k", [21, 24])
def test_binarize_collision_found_through_packed_signs(k):
    """Two rows far apart with the same signs but other magnitudes
    collide; a code whose rows differ only in their last sign (in the
    last packed byte, beside its zero padding when k is not a multiple of
    8) does not."""
    values = gaussian_code(200, k, seed=3).values.copy()
    values[171] = values[5] * 2.0
    flipped = values.copy()
    flipped[171, -1] = -flipped[171, -1]
    with pytest.raises(BinarizationCollisionError, match="zero thresholding collapsed"):
        binarize(CodeMatrix(values), Binarization.ZERO)
    assert binarize(CodeMatrix(flipped), Binarization.ZERO).n == 200


def test_rows_distinct_sorts_rows_only_on_a_first_column_tie(monkeypatch):
    """Distinct first entries decide at once; a tie there (also -0.0
    against 0.0) takes np.unique's row sort, which tells equal rows from
    rows that differ further on."""
    calls = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or unique(*a, **kw))
    assert codes._rows_distinct(np.array([[0.5, 1.0], [0.25, 1.0], [-3.0, 1.0]]))
    assert calls == []
    assert codes._rows_distinct(np.array([[0.5, 1.0], [0.5, 2.0], [-3.0, 1.0]]))
    assert not codes._rows_distinct(np.array([[0.5, 1.0], [-3.0, 1.0], [0.5, 1.0]]))
    assert not codes._rows_distinct(np.array([[0.0, 1.0], [-0.0, 1.0]]))
    assert len(calls) == 3


def test_gaussian_code_retries_a_seed_with_equal_rows(monkeypatch):
    """A draw found to repeat a row moves on to the next seed."""
    verdicts = iter([False, True])
    monkeypatch.setattr(codes, "_rows_distinct", lambda values: next(verdicts))
    code = gaussian_code(6, 3, seed=4)
    assert np.array_equal(code.values, np.random.default_rng(5).standard_normal((6, 3)))
    monkeypatch.setattr(codes, "_rows_distinct", lambda values: False)
    with pytest.raises(CodeGenerationError, match="seeds 4..14"):
        gaussian_code(6, 3, seed=4)


@pytest.mark.parametrize("per", [1, 7, 300])
def test_selection_same_at_any_candidate_block(monkeypatch, per):
    """The sequential tie-break (Hamming, then column cosine, then index)
    carries across block edges: the choice is the brute-force one whether
    blocks hold 1, 7 or all candidates."""
    n, k, count, seed = 16, 8, 300, 0
    monkeypatch.setattr(_util, "ROW_BLOCK_ELEMS", per * n * k)
    best = None
    for idx, cand in enumerate(dense_candidate_stream(n, k, count, seed=seed)):
        h = min_row_hamming_brute(cand)
        key = (-h, max_abs_col_cosine_brute(cand), idx)
        if h >= 1 and (best is None or key < best[0]):
            best = (key, cand)
    code = dense_random_code(n, k, candidates=count, seed=seed)
    assert np.array_equal(code.values, best[1])
