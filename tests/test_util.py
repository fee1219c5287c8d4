"""The shared CSV row formatter against the per-element writer it replaced,
the shared row parser behind every matrix CSV reader against its per-line
loop, the shared line reader, and the shared seed check of the library's
random draws."""

import os
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoc import _util, codes, datasets, net, spectral
from ecoc._util import ROW_BLOCK_ELEMS, format_rows, parse_rows, split_lines
from ecoc.codes import load_code_csv
from ecoc.datasets import load_attributes_csv, load_csv
from ecoc.spectral import load_similarity_csv
from oracles import dense_candidate_stream, format_rows_per_element

SPECIAL_FLOATS = [
    0.0, -0.0, 1.0, -1.0, 1e16, -1e16, 1e-5, 5e-324, -5e-324, 2.2250738585072e-308,
    0.1, 1 / 3, 123456789.125, float("inf"), float("-inf"),
]

float_palettes = st.lists(
    st.one_of(
        st.sampled_from(SPECIAL_FLOATS),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
                  min_value=-1e-300, max_value=1e-300),
    ),
    min_size=1, max_size=12,
)
int_palettes = st.lists(
    st.one_of(st.integers(0, 3), st.integers(0, 10**6), st.integers(-(2**63), 2**63 - 1)),
    min_size=1, max_size=8,
)


def text(values, row_labels=None) -> str:
    return "".join(format_rows(values, row_labels))


def from_palette(palette, shape, seed, dtype):
    rng = np.random.default_rng(seed)
    return np.asarray(palette, dtype=dtype)[rng.integers(len(palette), size=shape)]


@settings(max_examples=60, deadline=None)
@given(palette=float_palettes, rows=st.integers(0, 40), cols=st.integers(0, 12),
       block=st.integers(1, 64), seed=st.integers(0, 2**16), labelled=st.booleans())
def test_float_rows_match_per_element_writer(palette, rows, cols, block, seed, labelled):
    values = from_palette(palette, (rows, cols), seed, np.float64)
    labels = np.arange(rows) * 7 if labelled else None
    # a small block size makes most shapes span several blocks
    with mock.patch.object(_util, "ROW_BLOCK_ELEMS", block):
        assert text(values, labels) == format_rows_per_element(values, labels)


@settings(max_examples=60, deadline=None)
@given(palette=int_palettes, rows=st.integers(0, 40), cols=st.integers(0, 12),
       block=st.integers(1, 64), seed=st.integers(0, 2**16), labelled=st.booleans())
def test_int_rows_match_per_element_writer(palette, rows, cols, block, seed, labelled):
    values = from_palette(palette, (rows, cols), seed, np.int64)
    labels = np.arange(rows) if labelled else None
    with mock.patch.object(_util, "ROW_BLOCK_ELEMS", block):
        assert text(values, labels) == format_rows_per_element(values, labels)


def _int64_extremes() -> np.ndarray:
    values = np.random.default_rng(3).integers(0, 2, size=(300, 300))
    values[5, 7], values[250, 1] = 2**63 - 1, -(2**63)
    return values


def _signed_zeros() -> np.ndarray:
    values = np.random.default_rng(4).integers(-3, 4, size=(300, 300)).astype(np.float64)
    values[values == 0] = np.where(np.arange(np.count_nonzero(values == 0)) % 2, -0.0, 0.0)
    return values


def _sparse(shape, common, exceptions, share, seed, dtype=np.float64) -> np.ndarray:
    """``common`` everywhere but a ``share`` of places, which draw from
    ``exceptions``."""
    rng = np.random.default_rng(seed)
    values = np.full(shape, common, dtype=dtype)
    places = rng.random(shape) < share
    values[places] = np.asarray(exceptions, dtype=dtype)[rng.integers(len(exceptions), size=places.sum())]
    return values


def _edge_columns() -> np.ndarray:
    values = np.zeros((300, 250))
    values[::3, 0], values[1::4, -1], values[7, [0, -1]] = 2.5, -1e300, (0.1, 5e-324)
    return values


def _neg_zero_among_zeros() -> np.ndarray:
    values = np.zeros((300, 250))
    values[np.random.default_rng(8).random(values.shape) < 0.05] = -0.0
    return values


def _alternating_blocks() -> np.ndarray:
    """Blocks of 655 rows (at 100 columns) alternate between mostly 1.0 and
    gaussian values."""
    rng = np.random.default_rng(9)
    values = rng.standard_normal((4 * 655, 100))
    for start in (0, 2 * 655):
        values[start : start + 655] = _sparse((655, 100), 1.0, [0.0, -0.0, 0.3], 0.04, start)
    return values


# Arrays of the test below, and how many of their blocks are spliced from a
# template row; None for every block.
SPLICED = {
    "onehot": None, "no_columns": 0, "pm1": 0, "gaussian": 0, "counts": None,
    "int64_extremes": 0, "signed_zeros": 0, "wide_span_floats": 0,
    "edge_columns": None, "several_per_row": None, "neg_zero_among_zeros": None,
    "zeros_among_neg_zeros": None, "int64_extreme_exceptions": None,
    "uint64_common_max": None, "first_two_entries_rare": 1, "alternating": 2,
    "attributes01": 0, "counts_half": 0,
}


@pytest.mark.parametrize(
    "values, block",
    [
        (np.eye(300), ROW_BLOCK_ELEMS),  # 90 000 elements: two blocks
        (np.where(np.random.default_rng(0).standard_normal((1024, 100)) > 0, 1.0, -1.0),
         ROW_BLOCK_ELEMS),
        (np.random.default_rng(1).standard_normal((700, 100)), ROW_BLOCK_ELEMS),
        (np.random.default_rng(2).poisson(0.05, size=(400, 400)), ROW_BLOCK_ELEMS),
        (_int64_extremes(), ROW_BLOCK_ELEMS),
        (_signed_zeros(), ROW_BLOCK_ELEMS),
        # integer-valued floats spanning more values than a block has entries
        (np.random.default_rng(5).integers(0, 2, size=(40, 8)) * 1e6, 16),
        (np.zeros((ROW_BLOCK_ELEMS + 1, 0)), ROW_BLOCK_ELEMS),
        # exceptions to a common value in the first and last columns, and
        # several to a row
        (_edge_columns(), ROW_BLOCK_ELEMS),
        (_sparse((400, 300), 0.0, np.random.default_rng(10).standard_normal(50), 0.08, 11),
         ROW_BLOCK_ELEMS),
        (_neg_zero_among_zeros(), ROW_BLOCK_ELEMS),
        (-_neg_zero_among_zeros(), ROW_BLOCK_ELEMS),
        (_sparse((300, 300), 0, [2**63 - 1, -(2**63), -1], 0.03, 12, np.int64), ROW_BLOCK_ELEMS),
        (_sparse((300, 300), 2**64 - 1, [0, 2**63], 0.03, 13, np.uint64), ROW_BLOCK_ELEMS),
        # a common value behind two rarer ones is not looked for
        (np.vstack([[3.0, 5.0] + [0.0] * 298, np.zeros((299, 300))]), ROW_BLOCK_ELEMS),
        (_alternating_blocks(), ROW_BLOCK_ELEMS),
        (np.random.default_rng(14).integers(0, 2, size=(300, 341)), ROW_BLOCK_ELEMS),
        (np.random.default_rng(15).poisson(0.5, size=(400, 400)), ROW_BLOCK_ELEMS),
    ],
    ids=["onehot", "pm1", "gaussian", "counts", "int64_extremes", "signed_zeros",
         "wide_span_floats", "no_columns", "edge_columns", "several_per_row",
         "neg_zero_among_zeros", "zeros_among_neg_zeros", "int64_extreme_exceptions",
         "uint64_common_max", "first_two_entries_rare", "alternating", "attributes01",
         "counts_half"],
)
def test_multi_block_arrays_match_per_element_writer(request, values, block):
    # more rows than one block holds
    assert values.shape[0] > block // max(1, values.shape[1])
    labels = np.arange(values.shape[0])
    blocks = -(-values.shape[0] // max(1, block // max(1, values.shape[1])))
    spliced = SPLICED[request.node.callspec.id]
    distinct = mock.Mock(wraps=_util._distinct)
    with mock.patch.object(_util, "ROW_BLOCK_ELEMS", block), \
            mock.patch.object(_util, "_distinct", distinct):
        assert text(values, labels) == format_rows_per_element(values, labels)
    assert distinct.call_count == blocks - (blocks if spliced is None else spliced)


@settings(max_examples=60, deadline=None)
@given(palette=float_palettes, rows=st.integers(1, 40), cols=st.integers(1, 12),
       share=st.floats(0.0, 0.2), block=st.integers(1, 64), seed=st.integers(0, 2**16))
def test_mostly_constant_rows_match_per_element_writer(palette, rows, cols, share, block, seed):
    """Blocks around the share at which rows are spliced from a template
    write what the per-element writer does, on either side of it."""
    values = _sparse((rows, cols), palette[0], palette, share, seed)
    labels = np.arange(rows)
    with mock.patch.object(_util, "ROW_BLOCK_ELEMS", block):
        assert text(values, labels) == format_rows_per_element(values, labels)


def test_negative_zero_keeps_its_sign():
    values = np.array([[0.0, -0.0], [-0.0, 0.0]])
    assert text(values) == "0.0,-0.0\n-0.0,0.0\n"


def test_yields_one_chunk_per_block():
    values = np.ones((ROW_BLOCK_ELEMS // 10 + 1, 10))
    assert len(list(format_rows(values))) == 2


def test_rejects_non_numeric_and_non_matrix_input():
    with pytest.raises(TypeError, match="dtype"):
        list(format_rows(np.array([["a"]])))
    with pytest.raises(ValueError, match="2-d"):
        list(format_rows(np.zeros(3)))


# Per loader: its reader, then per fault the file text and the exact message
# after "path:".  Every message is the one these readers gave before they
# shared a parser.
READER_FAULTS = {
    "data": (load_csv, {
        "width": ("0,1.0,2.0\n1,3.0,4.0\n1,5.0\n", "3: expected 3 columns, found 2"),
        "non_numeric": ("0,1.0\n0,oops\n", "2: non-numeric feature value"),
        "non_finite": ("0,1.0\n1,2.0\n1,nan\n", "3: non-finite feature value"),
    }),
    "code": (load_code_csv, {
        "width": ("2,2,gaussian,raw\n1.0,2.0\n3.0\n", "3: expected 2 values, found 1"),
        "non_numeric": ("2,2,gaussian,raw\n1.0,2.0\n3.0,x\n", "3: non-numeric code value"),
        "non_finite": ("2,2,gaussian,raw\n1.0,inf\n3.0,4.0\n", "2: non-finite code value"),
    }),
    "similarity": (load_similarity_csv, {
        "width": ("0.0,0.5\n0.5\n", "2: expected 2 values, found 1"),
        "non_numeric": ("0.0,0.5\n0.5,oops\n", "2: non-numeric similarity value"),
        "non_finite": ("0.0,0.5\n-inf,0.0\n", "2: non-finite similarity value"),
    }),
    "attributes": (load_attributes_csv, {
        "width": ("a,b,c\n0,1,0\n1,0\n", "3: expected 3 columns, found 2"),
        "non_numeric": ("a,b\n0,1\n1,yes\n", "3: non-numeric attribute value"),
        # 0/1 is stricter than finite, and its message wins
        "non_finite": ("a,b\n0,1\nnan,0\n", "3: attribute entries must be 0 or 1"),
    }),
}


@pytest.mark.parametrize("fault", ["width", "non_numeric", "non_finite"])
@pytest.mark.parametrize("reader", sorted(READER_FAULTS))
def test_reader_errors_name_path_and_line(tmp_path, reader, fault):
    load, faults = READER_FAULTS[reader]
    text, message = faults[fault]
    path = os.path.join(tmp_path, f"{reader}.csv")
    with open(path, "w") as fh:
        fh.write(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:{message}')}$"):
        load(path)


def test_label_beyond_int64_names_the_line(tmp_path):
    path = os.path.join(tmp_path, "data.csv")
    for label in ("99999999999999999999", "-9223372036854775809"):
        with open(path, "w") as fh:
            fh.write(f"0,1.0\n{label},2.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(path)}:2: label does not fit in int64$"):
            load_csv(path)


def read_back(values: np.ndarray) -> np.ndarray:
    lines = text(values).splitlines()
    return parse_rows("m.csv", lines, 1, "test", width=values.shape[1])


round_trip_palettes = st.one_of(
    st.lists(st.one_of(st.sampled_from(SPECIAL_FLOATS[:-2]),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.floats(min_value=-1e-300, max_value=1e-300)),
             min_size=1, max_size=12).map(lambda p: np.asarray(p, dtype=np.float64)),
    int_palettes.map(lambda p: np.asarray(p, dtype=np.int64)),
    st.sampled_from([np.array([0.0, 1.0]), np.array([-1.0, 1.0]), np.array([0, 1])]),
)


@settings(max_examples=80, deadline=None)
@given(palette=round_trip_palettes, rows=st.integers(0, 30), cols=st.integers(0, 10),
       seed=st.integers(0, 2**16), block=st.integers(1, 64))
def test_parsed_rows_read_back_what_format_rows_wrote(palette, rows, cols, seed, block):
    """Every matrix the formatter writes reads back bit-exactly, as float64:
    -0.0 keeps its sign, subnormals and int64 extremes round as float()
    rounds them, and a zero-column matrix comes back as empty lines."""
    values = palette[np.random.default_rng(seed).integers(len(palette), size=(rows, cols))]
    with mock.patch.object(_util, "ROW_BLOCK_ELEMS", block):
        back = read_back(values)
    assert back.shape == values.shape and back.dtype == np.float64
    assert back.tobytes() == values.astype(np.float64).tobytes()


@pytest.mark.parametrize(
    "values",
    [np.eye(300), _signed_zeros(), _int64_extremes(), np.zeros((5, 0)),
     np.where(np.random.default_rng(7).standard_normal((64, 33)) > 0, 1.0, -1.0),
     np.array([[5e-324, -5e-324, 2.2250738585072e-308, -0.0]])],
    ids=["onehot", "signed_zeros", "int64_extremes", "no_columns", "pm1", "subnormals"],
)
def test_parsed_rows_read_back_written_blocks(values):
    assert read_back(values).tobytes() == values.astype(np.float64).tobytes()


def test_parse_rows_infers_width_and_numbers_lines_from_first_line():
    lines = ["1.5,-0.0", "2,3e2"]
    back = parse_rows("f.csv", lines, 7, "test")
    assert back.tolist() == [[1.5, -0.0], [2.0, 300.0]]
    with pytest.raises(ValueError, match=r"^f\.csv:8: non-finite test value$"):
        parse_rows("f.csv", ["1,2", "3,inf"], 7, "test")
    with pytest.raises(ValueError, match=r"^f\.csv:7: expected 0 values, found 1$"):
        parse_rows("f.csv", ["1"], 7, "test", width=0)
    assert parse_rows("f.csv", [], 1, "test").shape == (0, 0)
    assert parse_rows("f.csv", ["inf"], 1, "test", finite=False)[0, 0] == np.inf


# Lines on which numpy's reader and the per-line loop could part ways.
READER_EDGE_CASES = {
    "blank_middle": ["1.0,2.0", "", "3.0,4.0"],
    "blank_last": ["1.0,2.0", ""],
    "all_blank": ["", ""],
    "whitespace_only": ["1.0,2.0", " \t "],
    "padded": [" 1.0 ,\t2.0", "3.0\x0c,4.0\xa0", "\x0b5\x85,6\u2028\r"],
    "ascii_separators": ["\x1c1.0,2.0\x1f", "3.0\x1d,\x1e4.0"],
    "underscore": ["1_0,2.0"],
    "fullwidth_digit": ["\uff11,2.0"],
    "ragged_short": ["1.0,2.0", "3.0"],
    "ragged_long": ["1.0,2.0", "3.0,4.0,5.0"],
    "trailing_comma": ["1.0,2.0,", "3.0,4.0,"],
    "empty_field": ["1.0,,2.0"],
    "nan_inf": ["nan,-nan,NaN,+nan", "inf,-Infinity,+INF,infinity"],
    "overflow": ["1e400,-1e999,1e-400,-1e-99999"],
    "subnormals": ["5e-324,-4.9e-324,2.2250738585071e-308,1e-320"],
    "signed_zeros": ["-0.0,0.0,-0,+0.0"],
    "long_digits": ["0." + "3" * 200 + ",1e" + "0" * 150 + "1,-" + "9" * 400],
    "int64_overflow": ["99999999999999999999,-9223372036854775809,9223372036854775807"],
    "quote_and_hash": ['"1.0",#2'],
    "hex": ["0x10,1.0"],
    "nul": ["1\x00,2"],
}
# The cases numpy's reader takes on its own, with no help from the loop.
NUMPY_READS = {"padded", "nan_inf", "overflow", "subnormals", "signed_zeros", "long_digits",
               "int64_overflow"}


def outcome(call):
    """What ``call`` returns, or the text of the ValueError it raises; no
    warning may escape it."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ValueError as exc:
            result = str(exc)
    assert caught == []
    return result


def loop_outcome(call):
    """:func:`outcome` of ``call`` with numpy's reader refusing every input,
    so that the per-line loop parses the rows."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("refused")):
        return outcome(call)


def assert_same_outcome(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str), got
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("finite", [True, False])
@pytest.mark.parametrize("case", sorted(READER_EDGE_CASES))
def test_numpy_reader_gives_the_loops_values_or_error(case, finite):
    lines = READER_EDGE_CASES[case]
    loop = mock.Mock(wraps=_util._parse_rows_per_line)
    with mock.patch.object(_util, "_parse_rows_per_line", loop):
        got = outcome(lambda: parse_rows("m.csv", lines, 3, "test", finite=finite))
    assert loop.called == (case not in NUMPY_READS)
    assert_same_outcome(got, loop_outcome(lambda: parse_rows("m.csv", lines, 3, "test",
                                                             finite=finite)))


@pytest.mark.parametrize("labelled", [True, False])
@pytest.mark.parametrize("case", sorted(READER_EDGE_CASES))
def test_load_csv_gives_the_loops_values_or_error(tmp_path, case, labelled):
    lines = READER_EDGE_CASES[case]
    if labelled:
        lines = [f"{i % 2},{line}" for i, line in enumerate(lines)]
    path = os.path.join(tmp_path, "data.csv")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    got, want = outcome(lambda: load_csv(path)), loop_outcome(lambda: load_csv(path))
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_outcome(got.features, want.features)
        assert got.labels.tolist() == want.labels.tolist() and got.n == want.n


# pieces of values, some that both readers take, some that one or both refuse
value_pieces = st.sampled_from([
    "0", "1", "9", "-", "+", ".", "e", "E", "e-", "e+3", "nan", "inf", "Infinity", "_",
    " ", "\t", "\x0c", "\x1c", "\x1f", "\r", "\n", "\x85", "\xa0", "\uff11", "x", "0x", "#",
    '"', "1e400", "5e-324", "-0.0",
])
fuzz_values = st.one_of(
    st.lists(value_pieces, max_size=4).map("".join),
    st.floats().map(repr),
    st.floats().map(lambda v: f"{v:.3e}"),
    st.integers(-(2**70), 2**70).map(str),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(fuzz_values, min_size=1, max_size=4), min_size=1, max_size=5),
       finite=st.booleans())
def test_numpy_reader_matches_the_loop_on_fuzzed_rows(rows, finite):
    lines = [",".join(row) for row in rows]
    call = lambda: parse_rows("f.csv", lines, 1, "test", finite=finite)  # noqa: E731
    assert_same_outcome(outcome(call), loop_outcome(call))


def test_split_lines_ends_lines_only_at_line_ends():
    others = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
    assert split_lines(f"a{others}b\r\nc\rd\ne") == [f"a{others}b", "c", "d", "e"]
    assert split_lines("a\n") == ["a"]
    assert split_lines("a\r\n\r\n") == ["a", ""]
    assert split_lines("") == []
    assert split_lines("\r") == [""]


def test_break_characters_inside_a_line_neither_split_nor_shift_it(tmp_path):
    """A form feed inside line 1 once moved a fault on line 2 to line 3, and
    a U+0085 inside a row once made two samples of it."""
    path = os.path.join(tmp_path, "data.csv")
    with open(path, "w") as fh:
        fh.write("0,1.0\x0c,2.0\n1,oops,3.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(path)}:2: non-numeric feature value$"):
        load_csv(path)
    with open(path, "w") as fh:
        fh.write("0,1.0,2.0\n1,3.0,4.0\x851,5.0,6.0\n0,7.0,8.0\n")
    with pytest.raises(ValueError, match=f"^{re.escape(path)}:2: expected 3 columns, found 5$"):
        load_csv(path)


@pytest.mark.parametrize("reader", sorted(READER_FAULTS))
def test_undecodable_byte_names_path_and_line(tmp_path, reader):
    load = READER_FAULTS[reader][0]
    path = os.path.join(tmp_path, f"{reader}.csv")
    with open(path, "wb") as fh:
        fh.write(b"2,2,gaussian,raw\r0.0,1.0\r\n1.0,\xff\n")
    message = f"{path}:3: cannot decode byte 0xff as utf-8: invalid start byte"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load(path)


@pytest.mark.parametrize(
    "call",
    [
        lambda: codes.gaussian_code(4, 2, seed=-1),
        lambda: codes.dense_random_code(4, 3, candidates=5, seed=-1),
        lambda: dense_candidate_stream(4, 3, 5, seed=-1),  # raises before next()
        lambda: datasets.synth_hierarchical(1, 2, 2, 1.0, 0.5, 2, seed=-1),
        lambda: datasets.split(datasets.synth_hierarchical(1, 2, 2, 1.0, 0.5, 2), 0.5, seed=-1),
        lambda: net.init([2, 3], seed=-1),
    ],
    ids=["gaussian_code", "dense_random_code", "dense_candidate_stream",
         "synth_hierarchical", "split", "init"],
)
def test_library_rejects_negative_seed_by_name(call):
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        call()


@pytest.mark.parametrize(
    "values, finite",
    [([], True), ([1.7e308, -1.7e308, 0.0], True), ([1.0, np.nan], False),
     ([np.inf, 1.0], False), ([-np.inf], False), ([np.nan, np.inf, -np.inf], False)],
)
def test_all_finite(values, finite):
    assert _util.all_finite(np.array(values, dtype=np.float64)) is finite


def test_all_finite_allocates_no_temporary():
    a = np.ones((512, 512))
    a[-1, -1] = np.nan
    tracemalloc.start()
    try:
        assert not _util.all_finite(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096


# Each check that refuses a non-finite entry, and its message.
FINITE_CHECKS = {
    "CodeMatrix": (codes.CodeMatrix, "code values must be finite"),
    "Dataset": (lambda a: datasets.Dataset(a, np.zeros(len(a), dtype=np.int64), 1),
                "feature values must be finite"),
    "SimilarityGraph": (spectral.SimilarityGraph, "similarity weights must be finite"),
    "symmetric_eigen": (spectral.symmetric_eigen, "matrix entries must be finite"),
}


@pytest.mark.parametrize("check", sorted(FINITE_CHECKS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("place", [(0, 1), (2, 0), (2, 2)])
def test_non_finite_entry_refused_with_its_message(check, value, place):
    make, message = FINITE_CHECKS[check]
    a = np.ones((3, 3)) - np.eye(3)
    make(a)  # the finite matrix passes
    a[place] = value
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(a)


@pytest.mark.parametrize("old", [None, b"0,1\n"], ids=["absent", "existing"])
def test_atomic_write_failure_leaves_the_target_and_no_temp_file(tmp_path, old):
    """An exception inside the block propagates; the target keeps its old
    bytes, or stays absent, and the temp file is removed."""
    path = os.path.join(tmp_path, "out.csv")
    if old is not None:
        with open(path, "wb") as fh:
            fh.write(old)
    with pytest.raises(KeyboardInterrupt):
        with _util.atomic_write(path) as fh:
            fh.write("2,3\n")
            raise KeyboardInterrupt
    assert os.listdir(tmp_path) == ([] if old is None else ["out.csv"])
    if old is not None:
        with open(path, "rb") as fh:
            assert fh.read() == old


def test_forked_writes_raises_a_save_fault_as_its_own_class(tmp_path, monkeypatch):
    """A save that raises in the forked writer runs again in the caller's
    process, so a ValueError subclass whose ``__init__`` takes two
    arguments arrives as itself, and no file is put in place."""
    real_fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())

    def bad_save(obj, path):
        raise _util.BadKeyError("rows", "are bad")

    with pytest.raises(_util.BadKeyError) as err:
        with _util.forked_writes(str(tmp_path), [(bad_save, None, "out.csv")]):
            pass
    assert (err.value.key, err.value.problem, str(err.value)) == ("rows", "are bad", "rows are bad")
    assert forks == [1] and os.listdir(tmp_path) == []
