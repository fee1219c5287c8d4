"""The shared CSV row formatter against the per-element writer it replaced."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoc import _util
from ecoc._util import ROW_BLOCK_ELEMS, format_rows
from oracles import format_rows_per_element

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
    ],
    ids=["onehot", "pm1", "gaussian", "counts", "int64_extremes", "signed_zeros",
         "wide_span_floats", "no_columns"],
)
def test_multi_block_arrays_match_per_element_writer(values, block):
    # more rows than one block holds
    assert values.shape[0] > block // max(1, values.shape[1])
    labels = np.arange(values.shape[0])
    with mock.patch.object(_util, "ROW_BLOCK_ELEMS", block):
        assert text(values, labels) == format_rows_per_element(values, labels)


def test_small_integer_blocks_skip_the_sort():
    """One-hot, +-1, 0/1 attribute and confusion-count blocks are indexed
    directly; none reaches ``np.unique``."""
    rng = np.random.default_rng(6)
    blocks = [
        np.eye(300),
        np.where(rng.standard_normal((300, 100)) > 0, 1.0, -1.0),
        rng.integers(0, 2, size=(300, 341)),
        rng.poisson(0.5, size=(400, 400)),
    ]
    with mock.patch.object(np, "unique", side_effect=AssertionError("np.unique called")):
        for values in blocks:
            list(format_rows(values, np.arange(values.shape[0])))


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
