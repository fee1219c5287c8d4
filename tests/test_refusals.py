"""Refusals that several modules share, each in one wording: the class-id
rule, the code-size rule, and a table of the library's other input
refusals with their exact messages."""

import numpy as np
import pytest

from ecoc import analysis, codes, datasets, decoder, net, spectral

# Each entry point that takes class ids, as a call on (ids, n), and the noun
# its messages use.
CLASS_ID_CHECKS = {
    "Dataset": (lambda ids, n: datasets.Dataset(np.zeros((len(ids), 2)), ids, n), "labels"),
    "batch_loss_grad": (lambda ids, n: decoder.batch_loss_grad(
        np.ones((len(ids), 2)), codes.gaussian_code(n, 2, seed=0), ids), "labels"),
    "confusion preds": (lambda ids, n: analysis.confusion(
        ids, np.zeros(len(ids), dtype=np.int64), n), "pred ids"),
    "confusion labels": (lambda ids, n: analysis.confusion(
        np.zeros(len(ids), dtype=np.int64), ids, n), "label ids"),
    "similarity_from_class_means": (lambda ids, n: spectral.similarity_from_class_means(
        np.arange(2.0 * len(ids)).reshape(-1, 2) + 1, ids, n), "labels"),
}

# Bad ids for 2 classes, each holding every class (as the class means need),
# and the end of the message.  A float array is refused even when its values
# are whole; 0.7 and 1.9, a 0.9 and a 0.5 were once truncated or merged into
# a class, and a 7 or a -1 once dropped.
BAD_IDS = [
    (np.array([0.0, 1.0]), "must be integers, got float64"),
    (np.array([False, True]), "must be integers, got bool"),
    (np.array([0.7, 1.9, 1.0]), "must be integers, got float64"),
    (np.array([0.9, 1.0, 0.0]), "must be integers, got float64"),
    (np.array([0.0, 0.5, 1.0]), "must be integers, got float64"),
    (np.array([-1, 0, 1]), "out of range for 2 classes"),
    (np.array([0, 1, 2]), "out of range for 2 classes"),
    (np.array([0, 1, 7]), "out of range for 2 classes"),
]


@pytest.mark.parametrize("check", sorted(CLASS_ID_CHECKS))
@pytest.mark.parametrize("ids, problem", BAD_IDS)
def test_bad_class_ids_refused_in_one_wording(check, ids, problem):
    call, noun = CLASS_ID_CHECKS[check]
    with pytest.raises(ValueError) as exc:
        call(ids, 2)
    assert str(exc.value) == f"{noun} {problem}"


@pytest.mark.parametrize("check", sorted(CLASS_ID_CHECKS))
@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
def test_integer_ids_of_any_width_pass(check, dtype):
    call, _ = CLASS_ID_CHECKS[check]
    call(np.array([0, 1, 1], dtype=dtype), 2)


@pytest.mark.parametrize("check", ["Dataset", "batch_loss_grad", "confusion preds"])
@pytest.mark.parametrize("ids", [[], np.empty(0), np.empty(0, dtype=bool)])
def test_empty_ids_pass_whatever_their_dtype(check, ids):
    call, _ = CLASS_ID_CHECKS[check]
    call(np.asarray(ids), 2)


def test_dataset_keeps_labels_as_int64():
    ds = datasets.Dataset(np.zeros((2, 2)), np.array([1, 0], dtype=np.uint8), 2)
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]


def test_confusion_counts_narrow_ids():
    cm = analysis.confusion(np.array([1, 1], dtype=np.uint8), np.array([0, 1], dtype=np.int8), 2)
    assert cm.counts.tolist() == [[0, 1], [0, 1]]


# Each check of the code-size rule, the size it is given, and the message:
# the class count is checked first, so a huge bit count allocates nothing.
GRAPH = spectral.SimilarityGraph(np.ones((3, 3)) - np.eye(3))
CODE_SIZE_CHECKS = [
    ("CodeMatrix", lambda: codes.CodeMatrix(np.empty((1, 0))), "n=1"),
    ("CodeMatrix", lambda: codes.CodeMatrix(np.empty((2, 0))), "k=0"),
    ("one_hot", lambda: codes.one_hot(1), "n=1"),
    ("gaussian_code", lambda: codes.gaussian_code(0, 10**15), "n=0"),
    ("gaussian_code", lambda: codes.gaussian_code(2, 0), "k=0"),
    ("dense_random_code", lambda: codes.dense_random_code(1, 10**15), "n=1"),
    ("dense_random_code", lambda: codes.dense_random_code(2, -1), "k=-1"),
    ("default_code_length", lambda: codes.default_code_length(1), "n=1"),
    ("SimilarityGraph", lambda: spectral.SimilarityGraph(np.zeros((1, 1))), "n=1"),
    ("similarity_from_class_means",
     lambda: spectral.similarity_from_class_means(np.ones((3, 2)), np.zeros(3, int), 1), "n=1"),
    ("spectral_code", lambda: spectral.spectral_code(GRAPH, 0), "k=0"),
]


@pytest.mark.parametrize("site, call, size", CODE_SIZE_CHECKS,
                         ids=[f"{site}-{size}" for site, _, size in CODE_SIZE_CHECKS])
def test_code_size_rule_in_one_wording(site, call, size):
    words = "2 classes" if size.startswith("n") else "1 code bit"
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == f"need at least {words}, got {size}"


def _code_csv(text):
    return lambda path: codes.load_code_csv(path(text))


def _similarity_csv(text):
    return lambda path: spectral.load_similarity_csv(path(text))


# Input refusals of the library, each a call on a writer of one input file
# (``path(text)`` writes it and returns its path), and its exact message,
# where ``{path}`` stands for that path.
REFUSALS = {
    "pcc on one value": (lambda path: analysis.pcc(np.array([1.0]), np.array([2.0])),
                         "need two equal-length vectors of size >= 2"),
    "CodeMatrix 1-d": (lambda path: codes.CodeMatrix(np.ones(3)),
                       "code values must be 2-d, got shape (3,)"),
    "dense_random_code no candidates": (
        lambda path: codes.dense_random_code(3, 4, candidates=0),
        "need at least 1 candidate, got 0"),
    "load_code_csv empty": (_code_csv(""), "{path}: empty code file"),
    "load_code_csv 3-field header": (
        _code_csv("2,2,gaussian\n1,2\n3,4\n"),
        "{path}:1: expected header 'n,k,kind,binarization', got '2,2,gaussian'"),
    "load_code_csv row count": (_code_csv("3,2,gaussian,raw\n1,2\n3,4\n"),
                                "{path}: expected 3 codeword rows, found 2"),
    "Dataset 1-d features": (lambda path: datasets.Dataset(np.ones(3), np.zeros(3, int), 2),
                             "features must be 2-d, got shape (3,)"),
    "Dataset label shape": (
        lambda path: datasets.Dataset(np.ones((3, 2)), np.zeros(2, int), 2),
        "labels must be one id per feature row"),
    "Dataset no classes": (
        lambda path: datasets.Dataset(np.ones((0, 2)), np.zeros(0, int), 0),
        "class count must be >= 1, got 0"),
    "load_attributes_csv header only": (
        lambda path: datasets.load_attributes_csv(path("a,b\n")),
        "{path}: need a header and at least one class row"),
    "batch_loss_grad label shape": (
        lambda path: decoder.batch_loss_grad(np.ones((2, 2)), codes.gaussian_code(3, 2),
                                             np.zeros(3, int)),
        "labels must match batch size"),
    "init zero width": (lambda path: net.init([4, 0]), "layer sizes must be >= 1, got [4, 0]"),
    "init past an array": (lambda path: net.init([4, 2**62, 3]),
                           "layer_sizes gives 4611686018427387904 x 4 weight values of 8 bytes, "
                           "more than an array can hold (9223372036854775807 bytes)"),
    "gaussian_code classes past an array": (
        lambda path: codes.gaussian_code(2**61, 2),
        "n gives 2305843009213693952 x 2 code values of 8 bytes, more than an array can hold (9223372036854775807 bytes)"),
    "gaussian_code bits past an array": (
        lambda path: codes.gaussian_code(4, 2**62),
        "k gives 4 x 4611686018427387904 code values of 8 bytes, more than an array can hold (9223372036854775807 bytes)"),
    "one_hot past an array": (
        lambda path: codes.one_hot(2**31),
        "n gives 2147483648 x 2147483648 code values of 8 bytes, more than an array can hold (9223372036854775807 bytes)"),
    "SimilarityGraph not square": (lambda path: spectral.SimilarityGraph(np.zeros((2, 3))),
                                   "weights must be square, got shape (2, 3)"),
    "symmetric_eigen not square": (lambda path: spectral.symmetric_eigen(np.zeros((2, 3))),
                                   "matrix must be square, got shape (2, 3)"),
    "similarity_from_class_means rows": (
        lambda path: spectral.similarity_from_class_means(np.ones((3, 2)), np.zeros(2, int), 2),
        "features must be (samples, dims) matching labels"),
    "load_similarity_csv empty": (_similarity_csv(""), "{path}: empty similarity file"),
    "load_similarity_csv not square": (
        _similarity_csv("0,1,1\n1,0,1\n"), "{path}: expected a square matrix, got shape (2, 3)"),
    "load_similarity_csv diagonal": (_similarity_csv("1,1\n1,0\n"),
                                     "{path}: diagonal entries must be zero"),
    "load_similarity_csv negative": (_similarity_csv("0,-1\n-1,0\n"),
                                     "{path}: similarity weights must be non-negative"),
    "load_similarity_csv isolated": (_similarity_csv("0,1,0\n1,0,0\n0,0,0\n"),
                                     "{path}: nodes with zero degree: [2]"),
    "load_similarity_csv one class": (_similarity_csv("0\n"),
                                      "{path}: need at least 2 classes, got n=1"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_message(case, tmp_path):
    call, message = REFUSALS[case]
    file = str(tmp_path / "input.csv")

    def path(text):
        with open(file, "w") as fh:
            fh.write(text)
        return file

    with pytest.raises(ValueError) as exc:
        call(path)
    assert str(exc.value) == message.format(path=file)


def test_save_attributes_csv_default_names(tmp_path):
    ds = datasets.Dataset(np.zeros((2, 2)), np.array([0, 1]), 2,
                          attributes=np.array([[1.0, 0.0], [0.0, 1.0]]))
    path = str(tmp_path / "attributes.csv")
    datasets.save_attributes_csv(ds, path)
    assert open(path).read() == "attr0,attr1\n1,0\n0,1\n"
