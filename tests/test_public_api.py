"""The package's public surface: ``ecoc.__all__`` and star-imports."""

import ecoc

# Pinned, so that a name cannot join or leave the public surface unnoticed.
PUBLIC_NAMES = {
    "Binarization", "BinarizationCollisionError", "CodeGenerationError", "CodeKind",
    "CodeMatrix", "CodeMetrics", "ConfusionMatrix", "ConvergenceError", "Dataset",
    "EigenDecomposition", "MetricsRow", "NetParams", "SimilarityGraph", "TrainConfig",
    "TrainingDivergedError", "ZeroOutputError", "attribute_correlation", "batch_loss_grad",
    "binarize", "bit_ablation", "code_metrics", "confusion", "decoding_matrix",
    "default_code_length", "dense_random_code", "gaussian_code", "init",
    "load_attributes_csv", "load_code_csv", "load_csv", "load_model", "load_similarity_csv",
    "net_outputs", "normalized_laplacian", "one_hot", "pcc", "predict_batch",
    "save_ablation_csv", "save_attributes_csv", "save_code_csv", "save_confusion_csv",
    "save_correlation_csv", "save_csv", "save_metrics", "save_model", "save_similarity_csv",
    "similarity_from_class_means", "spectral_code", "split", "symmetric_eigen",
    "synth_hierarchical", "train",
}


def test_public_names_pinned():
    assert len(PUBLIC_NAMES) == 52
    assert set(ecoc.__all__) == PUBLIC_NAMES
    assert len(ecoc.__all__) == len(PUBLIC_NAMES)


def test_every_public_name_resolves():
    missing = [name for name in ecoc.__all__ if not hasattr(ecoc, name)]
    assert missing == []
    assert len(set(ecoc.__all__)) == len(ecoc.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from ecoc import *", namespace)
    assert set(ecoc.__all__) <= namespace.keys()
