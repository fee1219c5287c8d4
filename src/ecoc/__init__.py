"""Low-dimensional target embeddings for multiclass classifiers.

Replace one-hot training targets with short codewords: generate a code
matrix (random, dense random, or spectral from a class-similarity graph),
train a small network against it with a distance-decoder softmax head, and
analyze what the learned bits encode.
"""

from types import ModuleType as _ModuleType

from .codes import (
    Binarization,
    BinarizationCollisionError,
    CodeGenerationError,
    CodeKind,
    CodeMatrix,
    CodeMetrics,
    binarize,
    code_metrics,
    default_code_length,
    dense_random_code,
    gaussian_code,
    load_code_csv,
    one_hot,
    save_code_csv,
)
from .spectral import (
    ConvergenceError,
    EigenDecomposition,
    SimilarityGraph,
    load_similarity_csv,
    normalized_laplacian,
    save_similarity_csv,
    similarity_from_class_means,
    spectral_code,
    symmetric_eigen,
)
from .decoder import (
    batch_loss_grad,
    decoding_matrix,
    predict_batch,
)
from .datasets import (
    Dataset,
    load_attributes_csv,
    load_csv,
    save_attributes_csv,
    save_csv,
    split,
    synth_hierarchical,
)
from .net import (
    MetricsRow,
    NetParams,
    TrainConfig,
    TrainingDivergedError,
    ZeroOutputError,
    init,
    load_model,
    net_outputs,
    save_metrics,
    save_model,
    train,
)
from .analysis import (
    ConfusionMatrix,
    attribute_correlation,
    bit_ablation,
    confusion,
    pcc,
    save_ablation_csv,
    save_confusion_csv,
    save_correlation_csv,
)

__version__ = "0.1.0"

# The names imported above, not the submodules: the one list of public names.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
