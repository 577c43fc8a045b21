"""Multi-label learning with global and local label correlations.

Trains a low-rank label model on partially observed label matrices:
observed labels are factored as Y ~ U V, a linear map W ties instance
features to the latent space (V ~ W' X), and learned unit-row factors
Z capture label-correlation structure globally and per instance group.
Prediction for an instance x is sign(U W' x).
"""

from .clustering import (
    Partition,
    kmeans,
    load_partition,
    partition_from_assignment,
    save_partition,
)
from .correlation import (
    combine_correlations,
    cosine_correlation,
    init_factor,
    laplacian_of,
    project_unit_rows,
)
from .data import (
    Dataset,
    FeatureMatrix,
    GmlFormatError,
    LabelMatrix,
    MaskSpec,
    apply_mask,
    load_gml,
    parse_gml,
    save_gml,
    split,
    take_instances,
)
from .metrics import (
    EvaluationReport,
    UndefinedMetricError,
    average_auc,
    average_precision,
    coverage,
    evaluate,
    ranking_loss,
)
from .model import (
    GlocalModel,
    Hyperparams,
    ModelFormatError,
    load_model,
    predict,
    save_model,
    score,
)
from .solver import (
    FitTrace,
    ObjectiveContext,
    closed_form_V,
    fit,
    gradients,
    grid_search,
    make_context,
    objective,
    warm_start,
)

__all__ = [
    "Partition", "kmeans", "load_partition", "partition_from_assignment",
    "save_partition",
    "combine_correlations", "cosine_correlation", "init_factor",
    "laplacian_of", "project_unit_rows",
    "Dataset", "FeatureMatrix", "GmlFormatError", "LabelMatrix", "MaskSpec",
    "apply_mask", "load_gml", "parse_gml", "save_gml", "split", "take_instances",
    "EvaluationReport", "UndefinedMetricError", "average_auc",
    "average_precision", "coverage", "evaluate", "ranking_loss",
    "GlocalModel", "Hyperparams", "ModelFormatError", "load_model",
    "predict", "save_model", "score",
    "FitTrace", "ObjectiveContext", "closed_form_V", "fit", "gradients",
    "grid_search", "make_context", "objective", "warm_start",
]

__version__ = "0.1.0"
