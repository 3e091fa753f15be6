"""Mixed cross-entropy losses with an LDA-derived class-similarity prior,
plus a small fully-connected training harness."""

from .data import LabeledDataset, NoiseSpec
from .lda import LdaModel, SimilarityMatrix
from .losses import (
    MatrixMixing,
    PenaltyWeights,
    PerClassMixing,
    SimpleMixing,
)
from .net import MlpModel, TrainConfig, Trainer

__all__ = [
    "LabeledDataset",
    "NoiseSpec",
    "LdaModel",
    "SimilarityMatrix",
    "MatrixMixing",
    "PenaltyWeights",
    "PerClassMixing",
    "SimpleMixing",
    "MlpModel",
    "TrainConfig",
    "Trainer",
]
