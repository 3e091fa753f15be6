"""Mixed cross-entropy losses with an LDA-derived class-similarity prior,
plus a small fully-connected training harness."""

from .data import LabeledDataset
from .lda import SimilarityMatrix
from .net import MlpModel, TrainConfig, Trainer

__all__ = [
    "LabeledDataset",
    "SimilarityMatrix",
    "MlpModel",
    "TrainConfig",
    "Trainer",
]
