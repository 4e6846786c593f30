"""Training hyperparameters and the names of the model and feature kinds.

The CLI builds every subcommand's parser from TrainConfig and these names
before it loads numpy, and persistence checks a bundle's metadata against
them, so this module needs only the standard library. models, persistence
and pipeline re-export each name they used to define.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SettingError

# LinearModel.kind, as the bundle metadata records it.
KIND_NB = "nb"
KIND_LOGISTIC = "logistic"
KIND_HINGE = "hinge"

FEATURE_COUNT = "count"
FEATURE_TFIDF = "tfidf"

# The train command's --model values, each with the features it expects.
MODEL_NB = "nb"
MODEL_LR = "lr"
MODEL_SGD = "sgd"

DEFAULT_FEATURES = {MODEL_NB: FEATURE_COUNT, MODEL_LR: FEATURE_TFIDF, MODEL_SGD: FEATURE_TFIDF}


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of all three fits; each field is also a train flag
    and config key (lr_C is --lr-c and lr_c=). The hinge classifier uses
    the step-size schedule eta_t = 1 / (sgd_alpha * (t0 + t)) with
    eta_0 = sgd_alpha**-0.25 and t0 = 1 / (sgd_alpha * eta_0); at the
    default sgd_alpha = 1e-4 that is eta_0 = 10 and t0 = 1000.
    """

    nb_alpha: float = 1.0
    lr_C: float = 100.0
    lr_tol: float = 1e-4
    lr_max_iter: int = 100
    sgd_alpha: float = 1e-4
    sgd_epochs: int = 1000
    sgd_tol: float = 1e-3
    seed: int = 42

    def __post_init__(self):
        for name in ("nb_alpha", "lr_C", "lr_tol", "sgd_alpha", "sgd_tol"):
            if not 0 < (value := getattr(self, name)) < math.inf:
                raise SettingError(f"{name} must be positive and finite, got {value}")
        if self.lr_max_iter < 1 or self.sgd_epochs < 1:
            raise SettingError("iteration limits must be >= 1")
        if self.seed < 0:
            raise SettingError(f"seed must be >= 0, got {self.seed}")
