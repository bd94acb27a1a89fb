"""The paper's primary contribution: query-driven local linear models.

The core pipeline is:

1. quantize the query space with a conditionally growing adaptive vector
   quantizer,
2. attach a local linear mapping (LLM) to every prototype and learn its
   coefficients jointly with the prototype positions by stochastic gradient
   descent.  Steps 1 and 2 are one training step, the fused kernel of
   :mod:`repro.core.sgd`, driven by :mod:`repro.core.training`; the tests
   pin it to its readable object form,
   :mod:`repro.testing.reference_training`,
3. stop when the joint convergence criterion falls below ``gamma``
   (:mod:`repro.core.convergence`),
4. answer unseen Q1/Q2 queries from the overlapping-prototype neighbourhood
   without touching the data (:mod:`repro.core.prediction`,
   :class:`repro.core.model.LLMModel`).
"""

from .prototypes import LocalLinearMap, LocalModelParameters, RegressionPlane
from .learning_rates import (
    ConstantRate,
    HyperbolicRate,
    LearningRateSchedule,
    PowerRate,
    get_schedule,
)
from .convergence import ConvergenceTracker, ConvergenceRecord
from .prediction import NeighborhoodPredictor, normalized_weight_rows
from .model import LLMModel, TrainingReport
from .training import StreamingTrainer
from .persistence import load_model, save_model

__all__ = [
    "LocalLinearMap",
    "LocalModelParameters",
    "RegressionPlane",
    "LearningRateSchedule",
    "HyperbolicRate",
    "ConstantRate",
    "PowerRate",
    "get_schedule",
    "ConvergenceTracker",
    "ConvergenceRecord",
    "NeighborhoodPredictor",
    "normalized_weight_rows",
    "LLMModel",
    "TrainingReport",
    "StreamingTrainer",
    "save_model",
    "load_model",
]
