"""Map-free multi-agent trajectory prediction at desk scale.

The pipeline: agent histories are embedded per timestep, filtered in the
frequency domain by a bank of band experts recombined through a learned
softmax gate, summarized at several temporal granularities with causal
gated dense/sparse attention, mixed across agents with the same attention
in space, and decoded into K candidate futures with per-mode probabilities.
Training minimizes winner-take-all regression, mode classification, and a
patch-wise structural loss (correlation + variance + mean terms).
"""

from .config import Config, ModelConfig, TrainingConfig
from .data import (
    GenConfig,
    Scenario,
    generate_synthetic,
    load_scenarios,
    normalize,
    save_scenarios,
)
from .decoder import PredictionSet
from .metrics import MetricReport, evaluate_model, evaluate_predictions
from .model import TrajectoryPredictor
from .tensor import ComplexTensor, Tensor, grad_check, grad_check_param
from .training import load_checkpoint, save_checkpoint, train

__all__ = [
    "ComplexTensor",
    "Config",
    "GenConfig",
    "MetricReport",
    "ModelConfig",
    "PredictionSet",
    "Scenario",
    "Tensor",
    "TrainingConfig",
    "TrajectoryPredictor",
    "evaluate_model",
    "evaluate_predictions",
    "generate_synthetic",
    "grad_check",
    "grad_check_param",
    "load_checkpoint",
    "load_scenarios",
    "normalize",
    "save_checkpoint",
    "save_scenarios",
    "train",
]
__version__ = "0.1.0"
