"""fudsa: full-scale deeply supervised attention segmentation, from scratch."""

from .attention import AttentionGate, AttentionResult
from .losses import LossConfig, MetricsRecord, focal_tversky, segmentation_metrics, \
    supervised_loss, tversky_index
from .network import ForwardOutputs, FudsaNet, NetworkConfig, VARIANTS
from .tensor import Tape, Tensor, backward
from .training import AdamState, TrainConfig, adam_step, evaluate, gradient_check, \
    load_checkpoint, save_checkpoint, train

__all__ = [
    "AttentionGate", "AttentionResult", "LossConfig", "MetricsRecord",
    "focal_tversky", "segmentation_metrics", "supervised_loss", "tversky_index",
    "ForwardOutputs", "FudsaNet", "NetworkConfig", "VARIANTS",
    "Tape", "Tensor", "backward",
    "AdamState", "TrainConfig", "adam_step", "evaluate", "gradient_check",
    "load_checkpoint", "save_checkpoint", "train",
]
