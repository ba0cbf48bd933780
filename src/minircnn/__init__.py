"""Desk-scale two-stage detector: anchor RPN + mini Fast R-CNN head."""

from .anchors import AnchorConfig, AnchorSet, base_anchors, grid_anchors, inside_mask
from .assignment import RpnTargets, assign_labels, sample_minibatch
from .boxes import Box, ScoredBox
from .config import RunConfig
from .rng import Rng

__all__ = [
    "AnchorConfig", "AnchorSet", "base_anchors", "grid_anchors", "inside_mask",
    "RpnTargets", "assign_labels", "sample_minibatch",
    "Box", "ScoredBox",
    "RunConfig", "Rng",
]
