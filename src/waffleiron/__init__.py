"""Point-cloud semantic segmentation from MLPs and dense 2D convolutions."""

from .geometry import (
    IGNORE_LABEL,
    Fov,
    PointCloud,
    crop_fov,
    knn,
    sample_fixed,
    voxel_downsample,
)
from .projection import (
    PlaneSpec,
    ProjectionPair,
    build_projection,
    cell_indices,
    plane_schedule,
)
from .backbone import WaffleIron, WaffleIronConfig, param_count
from .training import AdamW, Schedule, TrainConfig, cross_entropy, lovasz_softmax, lr_at, train_loop
from .evaluation import ConfusionMatrix, MetricsReport, evaluate_split, iou, segment_scan
from .augment import AugmentConfig, InstanceBank, instance_cutmix, polarmix

__version__ = "0.1.0"

__all__ = [
    "IGNORE_LABEL",
    "Fov",
    "PointCloud",
    "crop_fov",
    "knn",
    "sample_fixed",
    "voxel_downsample",
    "PlaneSpec",
    "ProjectionPair",
    "build_projection",
    "cell_indices",
    "plane_schedule",
    "WaffleIron",
    "WaffleIronConfig",
    "param_count",
    "AdamW",
    "Schedule",
    "TrainConfig",
    "cross_entropy",
    "lovasz_softmax",
    "lr_at",
    "train_loop",
    "ConfusionMatrix",
    "MetricsReport",
    "evaluate_split",
    "iou",
    "segment_scan",
    "AugmentConfig",
    "InstanceBank",
    "instance_cutmix",
    "polarmix",
]
