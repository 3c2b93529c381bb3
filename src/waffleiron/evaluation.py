"""Confusion matrix, IoU metrics and the segmentation path.

:func:`segment_scan` is the one path from a raw scan to one label per point,
shared by ``infer``, ``eval`` and test-time augmentation: it voxelizes the
scan, runs :func:`infer_probs` on the voxel cloud (which crops to the FOV and
fills the points outside it from their nearest inside neighbor), takes the
argmax and propagates the labels to the raw scan by nearest neighbor.
Test-time augmentation sums the probabilities of ``TTA_PASSES`` randomly
rotated/flipped passes with stochastic depth kept active before the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .augment import random_flip, random_rotate_z
from .backbone import WaffleIron, prepare_inputs
from .geometry import IGNORE_LABEL, PointCloud, crop_fov, nearest_indices, voxel_downsample
from .training import softmax

TTA_PASSES = 10


class ConfusionMatrix:
    """K x K integer counts, rows = ground truth, columns = prediction."""

    def __init__(self, num_classes: int):
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def update(self, pred: np.ndarray, gt: np.ndarray) -> "ConfusionMatrix":
        pred = np.asarray(pred).reshape(-1)
        gt = np.asarray(gt).reshape(-1)
        if pred.shape != gt.shape:
            raise ValueError("prediction/label length mismatch")
        scored = gt != IGNORE_LABEL
        p, g = pred[scored], gt[scored]
        k = self.num_classes
        if ((g < 0) | (g >= k)).any() or ((p < 0) | (p >= k)).any():
            raise ValueError("label outside [0, num_classes) and not ignore")
        np.add.at(self.counts, (g, p), 1)
        return self

    def merge(self, other: "ConfusionMatrix") -> "ConfusionMatrix":
        self.counts += other.counts
        return self

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def iou(cm: ConfusionMatrix) -> tuple[np.ndarray, float]:
    """Per-class IoU and their mean.

    Classes absent from both ground truth and predictions (zero denominator)
    get NaN and are excluded from the mean.
    """
    counts = cm.counts.astype(np.float64)
    tp = np.diag(counts)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    denom = tp + fp + fn
    per_class = np.full(cm.num_classes, np.nan)
    present = denom > 0
    per_class[present] = tp[present] / denom[present]
    miou = float(per_class[present].mean()) if present.any() else float("nan")
    return per_class, miou


def infer_probs(model: WaffleIron, pc: PointCloud, drop_rng=None) -> np.ndarray:
    """Class probabilities for every point of ``pc`` (N x K).

    Crops to the model FOV, runs an eval-mode forward (stochastic depth only
    when ``drop_rng`` is given), and fills points outside the FOV from their
    nearest inside neighbor.
    """
    inside, _ = crop_fov(pc, model.config.fov)
    if inside.n_valid == 0:
        raise ValueError("no points inside the FOV")
    feats, neighbors, projections, valid = prepare_inputs(model, inside)
    logits = model.forward(
        feats, neighbors, projections, valid, training=False, drop_rng=drop_rng
    )
    probs_inside = softmax(logits).T  # (n_inside, K)
    src = nearest_indices(inside.positions, pc.positions)
    return probs_inside[src]


def segment_scan(
    pc: PointCloud,
    model: WaffleIron,
    voxel_size: float,
    tta: bool = False,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """One int32 label per point of the raw scan ``pc``.

    Without ``tta`` the voxel cloud gets one plain pass. With it, each of the
    ``TTA_PASSES`` passes draws a z-rotation, axis flips and (when
    ``drop_prob > 0``) its stochastic-depth choices from ``rng``; the
    float64 sum of the passes' probabilities is argmaxed, ties going to the
    lower class id.
    """
    down, _ = voxel_downsample(pc, voxel_size)
    if not tta:
        probs = infer_probs(model, down)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        drop_rng = rng if model.config.drop_prob > 0 else None
        probs = np.zeros((down.n_points, model.config.num_classes), dtype=np.float64)
        for _ in range(TTA_PASSES):
            variant = random_flip(random_rotate_z(down, rng), rng)
            probs += infer_probs(model, variant, drop_rng=drop_rng)
    labels = np.argmax(probs, axis=1).astype(np.int32)
    return labels[nearest_indices(down.positions, pc.positions)]


@dataclass
class MetricsReport:
    per_class_iou: np.ndarray
    miou: float
    confusion: ConfusionMatrix
    class_names: Optional[Sequence[str]] = None

    def _name(self, c: int) -> str:
        if self.class_names and c < len(self.class_names):
            return self.class_names[c]
        return f"class_{c}"

    def to_table(self) -> str:
        width = max(len(self._name(c)) for c in range(len(self.per_class_iou)))
        lines = [f"{'class'.ljust(width)}  IoU"]
        for c, v in enumerate(self.per_class_iou):
            cell = "  n/a" if np.isnan(v) else f"{v:.4f}"
            lines.append(f"{self._name(c).ljust(width)}  {cell}")
        lines.append(f"{'mIoU'.ljust(width)}  {self.miou:.4f}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["class,iou"]
        for c, v in enumerate(self.per_class_iou):
            cell = "" if np.isnan(v) else f"{v:.6f}"
            lines.append(f"{self._name(c)},{cell}")
        return "\n".join(lines) + "\n"

    def miou_line(self) -> str:
        return f"mIoU {self.miou:.6f}\n"


def evaluate_split(
    dataset: Sequence[PointCloud],
    model: WaffleIron,
    tta: bool = False,
    voxel_size: float = 0.10,
    rng: Optional[np.random.Generator] = None,
    class_names: Optional[Sequence[str]] = None,
) -> MetricsReport:
    """Score a model over labeled scans.

    Per scan: :func:`segment_scan`, then accumulate the confusion matrix
    against the scan's labels. One ``rng`` serves the whole split.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    cm = ConfusionMatrix(model.config.num_classes)
    for pc in dataset:
        if pc.labels is None:
            raise ValueError("evaluation needs labeled scans")
        cm.update(segment_scan(pc, model, voxel_size, tta, rng), pc.labels)
    per_class, miou = iou(cm)
    return MetricsReport(per_class, miou, cm, class_names)
