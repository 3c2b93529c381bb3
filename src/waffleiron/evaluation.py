"""Confusion matrix, IoU metrics and the segmentation path.

:func:`segment_scan` is the one path from a raw scan to one label per point,
shared by ``infer``, ``eval`` and test-time augmentation: it voxelizes the
scan, runs :func:`infer_probs` on the voxel cloud (which crops to the FOV and
fills the points outside it from their nearest inside neighbor), takes the
argmax and propagates the labels to the raw points it dropped by nearest neighbor.
Test-time augmentation sums the probabilities of ``TTA_PASSES`` randomly
rotated/flipped passes with stochastic depth kept active before the argmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .augment import scene_motion
from .backbone import WaffleIron, prepare_inputs
from .geometry import IGNORE_LABEL, PointCloud, crop_fov, nearest_indices, voxel_downsample
from .training import check_class_range, softmax

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
        check_class_range(g, self.num_classes)
        check_class_range(p, self.num_classes, "prediction")
        np.add.at(self.counts, (g, p), 1)
        return self


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
    """Class probabilities for every point of ``pc``, K x N like the logits.

    Crops to the model FOV, runs an eval-mode forward (stochastic depth only
    when ``drop_rng`` is given), and fills points outside the FOV from their
    nearest inside neighbor.
    """
    inside, outside = crop_fov(pc, model.config.fov)
    if inside.n_points == 0:
        raise ValueError("no points inside the FOV")
    logits = model.forward(*prepare_inputs(model, inside), training=False, drop_rng=drop_rng)
    kept = np.ones(pc.n_points, dtype=bool)
    kept[outside] = False
    return softmax(logits)[:, _source_rows(pc.positions, kept, inside.positions)]


def _source_rows(positions: np.ndarray, kept: np.ndarray, src_positions: np.ndarray) -> np.ndarray:
    """Row of ``src_positions`` per row of ``positions``: the ``kept`` rows in order, the rest by nearest search."""
    src = np.empty(kept.size, dtype=np.intp)
    src[kept] = np.arange(src_positions.shape[0])
    rest = np.flatnonzero(~kept)
    if rest.size:
        src[rest] = nearest_indices(src_positions, positions[rest])
    return src


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

    A raw point that voxelization kept is its own nearest voxel row (no
    other is at distance 0), so only the dropped points are searched.
    """
    down, kept = voxel_downsample(pc, voxel_size)
    if not tta:
        probs = infer_probs(model, down)
    else:
        if rng is None:
            rng = np.random.default_rng(0)
        probs = np.zeros((model.config.num_classes, down.n_points), dtype=np.float64)
        for _ in range(TTA_PASSES):
            probs += infer_probs(model, down.moved(scene_motion(rng, scale=False)), drop_rng=rng)
    labels = np.argmax(probs, axis=0).astype(np.int32)
    survivors = np.zeros(pc.n_points, dtype=bool)
    survivors[kept] = True
    return labels[_source_rows(pc.positions, survivors, down.positions)]


@dataclass
class MetricsReport:
    per_class_iou: np.ndarray
    miou: float
    confusion: ConfusionMatrix

    def to_table(self) -> str:
        width = len(f"class_{len(self.per_class_iou) - 1}")
        lines = [f"{'class'.ljust(width)}  IoU"]
        for c, v in enumerate(self.per_class_iou):
            cell = "  n/a" if np.isnan(v) else f"{v:.4f}"
            lines.append(f"class_{c}".ljust(width) + f"  {cell}")
        lines.append(f"{'mIoU'.ljust(width)}  {self.miou:.4f}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["class,iou"]
        for c, v in enumerate(self.per_class_iou):
            cell = "" if np.isnan(v) else f"{v:.6f}"
            lines.append(f"class_{c},{cell}")
        return "\n".join(lines) + "\n"

    def miou_line(self) -> str:
        return f"mIoU {self.miou:.6f}\n"


def evaluate_split(
    dataset: Sequence[PointCloud],
    model: WaffleIron,
    tta: bool = False,
    voxel_size: float = 0.10,
    rng: Optional[np.random.Generator] = None,
    scan_names: Optional[Sequence[str]] = None,
) -> MetricsReport:
    """Score a model over labeled scans.

    Per scan: check its labels, :func:`segment_scan`, then accumulate the
    confusion matrix against the labels. One ``rng`` serves the whole split.
    A scan that fails is named in the error by ``scan_names``, or else by its
    index; a bad label fails before its scan is segmented.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    cm = ConfusionMatrix(model.config.num_classes)
    for i, pc in enumerate(dataset):
        try:
            if pc.labels is None:
                raise ValueError("evaluation needs labeled scans")
            check_class_range(pc.labels[pc.labels != IGNORE_LABEL], cm.num_classes)
            cm.update(segment_scan(pc, model, voxel_size, tta, rng), pc.labels)
        except ValueError as err:
            name = scan_names[i] if scan_names else f"scene {i}"
            raise ValueError(f"{name}: {err}") from err
    per_class, miou = iou(cm)
    return MetricsReport(per_class, miou, cm)
