"""Training-time scene and instance augmentations.

Every point motion is one float64 :func:`motion` matrix: z-rotation, then
x/y flips, then scale. A scene moves once; intensity rides along with its
points. Instance cutmix pastes stored rare-class objects onto drivable
surfaces; polarmix swaps an azimuth sector between two scans and
rotate-copies rare-class points from the second scan into the first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .geometry import PointCloud

# Default class ids follow the usual 19-class driving remap: the cutmix
# donors are the rare movable things, the landing surfaces are drivable.
CUTMIX_CLASSES = (1, 2, 4, 5, 6)  # bicycle, motorcycle, other-vehicle, person, bicyclist
GROUND_CLASSES = (8, 9, 10)  # road, parking, sidewalk

# global scale factors of the scene motion and of each pasted cutmix instance
SCALE_RANGE = (0.95, 1.05)
# azimuth widths of the sector polarmix swaps
SECTOR_WIDTH_RANGE = (np.pi / 4, 3 * np.pi / 4)

_TWO_PI = 2.0 * np.pi


@dataclass
class AugmentConfig:
    """Switches for the augmentation pipeline."""

    rotate: bool = True
    flip: bool = True
    scale: bool = True
    cutmix: bool = False
    cutmix_max_per_class: int = 40
    polarmix: bool = False

    def __post_init__(self):
        if self.cutmix_max_per_class < 0:
            raise ValueError("cutmix_max_per_class must be >= 0")


@dataclass
class Instance:
    """One stored object: centroid-relative points plus intensity."""

    positions: np.ndarray  # (n, 3) relative to the instance centroid
    intensity: np.ndarray  # (n,)
    class_id: int


@dataclass
class InstanceBank:
    """Per-class pool of extracted instances."""

    classes: tuple[int, ...]
    instances: dict[int, list[Instance]] = field(default_factory=dict)

    def __post_init__(self):
        for c in self.classes:
            self.instances.setdefault(int(c), [])

    @property
    def total(self) -> int:
        return sum(len(v) for v in self.instances.values())


def motion(theta: float = 0.0, flip: tuple[bool, bool] = (False, False), scale: float = 1.0) -> np.ndarray:
    """``scale * F * R(theta)`` as one float64 3 x 3 matrix ``M``, applied to positions as ``p @ M.T``.

    ``R`` rotates about z and ``F`` flips x and/or y; scaling the rows of ``R`` keeps a flip exact.
    """
    c, s = np.cos(theta), np.sin(theta)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], dtype=np.float64)
    sign = np.array([-1.0 if flip[0] else 1.0, -1.0 if flip[1] else 1.0, 1.0])
    return rotation * (sign * scale)[:, None]


def scene_motion(rng: np.random.Generator, rotate: bool = True, flip: bool = True, scale: bool = True) -> np.ndarray:
    """Draw one scene :func:`motion` from ``rng``, drawing only for the switches that are on.

    In order: an angle uniform in [0, 2 pi), an x and a y flip with probability 1/2 each, a scale in ``SCALE_RANGE``.
    """
    theta = float(rng.uniform(0.0, _TWO_PI)) if rotate else 0.0
    flips = (rng.random() < 0.5, rng.random() < 0.5) if flip else (False, False)
    factor = float(rng.uniform(*SCALE_RANGE)) if scale else 1.0
    return motion(theta, flips, factor)


def build_instance_bank(
    scans: Iterable[tuple[PointCloud, np.ndarray]],
    classes: Sequence[int],
) -> InstanceBank:
    """Group labeled points by (class, instance id) across scans.

    Each group is stored with centroid-relative coordinates. Classes without
    any instance simply stay empty. ``scans`` is read once, so a generator
    keeps one loaded scan in memory at a time.
    """
    bank = InstanceBank(classes=tuple(int(c) for c in classes))
    for pc, instance_ids in scans:
        if pc.labels is None:
            raise ValueError("instance extraction needs labeled scans")
        instance_ids = np.asarray(instance_ids).reshape(-1)
        for c in bank.classes:
            rows = np.flatnonzero(pc.labels == c)
            if rows.size == 0:
                continue
            for inst in np.unique(instance_ids[rows]):
                members = rows[instance_ids[rows] == inst]
                pos = pc.positions[members].astype(np.float64)
                centroid = pos.mean(axis=0)
                bank.instances[c].append(
                    Instance(
                        positions=(pos - centroid).astype(np.float32),
                        intensity=pc.intensity[members],
                        class_id=c,
                    )
                )
    return bank


def _append_points(pc: PointCloud, positions: np.ndarray, intensity: np.ndarray, labels: np.ndarray) -> PointCloud:
    return PointCloud(
        positions=np.vstack([pc.positions, positions.astype(np.float32)]),
        intensity=np.concatenate([pc.intensity, intensity]),
        labels=np.concatenate([pc.labels, labels.astype(np.int32)]),
    )


def instance_cutmix(
    pc: PointCloud,
    bank: InstanceBank,
    config: AugmentConfig,
    rng: np.random.Generator,
) -> PointCloud:
    """Paste up to ``cutmix_max_per_class`` stored instances per class.

    Every pasted instance gets its own random z-rotation, a flip along x or
    y, and a random rescale, then lands with its xy-centroid on a uniformly
    chosen ground point and its lowest point at that point's height. Scenes
    without any ground point are returned untouched.
    """
    if bank.total == 0 or config.cutmix_max_per_class == 0:
        return pc
    if pc.labels is None:
        raise ValueError("instance_cutmix needs a labeled scene")
    ground_rows = np.flatnonzero(np.isin(pc.labels, GROUND_CLASSES))
    if ground_rows.size == 0:
        return pc
    new_pos = []
    new_inten = []
    new_labels = []
    for c in bank.classes:
        pool = bank.instances[c]
        if not pool:
            continue
        n_take = min(config.cutmix_max_per_class, len(pool))
        chosen = rng.permutation(len(pool))[:n_take]
        for j in chosen:
            inst = pool[int(j)]
            theta = float(rng.uniform(0.0, _TWO_PI))
            axis = int(rng.integers(2))
            matrix = motion(theta, (axis == 0, axis == 1), float(rng.uniform(*SCALE_RANGE)))
            pos = inst.positions.astype(np.float64) @ matrix.T
            target = pc.positions[int(rng.choice(ground_rows))].astype(np.float64)
            offset = np.array([target[0], target[1], target[2] - pos[:, 2].min()])
            pos = pos + offset
            new_pos.append(pos)
            new_inten.append(inst.intensity)
            new_labels.append(np.full(len(pos), inst.class_id, dtype=np.int32))
    if not new_pos:
        return pc
    return _append_points(
        pc,
        np.vstack(new_pos),
        np.concatenate(new_inten),
        np.concatenate(new_labels),
    )


def _azimuth(positions: np.ndarray) -> np.ndarray:
    return np.mod(np.arctan2(positions[:, 1], positions[:, 0]), _TWO_PI)


def polarmix(
    scene_a: PointCloud,
    scene_b: PointCloud,
    classes: Sequence[int],
    rng: np.random.Generator,
    paste_angles: tuple[float, ...] = (_TWO_PI / 3, 2 * _TWO_PI / 3),
) -> PointCloud:
    """Mix two labeled scenes.

    Scene level: a random azimuth sector of ``scene_a`` is replaced by
    ``scene_b``'s points in that sector. Instance level: points of the listed
    classes in ``scene_b`` are copied into the result as-is and rotated by
    each angle in ``paste_angles``.
    """
    if scene_a.labels is None or scene_b.labels is None:
        raise ValueError("polarmix needs labeled scenes")
    start = float(rng.uniform(0.0, _TWO_PI))
    width = float(rng.uniform(*SECTOR_WIDTH_RANGE))
    keep_a = np.mod(_azimuth(scene_a.positions) - start, _TWO_PI) >= width
    take_b = np.mod(_azimuth(scene_b.positions) - start, _TWO_PI) < width

    pos = [scene_a.positions[keep_a], scene_b.positions[take_b]]
    inten = [scene_a.intensity[keep_a], scene_b.intensity[take_b]]
    labels = [scene_a.labels[keep_a], scene_b.labels[take_b]]

    inst_rows = np.flatnonzero(np.isin(scene_b.labels, np.asarray(classes)))
    if inst_rows.size:
        src = scene_b.positions[inst_rows].astype(np.float64)
        angles = (0.0,) + tuple(paste_angles)
        for theta in angles:
            pos.append((src @ motion(theta).T).astype(np.float32))
            inten.append(scene_b.intensity[inst_rows])
            labels.append(scene_b.labels[inst_rows])

    return PointCloud(
        positions=np.vstack(pos),
        intensity=np.concatenate(inten),
        labels=np.concatenate(labels),
    )


def apply_augmentations(
    pc: PointCloud,
    config: AugmentConfig,
    rng: np.random.Generator,
    bank: Optional[InstanceBank] = None,
    partner: Optional[PointCloud] = None,
) -> PointCloud:
    """The full training-time pipeline for one scene.

    Polarmix (when enabled and a partner scene is available) and instance
    cutmix run before the scene motion so the pasted points follow it too;
    with rotate, flip and scale all off the scene is not moved at all.
    """
    if config.polarmix and partner is not None:
        classes = bank.classes if bank is not None else CUTMIX_CLASSES
        pc = polarmix(pc, partner, classes, rng)
    if config.cutmix and bank is not None:
        pc = instance_cutmix(pc, bank, config, rng)
    if config.rotate or config.flip or config.scale:
        pc = pc.moved(scene_motion(rng, config.rotate, config.flip, config.scale))
    return pc
