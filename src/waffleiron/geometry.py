"""Point-cloud container and geometric preprocessing.

Holds the :class:`PointCloud` record plus the operations applied before the
network ever sees a scene: voxel downsampling, field-of-view cropping,
fixed-size sampling/padding, and exact k-nearest-neighbor and nearest-point
search.

Conventions used throughout the package:

* all spatial ranges are half-open, ``min <= p < max``, matching the floor
  quantization used for 2D cell assignment;
* every nearest-neighbor tie breaks toward the smaller point index;
* padding rows (``valid == False``) never act as neighbor candidates and are
  ignored by all statistics downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# Label id reserved for "do not score this point" (unmapped classes, padding).
IGNORE_LABEL = 255

# Low-level per-point feature layouts: column order for each mode.
FEATURE_DIMS = {"3dim": 3, "5dim": 5}


def point_features(positions: np.ndarray, intensity: np.ndarray, mode: str) -> np.ndarray:
    """Build the low-level feature matrix for one cloud.

    ``3dim`` is (intensity, z, range); ``5dim`` is (intensity, x, y, z, range)
    with range the Euclidean norm of the position. Augmentations call this
    again after moving points so features always agree with positions.
    """
    if mode not in FEATURE_DIMS:
        raise ValueError(f"unknown feature mode {mode!r}")
    pos = np.asarray(positions, dtype=np.float32)
    inten = np.asarray(intensity, dtype=np.float32).reshape(-1)
    rng = np.linalg.norm(pos.astype(np.float64), axis=1).astype(np.float32)
    if mode == "3dim":
        return np.stack([inten, pos[:, 2], rng], axis=1)
    return np.concatenate([inten[:, None], pos, rng[:, None]], axis=1)


def feature_mode_for(n_columns: int) -> str:
    for mode, dim in FEATURE_DIMS.items():
        if dim == n_columns:
            return mode
    raise ValueError(f"no feature mode with {n_columns} columns")


@dataclass
class Fov:
    """Axis-aligned field of view, half-open box [min, max) in meters."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        self.min = np.asarray(self.min, dtype=np.float64).reshape(3)
        self.max = np.asarray(self.max, dtype=np.float64).reshape(3)
        if not np.all(self.min < self.max):
            raise ValueError("fov min must be strictly below max on every axis")

    def contains(self, positions: np.ndarray) -> np.ndarray:
        """Boolean mask of rows inside the box (half-open on the upper side)."""
        p = np.asarray(positions, dtype=np.float64)
        return np.all((p >= self.min) & (p < self.max), axis=1)


@dataclass
class PointCloud:
    """N points with positions, low-level features, optional labels and a
    validity mask.

    ``positions`` is N x 3 float32, ``features`` N x C float32 with C in
    {3, 5}, ``labels`` an optional N vector of class ids (including
    ``IGNORE_LABEL``), and ``valid`` flags real points versus zero padding.
    """

    positions: np.ndarray
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    valid: Optional[np.ndarray] = None

    def __post_init__(self):
        self.positions = np.ascontiguousarray(self.positions, dtype=np.float32).reshape(-1, 3)
        n = self.positions.shape[0]
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError("features must be N x C aligned with positions")
        if self.features.shape[1] not in FEATURE_DIMS.values():
            raise ValueError(f"unsupported feature width {self.features.shape[1]}")
        if self.labels is not None:
            self.labels = np.ascontiguousarray(self.labels, dtype=np.int32).reshape(-1)
            if self.labels.shape[0] != n:
                raise ValueError("labels must align with positions")
        if self.valid is None:
            self.valid = np.ones(n, dtype=bool)
        else:
            self.valid = np.ascontiguousarray(self.valid, dtype=bool).reshape(-1)
            if self.valid.shape[0] != n:
                raise ValueError("valid mask must align with positions")
        if self.valid.any():
            rows = self.valid
            if not (np.isfinite(self.positions[rows]).all() and np.isfinite(self.features[rows]).all()):
                raise ValueError("non-finite coordinates or features on valid points")

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    @property
    def n_valid(self) -> int:
        return int(self.valid.sum())

    @property
    def feature_mode(self) -> str:
        return feature_mode_for(self.features.shape[1])

    def select(self, index: np.ndarray) -> "PointCloud":
        """New cloud containing the rows picked by ``index`` (order kept)."""
        return PointCloud(
            positions=self.positions[index],
            features=self.features[index],
            labels=None if self.labels is None else self.labels[index],
            valid=self.valid[index],
        )

    def with_positions(self, positions: np.ndarray) -> "PointCloud":
        """Replace positions and recompute the coordinate-derived features.

        Intensity (column 0) is carried over untouched; x/y/z/range columns
        are rebuilt so the feature block stays consistent with the geometry.
        """
        feats = point_features(positions, self.features[:, 0], self.feature_mode)
        return replace(self, positions=np.asarray(positions, dtype=np.float32), features=feats)


def voxel_downsample(pc: PointCloud, voxel_size: float) -> tuple[PointCloud, np.ndarray]:
    """Keep one point per occupied cubic voxel.

    The survivor of each voxel is the first point in input order. Returns the
    downsampled cloud and the kept row indices (ascending).
    """
    if voxel_size <= 0:
        raise ValueError("voxel_size must be positive")
    if pc.n_points == 0:
        return pc, np.zeros(0, dtype=np.int64)
    if not pc.valid.all():
        raise ValueError("voxel_downsample expects an unpadded cloud")
    quant = np.floor(pc.positions.astype(np.float64) / voxel_size).astype(np.int64)
    _, first = np.unique(quant, axis=0, return_index=True)
    kept = np.sort(first)
    return pc.select(kept), kept


def crop_fov(pc: PointCloud, fov: Fov) -> tuple[PointCloud, np.ndarray]:
    """Split a cloud at the FOV boundary.

    Returns the inside cloud (rows with ``min <= p < max`` on all axes, input
    order preserved) and the indices of the complementary outside rows.
    """
    mask = fov.contains(pc.positions)
    inside = pc.select(np.flatnonzero(mask))
    outside = np.flatnonzero(~mask)
    return inside, outside


def sample_fixed(pc: PointCloud, n_target: int, rng: np.random.Generator) -> PointCloud:
    """Force a cloud to exactly ``n_target`` rows.

    Oversized clouds keep a random anchor point plus its n_target - 1 nearest
    points; undersized clouds are zero padded with ``valid = False`` rows
    labeled ``IGNORE_LABEL``.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    n = pc.n_points
    if n == n_target:
        return pc
    if n > n_target:
        anchor = int(rng.integers(n))
        d2 = _sq_dist_to(pc.positions, pc.positions[anchor])
        d2[anchor] = -1.0  # anchor always first
        order = np.argsort(d2, kind="stable")
        kept = np.sort(order[:n_target])
        return pc.select(kept)
    pad = n_target - n
    positions = np.vstack([pc.positions, np.zeros((pad, 3), dtype=np.float32)])
    features = np.vstack([pc.features, np.zeros((pad, pc.features.shape[1]), dtype=np.float32)])
    labels = None
    if pc.labels is not None:
        labels = np.concatenate([pc.labels, np.full(pad, IGNORE_LABEL, dtype=np.int32)])
    valid = np.concatenate([pc.valid, np.zeros(pad, dtype=bool)])
    return PointCloud(positions, features, labels, valid)


def _sq_dist_to(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    diff = points.astype(np.float64) - query.astype(np.float64)
    return np.einsum("ij,ij->i", diff, diff)


def knn(pc: PointCloud, k: int) -> np.ndarray:
    """Exact k nearest valid neighbors of every row, self excluded.

    Returns an N x k integer array. Ties break toward the smaller point
    index; when fewer than k candidates exist the farthest found neighbor is
    repeated (a lone point lists itself).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cand = np.flatnonzero(pc.valid)
    if cand.size == 0:
        raise ValueError("empty cloud")
    pts = pc.positions.astype(np.float64)
    own = np.full(pc.n_points, -1)
    own[cand] = np.arange(cand.size)
    return cand[_ranked_neighbors(pts[cand], pts, k, own)]


def nearest_indices(src_points: np.ndarray, dst_points: np.ndarray) -> np.ndarray:
    """Index of the nearest src point for every dst point (tie: lower index)."""
    src = np.asarray(src_points, dtype=np.float64)
    dst = np.asarray(dst_points, dtype=np.float64)
    if src.size == 0:
        raise ValueError("empty source point set")
    return _ranked_neighbors(src, dst, 1, np.full(dst.shape[0], -1))[:, 0]


def _ranked_neighbors(points: np.ndarray, queries: np.ndarray, k: int, own: np.ndarray) -> np.ndarray:
    """First k rows of ``points`` for every query, by (squared distance, index).

    ``own[i]`` is the row of ``points`` that query i is (-1 for none); it is
    never listed, except by a query with no other candidate, which lists it k
    times. Fewer than k candidates repeat the farthest one.

    The tree only proposes the k + 2 closest rows; their exact distances are
    recomputed and ranked here. That ranking is final unless the k-th and
    (k+1)-th distances are not strictly apart: then a tie may reach outside
    the proposals (or the query itself may be crowded out by duplicates), and
    the row is ranked again from every point within the k-th distance.
    """
    from scipy.spatial import cKDTree  # a slow import (it pulls in scipy.linalg), so only on first search

    def rank(query, cand, own):
        """``cand`` sorted by (squared float64 distance, index), ``own`` last at infinity."""
        diff = points[cand] - query[..., None, :]
        d2 = np.einsum("...j,...j->...", diff, diff)
        d2[cand == np.expand_dims(own, -1)] = np.inf
        order = np.lexsort((cand, d2), axis=-1)
        return np.take_along_axis(cand, order, axis=-1), np.take_along_axis(d2, order, axis=-1)

    tree = cKDTree(points)
    idx, d2 = rank(queries, tree.query(queries, k=range(1, min(k + 2, points.shape[0]) + 1))[1], own)
    if idx.shape[1] == k + 2:
        kth, nxt = d2[:, k - 1], d2[:, k]
        redo = np.flatnonzero(~(nxt - kth > 1e-12 * nxt))
        # the slack keeps points at exactly the k-th distance inside the tree's rounding
        balls = tree.query_ball_point(queries[redo], np.sqrt(kth[redo]) * (1 + 1e-9))
        for i, ball in zip(redo, balls):
            idx[i, :k] = rank(queries[i], np.asarray(ball), own[i])[0][:k]
    avail = np.isfinite(d2).sum(axis=1)
    out = np.take_along_axis(idx, np.minimum(np.arange(k), np.maximum(avail - 1, 0)[:, None]), axis=1)
    out[avail == 0] = own[avail == 0, None]
    return out
