"""2D cell assignment and the flatten/inflate projection operators.

A point cloud is projected onto an axis-aligned plane, the plane is
discretized into cells of size ``resolution x resolution``, and point features
are averaged per cell (flatten) or copied back from cells to points
(inflate). Two interchangeable kernels implement the pair:

* ``gather``  - index/scatter arithmetic, the default at runtime;
* ``sparse``  - an explicit sparse-dense matrix product (scipy CSR), kept as
  an independent oracle and for the adjoint identity between the two maps.

Flatten accumulation always runs in float64 over ascending point index so the
two kernels agree to well below the 1e-5 contract.

Layout contract: grids are F x M arrays (F x H x W once reshaped) that are
views of cell-major M x F memory, so the F values of one cell sit together.
``flatten``, ``flatten_sum`` and ``inflate_backward`` return them in that
layout; ``DepthwiseConv3x3`` keeps the memory order of its input, so the
whole grid stage of token mixing runs in it. The gather kernel adds each
cell's points one by one in ascending point index, starting from 0.0, the
order a sequential scatter-add would use.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .geometry import Fov

AXIS_NAMES = {(0, 1): "xy", (0, 2): "xz", (1, 2): "yz"}

_STRATEGIES = ("baseline", "reverse", "parallel", "bev")
_CYCLE = {
    "baseline": ((0, 1), (0, 2), (1, 2)),
    "reverse": ((1, 2), (0, 2), (0, 1)),
}


@dataclass(frozen=True)
class PlaneSpec:
    """One projection plane: axis pair, grid shape, resolution and origin."""

    axes: tuple[int, int]
    grid_shape: tuple[int, int]
    resolution: float
    origin: tuple[float, float]

    @classmethod
    def from_fov(cls, axes: tuple[int, int], fov: Fov, resolution: float) -> "PlaneSpec":
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        axes = (int(axes[0]), int(axes[1]))
        if axes not in AXIS_NAMES:
            raise ValueError(f"unsupported plane axes {axes}")
        shape = tuple(
            int(math.ceil((fov.max[a] - fov.min[a]) / resolution)) for a in axes
        )
        origin = tuple(float(fov.min[a]) for a in axes)
        return cls(axes=axes, grid_shape=shape, resolution=float(resolution), origin=origin)

    @property
    def n_cells(self) -> int:
        return self.grid_shape[0] * self.grid_shape[1]

    @property
    def name(self) -> str:
        return AXIS_NAMES[self.axes]


@dataclass
class CellMap:
    """Flattened 2D cell index of every point on one plane.

    ``cell_index[i] = q0 * W + q1`` with ``q = floor((p[axes] - origin) / rho)``.
    Padding points are parked in cell 0 and flagged invalid.
    """

    cell_index: np.ndarray
    plane: PlaneSpec
    valid: np.ndarray


def cell_indices(points: np.ndarray, plane: PlaneSpec, valid: Optional[np.ndarray] = None) -> CellMap:
    """Assign every point to its flattened 2D cell on ``plane``.

    Raises if any valid point quantizes outside the grid; callers must crop
    to the FOV first.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be N x 3")
    n = pts.shape[0]
    if valid is None:
        valid = np.ones(n, dtype=bool)
    else:
        valid = np.asarray(valid, dtype=bool).reshape(-1)
        if valid.shape[0] != n:
            raise ValueError("valid mask must align with points")
    origin = np.array(plane.origin, dtype=np.float64)
    quant = np.floor((pts[:, plane.axes] - origin) / plane.resolution).astype(np.int64)
    dims = np.array(plane.grid_shape, dtype=np.int64)
    bad = valid & np.any((quant < 0) | (quant >= dims), axis=1)
    if bad.any():
        raise ValueError(f"point outside grid (first offender: row {int(np.flatnonzero(bad)[0])})")
    index = quant[:, 0] * plane.grid_shape[1] + quant[:, 1]
    index[~valid] = 0
    return CellMap(cell_index=index, plane=plane, valid=valid)


class ProjectionPair:
    """The flatten/inflate operator pair for one cloud on one plane.

    Immutable after construction; the ``kernel`` tag picks the default
    implementation ("gather" or "sparse") while both remain callable
    explicitly for cross-checking.
    """

    def __init__(self, cells: CellMap, kernel: str = "gather"):
        if kernel not in ("gather", "sparse"):
            raise ValueError(f"unknown kernel {kernel!r}")
        self.kernel = kernel
        self.plane = cells.plane
        self.cell_index = cells.cell_index
        self.valid = cells.valid
        m = self.plane.n_cells
        self.counts = np.bincount(self.cell_index[self.valid], minlength=m).astype(np.int64)
        self._valid_rows = np.flatnonzero(self.valid)
        self._valid_cells = self.cell_index[self._valid_rows]
        # Rank-major order of the valid rows for the gather-kernel cell sums:
        # occupied cells sorted by count, most points first, so the cells that
        # hold an r-th point form a prefix of ``_cells``; block r of
        # ``_rank_rows`` lists, for each of them, its r-th point in ascending
        # point index.
        occupied = np.flatnonzero(self.counts)
        self._cells = occupied[np.argsort(-self.counts[occupied], kind="stable")]
        by_cell = np.argsort(self._valid_cells, kind="stable")
        sorted_cells = self._valid_cells[by_cell]
        first = np.cumsum(self.counts) - self.counts
        rank = np.arange(by_cell.size) - first[sorted_cells]
        slot = np.empty(m, dtype=np.int64)
        slot[self._cells] = np.arange(self._cells.size)
        self._rank_rows = self._valid_rows[by_cell[np.lexsort((slot[sorted_cells], rank))]]
        self._rank_widths = np.bincount(rank)
        # inflate matrix S (N x M) with a single 1 per valid point; flatten
        # uses S^T followed by the per-cell mean
        n = self.cell_index.shape[0]
        data = np.ones(self._valid_rows.size, dtype=np.float64)
        s = sp.coo_matrix(
            (data, (self._valid_rows, self._valid_cells)), shape=(n, m)
        ).tocsr()
        s.sort_indices()
        self._s = s
        self._st = s.T.tocsr()
        self._st.sort_indices()

    @property
    def n_points(self) -> int:
        return self.cell_index.shape[0]

    @property
    def n_cells(self) -> int:
        return self.plane.n_cells

    # -- mean flatten -------------------------------------------------------

    def flatten(self, features: np.ndarray, kernel: Optional[str] = None) -> np.ndarray:
        """Per-cell mean of the valid point features, F x M. Empty cells are 0."""
        if (kernel or self.kernel) == "sparse":
            denom = np.maximum(self.counts, 1).astype(np.float64)
            return (self.flatten_sum(features, kernel) / denom[None, :]).astype(features.dtype)
        means = self._cell_sums(features) / self.counts[self._cells, None]
        return self._grid(means, features.dtype)

    def flatten_sum(self, features: np.ndarray, kernel: Optional[str] = None) -> np.ndarray:
        """Unnormalized flatten (per-cell sum) in float64, the adjoint of inflate."""
        if (kernel or self.kernel) == "sparse":
            features = self._check_points(features)
            return (self._st @ features.T.astype(np.float64)).T
        return self._grid(self._cell_sums(features), np.float64)

    def flatten_backward(self, dgrid: np.ndarray) -> np.ndarray:
        """Gradient of the mean flatten: gather each cell grad, divide by count."""
        dgrid = self._check_cells(dgrid)
        denom = np.maximum(self.counts, 1)
        out = np.zeros((dgrid.shape[0], self.n_points), dtype=dgrid.dtype)
        out[:, self._valid_rows] = dgrid[:, self._valid_cells] / denom[self._valid_cells]
        return out

    # -- inflate ------------------------------------------------------------

    def inflate(self, grid: np.ndarray, kernel: Optional[str] = None) -> np.ndarray:
        """Copy each cell's feature to all its points, F x N; padding columns 0."""
        grid = self._check_cells(grid)
        if (kernel or self.kernel) == "sparse":
            return (self._s @ grid.T.astype(np.float64)).T.astype(grid.dtype)
        out = np.zeros((grid.shape[0], self.n_points), dtype=grid.dtype)
        out[:, self._valid_rows] = grid[:, self._valid_cells]
        return out

    def inflate_backward(self, dpoints: np.ndarray) -> np.ndarray:
        """Gradient of inflate: scatter-add point grads into their cells."""
        return self._grid(self._cell_sums(dpoints), dpoints.dtype)

    # ------------------------------------------------------------------------

    def _cell_sums(self, arr: np.ndarray) -> np.ndarray:
        """Float64 sums of the valid columns of F x N ``arr``, one row per cell of ``_cells``.

        Each cell starts from 0.0 and adds its points in ascending point
        index, so the sums equal a sequential scatter-add bit for bit.
        """
        arr = self._check_points(arr)
        rows = np.take(arr.T, self._rank_rows, axis=0)
        sums = np.zeros((self._cells.size, arr.shape[0]), dtype=np.float64)
        start = 0
        for width in self._rank_widths:
            sums[:width] += rows[start : start + width]
            start += width
        return sums

    def _grid(self, per_cell: np.ndarray, dtype) -> np.ndarray:
        """F x M view of cell-major memory: ``per_cell`` rows at ``_cells``, zeros elsewhere."""
        out = np.zeros((self.n_cells, per_cell.shape[1]), dtype=dtype)
        out[self._cells] = per_cell
        return out.T

    def _check_points(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if arr.ndim != 2 or arr.shape[1] != self.n_points:
            raise ValueError(f"expected F x {self.n_points} array, got {arr.shape}")
        return arr

    def _check_cells(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if arr.ndim != 2 or arr.shape[1] != self.n_cells:
            raise ValueError(f"expected F x {self.n_cells} array, got {arr.shape}")
        return arr


def build_projection(
    positions: np.ndarray,
    plane: PlaneSpec,
    valid: Optional[np.ndarray] = None,
    kernel: str = "gather",
) -> ProjectionPair:
    return ProjectionPair(cell_indices(positions, plane, valid), kernel=kernel)


def kernel_equivalence(features: np.ndarray, proj: ProjectionPair) -> float:
    """Max absolute deviation between the two kernels over flatten and inflate."""
    flat_g = proj.flatten(features, kernel="gather")
    flat_s = proj.flatten(features, kernel="sparse")
    dev = float(np.abs(flat_g - flat_s).max()) if flat_g.size else 0.0
    grid = flat_g
    inf_g = proj.inflate(grid, kernel="gather")
    inf_s = proj.inflate(grid, kernel="sparse")
    if inf_g.size:
        dev = max(dev, float(np.abs(inf_g - inf_s).max()))
    return dev


def plane_schedule(layer: int, strategy: str) -> tuple[tuple[int, int], ...]:
    """Projection plane(s) used by one layer.

    baseline cycles (x,y) -> (x,z) -> (y,z); reverse runs the cycle backwards;
    bev always uses (x,y); parallel returns all three planes (the caller sums
    the inflated residuals).
    """
    if layer < 0:
        raise ValueError("layer must be >= 0")
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "bev":
        return ((0, 1),)
    if strategy == "parallel":
        return ((0, 1), (0, 2), (1, 2))
    return (_CYCLE[strategy][layer % 3],)


def planes_used(strategy: str, depth: int) -> tuple[tuple[int, int], ...]:
    """Distinct plane axes touched by a network of the given depth."""
    seen: list[tuple[int, int]] = []
    for layer in range(depth):
        for axes in plane_schedule(layer, strategy):
            if axes not in seen:
                seen.append(axes)
    return tuple(seen)


def bench_kernels(
    n_points: int, channels: int, rho: float, seed: int = 0, repeats: int = 3
) -> list[dict]:
    """Time both kernels on a random in-FOV cloud.

    Returns one row per (kernel, op) with the best-of-``repeats`` wall time in
    nanoseconds, ready for CSV emission: kernel,op,points,channels,cells,nanos.
    """
    rng = np.random.default_rng(seed)
    fov = Fov(np.array([-50.0, -50.0, -3.0]), np.array([50.0, 50.0, 2.0]))
    positions = rng.uniform(fov.min, fov.max - 1e-3, size=(n_points, 3))
    plane = PlaneSpec.from_fov((0, 1), fov, rho)
    proj = build_projection(positions, plane)
    feats = rng.standard_normal((channels, n_points)).astype(np.float32)
    grid = proj.flatten(feats)
    rows = []
    ops = {
        ("gather", "flatten"): lambda: proj.flatten(feats, kernel="gather"),
        ("sparse", "flatten"): lambda: proj.flatten(feats, kernel="sparse"),
        ("gather", "inflate"): lambda: proj.inflate(grid, kernel="gather"),
        ("sparse", "inflate"): lambda: proj.inflate(grid, kernel="sparse"),
    }
    for (kernel, op), fn in ops.items():
        best = min(_time_ns(fn) for _ in range(repeats))
        rows.append(
            {
                "kernel": kernel,
                "op": op,
                "points": n_points,
                "channels": channels,
                "cells": plane.n_cells,
                "nanos": best,
            }
        )
    return rows


def bench_csv(rows: list[dict]) -> str:
    lines = ["kernel,op,points,channels,cells,nanos"]
    for r in rows:
        lines.append(f"{r['kernel']},{r['op']},{r['points']},{r['channels']},{r['cells']},{r['nanos']}")
    return "\n".join(lines) + "\n"


def _time_ns(fn) -> int:
    t0 = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - t0
