"""2D cell assignment and the flatten/inflate projection operators.

A point cloud is projected onto an axis-aligned plane, the plane is
discretized into cells of size ``resolution x resolution``, and point features
are averaged per cell (flatten) or copied back from cells to points
(inflate). Flatten accumulation always runs in float64.

Active cells: the grid side of every operator is the set O of occupied cells,
one row per cell of ``occupied_cells`` (sorted by point count, most first).
``flatten``, ``flatten_sum`` and ``inflate_backward`` return F x |O| rows and
``inflate`` and ``flatten_backward`` take them; the rows are views of
cell-major |O| x F memory, so the F values of one cell sit together. Cell
sums add each cell's points one by one in ascending point index, starting
from 0.0, the order a sequential scatter-add would use.

Token mixing runs two 3x3 convolutions on the dense zero-padded grid, and
inflate reads the second one only at O. That value reads the first
convolution only on D, the cells within one cell of O (``dilated_cells``,
ascending), and the first convolution reads the grid only at O, which is zero
everywhere else. So the convolutions are evaluated exactly on these rows
through two tap tables: ``d_from_o[r, 3u + v]`` is the O row of the cell at
offset (u - 1, v - 1) from D row r, and ``o_from_d[r, 3u + v]`` the D row of
the cell at that offset from O row r. An empty or out-of-grid neighbour
points at one extra zero row, index |O| or |D| respectively.
``DepthwiseConv3x3`` documents how the tables are read and why its rows equal
the dense grid result bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

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

    Immutable after construction. Grid-side arrays are F x |O| rows, one per
    cell of ``occupied_cells``; ``d_from_o`` and ``o_from_d`` are the tap
    tables of the two convolutions of token mixing (module docstring).
    """

    def __init__(self, cells: CellMap):
        self.plane = cells.plane
        self.cell_index = cells.cell_index
        self.valid = cells.valid
        m = self.plane.n_cells
        self.counts = np.bincount(self.cell_index[self.valid], minlength=m).astype(np.int64)
        self._valid_rows = np.flatnonzero(self.valid)
        self._valid_cells = self.cell_index[self._valid_rows]
        # Rank-major order of the valid rows for the cell sums:
        # occupied cells sorted by count, most points first, so the cells that
        # hold an r-th point form a prefix of ``occupied_cells``; block r of
        # ``_rank_rows`` lists, for each of them, its r-th point in ascending
        # point index.
        occupied = np.flatnonzero(self.counts)
        self.occupied_cells = occupied[np.argsort(-self.counts[occupied], kind="stable")]
        by_cell = np.argsort(self._valid_cells, kind="stable")
        sorted_cells = self._valid_cells[by_cell]
        first = np.cumsum(self.counts) - self.counts
        rank = np.arange(by_cell.size) - first[sorted_cells]
        slot = np.empty(m, dtype=np.int64)
        slot[self.occupied_cells] = np.arange(self.occupied_cells.size)
        self._valid_slots = slot[self._valid_cells]
        self._rank_rows = self._valid_rows[by_cell[np.lexsort((self._valid_slots[by_cell], rank))]]
        self._rank_widths = np.bincount(rank)
        self._build_taps()

    def _build_taps(self):
        """The dilated cells D and the two tap tables, on a grid padded by one cell."""
        h, w = self.plane.grid_shape
        wp = w + 2
        q0, q1 = np.divmod(self.occupied_cells, w)
        occ_pad = (q0 + 1) * wp + (q1 + 1)
        offsets = np.array([(u - 1) * wp + (v - 1) for u in range(3) for v in range(3)], dtype=np.int64)
        around_o = occ_pad[:, None] + offsets
        inside = np.zeros((h + 2, wp), dtype=bool)
        inside[1 : h + 1, 1 : w + 1] = True
        inside = inside.reshape(-1)
        hit = np.zeros_like(inside)
        hit[around_o] = True
        dil_pad = np.flatnonzero(hit & inside)
        n_o, n_d = occ_pad.size, dil_pad.size
        o_row = np.full(inside.size, n_o, dtype=np.intp)
        o_row[occ_pad] = np.arange(n_o)
        d_row = np.full(inside.size, n_d, dtype=np.intp)
        d_row[dil_pad] = np.arange(n_d)
        self.dilated_cells = (dil_pad // wp - 1) * w + (dil_pad % wp - 1)
        self.d_from_o = o_row[dil_pad[:, None] + offsets]
        self.o_from_d = d_row[around_o]

    @property
    def n_points(self) -> int:
        return self.cell_index.shape[0]

    @property
    def n_cells(self) -> int:
        return self.plane.n_cells

    @property
    def n_occupied(self) -> int:
        return self.occupied_cells.size

    # -- mean flatten -------------------------------------------------------

    def flatten(self, features: np.ndarray) -> np.ndarray:
        """Per-cell mean of the valid point features, F x |O|."""
        means = self._cell_sums(features) / self.counts[self.occupied_cells, None]
        return means.astype(features.dtype, copy=False).T

    def flatten_sum(self, features: np.ndarray) -> np.ndarray:
        """Unnormalized flatten (per-cell sum) in float64, the adjoint of inflate."""
        return self._cell_sums(features).T

    def flatten_backward(self, drows: np.ndarray) -> np.ndarray:
        """Gradient of the mean flatten: gather each cell grad, divide by count."""
        drows = self._check_rows(drows)
        out = np.zeros((drows.shape[0], self.n_points), dtype=drows.dtype)
        out[:, self._valid_rows] = drows[:, self._valid_slots] / self.counts[self._valid_cells]
        return out

    # -- inflate ------------------------------------------------------------

    def inflate(self, rows: np.ndarray) -> np.ndarray:
        """Copy each cell's feature to all its points, F x N; padding columns 0."""
        rows = self._check_rows(rows)
        out = np.zeros((rows.shape[0], self.n_points), dtype=rows.dtype)
        out[:, self._valid_rows] = rows[:, self._valid_slots]
        return out

    def inflate_backward(self, dpoints: np.ndarray) -> np.ndarray:
        """Gradient of inflate: scatter-add point grads into their cells, F x |O|."""
        return self._cell_sums(dpoints).astype(dpoints.dtype, copy=False).T

    # ------------------------------------------------------------------------

    def _cell_sums(self, arr: np.ndarray) -> np.ndarray:
        """Float64 sums of the valid columns of F x N ``arr``, one row per cell of ``occupied_cells``.

        Each cell starts from 0.0 and adds its points in ascending point
        index, so the sums equal a sequential scatter-add bit for bit.
        """
        arr = self._check_points(arr)
        rows = np.take(arr.T, self._rank_rows, axis=0)
        sums = np.zeros((self.n_occupied, arr.shape[0]), dtype=np.float64)
        start = 0
        for width in self._rank_widths:
            sums[:width] += rows[start : start + width]
            start += width
        return sums

    def _check_points(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if arr.ndim != 2 or arr.shape[1] != self.n_points:
            raise ValueError(f"expected F x {self.n_points} array, got {arr.shape}")
        return arr

    def _check_rows(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if arr.ndim != 2 or arr.shape[1] != self.n_occupied:
            raise ValueError(f"expected F x {self.n_occupied} array, got {arr.shape}")
        return arr


def build_projection(
    positions: np.ndarray,
    plane: PlaneSpec,
    valid: Optional[np.ndarray] = None,
) -> ProjectionPair:
    return ProjectionPair(cell_indices(positions, plane, valid))


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
