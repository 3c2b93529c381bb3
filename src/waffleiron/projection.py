"""2D cell assignment and the flatten/inflate projection operators.

A point cloud is projected onto an axis-aligned plane, the plane is
discretized into cells of size ``resolution x resolution``, and point features
are averaged per cell (flatten) or copied back from cells to points
(inflate). Two interchangeable kernels implement the pair:

* ``gather``  - index/scatter arithmetic, the default at runtime;
* ``sparse``  - an explicit sparse-dense matrix product (scipy CSR, built on
  first use), kept as an independent oracle and for the adjoint identity
  between the two maps.

Flatten accumulation always runs in float64 over ascending point index so the
two kernels agree to well below the 1e-5 contract.

Active cells: the grid side of every operator is the set O of occupied cells,
one row per cell of ``occupied_cells`` (sorted by point count, most first).
``flatten``, ``flatten_sum`` and ``inflate_backward`` return F x |O| rows and
``inflate`` and ``flatten_backward`` take them; the rows are views of
cell-major |O| x F memory, so the F values of one cell sit together. The
gather kernel adds each cell's points one by one in ascending point index,
starting from 0.0, the order a sequential scatter-add would use.

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

import functools
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

    Immutable after construction (the sparse kernel's matrices are built on
    first use); the ``kernel`` tag picks the default implementation ("gather"
    or "sparse") while both remain callable explicitly for cross-checking.
    Grid-side arrays are F x |O| rows, one per cell of ``occupied_cells``;
    ``d_from_o`` and ``o_from_d`` are the tap tables of the two convolutions
    of token mixing (module docstring).
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

    @functools.cached_property
    def _csr(self) -> tuple[sp.csr_matrix, sp.csr_matrix]:
        """Inflate matrix S (N x |O|, one 1 per valid point) and S^T, built on first sparse use."""
        data = np.ones(self._valid_rows.size, dtype=np.float64)
        s = sp.coo_matrix(
            (data, (self._valid_rows, self._valid_slots)), shape=(self.n_points, self.n_occupied)
        ).tocsr()
        s.sort_indices()
        st = s.T.tocsr()
        st.sort_indices()
        return s, st

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

    def flatten(self, features: np.ndarray, kernel: Optional[str] = None) -> np.ndarray:
        """Per-cell mean of the valid point features, F x |O|."""
        if (kernel or self.kernel) == "sparse":
            return (self.flatten_sum(features, kernel) / self.counts[self.occupied_cells]).astype(features.dtype)
        means = self._cell_sums(features) / self.counts[self.occupied_cells, None]
        return means.astype(features.dtype, copy=False).T

    def flatten_sum(self, features: np.ndarray, kernel: Optional[str] = None) -> np.ndarray:
        """Unnormalized flatten (per-cell sum) in float64, the adjoint of inflate."""
        if (kernel or self.kernel) == "sparse":
            features = self._check_points(features)
            return (self._csr[1] @ features.T.astype(np.float64)).T
        return self._cell_sums(features).T

    def flatten_backward(self, drows: np.ndarray) -> np.ndarray:
        """Gradient of the mean flatten: gather each cell grad, divide by count."""
        drows = self._check_rows(drows)
        out = np.zeros((drows.shape[0], self.n_points), dtype=drows.dtype)
        out[:, self._valid_rows] = drows[:, self._valid_slots] / self.counts[self._valid_cells]
        return out

    # -- inflate ------------------------------------------------------------

    def inflate(self, rows: np.ndarray, kernel: Optional[str] = None) -> np.ndarray:
        """Copy each cell's feature to all its points, F x N; padding columns 0."""
        rows = self._check_rows(rows)
        if (kernel or self.kernel) == "sparse":
            return (self._csr[0] @ rows.T.astype(np.float64)).T.astype(rows.dtype)
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
    kernel: str = "gather",
) -> ProjectionPair:
    return ProjectionPair(cell_indices(positions, plane, valid), kernel=kernel)


def kernel_equivalence(features: np.ndarray, proj: ProjectionPair) -> float:
    """Max absolute deviation between the two kernels over flatten and inflate."""
    rows_g = proj.flatten(features, kernel="gather")
    rows_s = proj.flatten(features, kernel="sparse")
    dev = float(np.abs(rows_g - rows_s).max()) if rows_g.size else 0.0
    inf_g = proj.inflate(rows_g, kernel="gather")
    inf_s = proj.inflate(rows_g, kernel="sparse")
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
    nanoseconds, ready for CSV emission: kernel,op,points,channels,cells,nanos,
    where ``cells`` counts the occupied cells (the grid-side rows).
    """
    rng = np.random.default_rng(seed)
    fov = Fov(np.array([-50.0, -50.0, -3.0]), np.array([50.0, 50.0, 2.0]))
    positions = rng.uniform(fov.min, fov.max - 1e-3, size=(n_points, 3))
    plane = PlaneSpec.from_fov((0, 1), fov, rho)
    proj = build_projection(positions, plane)
    feats = rng.standard_normal((channels, n_points)).astype(np.float32)
    rows = proj.flatten(feats)
    proj.flatten(feats, kernel="sparse")  # builds the CSR matrices outside the timed calls
    out = []
    ops = {
        ("gather", "flatten"): lambda: proj.flatten(feats, kernel="gather"),
        ("sparse", "flatten"): lambda: proj.flatten(feats, kernel="sparse"),
        ("gather", "inflate"): lambda: proj.inflate(rows, kernel="gather"),
        ("sparse", "inflate"): lambda: proj.inflate(rows, kernel="sparse"),
    }
    for (kernel, op), fn in ops.items():
        best = min(_time_ns(fn) for _ in range(repeats))
        out.append(
            {
                "kernel": kernel,
                "op": op,
                "points": n_points,
                "channels": channels,
                "cells": proj.n_occupied,
                "nanos": best,
            }
        )
    return out


def bench_csv(rows: list[dict]) -> str:
    lines = ["kernel,op,points,channels,cells,nanos"]
    for r in rows:
        lines.append(f"{r['kernel']},{r['op']},{r['points']},{r['channels']},{r['cells']},{r['nanos']}")
    return "\n".join(lines) + "\n"


def _time_ns(fn) -> int:
    t0 = time.perf_counter_ns()
    fn()
    return time.perf_counter_ns() - t0
