"""2D cell assignment and the flatten/inflate projection operators.

A point cloud is projected onto an axis-aligned plane, the plane is
discretized into cells of size ``resolution x resolution``, and point features
are averaged per cell (flatten) or copied back from cells to points
(inflate). Flatten accumulation always runs in float64.

Layout: every array is a block of C-contiguous rows, one row of F channels
per point or per cell. Point-side arrays are N x F. Grid-side arrays are
(|O| + 1) x F: one row per occupied cell of ``occupied_cells`` (ascending)
and a last row that is zero, which empty neighbours read.
``flatten`` and ``inflate_backward`` return such blocks and ``inflate`` and
``flatten_backward`` take them.

Cell sums run ``_SUM_COLUMNS`` channels at a time, and within a slice of
channels they stream the point rows in the row blocks of ``nn.row_blocks``. A
CSR matrix of ones has one row per (row block, grid row) pair, listing the
block's points of that cell in ascending index. Per block, the block's rows of
the slice are widened to one contiguous block x 64 float64 buffer, and
scipy's ``csr_matvecs`` adds the block's rows of the matrix times that buffer
into the slice's (|O| + 1) x 64 float64 sums, entry by entry in stored order.
So each cell starts from 0.0 and adds its points in ascending index across
all blocks: the order a sequential scatter-add uses, bit for bit, in every
column, as each column's sums never read another column. ``flatten`` divides
the slice by the counts and maps it, ``inflate_backward`` takes it as it is,
and both write it into their output in the input's dtype, so no
(|O| + 1) x F float64 array is made. ``csr_matvecs`` is a private scipy
name. It is used because it adds into its output: the public product starts
every block from zero, and adding the blocks' partial sums rounds
differently. Since scipy may change a private name without notice,
``test_csr_matvecs_adds_into_its_output_in_stored_order`` in
``tests/test_projection.py`` pins that behaviour.

Token mixing runs two 3x3 convolutions on the dense zero-padded grid, and
inflate reads the second one only at O. That value reads the first
convolution only on D, the cells within one cell of O (``dilated_cells``,
ascending), and the first convolution reads the grid only at O, which is zero
everywhere else. So the convolutions are evaluated exactly on these rows
through two tap tables: ``d_from_o[r, 3u + v]`` is the O row of the cell at
offset (u - 1, v - 1) from D row r, and ``o_from_d[r, 3u + v]`` the D row of
the cell at that offset from O row r. An empty or out-of-grid neighbour
points at the zero row, index |O| or |D| respectively.
``DepthwiseConv3x3`` documents how the tables are read and why its rows equal
the dense grid result bit for bit. Both tables list their rows in ascending
cell order, so the D rows that a band of consecutive O rows reads lie in a
short range of D rows: the token branch computes the first convolution a row
range of ``d_from_o`` at a time, into a window that holds only the D rows the
next band reads, and the second a band's row range of ``o_from_d`` at a time,
re-based to that window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import Fov
from .nn import check_rows, row_blocks

AXIS_NAMES = {(0, 1): "xy", (0, 2): "xz", (1, 2): "yz"}

# Channels per slice of the float64 cell sums: at 3,387 occupied rows a slice takes 1.7 MB, all 256 channels 6.9 MB.
_SUM_COLUMNS = 64

STRATEGIES = ("baseline", "reverse", "parallel", "bev")
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


def cell_indices(points: np.ndarray, plane: PlaneSpec) -> np.ndarray:
    """Flattened 2D cell index of every point on ``plane``.

    ``cell_index[i] = q0 * W + q1`` with ``q = floor((p[axes] - origin) / rho)``.
    Raises if any point quantizes outside the grid; callers must crop to the
    FOV first.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be N x 3")
    origin = np.array(plane.origin, dtype=np.float64)
    quant = np.floor((pts[:, plane.axes] - origin) / plane.resolution).astype(np.int64)
    dims = np.array(plane.grid_shape, dtype=np.int64)
    bad = np.any((quant < 0) | (quant >= dims), axis=1)
    if bad.any():
        raise ValueError(f"point outside grid (first offender: row {int(np.flatnonzero(bad)[0])})")
    return quant[:, 0] * plane.grid_shape[1] + quant[:, 1]


class ProjectionPair:
    """The flatten/inflate operator pair for one cloud on one plane.

    Immutable after construction. Grid-side arrays are (|O| + 1) x F rows, one
    per cell of ``occupied_cells`` and the zero row; ``d_from_o`` and
    ``o_from_d`` are the int32 tap tables of the two convolutions of token
    mixing (module docstring).
    """

    def __init__(self, plane: PlaneSpec, cell_index: np.ndarray):
        self.plane = plane
        self.cell_index = cell_index
        self.counts = np.bincount(self.cell_index, minlength=self.plane.n_cells).astype(np.int64)
        self.occupied_cells = np.flatnonzero(self.counts)
        # the row of every point, and the count of every row (the zero row: 1)
        self._point_slots = (np.cumsum(self.counts > 0) - 1)[self.cell_index]
        self._row_counts = np.append(self.counts[self.occupied_cells], 1)
        from scipy.sparse import csr_array  # a slow import, so only on first projection

        # one row per (row block, grid row), listing the block's points by their index in the block;
        # scipy's COO to CSR conversion keeps each row's points in ascending order and the coordinates' type
        n, m = self.n_points, self.n_occupied + 1
        self._blocks = row_blocks(n)
        starts = np.array([lo for lo, _ in self._blocks])
        block = np.repeat(np.arange(len(self._blocks)), [hi - lo for lo, hi in self._blocks])
        rows, columns = block * m + self._point_slots, np.arange(n) - starts[block]
        index = np.int32 if len(self._blocks) * m <= np.iinfo(np.int32).max else np.int64
        self._sum_rows = csr_array(
            (np.ones(n), (rows.astype(index), columns.astype(index))),
            shape=(len(self._blocks) * m, max(hi - lo for lo, hi in self._blocks)),
        )
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
        # int32 tables: np.take widens each block of indices it reads
        o_row = np.full(inside.size, n_o, dtype=np.int32)
        o_row[occ_pad] = np.arange(n_o)
        d_row = np.full(inside.size, n_d, dtype=np.int32)
        d_row[dil_pad] = np.arange(n_d)
        self.dilated_cells = (dil_pad // wp - 1) * w + (dil_pad % wp - 1)
        self.d_from_o = o_row[dil_pad[:, None] + offsets]
        self.o_from_d = d_row[around_o]

    @property
    def n_points(self) -> int:
        return self.cell_index.shape[0]

    @property
    def n_occupied(self) -> int:
        return self.occupied_cells.size

    # -- mean flatten -------------------------------------------------------

    def flatten(self, features: np.ndarray, affine=None) -> np.ndarray:
        """Per-cell mean of the point rows, (|O| + 1) x F.

        ``affine = (a, s)``, per channel, maps occupied means to a m + s. Each slice of float64 sums is divided and
        mapped in place, then rounded once into the output.
        """

        def means(sums, columns):
            sums /= self._row_counts[:, None]
            if affine is not None:
                occupied = sums[:-1]
                occupied *= affine[0][columns]
                occupied += affine[1][columns]

        return self._cell_sums(features, means)

    def flatten_backward(self, drows: np.ndarray) -> np.ndarray:
        """Gradient of the mean flatten: divide each cell's row by its count, gather it to the cell's points."""
        check_rows(drows, n=self.n_occupied)
        return np.take((drows / self._row_counts[:, None]).astype(drows.dtype, copy=False), self._point_slots, axis=0)

    # -- inflate ------------------------------------------------------------

    def inflate(
        self, rows: np.ndarray, start: int = 0, stop: Optional[int] = None, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Copy each cell's row to its points ``start:stop`` (all N by default), into ``out`` if given."""
        check_rows(rows, n=self.n_occupied)
        # every slot is in range; "clip" spares the copy of ``out`` that the default mode makes
        return np.take(rows, self._point_slots[start:stop], axis=0, out=out, mode="clip")

    def inflate_backward(self, dpoints: np.ndarray) -> np.ndarray:
        """Gradient of inflate: per-cell sums of the point rows, (|O| + 1) x F.

        In float64 these are the unnormalized flatten, the adjoint of inflate.
        """
        return self._cell_sums(dpoints)

    # ------------------------------------------------------------------------

    def _cell_sums(self, arr: np.ndarray, finish=None) -> np.ndarray:
        """Sums of the rows of N x F ``arr`` in its dtype, one row per cell of ``occupied_cells``, then the zero row.

        Each cell starts from 0.0 and adds its points in ascending point
        index in float64, so the sums equal a sequential scatter-add bit for
        bit. They run ``_SUM_COLUMNS`` channels at a time (module docstring):
        ``finish(sums, columns)``, if given, changes a slice's float64 sums in
        place before they are written into the output.
        """
        from scipy.sparse._sparsetools import csr_matvecs  # private: see the module docstring

        arr = self._check_points(arr)
        f = arr.shape[1]
        m = self.n_occupied + 1
        rows = self._sum_rows
        out = np.empty((m, f), dtype=arr.dtype)
        width = min(f, _SUM_COLUMNS)
        # one flat buffer each for the sums and the widened block, viewed at a slice's width
        sums_buf = np.empty(m * width, dtype=np.float64)
        block_buf = np.empty(rows.shape[1] * width, dtype=np.float64)  # as many rows as the longest block
        for lo in range(0, f, _SUM_COLUMNS):
            columns = slice(lo, min(lo + _SUM_COLUMNS, f))
            w = columns.stop - lo
            sums = sums_buf[: m * w].reshape(m, w)
            buf = block_buf[: rows.shape[1] * w].reshape(-1, w)
            sums.fill(0)
            for b, (start, stop) in enumerate(self._blocks):
                np.copyto(buf[: stop - start], arr[start:stop, columns])
                # block b's rows of the CSR: their pointers index the whole ``indices`` and ``data``
                indptr = rows.indptr[b * m : (b + 1) * m + 1]
                csr_matvecs(m, stop - start, w, indptr, rows.indices, rows.data, buf, sums)
            if finish is not None:
                finish(sums, columns)
            out[:, columns] = sums
        return out

    def _check_points(self, arr: np.ndarray) -> np.ndarray:
        arr = np.asarray(arr)
        if arr.ndim != 2 or arr.shape[0] != self.n_points:
            raise ValueError(f"expected {self.n_points} x F array, got {arr.shape}")
        return arr


def build_projection(positions: np.ndarray, plane: PlaneSpec) -> ProjectionPair:
    return ProjectionPair(plane, cell_indices(positions, plane))


def plane_schedule(layer: int, strategy: str) -> tuple[tuple[int, int], ...]:
    """Projection plane(s) used by one layer.

    baseline cycles (x,y) -> (x,z) -> (y,z); reverse runs the cycle backwards;
    bev always uses (x,y); parallel returns all three planes (the caller sums
    the inflated residuals).
    """
    if layer < 0:
        raise ValueError("layer must be >= 0")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "bev":
        return ((0, 1),)
    if strategy == "parallel":
        return ((0, 1), (0, 2), (1, 2))
    return (_CYCLE[strategy][layer % 3],)
