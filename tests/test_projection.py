"""Cell assignment, flatten/inflate kernels and their algebraic identities."""

import numpy as np
import pytest

from waffleiron import nn
from waffleiron.geometry import Fov
from waffleiron.projection import (
    PlaneSpec,
    build_projection,
    cell_indices,
    plane_schedule,
)

from oracles import csr_flatten_sum, kernel_equivalence


@pytest.fixture
def kitti_plane(kitti_fov):
    return PlaneSpec.from_fov((0, 1), kitti_fov, 0.40)


def flatten_oracle(features, cells, m):
    """Accumulate-and-divide reference of N x F point rows, M x F, float64."""
    f = features.shape[1]
    acc = np.zeros((m, f), dtype=np.float64)
    cnt = np.zeros(m, dtype=np.int64)
    for i in range(features.shape[0]):
        acc[cells[i]] += features[i].astype(np.float64)
        cnt[cells[i]] += 1
    out = np.zeros((m, f), dtype=np.float64)
    occ = cnt > 0
    out[occ] = acc[occ] / cnt[occ, None]
    return out


class TestPlaneSpec:
    def test_kitti_grid_shapes(self, kitti_fov):
        assert PlaneSpec.from_fov((0, 1), kitti_fov, 0.40).grid_shape == (250, 250)
        assert PlaneSpec.from_fov((0, 2), kitti_fov, 0.40).grid_shape == (250, 13)
        assert PlaneSpec.from_fov((1, 2), kitti_fov, 0.40).grid_shape == (250, 13)

    def test_bad_resolution(self, kitti_fov):
        with pytest.raises(ValueError):
            PlaneSpec.from_fov((0, 1), kitti_fov, 0.0)


class TestCellIndices:
    def test_fov_corner_is_cell_zero(self, kitti_plane):
        index = cell_indices(np.array([[-50.0, -50.0, 0.0]]), kitti_plane)
        assert index.tolist() == [0]

    def test_second_row_third_column(self, kitti_plane):
        # interior point of cell q = (1, 2): index 1 * 250 + 2
        index = cell_indices(np.array([[-49.5, -49.0, 0.0]]), kitti_plane)
        assert index.tolist() == [252]

    def test_half_open_cell_boundaries(self, kitti_fov):
        # rho = 0.5 makes cell edges exactly representable: a point sitting on
        # an edge belongs to the upper cell
        plane = PlaneSpec.from_fov((0, 1), kitti_fov, 0.5)
        index = cell_indices(np.array([[-49.5, -49.0, 0.0]]), plane)
        q0, q1 = divmod(index[0], plane.grid_shape[1])
        assert (q0, q1) == (1, 2)

    def test_matches_floor_oracle(self, kitti_plane, kitti_fov):
        rng = np.random.default_rng(0)
        pts = rng.uniform(kitti_fov.min, kitti_fov.max - 1e-3, size=(500, 3))
        index = cell_indices(pts, kitti_plane)
        w = kitti_plane.grid_shape[1]
        for i, p in enumerate(pts):
            q0 = int(np.floor((p[0] - (-50.0)) / 0.40))
            q1 = int(np.floor((p[1] - (-50.0)) / 0.40))
            assert index[i] == q0 * w + q1

    def test_outside_point_raises(self, kitti_plane):
        with pytest.raises(ValueError, match="outside grid"):
            cell_indices(np.array([[55.0, 0.0, 0.0]]), kitti_plane)


def small_projection(rng, n=64, f=8, cells=(4, 4)):
    fov = Fov(np.array([0.0, 0.0, 0.0]), np.array([4.0, 4.0, 4.0]))
    plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
    assert plane.grid_shape == cells
    pts = rng.uniform(0, 3.999, size=(n, 3))
    proj = build_projection(pts, plane)
    feats = rng.standard_normal((n, f)).astype(np.float32)
    return proj, feats


def add_at_flatten_sum(proj, features):
    """Per-cell float64 sums, M x F, by sequential scatter-add, as the gather kernel was first written."""
    acc = np.zeros((proj.plane.n_cells, features.shape[1]), dtype=np.float64)
    np.add.at(acc, proj.cell_index, features.astype(np.float64))
    return acc


def add_at_flatten(proj, features):
    denom = np.maximum(proj.counts, 1).astype(np.float64)
    return (add_at_flatten_sum(proj, features) / denom[:, None]).astype(features.dtype)


def add_at_inflate_backward(proj, dpoints):
    return add_at_flatten_sum(proj, dpoints).astype(dpoints.dtype)


def scatter_rows(proj, rows):
    """(|O| + 1) x F rows as the dense M x F grid, zeros at empty cells, after checking that the last row is zero."""
    assert rows.shape[0] == proj.n_occupied + 1 and not rows[-1].any()
    grid = np.zeros((proj.plane.n_cells, rows.shape[1]), dtype=rows.dtype)
    grid[proj.occupied_cells] = rows[:-1]
    return grid


def occupied_rows(proj, grid):
    """The (|O| + 1) x F rows of a dense M x F grid that inflate reads: its occupied cells and the zero row."""
    return np.concatenate([grid[proj.occupied_cells], np.zeros((1, grid.shape[1]), dtype=grid.dtype)])


def bitwise_equal(a, b):
    same = a.dtype == b.dtype and a.shape == b.shape
    return same and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def crowded_projection(rng, n=1500, f=3):
    """More than 1000 points in a handful of cells of a 4 x 4 grid."""
    fov = Fov(np.zeros(3), np.ones(3) * 4)
    plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
    centers = np.array([[0.5, 0.5], [2.5, 1.5], [3.5, 3.5]])
    pts = np.zeros((n, 3))
    pts[:, :2] = centers[rng.integers(0, 3, n)] + rng.uniform(-0.4, 0.4, (n, 2))
    return build_projection(pts, plane), rng.standard_normal((n, f))


class TestScatterAddOracle:
    """The gather kernel reproduces the sequential scatter-add bit for bit."""

    def cases(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            yield small_projection(rng, n=int(rng.integers(20, 200)), f=16)
        yield small_projection(rng, n=1, f=3)
        yield crowded_projection(rng)
        yield crowded_projection(rng, n=1100)
        yield small_projection(rng, n=31, f=6)
        yield small_projection(rng, n=0, f=5)

    def test_flatten_flatten_sum_and_inflate_backward(self):
        crowded = empty = 0
        for proj, feats in self.cases():
            crowded += proj.counts.max() > 300
            empty += proj.n_points == 0
            for dtype in (np.float32, np.float64):
                x = feats.astype(dtype)
                x[::7] = -0.0
                for rows, want in (
                    (proj.flatten(x), add_at_flatten(proj, x)),
                    (proj.inflate_backward(x.astype(np.float64)), add_at_flatten_sum(proj, x)),
                    (proj.inflate_backward(x), add_at_inflate_backward(proj, x)),
                ):
                    # |O| + 1 C-contiguous rows, the last one zero
                    assert rows.shape == (proj.n_occupied + 1, x.shape[1])
                    assert rows.flags.c_contiguous
                    got = scatter_rows(proj, rows)
                    assert bitwise_equal(got, want)
                    assert np.array_equal(got, want)
        assert crowded == 2 and empty == 1


def test_cell_sums_in_row_blocks(monkeypatch):
    """Sums chained over many row blocks equal the sequential scatter-add, crowded cells and one short cloud."""
    monkeypatch.setattr(nn, "_ROW_BLOCK", 16)
    rng = np.random.default_rng(15)
    cases = (crowded_projection(rng, n=300, f=11), small_projection(rng, n=83, f=16), small_projection(rng, n=9, f=5))
    # a crowded cell spans at least three blocks of 16-31 points; the short cloud is one block
    assert cases[0][0].counts.max() > 2 * 31 and cases[2][0].n_points < 16
    for proj, feats in cases:
        # the row pointers and column indices are int32 at every size that fits
        assert proj._sum_rows.indptr.dtype == proj._sum_rows.indices.dtype == np.int32
        # magnitudes from e^-8 to e^8 of either sign, and both zeros
        values = np.exp(rng.uniform(-8, 8, feats.shape)) * np.sign(feats)
        values[::5] = 0.0
        values[2::5] = -0.0
        for dtype in (np.float32, np.float64):
            x = values.astype(dtype)
            assert bitwise_equal(scatter_rows(proj, proj.flatten(x)), add_at_flatten(proj, x))
            assert bitwise_equal(scatter_rows(proj, proj.inflate_backward(x)), add_at_inflate_backward(proj, x))


def test_csr_matvecs_adds_into_its_output_in_stored_order():
    """The private scipy kernel that ``_cell_sums`` chains over row blocks: each output row continues from its
    value and adds the row's entries in stored order."""
    from scipy.sparse import csr_array
    from scipy.sparse._sparsetools import csr_matvecs

    # row 0 stores its columns unsorted (2, 0, 1); rounding at 1e16 makes its sum depend on start and order
    indptr, indices = np.array([0, 3, 4, 4]), np.array([2, 0, 1, 1])
    a = csr_array((np.ones(4), indices, indptr), shape=(3, 3))
    x = np.array([[1e16, 1.0], [1.0, 1e16], [-1e16, -1e16]])
    y0 = np.array([[1.0, 3.0], [5.0, -0.0], [7.0, 7.0]])
    want = y0.copy()
    for i in range(3):
        for k in range(indptr[i], indptr[i + 1]):
            want[i] += x[indices[k]]
    # the public product starts from zero, and ascending order differs too
    assert not np.array_equal(want, y0 + a @ x)
    assert not np.array_equal(want[0], y0[0] + x[0] + x[1] + x[2])
    y = y0.copy()
    csr_matvecs(3, 3, 2, a.indptr, a.indices, a.data, x, y)
    assert bitwise_equal(y, want)


class TestFlattenInflate:
    def test_single_cell_mean_of_identical(self):
        fov = Fov(np.zeros(3), np.ones(3) * 4)
        plane = PlaneSpec.from_fov((0, 1), fov, 4.0)
        pts = np.full((5, 3), 1.0)
        proj = build_projection(pts, plane)
        feats = np.full((5, 3), 2.5, dtype=np.float32)
        grid = scatter_rows(proj, proj.flatten(feats))
        np.testing.assert_allclose(grid[0], 2.5)
        assert (grid[1:] == 0).all()

    def test_two_point_mean(self):
        fov = Fov(np.zeros(3), np.array([8.0, 8.0, 8.0]))
        plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
        # cell index 5 = row 0, column 5
        pts = np.array([[0.5, 5.5, 0.0], [0.5, 5.5, 1.0]])
        proj = build_projection(pts, plane)
        feats = np.array([[1.0], [3.0]], dtype=np.float32)
        grid = scatter_rows(proj, proj.flatten(feats))
        assert grid[5, 0] == 2.0

    def test_flatten_matches_oracle(self):
        rng = np.random.default_rng(1)
        proj, feats = small_projection(rng, n=64, f=8)
        got = scatter_rows(proj, proj.flatten(feats))
        want = flatten_oracle(feats, proj.cell_index, proj.plane.n_cells)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)

    def test_inflate_one_hot(self):
        rng = np.random.default_rng(2)
        proj, _ = small_projection(rng, n=10, f=4)
        j = proj.cell_index[0]
        grid = np.zeros((proj.plane.n_cells, 4), dtype=np.float32)
        grid[j] = [1, 2, 3, 4]
        out = proj.inflate(occupied_rows(proj, grid))
        members = proj.cell_index == j
        np.testing.assert_array_equal(out[members], np.tile([1, 2, 3, 4], (members.sum(), 1)))

    def test_inflate_matches_lookup_oracle_bitwise(self):
        rng = np.random.default_rng(3)
        proj, _ = small_projection(rng, n=35, f=6)
        grid = rng.standard_normal((proj.plane.n_cells, 6)).astype(np.float32)
        out = proj.inflate(occupied_rows(proj, grid))
        assert out.flags.c_contiguous
        for i in range(proj.n_points):
            assert (out[i] == grid[proj.cell_index[i]]).all()

    def test_flatten_of_inflate_is_identity_on_occupied_cells(self):
        rng = np.random.default_rng(4)
        proj, _ = small_projection(rng, n=80, f=5)
        grid = rng.standard_normal((proj.plane.n_cells, 5)).astype(np.float32)
        back = scatter_rows(proj, proj.flatten(proj.inflate(occupied_rows(proj, grid))))
        occ = proj.counts > 0
        np.testing.assert_allclose(back[occ], grid[occ], atol=1e-6)

    def test_flatten_invariant_to_point_permutation(self):
        rng = np.random.default_rng(5)
        fov = Fov(np.zeros(3), np.ones(3) * 4)
        plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
        pts = rng.uniform(0, 3.999, size=(100, 3))
        feats = rng.standard_normal((100, 7)).astype(np.float32)
        proj_a = build_projection(pts, plane)
        a = scatter_rows(proj_a, proj_a.flatten(feats))
        perm = rng.permutation(100)
        proj_b = build_projection(pts[perm], plane)
        b = scatter_rows(proj_b, proj_b.flatten(feats[perm]))
        np.testing.assert_array_equal(a, b)

    def test_rows_follow_ascending_occupied_cells(self):
        rng = np.random.default_rng(8)
        proj, feats = small_projection(rng, n=110, f=4)
        cells = proj.occupied_cells
        assert (np.diff(cells) > 0).all()
        assert np.array_equal(cells, np.flatnonzero(proj.counts))
        rows = proj.flatten(feats.astype(np.float64))
        for r, cell in enumerate(cells):
            members = proj.cell_index == cell
            np.testing.assert_allclose(rows[r], feats[members].mean(axis=0, dtype=np.float64), rtol=1e-12)
        assert not rows[-1].any()

    def test_flatten_backward_divides_each_point_by_its_count(self):
        rng = np.random.default_rng(9)
        proj, _ = small_projection(rng, n=54, f=5)
        for dtype in (np.float32, np.float64):
            grid = rng.standard_normal((proj.plane.n_cells, 5)).astype(dtype)
            count = proj.counts[proj.cell_index]
            want = (grid[proj.cell_index] / count[:, None]).astype(dtype)
            assert bitwise_equal(proj.flatten_backward(occupied_rows(proj, grid)), want)

    def test_every_point_in_exactly_one_cell(self):
        rng = np.random.default_rng(6)
        proj, _ = small_projection(rng, n=56, f=2)
        assert proj.counts.sum() == proj.n_points

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(7)
        proj, feats = small_projection(rng)
        with pytest.raises(ValueError):
            proj.flatten(feats[:-1])
        with pytest.raises(ValueError):
            proj.inflate(np.zeros((proj.n_occupied, 2)))
        with pytest.raises(ValueError):
            proj.flatten_backward(np.zeros((proj.n_occupied + 2, 2)))
        last_row_set = np.zeros((proj.n_occupied + 1, 2))
        last_row_set[-1] = 1.0
        with pytest.raises(ValueError, match="zero row"):
            proj.inflate(last_row_set)
        with pytest.raises(ValueError, match="zero row"):
            proj.flatten_backward(last_row_set)


def neighbour_oracle(proj, cell, t):
    """Cell at tap t = 3u + v of ``cell``, i.e. offset (u - 1, v - 1), or None past the grid edge."""
    h, w = proj.plane.grid_shape
    i, j = divmod(int(cell), w)
    i, j = i + t // 3 - 1, j + t % 3 - 1
    return i * w + j if 0 <= i < h and 0 <= j < w else None


def edge_projection(cells, shape=(5, 6), points_per_cell=2):
    """Points in the given (row, column) cells of a rho-1 grid."""
    fov = Fov(np.zeros(3), np.array([shape[0], shape[1], 1.0]))
    plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
    assert plane.grid_shape == shape
    pts = [(i + 0.25 + 0.5 * r / points_per_cell, j + 0.5, 0.5) for i, j in cells for r in range(points_per_cell)]
    return build_projection(np.array(pts, dtype=np.float64).reshape(-1, 3), plane)


EDGE_CELLS = [(0, 0), (0, 5), (4, 0), (4, 5), (0, 2), (2, 0), (4, 3), (3, 5), (2, 3)]


class TestTapTables:
    """Occupied cells O, dilated cells D and the two tap tables against a cell-by-cell oracle."""

    def cases(self):
        rng = np.random.default_rng(14)
        yield edge_projection(EDGE_CELLS)
        yield edge_projection([(2, 3)])
        yield edge_projection([(0, 0)])
        yield edge_projection([(4, 5)], shape=(5, 6), points_per_cell=4)
        yield edge_projection([(0, 0)], shape=(1, 1))
        for _ in range(3):
            yield small_projection(rng, n=int(rng.integers(1, 12)), f=1)[0]
        yield small_projection(rng, n=0, f=1)[0]

    def test_tables_match_neighbourhood_oracle(self):
        lone = empty = 0
        for proj in self.cases():
            occupied = proj.occupied_cells
            assert sorted(occupied.tolist()) == np.flatnonzero(proj.counts).tolist()
            dilated = {
                c for o in occupied.tolist() for t in range(9) if (c := neighbour_oracle(proj, o, t)) is not None
            }
            assert proj.dilated_cells.tolist() == sorted(dilated)
            o_row = {c: r for r, c in enumerate(occupied.tolist())}
            d_row = {c: r for r, c in enumerate(proj.dilated_cells.tolist())}
            assert proj.d_from_o.shape == (len(d_row), 9) and proj.o_from_d.shape == (len(o_row), 9)
            for table, cells, rows in ((proj.d_from_o, proj.dilated_cells, o_row), (proj.o_from_d, occupied, d_row)):
                for r, cell in enumerate(cells.tolist()):
                    for t in range(9):
                        want = rows.get(neighbour_oracle(proj, cell, t), len(rows))
                        assert table[r, t] == want
            lone += occupied.size == 1
            empty += occupied.size == 0
        assert lone >= 4 and empty == 1

    def test_empty_cloud_has_no_rows(self):
        proj, feats = small_projection(np.random.default_rng(15), n=0, f=5)
        assert proj.n_occupied == 0 and proj.dilated_cells.size == 0
        assert proj.d_from_o.shape == (0, 9) and proj.o_from_d.shape == (0, 9)
        rows = proj.flatten(feats)
        assert np.array_equal(rows, np.zeros((1, 5), dtype=np.float32))
        assert csr_flatten_sum(proj, feats).shape == (0, 5)
        assert np.array_equal(proj.inflate(rows), np.zeros((0, 5), dtype=np.float32))
        assert np.array_equal(proj.flatten_backward(rows), np.zeros((0, 5), dtype=np.float32))
        assert np.array_equal(proj.inflate_backward(feats), np.zeros((1, 5), dtype=np.float32))


class TestKernelEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            proj, feats = small_projection(rng, n=int(rng.integers(20, 200)), f=16)
            assert kernel_equivalence(feats, proj) <= 1e-5

    def test_single_point(self):
        rng = np.random.default_rng(9)
        proj, feats = small_projection(rng, n=1, f=3)
        assert kernel_equivalence(feats, proj) == 0.0

    def test_large_instance(self):
        rng = np.random.default_rng(10)
        fov = Fov(np.array([-50.0, -50.0, -3.0]), np.array([50.0, 50.0, 2.0]))
        plane = PlaneSpec.from_fov((0, 1), fov, 0.40)
        pts = rng.uniform(fov.min, fov.max - 1e-3, size=(20000, 3))
        proj = build_projection(pts, plane)
        feats = rng.standard_normal((20000, 256)).astype(np.float32)
        assert kernel_equivalence(feats, proj) <= 1e-5


class TestAdjoint:
    def test_sum_flatten_is_adjoint_of_inflate(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            proj, feats = small_projection(rng, n=int(rng.integers(7, 147)), f=12)
            grid = rng.standard_normal((proj.plane.n_cells, 12))
            rows = occupied_rows(proj, grid)
            lhs = float((proj.inflate_backward(feats.astype(np.float64)) * rows).sum())
            rhs = float((feats * proj.inflate(rows)).sum())
            assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))


class TestPlaneSchedule:
    def test_baseline_layer_zero_is_xy(self):
        assert plane_schedule(0, "baseline") == ((0, 1),)

    def test_baseline_layer_47(self):
        assert plane_schedule(47, "baseline") == ((1, 2),)

    def test_bev_everywhere(self):
        for layer in (0, 1, 13, 47):
            assert plane_schedule(layer, "bev") == ((0, 1),)

    def test_reverse(self):
        assert plane_schedule(0, "reverse") == ((1, 2),)
        assert plane_schedule(2, "reverse") == ((0, 1),)

    def test_parallel_returns_all_planes(self):
        assert plane_schedule(5, "parallel") == ((0, 1), (0, 2), (1, 2))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            plane_schedule(0, "diagonal")

    def test_l48_baseline_sequence(self):
        seq = [plane_schedule(i, "baseline")[0] for i in range(48)]
        assert seq == [(0, 1), (0, 2), (1, 2)] * 16


def test_backward_operators_match_adjoint_definition():
    rng = np.random.default_rng(12)
    proj, feats = small_projection(rng, n=46, f=4)
    dgrid = occupied_rows(proj, rng.standard_normal((proj.plane.n_cells, 4)))
    # <flatten(F), dG> == <F, flatten_backward(dG)> (linear map adjoint)
    lhs = float((proj.flatten(feats.astype(np.float64)) * dgrid).sum())
    rhs = float((feats * proj.flatten_backward(dgrid)).sum())
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
    dpts = rng.standard_normal((proj.n_points, 4))
    lhs = float((proj.inflate(dgrid) * dpts).sum())
    rhs = float((dgrid * proj.inflate_backward(dpts)).sum())
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
