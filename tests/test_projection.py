"""Cell assignment, flatten/inflate kernels and their algebraic identities."""

import numpy as np
import pytest

from waffleiron.geometry import Fov
from waffleiron.projection import (
    PlaneSpec,
    build_projection,
    cell_indices,
    plane_schedule,
    planes_used,
)

from oracles import csr_flatten_sum, kernel_equivalence


@pytest.fixture
def kitti_plane(kitti_fov):
    return PlaneSpec.from_fov((0, 1), kitti_fov, 0.40)


def flatten_oracle(features, cells, valid, m):
    """Accumulate-and-divide reference, float64."""
    f = features.shape[0]
    acc = np.zeros((f, m), dtype=np.float64)
    cnt = np.zeros(m, dtype=np.int64)
    for i in range(features.shape[1]):
        if valid[i]:
            acc[:, cells[i]] += features[:, i].astype(np.float64)
            cnt[cells[i]] += 1
    out = np.zeros((f, m), dtype=np.float64)
    occ = cnt > 0
    out[:, occ] = acc[:, occ] / cnt[occ]
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
        cm = cell_indices(np.array([[-50.0, -50.0, 0.0]]), kitti_plane)
        assert cm.cell_index.tolist() == [0]

    def test_second_row_third_column(self, kitti_plane):
        # interior point of cell q = (1, 2): index 1 * 250 + 2
        cm = cell_indices(np.array([[-49.5, -49.0, 0.0]]), kitti_plane)
        assert cm.cell_index.tolist() == [252]

    def test_half_open_cell_boundaries(self, kitti_fov):
        # rho = 0.5 makes cell edges exactly representable: a point sitting on
        # an edge belongs to the upper cell
        plane = PlaneSpec.from_fov((0, 1), kitti_fov, 0.5)
        cm = cell_indices(np.array([[-49.5, -49.0, 0.0]]), plane)
        q0, q1 = divmod(cm.cell_index[0], plane.grid_shape[1])
        assert (q0, q1) == (1, 2)

    def test_matches_floor_oracle(self, kitti_plane, kitti_fov):
        rng = np.random.default_rng(0)
        pts = rng.uniform(kitti_fov.min, kitti_fov.max - 1e-3, size=(500, 3))
        cm = cell_indices(pts, kitti_plane)
        w = kitti_plane.grid_shape[1]
        for i, p in enumerate(pts):
            q0 = int(np.floor((p[0] - (-50.0)) / 0.40))
            q1 = int(np.floor((p[1] - (-50.0)) / 0.40))
            assert cm.cell_index[i] == q0 * w + q1

    def test_outside_point_raises(self, kitti_plane):
        with pytest.raises(ValueError, match="outside grid"):
            cell_indices(np.array([[55.0, 0.0, 0.0]]), kitti_plane)

    def test_padding_parked_in_cell_zero(self, kitti_plane):
        pts = np.array([[55.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        cm = cell_indices(pts, kitti_plane, valid=np.array([False, True]))
        assert cm.cell_index[0] == 0
        assert not cm.valid[0]


def small_projection(rng, n=64, f=8, cells=(4, 4), n_invalid=0):
    fov = Fov(np.array([0.0, 0.0, 0.0]), np.array([4.0, 4.0, 4.0]))
    plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
    assert plane.grid_shape == cells
    pts = rng.uniform(0, 3.999, size=(n, 3))
    valid = np.ones(n, dtype=bool)
    if n_invalid:
        valid[-n_invalid:] = False
        pts[-n_invalid:] = 0.0
    proj = build_projection(pts, plane, valid)
    feats = rng.standard_normal((f, n)).astype(np.float32)
    return proj, feats


def add_at_flatten_sum(proj, features):
    """Per-cell float64 sums by sequential scatter-add, as the gather kernel was first written."""
    rows = np.flatnonzero(proj.valid)
    acc = np.zeros((proj.n_cells, features.shape[0]), dtype=np.float64)
    np.add.at(acc, proj.cell_index[rows], features.T[rows].astype(np.float64))
    return acc.T


def add_at_flatten(proj, features):
    denom = np.maximum(proj.counts, 1).astype(np.float64)
    return (add_at_flatten_sum(proj, features) / denom[None, :]).astype(features.dtype)


def add_at_inflate_backward(proj, dpoints):
    return add_at_flatten_sum(proj, dpoints).astype(dpoints.dtype)


def scatter_rows(proj, rows):
    """F x |O| rows as the dense F x M grid (a view of cell-major memory), zeros at empty cells."""
    grid = np.zeros((proj.n_cells, rows.shape[0]), dtype=rows.dtype)
    grid[proj.occupied_cells] = rows.T
    return grid.T


def occupied_columns(proj, grid):
    """The F x |O| rows of a dense F x M grid that inflate reads."""
    return grid[:, proj.occupied_cells]


def bitwise_equal(a, b):
    same = a.dtype == b.dtype and a.shape == b.shape
    return same and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def crowded_projection(rng, n=1500, f=3, n_invalid=0):
    """More than 1000 points in a handful of cells of a 4 x 4 grid."""
    fov = Fov(np.zeros(3), np.ones(3) * 4)
    plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
    centers = np.array([[0.5, 0.5], [2.5, 1.5], [3.5, 3.5]])
    pts = np.zeros((n, 3))
    pts[:, :2] = centers[rng.integers(0, 3, n)] + rng.uniform(-0.4, 0.4, (n, 2))
    valid = np.ones(n, dtype=bool)
    valid[rng.permutation(n)[:n_invalid]] = False
    return build_projection(pts, plane, valid), rng.standard_normal((f, n))


class TestScatterAddOracle:
    """The gather kernel reproduces the sequential scatter-add bit for bit."""

    def cases(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            yield small_projection(rng, n=int(rng.integers(20, 200)), f=16)
        yield small_projection(rng, n=1, f=3)
        yield crowded_projection(rng)
        yield crowded_projection(rng, n_invalid=400)
        yield small_projection(rng, n=40, f=6, n_invalid=9)
        yield small_projection(rng, n=12, f=5, n_invalid=12)

    def test_flatten_flatten_sum_and_inflate_backward(self):
        crowded = empty = 0
        for proj, feats in self.cases():
            crowded += proj.counts.max() > 300
            empty += not proj.valid.any()
            for dtype in (np.float32, np.float64):
                x = feats.astype(dtype)
                x[:, ::7] = -0.0
                for rows, want in (
                    (proj.flatten(x), add_at_flatten(proj, x)),
                    (proj.flatten_sum(x), add_at_flatten_sum(proj, x)),
                    (proj.inflate_backward(x), add_at_inflate_backward(proj, x)),
                ):
                    # F x |O| view of cell-major memory
                    assert rows.shape == (x.shape[0], proj.n_occupied)
                    assert rows.T.flags.c_contiguous
                    got = scatter_rows(proj, rows)
                    assert bitwise_equal(got, want)
                    assert np.array_equal(got, want)
        assert crowded == 2 and empty == 1


class TestFlattenInflate:
    def test_single_cell_mean_of_identical(self):
        fov = Fov(np.zeros(3), np.ones(3) * 4)
        plane = PlaneSpec.from_fov((0, 1), fov, 4.0)
        pts = np.full((5, 3), 1.0)
        proj = build_projection(pts, plane)
        feats = np.full((3, 5), 2.5, dtype=np.float32)
        grid = scatter_rows(proj, proj.flatten(feats))
        np.testing.assert_allclose(grid[:, 0], 2.5)
        assert (grid[:, 1:] == 0).all()

    def test_two_point_mean(self):
        fov = Fov(np.zeros(3), np.array([8.0, 8.0, 8.0]))
        plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
        # cell index 5 = row 0, column 5
        pts = np.array([[0.5, 5.5, 0.0], [0.5, 5.5, 1.0]])
        proj = build_projection(pts, plane)
        feats = np.array([[1.0, 3.0]], dtype=np.float32)
        grid = scatter_rows(proj, proj.flatten(feats))
        assert grid[0, 5] == 2.0

    def test_flatten_matches_oracle(self):
        rng = np.random.default_rng(1)
        proj, feats = small_projection(rng, n=64, f=8)
        got = scatter_rows(proj, proj.flatten(feats))
        want = flatten_oracle(feats, proj.cell_index, proj.valid, proj.n_cells)
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-7)

    def test_inflate_one_hot(self):
        rng = np.random.default_rng(2)
        proj, _ = small_projection(rng, n=10, f=4)
        j = proj.cell_index[0]
        grid = np.zeros((4, proj.n_cells), dtype=np.float32)
        grid[:, j] = [1, 2, 3, 4]
        out = proj.inflate(occupied_columns(proj, grid))
        members = (proj.cell_index == j) & proj.valid
        np.testing.assert_array_equal(out[:, members], np.tile([[1], [2], [3], [4]], members.sum()))

    def test_inflate_matches_lookup_oracle_bitwise(self):
        rng = np.random.default_rng(3)
        proj, _ = small_projection(rng, n=40, f=6, n_invalid=5)
        grid = rng.standard_normal((6, proj.n_cells)).astype(np.float32)
        out = proj.inflate(occupied_columns(proj, grid))
        for i in range(proj.n_points):
            if proj.valid[i]:
                assert (out[:, i] == grid[:, proj.cell_index[i]]).all()
            else:
                assert (out[:, i] == 0).all()

    def test_flatten_of_inflate_is_identity_on_occupied_cells(self):
        rng = np.random.default_rng(4)
        proj, _ = small_projection(rng, n=80, f=5)
        grid = rng.standard_normal((5, proj.n_cells)).astype(np.float32)
        back = scatter_rows(proj, proj.flatten(proj.inflate(occupied_columns(proj, grid))))
        occ = proj.counts > 0
        np.testing.assert_allclose(back[:, occ], grid[:, occ], atol=1e-6)

    def test_flatten_invariant_to_point_permutation(self):
        rng = np.random.default_rng(5)
        fov = Fov(np.zeros(3), np.ones(3) * 4)
        plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
        pts = rng.uniform(0, 3.999, size=(100, 3))
        feats = rng.standard_normal((7, 100)).astype(np.float32)
        proj_a = build_projection(pts, plane)
        a = scatter_rows(proj_a, proj_a.flatten(feats))
        perm = rng.permutation(100)
        proj_b = build_projection(pts[perm], plane)
        b = scatter_rows(proj_b, proj_b.flatten(feats[:, perm]))
        np.testing.assert_array_equal(a, b)

    def test_every_valid_point_in_exactly_one_cell(self):
        rng = np.random.default_rng(6)
        proj, _ = small_projection(rng, n=64, f=2, n_invalid=8)
        assert proj.counts.sum() == proj.valid.sum()

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(7)
        proj, feats = small_projection(rng)
        with pytest.raises(ValueError):
            proj.flatten(feats[:, :-1])
        with pytest.raises(ValueError):
            proj.inflate(np.zeros((2, proj.n_occupied + 1)))
        with pytest.raises(ValueError):
            proj.flatten_backward(np.zeros((2, proj.n_occupied + 1)))


def neighbour_oracle(proj, cell, t):
    """Cell at tap t = 3u + v of ``cell``, i.e. offset (u - 1, v - 1), or None past the grid edge."""
    h, w = proj.plane.grid_shape
    i, j = divmod(int(cell), w)
    i, j = i + t // 3 - 1, j + t % 3 - 1
    return i * w + j if 0 <= i < h and 0 <= j < w else None


def edge_projection(cells, shape=(5, 6), points_per_cell=2, n_invalid=0):
    """Points in the given (row, column) cells of a rho-1 grid, plus padding rows."""
    fov = Fov(np.zeros(3), np.array([shape[0], shape[1], 1.0]))
    plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
    assert plane.grid_shape == shape
    pts = [(i + 0.25 + 0.5 * r / points_per_cell, j + 0.5, 0.5) for i, j in cells for r in range(points_per_cell)]
    pts = np.array(pts + [(0.0, 0.0, 0.0)] * n_invalid, dtype=np.float64).reshape(-1, 3)
    valid = np.arange(len(pts)) < len(pts) - n_invalid
    return build_projection(pts, plane, valid)


EDGE_CELLS = [(0, 0), (0, 5), (4, 0), (4, 5), (0, 2), (2, 0), (4, 3), (3, 5), (2, 3)]


class TestTapTables:
    """Occupied cells O, dilated cells D and the two tap tables against a cell-by-cell oracle."""

    def cases(self):
        rng = np.random.default_rng(14)
        yield edge_projection(EDGE_CELLS, n_invalid=3)
        yield edge_projection([(2, 3)])
        yield edge_projection([(0, 0)])
        yield edge_projection([(4, 5)], shape=(5, 6), points_per_cell=4)
        yield edge_projection([(0, 0)], shape=(1, 1))
        for _ in range(3):
            yield small_projection(rng, n=int(rng.integers(1, 12)), f=1)[0]
        yield small_projection(rng, n=12, f=1, n_invalid=12)[0]

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

    def test_all_padding_cloud_has_no_rows(self):
        proj, feats = small_projection(np.random.default_rng(15), n=12, f=5, n_invalid=12)
        assert proj.n_occupied == 0 and proj.dilated_cells.size == 0
        assert proj.d_from_o.shape == (0, 9) and proj.o_from_d.shape == (0, 9)
        rows = proj.flatten(feats)
        assert rows.shape == (5, 0)
        assert csr_flatten_sum(proj, feats).shape == (5, 0)
        assert np.array_equal(proj.inflate(rows), np.zeros((5, 12), dtype=np.float32))
        assert np.array_equal(proj.flatten_backward(rows), np.zeros((5, 12), dtype=np.float32))
        assert proj.inflate_backward(feats).shape == (5, 0)


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
        feats = rng.standard_normal((256, 20000)).astype(np.float32)
        assert kernel_equivalence(feats, proj) <= 1e-5


class TestAdjoint:
    def test_sum_flatten_is_adjoint_of_inflate(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            proj, feats = small_projection(rng, n=int(rng.integers(10, 150)), f=12, n_invalid=3)
            grid = rng.standard_normal((12, proj.n_cells))
            rows = occupied_columns(proj, grid)
            lhs = float((proj.flatten_sum(feats) * rows).sum())
            rhs = float((feats * proj.inflate(rows.astype(np.float64))).sum())
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

    def test_planes_used(self):
        assert planes_used("bev", 48) == ((0, 1),)
        assert planes_used("baseline", 48) == ((0, 1), (0, 2), (1, 2))


def test_backward_operators_match_adjoint_definition():
    rng = np.random.default_rng(12)
    proj, feats = small_projection(rng, n=50, f=4, n_invalid=4)
    dgrid = occupied_columns(proj, rng.standard_normal((4, proj.n_cells)))
    # <flatten(F), dG> == <F, flatten_backward(dG)> (linear map adjoint)
    lhs = float((proj.flatten(feats.astype(np.float64)) * dgrid).sum())
    rhs = float((feats * proj.flatten_backward(dgrid)).sum())
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
    dpts = rng.standard_normal((4, proj.n_points))
    lhs = float((proj.inflate(dgrid) * dpts).sum())
    rhs = float((dgrid * proj.inflate_backward(dpts)).sum())
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))
