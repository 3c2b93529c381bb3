"""Geometric preprocessing against brute-force oracles."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import waffleiron
from waffleiron.geometry import (
    IGNORE_LABEL,
    PointCloud,
    crop_fov,
    knn,
    nearest_indices,
    point_features,
    sample_fixed,
    voxel_downsample,
)

from conftest import random_cloud
from oracles import nn_propagate_labels


def cloud_from_positions(positions, labels=None, valid=None, mode="5dim"):
    positions = np.asarray(positions, dtype=np.float32)
    feats = point_features(positions, np.zeros(len(positions)), mode)
    return PointCloud(positions, feats, labels, valid)


def knn_oracle(positions, valid, k):
    """Exhaustive all-pairs search with (distance, index) ordering."""
    pts = np.asarray(positions, dtype=np.float64)
    valid = np.asarray(valid, dtype=bool)
    n = len(pts)
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    d2[:, ~valid] = np.inf
    np.fill_diagonal(d2, np.inf)
    ranked = np.lexsort((np.broadcast_to(np.arange(n), (n, n)), d2), axis=1)
    n_cands = valid.sum() - valid
    # short rows repeat their last candidate; a row without any lists itself
    out = np.take_along_axis(ranked, np.minimum(np.arange(k), np.maximum(n_cands - 1, 0)[:, None]), axis=1)
    out[n_cands == 0] = np.flatnonzero(n_cands == 0)[:, None]
    return out


def lattice(side):
    """Integer grid: every point has many neighbors at exactly equal distance."""
    axis = np.arange(side, dtype=np.float32)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def duplicate_sites(rng, n_sites, copies):
    """``copies`` exact copies of each random site, interleaved in index order."""
    sites = rng.uniform(-3, 3, size=(n_sites, 3)).astype(np.float32)
    return np.repeat(sites, copies, axis=0)[rng.permutation(n_sites * copies)]


class TestVoxelDownsample:
    def test_same_voxel_keeps_first(self):
        pc = cloud_from_positions([[0.00, 0, 0], [0.05, 0, 0]])
        down, kept = voxel_downsample(pc, 0.10)
        assert down.n_points == 1
        assert kept.tolist() == [0]

    def test_distinct_voxels(self):
        pc = cloud_from_positions([[0, 0, 0], [0.15, 0, 0]])
        down, kept = voxel_downsample(pc, 0.10)
        assert down.n_points == 2

    def test_matches_hash_oracle(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 1, size=(1000, 3)).astype(np.float32)
        pc = cloud_from_positions(positions)
        down, kept = voxel_downsample(pc, 0.10)
        triples = {
            tuple(np.floor(p.astype(np.float64) / 0.10).astype(int)) for p in positions
        }
        assert down.n_points == len(triples)
        # the survivor of each voxel is the first point in input order
        seen = {}
        for i, p in enumerate(positions):
            key = tuple(np.floor(p.astype(np.float64) / 0.10).astype(int))
            seen.setdefault(key, i)
        assert sorted(seen.values()) == kept.tolist()

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        pc = cloud_from_positions(rng.uniform(-5, 5, size=(500, 3)))
        once, _ = voxel_downsample(pc, 0.25)
        twice, kept = voxel_downsample(once, 0.25)
        assert twice.n_points == once.n_points
        np.testing.assert_array_equal(once.positions, twice.positions)

    def test_empty_input(self):
        pc = PointCloud(np.zeros((0, 3)), np.zeros((0, 5)))
        down, kept = voxel_downsample(pc, 0.1)
        assert down.n_points == 0 and kept.size == 0

    def test_bad_voxel_size(self):
        pc = cloud_from_positions([[0, 0, 0]])
        with pytest.raises(ValueError):
            voxel_downsample(pc, 0.0)


class TestCropFov:
    def test_origin_inside_kitti_range(self, kitti_fov):
        pc = cloud_from_positions([[0, 0, 0]])
        inside, outside = crop_fov(pc, kitti_fov)
        assert inside.n_points == 1 and outside.size == 0

    def test_upper_boundary_is_outside(self, kitti_fov):
        pc = cloud_from_positions([[0, 0, 2.0]])
        inside, outside = crop_fov(pc, kitti_fov)
        assert inside.n_points == 0
        assert outside.tolist() == [0]

    def test_partition_matches_predicate_scan(self, kitti_fov):
        rng = np.random.default_rng(2)
        positions = rng.uniform(-60, 60, size=(100, 3)).astype(np.float32)
        pc = cloud_from_positions(positions)
        inside, outside = crop_fov(pc, kitti_fov)
        expect_in = []
        expect_out = []
        for i, p in enumerate(positions):
            ok = all(kitti_fov.min[d] <= p[d] < kitti_fov.max[d] for d in range(3))
            (expect_in if ok else expect_out).append(i)
        np.testing.assert_array_equal(inside.positions, positions[expect_in])
        assert outside.tolist() == expect_out
        assert inside.n_points + outside.size == pc.n_points


class TestSampleFixed:
    def test_identity_when_sized(self, small_fov):
        rng = np.random.default_rng(3)
        pc = random_cloud(rng, 200, small_fov)
        out = sample_fixed(pc, 200, rng)
        np.testing.assert_array_equal(out.positions, pc.positions)

    def test_padding(self):
        pc = cloud_from_positions(np.eye(3, 3) @ np.diag([1.0, 2.0, 3.0]))
        pc = PointCloud(pc.positions, pc.features, np.array([0, 1, 2]), None)
        out = sample_fixed(pc, 8, np.random.default_rng(0))
        assert out.n_points == 8
        assert out.valid.sum() == 3
        assert (out.labels[3:] == IGNORE_LABEL).all()
        assert (out.positions[3:] == 0).all()
        assert (out.features[3:] == 0).all()

    def test_anchor_neighborhood_matches_sort_oracle(self):
        positions = np.stack([np.arange(50, dtype=np.float32), np.zeros(50), np.zeros(50)], axis=1)
        pc = cloud_from_positions(positions)
        rng = np.random.default_rng(11)
        anchor = int(np.random.default_rng(11).integers(50))
        out = sample_fixed(pc, 10, rng)
        d = np.abs(np.arange(50) - anchor)
        expect = set(np.lexsort((np.arange(50), d))[:10])
        got = {int(np.flatnonzero((positions == p).all(axis=1))[0]) for p in out.positions}
        assert got == expect
        assert out.n_points == 10


class TestKnn:
    def test_three_points_on_a_line(self):
        pc = cloud_from_positions([[0, 0, 0], [1, 0, 0], [3, 0, 0]])
        assert knn(pc, 1).ravel().tolist() == [1, 0, 1]

    def test_duplicate_points_tie_to_lower_index(self):
        pc = cloud_from_positions([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        nbr = knn(pc, 1)
        assert nbr.ravel().tolist() == [1, 0, 0]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        # the lattice ties the 16th and 17th distances; 20 copies of a site
        # outnumber the k + 2 = 18 closest rows, so those alone may omit the query
        for positions in (rng.uniform(-5, 5, size=(200, 3)), lattice(8), duplicate_sites(rng, 10, 20)):
            pc = cloud_from_positions(positions)
            nbr = knn(pc, 16)
            np.testing.assert_array_equal(nbr, knn_oracle(pc.positions, pc.valid, 16))

    def test_grid_path_matches_oracle(self):
        rng = np.random.default_rng(5)
        for positions in (rng.uniform(-20, 20, size=(2500, 3)), lattice(14), duplicate_sites(rng, 250, 10)):
            pc = cloud_from_positions(positions)
            nbr = knn(pc, 5)
            np.testing.assert_array_equal(nbr, knn_oracle(pc.positions, pc.valid, 5))

    def test_padding_excluded_and_queried(self):
        rng = np.random.default_rng(6)
        positions = rng.uniform(-2, 2, size=(40, 3)).astype(np.float32)
        valid = np.ones(40, dtype=bool)
        valid[35:] = False
        positions[35:] = 0.0
        # padding also sits on a lattice site and among duplicates of the origin
        tied = np.vstack([lattice(4), np.zeros((8, 3), dtype=np.float32)])
        tied_valid = np.arange(len(tied)) < len(tied) - 3
        for positions, valid in ((positions, valid), (tied, tied_valid)):
            pc = cloud_from_positions(positions, valid=valid)
            nbr = knn(pc, 4)
            assert np.isin(nbr, np.flatnonzero(valid)).all()
            np.testing.assert_array_equal(nbr, knn_oracle(positions, valid, 4))

    def test_fill_when_too_few_candidates(self):
        pc = cloud_from_positions([[0, 0, 0], [1, 0, 0]])
        nbr = knn(pc, 3)
        assert nbr[0].tolist() == [1, 1, 1]
        assert nbr[1].tolist() == [0, 0, 0]

    def test_single_point_lists_itself(self):
        pc = cloud_from_positions([[0, 0, 0]])
        assert knn(pc, 2).ravel().tolist() == [0, 0]

    def test_empty_cloud_raises(self):
        pc = cloud_from_positions(np.zeros((3, 3)), valid=np.zeros(3, dtype=bool))
        with pytest.raises(ValueError, match="empty cloud"):
            knn(pc, 1)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(7)
        positions = rng.uniform(-5, 5, size=(80, 3)).astype(np.float32)
        pc = cloud_from_positions(positions)
        nbr = knn(pc, 6)
        perm = rng.permutation(80)
        inv = np.argsort(perm)
        nbr_p = knn(cloud_from_positions(positions[perm]), 6)
        # relabeled neighbors of the permuted cloud must match the originals
        np.testing.assert_array_equal(perm[nbr_p[inv]], nbr)


class TestNnPropagate:
    def test_identity(self):
        rng = np.random.default_rng(8)
        pc = cloud_from_positions(rng.uniform(-3, 3, size=(30, 3)))
        labels = rng.integers(0, 5, 30).astype(np.int32)
        out = nn_propagate_labels(pc, labels, pc.positions)
        np.testing.assert_array_equal(out, labels)

    def test_single_source(self):
        src = cloud_from_positions([[0, 0, 0]])
        out = nn_propagate_labels(src, np.array([7]), np.random.default_rng(0).uniform(-1, 1, (20, 3)))
        assert (out == 7).all()

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(9)
        src = cloud_from_positions(rng.uniform(-4, 4, size=(50, 3)))
        labels = rng.integers(0, 6, 50).astype(np.int32)
        dst = rng.uniform(-4, 4, size=(100, 3))
        # half-integer offsets put a destination equidistant from 1, 2, 4 or 8
        # lattice sources; unique labels make a wrong tie-break visible
        grid = lattice(5)
        offsets = lattice(2)[rng.integers(0, 8, len(grid))] * 0.5
        dups = duplicate_sites(rng, 6, 20)
        cases = [
            (src, labels, dst),
            (cloud_from_positions(grid), np.arange(len(grid)), grid + offsets),
            (cloud_from_positions(dups), np.arange(len(dups)), dups[::7]),
        ]
        for src, labels, dst in cases:
            out = nn_propagate_labels(src, labels, dst)
            spts = src.positions.astype(np.float64)
            for i, d in enumerate(dst):
                d2 = ((spts - d) ** 2).sum(axis=1)
                assert out[i] == labels[int(np.argmin(d2))]

    def test_invalid_rows_ignored(self):
        positions = np.array([[0, 0, 0], [5, 5, 5]], dtype=np.float32)
        valid = np.array([False, True])
        src = cloud_from_positions(positions, valid=valid)
        out = nn_propagate_labels(src, np.array([1, 2]), np.array([[0.1, 0.0, 0.0]]))
        assert out.tolist() == [2]

    def test_empty_source_raises(self):
        src = cloud_from_positions(np.zeros((1, 3)), valid=np.array([False]))
        with pytest.raises(ValueError):
            nn_propagate_labels(src, np.array([0]), np.zeros((1, 3)))


def test_nearest_indices_tie_breaks_low():
    src = np.array([[1.0, 0, 0], [1.0, 0, 0]])
    assert nearest_indices(src, np.array([[1.0, 0, 0]])).tolist() == [0]


def test_import_leaves_scipy_spatial_unloaded():
    # importing scipy.spatial is slow, so only the first neighbor search pays for it
    code = "import sys, waffleiron; sys.exit('scipy.spatial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(waffleiron.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_import_leaves_scipy_sparse_unloaded():
    # no runtime path uses sparse matrices; importing scipy.sparse costs ~0.3 s
    code = "import sys, waffleiron; sys.exit('scipy.sparse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(waffleiron.__file__).parents[1]))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_point_features_layouts():
    positions = np.array([[3.0, 0.0, 4.0]])
    f3 = point_features(positions, np.array([0.5]), "3dim")
    np.testing.assert_allclose(f3, [[0.5, 4.0, 5.0]])
    f5 = point_features(positions, np.array([0.5]), "5dim")
    np.testing.assert_allclose(f5, [[0.5, 3.0, 0.0, 4.0, 5.0]])
