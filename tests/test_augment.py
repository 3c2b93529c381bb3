"""Scene and instance augmentations: isometry checks, intensity carried with
the points, bank extraction and the two mixing strategies."""

import numpy as np
import pytest

from waffleiron.augment import (
    AugmentConfig,
    InstanceBank,
    apply_augmentations,
    build_instance_bank,
    instance_cutmix,
    motion,
    polarmix,
    scene_motion,
)
from waffleiron.backbone import WaffleIron, WaffleIronConfig, prepare_inputs
from waffleiron.geometry import PointCloud

from conftest import FixedDraws, random_cloud
from oracles import rotate_then_flip


def labeled_cloud(rng, n, fov, labels):
    pc = random_cloud(rng, n, fov)
    return PointCloud(pc.positions, pc.intensity, np.asarray(labels, dtype=np.int32))


def model_features(pc, fov, feature_mode="5dim"):
    """The input features ``prepare_inputs`` builds for ``pc`` under ``feature_mode``."""
    model = WaffleIron(WaffleIronConfig(depth=0, width=2, rho=1.0, fov=fov, input_feature_mode=feature_mode), None)
    return prepare_inputs(model, pc)[0]


def moved(pc, rng, rotate=False, flip=False, scale=False):
    """``pc`` moved once by a scene motion in which only the named switches draw."""
    return pc.moved(scene_motion(rng, rotate, flip, scale))


def pairwise_distances(positions):
    p = positions.astype(np.float64)
    return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)


class TestSceneTransforms:
    def test_identity_draws(self, small_fov):
        rng = np.random.default_rng(0)
        pc = random_cloud(rng, 50, small_fov)
        out = moved(pc, FixedDraws(0.0), rotate=True)
        np.testing.assert_allclose(out.positions, pc.positions, atol=1e-6)
        out = moved(pc, FixedDraws(1.0), scale=True)
        np.testing.assert_allclose(out.positions, pc.positions, atol=1e-6)
        out = moved(pc, FixedDraws(0.5, 0.5), flip=True)
        np.testing.assert_array_equal(out.positions, pc.positions)

    def test_half_turn_twice_restores(self, small_fov):
        rng = np.random.default_rng(4)
        pc = random_cloud(rng, 40, small_fov)
        once = moved(pc, FixedDraws(np.pi), rotate=True)
        twice = moved(once, FixedDraws(np.pi), rotate=True)
        np.testing.assert_allclose(twice.positions, pc.positions, atol=1e-6)

    def test_rotation_and_flip_are_isometries(self, small_fov):
        rng = np.random.default_rng(5)
        pc = random_cloud(rng, 30, small_fov)
        base = pairwise_distances(pc.positions)
        rot = moved(pc, np.random.default_rng(6), rotate=True)
        np.testing.assert_allclose(pairwise_distances(rot.positions), base, atol=1e-5)
        flip = moved(pc, FixedDraws(0.0, 0.5), flip=True)
        np.testing.assert_allclose(pairwise_distances(flip.positions), base, atol=1e-5)

    def test_scaling_scales_distances(self, small_fov):
        rng = np.random.default_rng(8)
        pc = random_cloud(rng, 30, small_fov)
        base = pairwise_distances(pc.positions)
        out = moved(pc, FixedDraws(1.05), scale=True)
        np.testing.assert_allclose(pairwise_distances(out.positions), base * 1.05, atol=1e-5)

    def test_features_follow_positions(self, small_fov):
        rng = np.random.default_rng(10)
        pc = random_cloud(rng, 25, small_fov)
        out = moved(pc, np.random.default_rng(11), rotate=True)
        feats = model_features(out, small_fov)
        np.testing.assert_array_equal(feats[:, 1:4], out.positions)
        np.testing.assert_allclose(feats[:, 4], np.linalg.norm(out.positions.astype(np.float64), axis=1), atol=1e-6)
        np.testing.assert_array_equal(out.intensity, pc.intensity)
        np.testing.assert_array_equal(feats[:, 0], pc.intensity)
        assert out.labels is not None
        np.testing.assert_array_equal(out.labels, pc.labels)

    def test_labels_and_counts_preserved(self, small_fov):
        rng = np.random.default_rng(12)
        pc = random_cloud(rng, 60, small_fov)
        cfg = AugmentConfig()
        out = apply_augmentations(pc, cfg, np.random.default_rng(13))
        assert out.n_points == pc.n_points
        np.testing.assert_array_equal(out.labels, pc.labels)
        assert np.isfinite(out.positions).all()

    def test_reproducible_under_seed(self, small_fov):
        rng = np.random.default_rng(14)
        pc = random_cloud(rng, 60, small_fov)
        cfg = AugmentConfig()
        a = apply_augmentations(pc, cfg, np.random.default_rng(42))
        b = apply_augmentations(pc, cfg, np.random.default_rng(42))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.intensity, b.intensity)


class TestSceneMotion:
    @pytest.mark.parametrize("feature_mode", ["5dim", "3dim"])
    def test_test_time_motion_matches_rotate_then_flip_bitwise(self, kitti_fov, feature_mode):
        # a flip is exact, so one matrix F R rounds to float32 once where the rotation and the flip each did
        for seed in range(100):
            pc = random_cloud(np.random.default_rng(seed), 64, kitti_fov)
            got = pc.moved(scene_motion(np.random.default_rng(1000 + seed), scale=False))
            want = rotate_then_flip(pc, np.random.default_rng(1000 + seed))
            assert got.positions.tobytes() == want.positions.tobytes(), seed
            assert got.intensity.tobytes() == want.intensity.tobytes(), seed
            got_feats, want_feats = (model_features(c, kitti_fov, feature_mode) for c in (got, want))
            assert got_feats.tobytes() == want_feats.tobytes(), seed

    def test_matrix_is_scale_times_flip_times_rotation(self):
        theta = 2.3
        c, s = np.cos(theta), np.sin(theta)
        rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        for flip in [(False, False), (True, False), (False, True), (True, True)]:
            sign = np.array([-1.0 if flip[0] else 1.0, -1.0 if flip[1] else 1.0, 1.0])
            np.testing.assert_array_equal(motion(theta, flip, 1.03), 1.03 * np.diag(sign) @ rotation)
        np.testing.assert_array_equal(motion(theta), rotation)

    @pytest.mark.parametrize(
        "switches, draws, want",
        [
            ((True, True, True), (2.3, 0.2, 0.7, 1.02), (2.3, (True, False), 1.02)),
            ((True, False, False), (2.3,), (2.3, (False, False), 1.0)),
            ((False, True, False), (0.7, 0.2), (0.0, (False, True), 1.0)),
            ((False, False, True), (0.97,), (0.0, (False, False), 0.97)),
            ((True, True, False), (1.1, 0.4, 0.4), (1.1, (True, True), 1.0)),
        ],
    )
    def test_only_the_switches_that_are_on_draw_in_order(self, switches, draws, want):
        rng = FixedDraws(*draws)
        np.testing.assert_array_equal(scene_motion(rng, *switches), motion(*want))
        assert rng._values == []

    def test_draws_angle_then_x_and_y_flip_then_scale(self):
        rng, ref = np.random.default_rng(7), np.random.default_rng(7)
        got = scene_motion(rng)
        theta = ref.uniform(0.0, 2 * np.pi)
        flip = (ref.random() < 0.5, ref.random() < 0.5)
        np.testing.assert_array_equal(got, motion(theta, flip, ref.uniform(0.95, 1.05)))
        assert rng.random() == ref.random()

    def test_one_move_per_scene_and_none_when_switched_off(self, small_fov, moves):
        rng = np.random.default_rng(29)
        labels = np.zeros(40, dtype=np.int32)
        labels[:10] = 8  # road for the pasted instances to land on
        pc = labeled_cloud(rng, 40, small_fov, labels)
        donor = labeled_cloud(rng, 6, small_fov, [5] * 6)
        bank = build_instance_bank([(donor, np.zeros(6, dtype=np.int32))], classes=(5,))
        partner = labeled_cloud(rng, 30, small_fov, [5] * 30)
        cfg = AugmentConfig(cutmix=True, polarmix=True)
        out = apply_augmentations(pc, cfg, np.random.default_rng(30), bank=bank, partner=partner)
        assert len(moves) == 1 and out.n_points > pc.n_points
        off = AugmentConfig(rotate=False, flip=False, scale=False)
        assert apply_augmentations(pc, off, np.random.default_rng(30)) is pc
        assert len(moves) == 1


class TestInstanceBank:
    def test_single_instance_extracted(self, small_fov):
        rng = np.random.default_rng(15)
        pc = labeled_cloud(rng, 10, small_fov, [5] * 10)
        inst_ids = np.full(10, 3, dtype=np.int32)
        bank = build_instance_bank([(pc, inst_ids)], classes=(5,))
        assert len(bank.instances[5]) == 1
        assert bank.instances[5][0].positions.shape == (10, 3)
        # stored relative to the centroid
        np.testing.assert_allclose(bank.instances[5][0].positions.mean(axis=0), 0.0, atol=1e-5)

    def test_two_instances_same_class(self, small_fov):
        rng = np.random.default_rng(16)
        pc = labeled_cloud(rng, 8, small_fov, [1] * 8)
        inst_ids = np.array([7, 7, 7, 7, 9, 9, 9, 9], dtype=np.int32)
        bank = build_instance_bank([(pc, inst_ids)], classes=(1,))
        assert len(bank.instances[1]) == 2

    def test_matches_group_by_oracle(self, small_fov):
        rng = np.random.default_rng(17)
        labels = rng.integers(0, 4, 50).astype(np.int32)
        inst_ids = rng.integers(0, 5, 50).astype(np.int32)
        pc = labeled_cloud(rng, 50, small_fov, labels)
        bank = build_instance_bank([(pc, inst_ids)], classes=(1, 2))
        for c in (1, 2):
            groups = {
                g
                for g in np.unique(inst_ids[labels == c])
                if ((labels == c) & (inst_ids == g)).any()
            }
            assert len(bank.instances[c]) == len(groups)
            sizes = sorted(len(i.positions) for i in bank.instances[c])
            want = sorted(int(((labels == c) & (inst_ids == g)).sum()) for g in groups)
            assert sizes == want

    def test_missing_class_is_empty(self, small_fov):
        rng = np.random.default_rng(18)
        pc = labeled_cloud(rng, 10, small_fov, [0] * 10)
        bank = build_instance_bank([(pc, np.zeros(10, dtype=np.int32))], classes=(5,))
        assert bank.instances[5] == []
        assert bank.total == 0


class TestInstanceCutmix:
    def _scene_with_ground(self, rng, fov, n=30, ground_label=8):
        pc = labeled_cloud(rng, n, fov, np.zeros(n, dtype=np.int32))
        pc.labels[0] = ground_label
        return pc

    def test_empty_bank_is_identity(self, small_fov):
        rng = np.random.default_rng(19)
        pc = self._scene_with_ground(rng, small_fov)
        bank = InstanceBank(classes=(5,))
        out = instance_cutmix(pc, bank, AugmentConfig(), np.random.default_rng(0))
        assert out is pc

    def test_zero_budget_is_identity(self, small_fov):
        rng = np.random.default_rng(20)
        pc = self._scene_with_ground(rng, small_fov)
        donor = labeled_cloud(rng, 6, small_fov, [5] * 6)
        bank = build_instance_bank([(donor, np.zeros(6, dtype=np.int32))], classes=(5,))
        cfg = AugmentConfig(cutmix_max_per_class=0)
        out = instance_cutmix(pc, bank, cfg, np.random.default_rng(0))
        assert out is pc

    def test_placement_lands_on_the_road_point(self, small_fov):
        rng = np.random.default_rng(21)
        pc = self._scene_with_ground(rng, small_fov, n=20)
        road_xy = pc.positions[0, :2].astype(np.float64)
        road_z = float(pc.positions[0, 2])
        donor = labeled_cloud(rng, 12, small_fov, [5] * 12)
        bank = build_instance_bank([(donor, np.zeros(12, dtype=np.int32))], classes=(5,))
        out = instance_cutmix(pc, bank, AugmentConfig(), np.random.default_rng(1))
        added = out.positions[20:]
        assert added.shape[0] == 12
        np.testing.assert_allclose(added[:, :2].mean(axis=0), road_xy, atol=1e-6)
        # the instance's lowest point sits at the road point's height
        assert added[:, 2].min() == pytest.approx(road_z, abs=1e-6)
        assert (out.labels[20:] == 5).all()

    def test_no_ground_points_is_noop(self, small_fov):
        rng = np.random.default_rng(22)
        pc = labeled_cloud(rng, 15, small_fov, [0] * 15)
        donor = labeled_cloud(rng, 5, small_fov, [5] * 5)
        bank = build_instance_bank([(donor, np.zeros(5, dtype=np.int32))], classes=(5,))
        out = instance_cutmix(pc, bank, AugmentConfig(), np.random.default_rng(2))
        assert out is pc

    def test_budget_respected(self, small_fov):
        rng = np.random.default_rng(23)
        pc = self._scene_with_ground(rng, small_fov)
        donors = []
        for i in range(6):
            donor = labeled_cloud(rng, 4, small_fov, [5] * 4)
            donors.append((donor, np.full(4, i, dtype=np.int32)))
        bank = build_instance_bank(donors, classes=(5,))
        assert len(bank.instances[5]) == 6
        cfg = AugmentConfig(cutmix_max_per_class=2)
        out = instance_cutmix(pc, bank, cfg, np.random.default_rng(3))
        assert out.n_points == pc.n_points + 8


class TestPolarmix:
    def _two_scenes(self, rng, fov):
        a = labeled_cloud(rng, 40, fov, rng.integers(0, 3, 40))
        b = labeled_cloud(rng, 35, fov, rng.integers(0, 3, 35))
        return a, b

    def test_zero_width_no_instances_is_scene_a(self, small_fov):
        rng = np.random.default_rng(24)
        a, b = self._two_scenes(rng, small_fov)
        out = polarmix(a, b, classes=(7,), rng=FixedDraws(1.0, 0.0))
        np.testing.assert_array_equal(out.positions, a.positions)
        np.testing.assert_array_equal(out.labels, a.labels)

    def test_full_sector_takes_scene_b(self, small_fov):
        rng = np.random.default_rng(25)
        a, b = self._two_scenes(rng, small_fov)
        out = polarmix(a, b, classes=(7,), rng=FixedDraws(0.3, 2 * np.pi))
        np.testing.assert_array_equal(out.positions, b.positions)

    def test_sector_membership_by_azimuth_oracle(self, small_fov):
        rng = np.random.default_rng(26)
        a, b = self._two_scenes(rng, small_fov)
        start, width = 0.7, 1.2
        out = polarmix(a, b, classes=(), rng=FixedDraws(start, width))

        def in_sector(p):
            az = np.arctan2(p[1], p[0]) % (2 * np.pi)
            return (az - start) % (2 * np.pi) < width

        keep_a = [p for p in a.positions if not in_sector(p)]
        take_b = [p for p in b.positions if in_sector(p)]
        want = np.array(keep_a + take_b, dtype=np.float32)
        np.testing.assert_array_equal(out.positions, want)

    def test_instance_paste_with_rotated_copies(self, small_fov):
        rng = np.random.default_rng(27)
        a = labeled_cloud(rng, 20, small_fov, [0] * 20)
        b_labels = np.zeros(10, dtype=np.int32)
        b_labels[:4] = 7
        b = labeled_cloud(rng, 10, small_fov, b_labels)
        out = polarmix(a, b, classes=(7,), rng=FixedDraws(0.0, 0.0))
        # scene part contributes a only; instance part pastes the 4 class-7
        # points at 3 orientations
        assert out.n_points == 20 + 12
        assert (out.labels[20:] == 7).all()
        norms_src = np.linalg.norm(b.positions[:4, :2].astype(np.float64), axis=1)
        norms_out = np.linalg.norm(out.positions[20:, :2].astype(np.float64), axis=1)
        np.testing.assert_allclose(norms_out, np.tile(norms_src, 3), atol=1e-5)

    def test_feature_alignment(self, small_fov):
        rng = np.random.default_rng(28)
        a, b = self._two_scenes(rng, small_fov)
        out = polarmix(a, b, classes=(1,), rng=np.random.default_rng(5))
        assert out.labels.shape[0] == out.intensity.shape[0] == out.n_points
        # every motion is about z, so each row keeps its source row's height next to its intensity
        source = {(z, i) for pc in (a, b) for z, i in zip(pc.positions[:, 2], pc.intensity)}
        assert set(zip(out.positions[:, 2], out.intensity)) <= source
