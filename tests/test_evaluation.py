"""Confusion matrix, IoU and the segmentation path."""

import numpy as np
import pytest

from waffleiron.evaluation import (
    ConfusionMatrix,
    MetricsReport,
    evaluate_split,
    infer_probs,
    iou,
    segment_scan,
)
from waffleiron.geometry import IGNORE_LABEL, PointCloud, crop_fov, nearest_indices
from waffleiron.training import _counted_mask
from waffleiron import dataio

VOXEL = 0.10


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        cm = ConfusionMatrix(3)
        labels = np.array([0, 1, 2, 2, 1], dtype=np.int32)
        cm.update(labels, labels)
        assert (cm.counts == np.diag([1, 2, 2])).all()

    def test_ignored_points_not_counted(self):
        cm = ConfusionMatrix(3)
        cm.update(np.array([0, 1]), np.array([IGNORE_LABEL, IGNORE_LABEL]))
        assert cm.total == 0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        gt = rng.integers(0, 4, 200).astype(np.int32)
        gt[rng.random(200) < 0.1] = IGNORE_LABEL
        pred = rng.integers(0, 4, 200).astype(np.int32)
        cm = ConfusionMatrix(4).update(pred, gt)
        want = np.zeros((4, 4), dtype=np.int64)
        for p, g in zip(pred, gt):
            if g != IGNORE_LABEL:
                want[g, p] += 1
        np.testing.assert_array_equal(cm.counts, want)
        assert cm.total == int((gt != IGNORE_LABEL).sum())

    def test_out_of_range_label_raises(self):
        cm = ConfusionMatrix(3)
        with pytest.raises(ValueError):
            cm.update(np.array([0]), np.array([5]))
        with pytest.raises(ValueError):
            cm.update(np.array([5]), np.array([0]))

    def test_merge_is_addition(self):
        a = ConfusionMatrix(2).update(np.array([0]), np.array([0]))
        b = ConfusionMatrix(2).update(np.array([1]), np.array([0]))
        a.merge(b)
        np.testing.assert_array_equal(a.counts, [[1, 1], [0, 0]])


class TestIou:
    def test_diagonal_is_perfect(self):
        cm = ConfusionMatrix(3)
        cm.counts[...] = np.diag([5, 2, 9])
        per_class, miou = iou(cm)
        np.testing.assert_array_equal(per_class, [1.0, 1.0, 1.0])
        assert miou == 1.0

    def test_hand_counted_two_class_case(self):
        cm = ConfusionMatrix(2)
        cm.counts[...] = [[3, 1], [1, 3]]
        per_class, miou = iou(cm)
        np.testing.assert_allclose(per_class, [0.6, 0.6])
        assert miou == pytest.approx(0.6)

    def test_absent_class_excluded(self):
        cm = ConfusionMatrix(3)
        cm.counts[...] = [[4, 0, 0], [0, 4, 0], [0, 0, 0]]
        per_class, miou = iou(cm)
        assert np.isnan(per_class[2])
        assert miou == 1.0

    def test_scale_free(self):
        cm = ConfusionMatrix(3)
        cm.counts[...] = np.random.default_rng(1).integers(0, 50, (3, 3))
        per1, m1 = iou(cm)
        cm.counts *= 7
        per2, m2 = iou(cm)
        np.testing.assert_allclose(per1, per2)
        assert m1 == pytest.approx(m2)

    def test_constant_predictor_balanced_two_class(self):
        cm = ConfusionMatrix(2)
        cm.update(np.zeros(10, dtype=np.int32), np.array([0] * 5 + [1] * 5, dtype=np.int32))
        per_class, miou = iou(cm)
        np.testing.assert_allclose(per_class, [0.5, 0.0])
        assert miou == pytest.approx(0.25)


@pytest.fixture(scope="module")
def trained(harness_runs):
    return harness_runs["model_a"], harness_runs["scene"]


class TestInference:
    def test_averaging_identical_probabilities_keeps_argmax(self):
        probs = np.random.default_rng(2).random((20, 4))
        avg = sum(probs for _ in range(10)) / 10
        np.testing.assert_array_equal(np.argmax(avg, axis=1), np.argmax(probs, axis=1))

    def test_labels_cover_every_point(self, trained):
        model, scene = trained
        labels = segment_scan(scene, model, VOXEL)
        assert labels.shape[0] == scene.n_points
        assert ((labels >= 0) & (labels < model.config.num_classes)).all()

    def test_tta_close_to_plain_on_overfit_scene(self, trained):
        model, scene = trained
        counted = _counted_mask(scene.labels, np.ones(scene.n_points, dtype=bool))
        plain = segment_scan(scene, model, VOXEL)
        plain_acc = (plain[counted] == scene.labels[counted]).mean()
        tta = segment_scan(scene, model, VOXEL, tta=True, rng=np.random.default_rng(3))
        tta_acc = (tta[counted] == scene.labels[counted]).mean()
        assert tta_acc >= plain_acc - 0.01

    def test_outside_fov_points_inherit_labels(self, trained):
        model, scene = trained
        positions = scene.positions.copy()
        positions[0] = [100.0, 100.0, 50.0]  # far outside the FOV
        moved = PointCloud(positions, scene.features, scene.labels)
        probs = infer_probs(model, moved)
        inside, _ = crop_fov(moved, model.config.fov)
        src = nearest_indices(inside.positions, positions[:1])
        inside_probs = infer_probs(model, PointCloud(inside.positions, inside.features, None))
        np.testing.assert_array_equal(probs[0], inside_probs[src[0]])


class TestEvaluateSplit:
    def test_overfit_scene_scores_high(self, trained):
        model, scene = trained
        report = evaluate_split([scene], model, tta=False)
        assert report.miou > 0.9
        assert report.confusion.total == scene.n_points

    def test_all_points_scored(self, trained):
        model, scene = trained
        report = evaluate_split([scene], model)
        assert report.confusion.total == int((scene.labels != IGNORE_LABEL).sum())

    def test_stored_predictions_match_in_memory(self, trained, tmp_path):
        model, scene = trained
        pred = segment_scan(scene, model, VOXEL, rng=np.random.default_rng(0))
        path = tmp_path / "pred.label"
        dataio.write_labels(path, pred)
        sem, _ = dataio.read_labels(path)
        cm_file = ConfusionMatrix(model.config.num_classes).update(sem, scene.labels)
        cm_mem = ConfusionMatrix(model.config.num_classes).update(pred, scene.labels)
        np.testing.assert_array_equal(cm_file.counts, cm_mem.counts)

    def test_unlabeled_scan_rejected(self, trained):
        model, scene = trained
        bare = PointCloud(scene.positions, scene.features)
        with pytest.raises(ValueError):
            evaluate_split([bare], model)


class TestReportFormats:
    def _report(self):
        cm = ConfusionMatrix(3)
        cm.counts[...] = [[5, 1, 0], [0, 6, 0], [0, 0, 0]]
        per_class, miou = iou(cm)
        return MetricsReport(per_class, miou, cm, class_names=["road", "car", "pole"])

    def test_csv(self):
        csv = self._report().to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "class,iou"
        assert lines[1].startswith("road,")
        assert lines[3] == "pole,"  # absent class has an empty cell

    def test_table_and_miou_line(self):
        rep = self._report()
        assert "mIoU" in rep.to_table()
        assert rep.miou_line().startswith("mIoU ")
