"""Shared fixtures: small clouds, a tiny model config, and one trained model.

The overfit harness is expensive (a few hundred optimizer steps), so the two
seeded runs used by the training-accuracy, determinism and TTA tests are
produced once per session.
"""

import time

import numpy as np
import pytest

from waffleiron.geometry import Fov, PointCloud, point_features

from oracles import run_overfit_harness, synthetic_zband_scene


def random_cloud(rng, n, fov: Fov, feature_mode="5dim", n_classes=3, margin=1e-3):
    positions = rng.uniform(fov.min + margin, fov.max - margin, size=(n, 3))
    intensity = rng.uniform(0.0, 1.0, n).astype(np.float32)
    feats = point_features(positions, intensity, feature_mode)
    labels = rng.integers(0, n_classes, n).astype(np.int32)
    return PointCloud(positions.astype(np.float32), feats, labels)


@pytest.fixture
def kitti_fov():
    return Fov(np.array([-50.0, -50.0, -3.0]), np.array([50.0, 50.0, 2.0]))


@pytest.fixture
def small_fov():
    return Fov(np.array([-8.0, -8.0, -2.4]), np.array([8.0, 8.0, 2.4]))


@pytest.fixture(scope="session")
def harness_runs(tmp_path_factory):
    """Two identically seeded overfit runs with checkpoints on disk."""
    dir_a = tmp_path_factory.mktemp("harness_a")
    dir_b = tmp_path_factory.mktemp("harness_b")
    t0 = time.perf_counter()
    model_a, _, history_a, acc_a = run_overfit_harness(out_dir=str(dir_a), seed=0)
    elapsed_a = time.perf_counter() - t0
    model_b, _, history_b, acc_b = run_overfit_harness(out_dir=str(dir_b), seed=0)
    return {
        "dir_a": dir_a,
        "dir_b": dir_b,
        "model_a": model_a,
        "model_b": model_b,
        "history_a": history_a,
        "acc_a": acc_a,
        "acc_b": acc_b,
        "seconds_a": elapsed_a,
        "scene": synthetic_zband_scene()[0],
    }
