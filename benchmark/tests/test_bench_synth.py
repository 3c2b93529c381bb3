"""The synthetic scan generator: determinism, structure and file output."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import synth  # noqa: E402
from waffleiron import augment, dataio  # noqa: E402


def test_scan_size_is_fixed_by_the_ray_count():
    for seed in (0, 1, 7):
        assert synth.generate_scan(seed, 60).n_points == synth.BEAMS * 60


def test_same_seed_gives_same_bytes(tmp_path):
    a = synth.write_scan_files(synth.generate_scan(5, 50), tmp_path / "a")
    b = synth.write_scan_files(synth.generate_scan(5, 50), tmp_path / "b")
    c = synth.write_scan_files(synth.generate_scan(6, 50), tmp_path / "c")
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
    assert a[0].read_bytes() != c[0].read_bytes()


def test_files_round_trip_through_dataio(tmp_path):
    scan = synth.generate_scan(2, 50)
    bin_path, label_path = synth.write_scan_files(scan, tmp_path / "s")
    pc = dataio.read_scan(bin_path, "kitti4")
    semantic, instance = dataio.read_labels(label_path, n_expected=pc.n_points)
    np.testing.assert_array_equal(pc.positions, scan.positions)
    np.testing.assert_array_equal(semantic, scan.semantic)
    np.testing.assert_array_equal(instance, scan.instance)


def test_labels_cover_cutmix_donors_and_ground():
    scan = synth.generate_scan(0, 300)
    present = set(np.unique(scan.semantic).tolist())
    assert present <= set(range(19))
    assert set(augment.CUTMIX_CLASSES) & present
    assert set(augment.GROUND_CLASSES) & present
    # objects carry their own instance ids, stuff classes none
    stuff = np.isin(scan.semantic, [synth.ROAD, synth.SIDEWALK, synth.BUILDING, synth.TERRAIN])
    assert (scan.instance[stuff] == 0).all()
    things = scan.instance[~stuff]
    assert (things > 0).all() and np.unique(things).size > 5


def test_ring_spacing_grows_with_range():
    n_az = 200
    scan = synth.generate_scan(3, n_az)
    rings = scan.positions.reshape(synth.BEAMS, n_az, 3)
    ranges = np.linalg.norm(rings[..., :2], axis=-1).mean(axis=1)
    steps = np.linalg.norm(np.diff(rings[..., :2], axis=1), axis=-1)
    spacing = np.median(steps, axis=1)
    # neighbouring returns on a ring sit ~ r * (2 pi / n_az) apart: density ~ 1/r
    near, far = np.argmin(ranges), np.argmax(ranges)
    assert spacing[far] > 3 * spacing[near]
    np.testing.assert_allclose(spacing[near], ranges[near] * 2 * np.pi / n_az, rtol=0.3)


def test_every_point_is_finite_and_above_the_ground():
    scan = synth.generate_scan(4, 100)
    assert np.isfinite(scan.positions).all()
    assert scan.positions[:, 2].min() > -synth.SENSOR_HEIGHT - 0.1
    assert ((scan.intensity >= 0) & (scan.intensity <= 1)).all()
