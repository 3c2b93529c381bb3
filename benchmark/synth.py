"""Seeded synthetic LiDAR-like scans.

A spinning sensor with ``BEAMS`` rings sits ``SENSOR_HEIGHT`` meters above a
flat street. Every ray is cast against a ground plane, labelled objects
(cars, other vehicles, bicycles, people, poles, fences) and a ring of
building facades, so each ray returns exactly one point and the scan size is
``BEAMS * n_azimuth`` for every seed. Ring sampling makes the point density
fall off as ~1/r along each ring.

Labels use the usual 19-class driving ids, so the package's cutmix donor
classes (bicycle, other-vehicle, person) and landing surfaces (road,
sidewalk) are present. Every object carries its own instance id; stuff
classes have instance 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from waffleiron import dataio

BEAMS = 32
ELEVATION_DEG = (-25.0, 3.0)
SENSOR_HEIGHT = 1.73
RANGE_NOISE = 0.01
CLEAR_RADIUS = 8.0

CAR, BICYCLE, OTHER_VEHICLE, PERSON = 0, 1, 4, 5
ROAD, SIDEWALK, BUILDING, FENCE, TERRAIN, POLE = 8, 10, 12, 13, 16, 17

ROAD_HALF_WIDTH = 5.0
SIDEWALK_HALF_WIDTH = 8.0

# per-class base intensity, jittered per point
_INTENSITY = {
    CAR: 0.35, BICYCLE: 0.25, OTHER_VEHICLE: 0.4, PERSON: 0.2, ROAD: 0.1,
    SIDEWALK: 0.3, BUILDING: 0.5, FENCE: 0.45, TERRAIN: 0.6, POLE: 0.55,
}


@dataclass
class Scan:
    """One generated scan: positions (N x 3), intensity, class and instance ids."""

    positions: np.ndarray
    intensity: np.ndarray
    semantic: np.ndarray
    instance: np.ndarray

    @property
    def n_points(self) -> int:
        return self.positions.shape[0]


@dataclass
class _Boxes:
    """Yawed boxes standing on the ground: center xy, yaw, size (l, w, h)."""

    center: np.ndarray
    yaw: np.ndarray
    size: np.ndarray
    semantic: np.ndarray
    instance: np.ndarray


@dataclass
class _Cylinders:
    """Vertical cylinders standing on the ground: center xy, radius, height."""

    center: np.ndarray
    radius: np.ndarray
    height: np.ndarray
    semantic: np.ndarray
    instance: np.ndarray


def ray_directions(n_azimuth: int) -> np.ndarray:
    """Unit ray directions, ring-major: (BEAMS * n_azimuth) x 3."""
    elev = np.deg2rad(np.linspace(ELEVATION_DEG[0], ELEVATION_DEG[1], BEAMS))
    az = np.arange(n_azimuth) * (2.0 * np.pi / n_azimuth)
    e, a = np.meshgrid(elev, az, indexing="ij")
    dirs = np.stack([np.cos(e) * np.cos(a), np.cos(e) * np.sin(a), np.sin(e)], axis=-1)
    return dirs.reshape(-1, 3)


def _street_xy(rng, n, x_span, y_lo, y_hi):
    """n positions along the street, on a random side, |y| in [y_lo, y_hi)."""
    x = rng.uniform(-x_span, x_span, n)
    y = rng.uniform(y_lo, y_hi, n) * rng.choice([-1.0, 1.0], n)
    # Keep objects CLEAR_RADIUS away from the sensor: a close object covers a
    # wide sector of dense returns that voxelization merges, which would make
    # the downsampled size (and the cost of every later step) vary by seed.
    x = np.where(np.hypot(x, y) < CLEAR_RADIUS, x + np.sign(x + 1e-9) * CLEAR_RADIUS, x)
    return np.stack([x, y], axis=1)


def _scene_objects(rng):
    inst = iter(range(1, 1 << 15))
    boxes = []
    cyls = []

    def add_boxes(cls, xy, yaw, size):
        n = len(xy)
        boxes.append((xy, yaw, size, np.full(n, cls), np.array([next(inst) for _ in range(n)])))

    def add_cyls(cls, xy, radius, height):
        n = len(xy)
        cyls.append((xy, radius, height, np.full(n, cls), np.array([next(inst) for _ in range(n)])))

    n = 12
    add_boxes(CAR, _street_xy(rng, n, 40.0, 1.2, 4.0),
              rng.choice([0.0, np.pi], n) + rng.normal(0.0, 0.05, n),
              np.stack([rng.uniform(3.9, 4.6, n), rng.uniform(1.7, 1.9, n), rng.uniform(1.4, 1.6, n)], 1))
    n = 3
    add_boxes(OTHER_VEHICLE, _street_xy(rng, n, 40.0, 1.5, 3.5),
              rng.choice([0.0, np.pi], n) + rng.normal(0.0, 0.05, n),
              np.stack([rng.uniform(6.0, 8.0, n), rng.uniform(2.2, 2.5, n), rng.uniform(2.4, 3.0, n)], 1))
    n = 5
    add_boxes(BICYCLE, _street_xy(rng, n, 30.0, 5.3, 7.7), rng.uniform(0.0, np.pi, n),
              np.stack([rng.uniform(1.6, 1.8, n), np.full(n, 0.5), rng.uniform(1.0, 1.2, n)], 1))
    n = 4
    add_boxes(FENCE, _street_xy(rng, n, 35.0, 8.5, 12.0), rng.normal(0.0, 0.1, n),
              np.stack([rng.uniform(6.0, 15.0, n), np.full(n, 0.3), rng.uniform(1.2, 2.0, n)], 1))
    n = 10
    add_cyls(PERSON, _street_xy(rng, n, 30.0, 5.3, 7.7), np.full(n, 0.3), rng.uniform(1.6, 1.9, n))
    n = 10
    add_cyls(POLE, _street_xy(rng, n, 45.0, 7.6, 7.9), np.full(n, 0.12), rng.uniform(5.0, 7.0, n))

    b = [np.concatenate(parts) for parts in zip(*boxes)]
    c = [np.concatenate(parts) for parts in zip(*cyls)]
    return _Boxes(*b), _Cylinders(*c)


def _hit_boxes(origin, dirs, boxes):
    """Nearest positive hit distance per ray (inf if none) and the box hit."""
    ground = -SENSOR_HEIGHT
    best = np.full(dirs.shape[0], np.inf)
    which = np.full(dirs.shape[0], -1)
    for i in range(len(boxes.yaw)):
        c, s = np.cos(-boxes.yaw[i]), np.sin(-boxes.yaw[i])
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        center = np.array([boxes.center[i, 0], boxes.center[i, 1], ground + boxes.size[i, 2] / 2])
        o = rot @ (origin - center)
        d = dirs @ rot.T
        half = boxes.size[i] / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-half - o) / d
            t2 = (half - o) / d
        t_near = np.nanmax(np.minimum(t1, t2), axis=1)
        t_far = np.nanmin(np.maximum(t1, t2), axis=1)
        hit = (t_near <= t_far) & (t_near > 0.0) & (t_near < best)
        best[hit] = t_near[hit]
        which[hit] = i
    return best, which


def _hit_cylinders(origin, dirs, cyls):
    ground = -SENSOR_HEIGHT
    best = np.full(dirs.shape[0], np.inf)
    which = np.full(dirs.shape[0], -1)
    a = dirs[:, 0] ** 2 + dirs[:, 1] ** 2
    for i in range(len(cyls.radius)):
        ox, oy = origin[0] - cyls.center[i, 0], origin[1] - cyls.center[i, 1]
        b = 2.0 * (dirs[:, 0] * ox + dirs[:, 1] * oy)
        c = ox * ox + oy * oy - cyls.radius[i] ** 2
        disc = b * b - 4.0 * a * c
        ok = disc >= 0.0
        t = np.full(dirs.shape[0], np.inf)
        t[ok] = (-b[ok] - np.sqrt(disc[ok])) / (2.0 * a[ok])
        z = origin[2] + t * dirs[:, 2]
        hit = ok & (t > 0.0) & (z >= ground) & (z <= ground + cyls.height[i]) & (t < best)
        best[hit] = t[hit]
        which[hit] = i
    return best, which


def generate_scan(seed, n_azimuth: int) -> Scan:
    """Cast every ray of one sensor sweep; the same seed gives the same scan.

    ``seed`` is anything ``np.random.default_rng`` accepts, e.g. an int or
    ``[workload_seed, scene_index]``.
    """
    rng = np.random.default_rng(seed)
    boxes, cyls = _scene_objects(rng)
    origin = np.array([0.0, 0.0, 0.0])
    dirs = ray_directions(n_azimuth)
    n = dirs.shape[0]
    horiz = np.hypot(dirs[:, 0], dirs[:, 1])

    # facades: one setback per azimuth sector, hit by every ray that reaches it
    n_sectors = 16
    setback = rng.uniform(22.0, 45.0, n_sectors)
    azimuth = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * np.pi)
    sector = np.minimum((azimuth / (2.0 * np.pi) * n_sectors).astype(np.int64), n_sectors - 1)
    t = setback[sector] / horiz
    semantic = np.full(n, BUILDING)
    instance = np.zeros(n, dtype=np.int64)

    down = dirs[:, 2] < 0.0
    t_ground = np.full(n, np.inf)
    t_ground[down] = SENSOR_HEIGHT / -dirs[down, 2]
    on_ground = t_ground < t
    t = np.where(on_ground, t_ground, t)
    ground_y = np.abs(t * dirs[:, 1])
    ground_cls = np.where(ground_y < ROAD_HALF_WIDTH, ROAD,
                          np.where(ground_y < SIDEWALK_HALF_WIDTH, SIDEWALK, TERRAIN))
    semantic = np.where(on_ground, ground_cls, semantic)

    for hit_fn, objs in ((_hit_boxes, boxes), (_hit_cylinders, cyls)):
        t_obj, which = hit_fn(origin, dirs, objs)
        closer = t_obj < t
        t = np.where(closer, t_obj, t)
        semantic = np.where(closer, objs.semantic[np.maximum(which, 0)], semantic)
        instance = np.where(closer, objs.instance[np.maximum(which, 0)], instance)

    t = t + rng.normal(0.0, RANGE_NOISE, n)
    positions = origin + t[:, None] * dirs
    base = np.array([_INTENSITY[int(c)] for c in semantic])
    intensity = np.clip(base + rng.normal(0.0, 0.05, n), 0.0, 1.0)
    return Scan(
        positions=positions.astype(np.float32),
        intensity=intensity.astype(np.float32),
        semantic=semantic.astype(np.int32),
        instance=instance.astype(np.int32),
    )


def write_scan_files(scan: Scan, stem: Path) -> tuple[Path, Path]:
    """Write ``stem.bin`` (kitti4) and ``stem.label`` through the package's writers."""
    bin_path = stem.with_suffix(".bin")
    label_path = stem.with_suffix(".label")
    dataio.write_scan(bin_path, scan.positions, scan.intensity, "kitti4")
    dataio.write_labels(label_path, scan.semantic, scan.instance)
    return bin_path, label_path
