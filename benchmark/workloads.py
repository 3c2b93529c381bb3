"""The three benchmark workloads.

Each workload builds its inputs in :meth:`setup` from the workload seed and
then runs one operation per :meth:`op` call: one scan segmented
(``scan_infer``), one optimizer step (``train_step``) or one eval forward
(``deep_eval``). Every operation repeats the same work on the same inputs,
so per-operation counts repeat exactly and op times are comparable. The
package is called through its module attributes (``cli.main``,
``training.prepare_training_scene``, ...) so a traced run sees every call.

:meth:`check` validates an operation's output outside the timed region and
returns ``(ok, record)``. The record (a loss or an output digest) goes into
the output; it is never compared with a fixed value, because the numerics
may legitimately change between versions of the package.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

import numpy as np

import synth
from waffleiron import augment, backbone, cli, dataio, geometry, training

# The KITTI field of view used by configs/semantic_kitti_48_256.cfg.
KITTI_FOV = ((-50.0, -50.0, -3.0), (50.0, 50.0, 2.0))
CLASSES = 19
RHO = 0.4
K_NEIGHBORS = 16
# Stochastic depth draws from a generator with this fixed seed, fresh for
# every step, so each step and each workload seed drops the same branches
# (channel-mixing layer 1 at drop_prob 0.2); every token plane always runs.
DROP_SEED = 2
DROP_PROB = 0.2


def model_config(depth: int, width: int, drop_prob: float = 0.0) -> backbone.WaffleIronConfig:
    return backbone.WaffleIronConfig(
        depth=depth,
        width=width,
        rho=RHO,
        fov=geometry.Fov(*KITTI_FOV),
        k_neighbors=K_NEIGHBORS,
        num_classes=CLASSES,
        drop_prob=drop_prob,
    )


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


class ScanInfer:
    """``waffleiron infer`` on one scan, run in-process through ``cli.main``."""

    name = "scan_infer"

    def __init__(self, seed: int, workdir: Path, n_azimuth: int = 375, depth: int = 3, width: int = 64):
        self.seed = seed
        self.workdir = Path(workdir)
        self.n_azimuth = n_azimuth
        self.depth = depth
        self.width = width

    def setup(self) -> None:
        scan = synth.generate_scan(self.seed, self.n_azimuth)
        self.scan_path, _ = synth.write_scan_files(scan, self.workdir / "scan")
        self.ckpt_path = self.workdir / "model.wfli"
        self.out_path = self.workdir / "pred.label"
        rc = dataio.RunConfig(
            model=model_config(self.depth, self.width),
            train=training.TrainConfig(),
            augment=augment.AugmentConfig(),
        )
        model = backbone.WaffleIron(rc.model, np.random.default_rng(self.seed))
        dataio.checkpoint_save(self.ckpt_path, model, None, rc)
        self.points_per_op = scan.n_points
        self.first_digest = None

    def op(self):
        argv = ["infer", "--ckpt", str(self.ckpt_path), "--scan", str(self.scan_path), "--out", str(self.out_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"waffleiron infer exited with {code}")

    def check(self, _result):
        raw = np.fromfile(self.out_path, dtype="<u4")
        semantic = raw & 0xFFFF
        d = digest(raw)
        if self.first_digest is None:
            self.first_digest = d
        ok = raw.size == self.points_per_op and bool((semantic < CLASSES).all()) and d == self.first_digest
        return ok, {"labels_digest": d}


class TrainStep:
    """One optimizer step over one augmented scene, as ``train_loop`` makes it."""

    name = "train_step"

    def __init__(self, seed: int, workdir: Path, n_azimuth: int = 450, n_points: int = 4096,
                 depth: int = 3, width: int = 256):
        self.seed = seed
        self.workdir = Path(workdir)
        self.n_azimuth = n_azimuth
        self.n_points = n_points
        self.depth = depth
        self.width = width

    def setup(self) -> None:
        data = self.workdir / "train"
        data.mkdir(parents=True, exist_ok=True)
        synth.write_scan_files(synth.generate_scan([self.seed, 0], self.n_azimuth), data / "000000")
        synth.write_scan_files(synth.generate_scan([self.seed, 1], self.n_azimuth), data / "000001")
        dataset = dataio.ScanDataset(data, voxel_size=0.10)
        scans = [dataset.load_with_instances(i) for i in range(len(dataset))]
        self.bank = augment.build_instance_bank(scans, augment.CUTMIX_CLASSES)
        self.scene, self.partner = scans[0][0], scans[1][0]
        self.augment = augment.AugmentConfig(cutmix=True, polarmix=True)
        self.model = backbone.WaffleIron(model_config(self.depth, self.width, DROP_PROB), np.random.default_rng(self.seed))
        self.optimizer = training.AdamW(self.model.store)
        self.points_per_op = self.n_points
        self.params = self._flat_params()

    def _flat_params(self) -> np.ndarray:
        return np.concatenate([t.data.ravel() for _, t in self.model.store.trainable_items()])

    def op(self):
        rng = np.random.default_rng([self.seed, 2])
        self.model.store.zero_grad()
        (feats, neighbors, projections, valid), fixed = training.prepare_training_scene(
            self.scene, self.model, self.n_points, rng, self.augment, self.bank, self.partner
        )
        logits = self.model.forward(
            feats, neighbors, projections, valid, training=True, drop_rng=np.random.default_rng(DROP_SEED)
        )
        loss, dlogits, _ = training.segmentation_loss(logits, fixed.labels, valid)
        self.model.backward(dlogits)
        self.optimizer.step()
        return loss

    def check(self, loss):
        params = self._flat_params()
        changed = not np.array_equal(params, self.params)
        self.params = params
        ok = bool(np.isfinite(loss)) and changed and bool(np.isfinite(params).all())
        return ok, {"loss": float(loss)}


class DeepEval:
    """The no-grad eval forward of a deep model on one prepared, cropped scan."""

    name = "deep_eval"

    def __init__(self, seed: int, workdir: Path, n_azimuth: int = 440, depth: int = 6, width: int = 256):
        self.seed = seed
        self.workdir = Path(workdir)
        self.n_azimuth = n_azimuth
        self.depth = depth
        self.width = width

    def setup(self) -> None:
        scan_path, _ = synth.write_scan_files(synth.generate_scan(self.seed, self.n_azimuth), self.workdir / "scan")
        self.model = backbone.WaffleIron(model_config(self.depth, self.width), np.random.default_rng(self.seed))
        pc = dataio.read_scan(scan_path)
        inside, _ = geometry.crop_fov(pc, self.model.config.fov)
        self.inputs = backbone.prepare_inputs(self.model, inside)
        self.points_per_op = inside.n_points
        self.first_digest = None

    def op(self):
        return self.model.forward(*self.inputs, training=False)

    def check(self, logits):
        d = digest(logits)
        if self.first_digest is None:
            self.first_digest = d
        ok = (
            logits.shape == (CLASSES, self.points_per_op)
            and bool(np.isfinite(logits).all())
            and d == self.first_digest
        )
        return ok, {"logits_digest": d}


WORKLOADS = {cls.name: cls for cls in (ScanInfer, TrainStep, DeepEval)}
