"""Byte-level golden files, checkpoint round trips and config parsing."""

import dataclasses
import io
import struct
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from waffleiron import dataio
from waffleiron.backbone import WaffleIron, WaffleIronConfig, prepare_inputs
from waffleiron.geometry import IGNORE_LABEL, Fov
from waffleiron.training import AdamW, segmentation_loss

from conftest import random_cloud

REPO = Path(__file__).resolve().parents[1]

# serialize_run_config of configs/semantic_kitti_48_256.cfg: table order, repr
# floats, true/false booleans
KITTI_SERIALIZED = """\
depth 48
width 256
rho 0.4
fov_xmin -50.0
fov_xmax 50.0
fov_ymin -50.0
fov_ymax 50.0
fov_zmin -3.0
fov_zmax 2.0
k 16
classes 19
drop_prob 0.2
strategy baseline
feature_mode 5dim
epochs 45
batch 4
lr 0.001
lr_final 1e-05
wd 0.003
warmup_epochs 4
n_points 20000
seed 0
checkpoint_every 0
scan_format kitti4
voxel_size 0.1
class_map semantic_kitti.map
aug_rotate true
aug_flip true
aug_scale true
aug_cutmix true
aug_polarmix true
cutmix_max 40
"""


def small_model(fov, width=8, depth=3, seed=0):
    cfg = WaffleIronConfig(
        depth=depth, width=width, rho=0.8, fov=fov, k_neighbors=3, num_classes=3
    )
    return WaffleIron(cfg, np.random.default_rng(seed))


def take_gradient(model, fov):
    """Accumulate the segmentation-loss gradient of one fixed training scene."""
    pc = random_cloud(np.random.default_rng(6), 30, fov)
    feats, nbr, proj, valid = prepare_inputs(model, pc)
    logits = model.forward(feats, nbr, proj, valid, training=True)
    _, dlogits, _ = segmentation_loss(logits, pc.labels, valid)
    model.backward(dlogits)


def stepped_model_and_optimizer(fov):
    model = small_model(fov, seed=5)
    opt = AdamW(model.store, weight_decay=0.01, base_lr=2e-3)
    take_gradient(model, fov)
    opt.step(1e-3)
    return model, opt


def write_with_moments(path, model, records):
    """Save ``model`` with an optimizer section of (m name, m, v name, v) moment records."""
    dataio.checkpoint_save(path, model)
    with open(path, "r+b") as out:
        out.seek(-1, io.SEEK_END)  # over the no-optimizer flag
        out.write(struct.pack("<BQ5dI", 1, 1, 0.9, 0.999, 1e-8, 0.01, 2e-3, len(records)))
        for m_name, m, v_name, v in records:
            dataio._write_tensor(out, m_name, m, True)
            dataio._write_tensor(out, v_name, v, True)


class TestReadScan:
    def test_golden_single_point(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(struct.pack("<4f", 1.0, 2.0, 3.0, 0.5))
        pc = dataio.read_scan(path, "kitti4")
        np.testing.assert_allclose(pc.positions, [[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(pc.intensity, [0.5])

    def test_two_points_from_32_bytes(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(struct.pack("<8f", *range(8)))
        pc = dataio.read_scan(path, "kitti4")
        assert pc.n_points == 2

    def test_nuscenes_ring_dropped(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(struct.pack("<5f", 1.0, 0.0, 0.0, 0.25, 17.0))
        pc = dataio.read_scan(path, "nuscenes5")
        assert pc.n_points == 1
        np.testing.assert_allclose(pc.positions, [[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(pc.intensity, [0.25])

    def test_truncated_scan(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(b"\x00" * 18)
        with pytest.raises(ValueError, match="truncated"):
            dataio.read_scan(path, "kitti4")

    def test_nonfinite_reports_point_index(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(struct.pack("<8f", 0, 0, 0, 0, float("nan"), 0, 0, 0))
        with pytest.raises(ValueError, match="point 1"):
            dataio.read_scan(path, "kitti4")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            dataio.read_scan(tmp_path / "x.bin", "ply")


class TestLabels:
    def test_golden_packed_value(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<I", 0x0001_0030))
        sem, inst = dataio.read_labels(path, class_map={0x30: 10})
        assert sem.tolist() == [10]
        assert inst.tolist() == [1]

    def test_unmapped_becomes_ignore(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<2I", 7, 99))
        sem, _ = dataio.read_labels(path, class_map={7: 0})
        assert sem.tolist() == [0, IGNORE_LABEL]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(b"")
        sem, inst = dataio.read_labels(path, n_expected=0)
        assert sem.size == 0 and inst.size == 0

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "a.label"
        path.write_bytes(struct.pack("<2I", 1, 2))
        with pytest.raises(ValueError, match="does not match"):
            dataio.read_labels(path, n_expected=3)

    def test_write_read_write_byte_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        sem = rng.integers(0, 30, 50)
        inst = rng.integers(0, 1000, 50)
        p1, p2 = tmp_path / "a.label", tmp_path / "b.label"
        dataio.write_labels(p1, sem, inst)
        s2, i2 = dataio.read_labels(p1)
        dataio.write_labels(p2, s2, i2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_class_map_fixture_parses(self):
        mapping = dataio.load_class_map(REPO / "configs" / "semantic_kitti.map")
        assert mapping[10] == 0
        assert mapping[0] == IGNORE_LABEL
        assert mapping[81] == 18

    @pytest.mark.parametrize("train", ["255", "99999999999"])
    def test_class_map_train_id_below_ignore_label(self, train):
        assert dataio.parse_class_map("0 ignore\n1 254\n") == {0: IGNORE_LABEL, 1: 254}
        with pytest.raises(ValueError, match=rf"m\.map:2: train id {train} outside \[0, 254\]; .* 'ignore'"):
            dataio.parse_class_map(f"0 0\n10 {train}\n", "m.map")


class TestCheckpoint:
    def test_round_trip_byte_identical(self, tmp_path, small_fov):
        model = small_model(small_fov)
        p1, p2 = tmp_path / "a.wfli", tmp_path / "b.wfli"
        dataio.checkpoint_save(p1, model)
        loaded, optimizer, rc = dataio.checkpoint_load(p1)
        assert optimizer is None
        dataio.checkpoint_save(p2, loaded)
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_forward_is_bitwise_identical(self, tmp_path, small_fov):
        model = small_model(small_fov, seed=3)
        pc = random_cloud(np.random.default_rng(4), 40, small_fov)
        feats, nbr, proj, valid = prepare_inputs(model, pc)
        want = model.forward(feats, nbr, proj, valid, training=False)
        path = tmp_path / "m.wfli"
        dataio.checkpoint_save(path, model)
        loaded, _, _ = dataio.checkpoint_load(path)
        got = loaded.forward(feats, nbr, proj, valid, training=False)
        np.testing.assert_array_equal(got, want)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.wfli"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic"):
            dataio.checkpoint_load(path)

    def test_dim_mismatch_names_first_offender(self, tmp_path, small_fov):
        # the stored run config says width 16, the stored tensors are width 8
        model = small_model(small_fov, width=8)
        path = tmp_path / "m.wfli"
        wide = WaffleIronConfig(
            depth=3, width=16, rho=0.8, fov=small_fov, k_neighbors=3, num_classes=3
        )
        dataio.checkpoint_save(path, model, None, dataio.RunConfig(wide))
        # embed.pre_bn is sized by the input channels; the global branch is the first width-sized tensor
        with pytest.raises(ValueError, match="dimension mismatch for tensor 'embed.global.weight'"):
            dataio.checkpoint_load(path)

    def test_missing_tensor_reported(self, tmp_path, small_fov):
        # the stored run config says depth 3, the stored tensors are depth 0
        shallow = small_model(small_fov, depth=0)
        path = tmp_path / "m.wfli"
        deep_cfg = WaffleIronConfig(
            depth=3, width=8, rho=0.8, fov=small_fov, k_neighbors=3, num_classes=3
        )
        dataio.checkpoint_save(path, shallow, None, dataio.RunConfig(deep_cfg))
        with pytest.raises(ValueError, match="missing tensor 'layers.0.token"):
            dataio.checkpoint_load(path)

    def test_optimizer_state_round_trip(self, tmp_path, small_fov):
        model, opt = stepped_model_and_optimizer(small_fov)
        p1, p2 = tmp_path / "a.wfli", tmp_path / "b.wfli"
        dataio.checkpoint_save(p1, model, opt)
        loaded, resumed, _ = dataio.checkpoint_load(p1)
        assert isinstance(resumed, AdamW) and resumed.store is loaded.store
        assert resumed.step_count == 1
        assert (resumed.betas, resumed.eps, resumed.weight_decay, resumed.base_lr) == (
            opt.betas, opt.eps, opt.weight_decay, opt.base_lr
        )
        for name in opt.m:
            np.testing.assert_array_equal(resumed.m[name], opt.m[name])
            np.testing.assert_array_equal(resumed.v[name], opt.v[name])
        dataio.checkpoint_save(p2, loaded, resumed)
        assert p1.read_bytes() == p2.read_bytes()
        # the fault tests below build their moment sections with this helper
        write_with_moments(p2, model, [(name, m, name, opt.v[name]) for name, m in opt.m.items()])
        assert p1.read_bytes() == p2.read_bytes()

    def test_loaded_optimizer_steps_like_the_saved_one(self, tmp_path, small_fov):
        model, opt = stepped_model_and_optimizer(small_fov)
        path = tmp_path / "m.wfli"
        dataio.checkpoint_save(path, model, opt)
        loaded, resumed, _ = dataio.checkpoint_load(path)
        for m, o in ((model, opt), (loaded, resumed)):
            m.store.zero_grad()
            take_gradient(m, small_fov)
            o.step(1e-3)
        trained = dict(loaded.store.items())
        for name, t in model.store.items():
            np.testing.assert_array_equal(trained[name].data, t.data, err_msg=name)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("unknown", "unexpected optimizer moment 'bogus'"),
            # shape (1,) would broadcast into the bias-shaped moment
            ("wrong-shape", r"dimension mismatch for optimizer moment 'embed.global.bias': model \(4,\), checkpoint \(1,\)"),
            ("missing", "missing optimizer moment 'embed.global.bias'"),
            ("v-name", "optimizer moment name mismatch: 'embed.global.bias' vs 'bogus'"),
        ],
        ids=["unknown", "wrong-shape", "missing", "v-name"],
    )
    def test_bad_moment_record_is_named(self, tmp_path, small_fov, fault, message):
        model, opt = stepped_model_and_optimizer(small_fov)
        records = []
        for name, m in opt.m.items():
            record = (name, m, name, opt.v[name])
            if name == "embed.global.bias":
                if fault == "missing":
                    continue
                record = {
                    "unknown": record,
                    "wrong-shape": (name, np.zeros(1), name, opt.v[name]),
                    "v-name": (name, m, "bogus", opt.v[name]),
                }[fault]
            records.append(record)
        if fault == "unknown":
            records.append(("bogus", np.zeros(2), "bogus", np.zeros(2)))
        path = tmp_path / "m.wfli"
        write_with_moments(path, model, records)
        with pytest.raises(ValueError, match=message):
            dataio.checkpoint_load(path)

    @pytest.mark.parametrize("with_optimizer", [False, True])
    def test_load_holds_only_what_it_returns(self, tmp_path, small_fov, with_optimizer):
        # at width 256 the tensors, not the objects around them, make the file's 1.9 MB (5.6 MB with moments)
        model = small_model(small_fov, width=256)
        path = tmp_path / "m.wfli"
        dataio.checkpoint_save(path, model, AdamW(model.store) if with_optimizer else None)
        dataio.checkpoint_load(path)  # first calls allocate numpy's and Python's lazy caches
        tracemalloc.start()
        try:
            loaded, optimizer, _ = dataio.checkpoint_load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = [t.data for _, t in loaded.store.items()]
        if with_optimizer:
            stored += [*optimizer.m.values(), *optimizer.v.values()]
        assert sum(a.nbytes for a in stored) > 0.95 * path.stat().st_size
        # each stored tensor once, where the load put it: no copy of the file or of a record, and no gradient
        # buffer, which the model makes at its first backward
        assert peak <= sum(a.nbytes for a in stored) + 128 * 1024, peak

    def test_truncated_checkpoint_rejected(self, tmp_path, small_fov):
        model, opt = stepped_model_and_optimizer(small_fov)
        path = tmp_path / "m.wfli"
        dataio.checkpoint_save(path, model, opt)
        data = path.read_bytes()
        # inside a moment's data, inside a tensor's header, and a block length past the end of the file
        name = b"embed.global.bias"
        header = data.index(name) + len(name) + 2
        for cut in (data[:-3], data[:header], data[:4 + 4] + struct.pack("<I", 2**31) + data[12:]):
            path.write_bytes(cut)
            with pytest.raises(ValueError, match="checkpoint truncated"):
                dataio.checkpoint_load(path)

    def test_trailing_bytes_rejected(self, tmp_path, small_fov):
        model, opt = stepped_model_and_optimizer(small_fov)
        path = tmp_path / "m.wfli"
        for optimizer in (None, opt):
            dataio.checkpoint_save(path, model, optimizer)
            path.write_bytes(path.read_bytes() + b"junk")
            with pytest.raises(ValueError, match="4 trailing bytes"):
                dataio.checkpoint_load(path)

    def test_class_map_embedded_and_round_trip(self, tmp_path, small_fov):
        model = small_model(small_fov, seed=7)
        rc = dataio.RunConfig(model.config, dataio.TrainConfig(), dataio.AugmentConfig(), class_map="kitti.map")
        rc.class_map_ids = dataio.load_class_map(REPO / "configs" / "semantic_kitti.map")
        p1, p2 = tmp_path / "a.wfli", tmp_path / "b.wfli"
        dataio.checkpoint_save(p1, model, None, rc)
        loaded, _, rc1 = dataio.checkpoint_load(p1)
        assert rc1.class_map_ids == rc.class_map_ids
        assert rc1.class_map_ids[0] == IGNORE_LABEL and rc1.class_map_ids[81] == 18
        dataio.checkpoint_save(p2, loaded, None, rc1)
        assert p1.read_bytes() == p2.read_bytes()
        rc.class_map_ids = {}
        dataio.checkpoint_save(p1, model, None, rc)
        assert dataio.checkpoint_load(p1)[2].class_map_ids == {}

    def test_version_1_checkpoint_without_map_loads(self, tmp_path, small_fov):
        model = small_model(small_fov, seed=8)
        path = tmp_path / "m.wfli"
        dataio.checkpoint_save(path, model)
        v2 = path.read_bytes()
        (n_config,) = struct.unpack("<I", v2[8:12])
        end = 12 + n_config
        assert v2[end] == 0  # no class map
        v1 = v2[:4] + struct.pack("<I", 1) + v2[8:end] + v2[end + 1 :]
        path.write_bytes(v1)
        loaded, optimizer, rc = dataio.checkpoint_load(path)
        assert optimizer is None and rc.class_map_ids is None
        stored = dict(loaded.store.items())
        for name, t in model.store.items():
            np.testing.assert_array_equal(stored[name].data, t.data)
        dataio.checkpoint_save(path, loaded)
        assert path.read_bytes() == v2


class TestRunConfig:
    def test_shipped_kitti_config(self):
        rc = dataio.load_run_config(REPO / "configs" / "semantic_kitti_48_256.cfg")
        assert rc.model.depth == 48
        assert rc.model.width == 256
        assert rc.model.rho == pytest.approx(0.40)
        assert rc.model.num_classes == 19
        assert rc.train.batch_size == 4
        assert rc.augment.cutmix and rc.augment.polarmix
        assert rc.scan_format == "kitti4"

    def test_order_insensitive(self):
        base = (REPO / "configs" / "nuscenes_48_384.cfg").read_text()
        lines = [l for l in base.splitlines() if l.split("#")[0].strip()]
        rc1 = dataio.parse_run_config("\n".join(lines))
        rc2 = dataio.parse_run_config("\n".join(reversed(lines)))
        assert dataio.serialize_run_config(rc1) == dataio.serialize_run_config(rc2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            dataio.parse_run_config("depth 3\nwobble 7\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            dataio.parse_run_config("depth 3\ndepth 6\n")

    def test_missing_required_keys(self):
        with pytest.raises(ValueError, match="missing required"):
            dataio.parse_run_config("depth 3\n")

    def test_serialize_parse_round_trip(self):
        rc = dataio.load_run_config(REPO / "configs" / "semantic_kitti_48_256.cfg")
        text = dataio.serialize_run_config(rc)
        rc2 = dataio.parse_run_config(text)
        assert dataio.serialize_run_config(rc2) == text

    def test_bad_bool(self):
        with pytest.raises(ValueError, match="true/false"):
            dataio.parse_run_config("aug_rotate maybe\n")

    def test_overrides(self):
        rc = dataio.load_run_config(
            REPO / "configs" / "nuscenes_48_384.cfg", overrides={"seed": "7", "depth": "6"}
        )
        assert rc.train.seed == 7
        assert rc.model.depth == 6

    def test_serialized_kitti_config_golden(self):
        rc = dataio.load_run_config(REPO / "configs" / "semantic_kitti_48_256.cfg")
        assert dataio.serialize_run_config(rc) == KITTI_SERIALIZED

    def test_every_field_set_by_exactly_one_key(self):
        entries = list(dataio._KEYS.values())
        keys = Counter((part, name) for part, name, _ in entries if part != "fov")
        # the six fov_* keys set WaffleIronConfig.fov together, one bound and axis each
        fov_cells = Counter(name for part, name, _ in entries if part == "fov")
        assert set(fov_cells) == {(bound, axis) for bound in ("min", "max") for axis in range(3)}
        assert set(fov_cells.values()) == {1}
        keys["model", "fov"] = 1
        parts = {"": dataio.RunConfig, "model": dataio.WaffleIronConfig, "train": dataio.TrainConfig,
                 "augment": dataio.AugmentConfig}
        exempt = {("", "class_map_ids"), ("", "model"), ("", "train"), ("", "augment")}
        want = {(part, f.name) for part, cls in parts.items() for f in dataclasses.fields(cls)} - exempt
        assert set(keys) == want
        assert set(keys.values()) == {1}

    def test_defaults_are_the_dataclass_defaults(self):
        required = "depth 3\nwidth 8\nrho 0.8\nclasses 3\n" + "".join(
            f"fov_{axis}min -1\nfov_{axis}max 1\n" for axis in "xyz"
        )
        rc = dataio.parse_run_config(required)
        assert rc.train == dataio.TrainConfig()
        assert rc.augment == dataio.AugmentConfig()
        assert (rc.scan_format, rc.voxel_size, rc.class_map) == ("kitti4", 0.10, "")
        with pytest.raises(ValueError, match="missing required config keys: classes"):
            dataio.parse_run_config(required.replace("classes 3\n", ""))

    @pytest.mark.parametrize("voxel_size", [0.0, -0.1, float("nan"), float("inf")])
    def test_voxel_size_must_be_positive_and_finite(self, voxel_size):
        model = WaffleIronConfig(depth=3, width=8, rho=0.8, fov=Fov([-1.0] * 3, [1.0] * 3), num_classes=3)
        with pytest.raises(ValueError, match="voxel_size must be positive and finite"):
            dataio.RunConfig(model, voxel_size=voxel_size)


class TestScanDataset:
    def _write_scene(self, directory, name, n, rng, label_values=(0, 1, 2)):
        positions = rng.uniform(-4, 4, size=(n, 3)).astype("<f4")
        rec = np.concatenate([positions, rng.random((n, 1), dtype=np.float32)], axis=1)
        rec.astype("<f4").tofile(directory / f"{name}.bin")
        labels = rng.choice(label_values, n).astype(np.uint32)
        dataio.write_labels(directory / f"{name}.label", labels)
        return positions

    def test_listing_and_loading(self, tmp_path):
        rng = np.random.default_rng(0)
        self._write_scene(tmp_path, "b_scan", 20, rng)
        self._write_scene(tmp_path, "a_scan", 10, rng)
        ds = dataio.ScanDataset(tmp_path)
        assert len(ds) == 2
        assert ds.names() == ["a_scan", "b_scan"]
        pc = ds[0]
        assert pc.n_points == 10
        assert pc.labels is not None

    def test_voxel_downsampling_applied(self, tmp_path):
        rng = np.random.default_rng(1)
        self._write_scene(tmp_path, "s", 500, rng)
        full = dataio.ScanDataset(tmp_path)[0]
        down = dataio.ScanDataset(tmp_path, voxel_size=2.0)[0]
        assert down.n_points < full.n_points

    def test_missing_labels_listed(self, tmp_path):
        rng = np.random.default_rng(2)
        self._write_scene(tmp_path, "s", 10, rng)
        (tmp_path / "s.label").unlink()
        with pytest.raises(FileNotFoundError, match="s.bin"):
            dataio.ScanDataset(tmp_path)

    def test_empty_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no \\*.bin"):
            dataio.ScanDataset(tmp_path)
