"""File formats, checkpoints and the plain-text run configuration.

Scan files are flat little-endian float32 records: ``kitti4`` stores
(x, y, z, intensity) quadruples, ``nuscenes5`` stores quintuples whose fifth
field (ring index) is discarded. Label files hold one little-endian uint32
per point: semantic class in the low 16 bits, instance id in the high 16.
Checkpoints are a self-describing binary container ("WFLI") holding the run
configuration, the class map the model was trained with (if any), every named
tensor, and optionally the optimizer state; a save/load/save round trip is
byte-identical. Version 1 files, written before the class map was embedded,
still load.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .augment import AugmentConfig
from .backbone import WaffleIron, WaffleIronConfig
from .geometry import IGNORE_LABEL, Fov, PointCloud, point_features, voxel_downsample
from .training import TrainConfig

_MAGIC = b"WFLI"
_VERSION = 2

_SCAN_STRIDE = {"kitti4": 4, "nuscenes5": 5}


# -- scans and labels ------------------------------------------------------------


def read_scan(path, scan_format: str = "kitti4", feature_mode: str = "5dim") -> PointCloud:
    """Parse a binary scan into a cloud with derived input features."""
    if scan_format not in _SCAN_STRIDE:
        raise ValueError(f"unknown scan format {scan_format!r}")
    stride = _SCAN_STRIDE[scan_format]
    size = Path(path).stat().st_size
    if size % (4 * stride):
        raise ValueError(f"truncated scan: {path} ({size} bytes, record size {4 * stride})")
    raw = np.fromfile(path, dtype="<f4")
    rec = raw.reshape(-1, stride)
    bad = ~np.isfinite(rec).all(axis=1)
    if bad.any():
        raise ValueError(f"non-finite value at point {int(np.flatnonzero(bad)[0])} in {path}")
    positions = rec[:, :3]
    intensity = rec[:, 3]
    feats = point_features(positions, intensity, feature_mode)
    return PointCloud(positions=positions, features=feats)


def write_scan(path, positions: np.ndarray, intensity: np.ndarray, scan_format: str = "kitti4"):
    """Write a binary scan (the inverse of :func:`read_scan`)."""
    stride = _SCAN_STRIDE[scan_format]
    n = len(positions)
    rec = np.zeros((n, stride), dtype="<f4")
    rec[:, :3] = positions
    rec[:, 3] = intensity
    rec.tofile(path)


def read_labels(path, class_map: Optional[dict] = None, n_expected: Optional[int] = None):
    """Parse a label file into (semantic, instance) arrays.

    The semantic field is remapped through ``class_map`` when given; raw
    classes without an entry become ``IGNORE_LABEL``.
    """
    size = Path(path).stat().st_size
    if size % 4:
        raise ValueError(f"truncated label file: {path} ({size} bytes)")
    raw = np.fromfile(path, dtype="<u4")
    if n_expected is not None and raw.size != n_expected:
        raise ValueError(f"label count {raw.size} does not match scan size {n_expected}: {path}")
    semantic = (raw & 0xFFFF).astype(np.int32)
    instance = (raw >> 16).astype(np.int32)
    if class_map is not None:
        lut = np.full(65536, IGNORE_LABEL, dtype=np.int32)
        for src, dst in class_map.items():
            lut[int(src)] = int(dst)
        semantic = lut[semantic]
    return semantic, instance


def write_labels(path, semantic: np.ndarray, instance: Optional[np.ndarray] = None):
    semantic = np.asarray(semantic, dtype=np.uint32) & 0xFFFF
    if instance is None:
        raw = semantic
    else:
        raw = (np.asarray(instance, dtype=np.uint32) << 16) | semantic
    raw.astype("<u4").tofile(path)


def load_class_map(path) -> dict[int, int]:
    """Two-column text map: raw id, train id (or the word ``ignore``)."""
    return parse_class_map(Path(path).read_text(), path)


def parse_class_map(text: str, source="class map") -> dict[int, int]:
    """The raw id -> train id pairs of a class-map text; ``source`` names it in errors."""
    mapping: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{source}:{lineno}: expected 'raw train' pair")
        raw = int(parts[0])
        mapping[raw] = IGNORE_LABEL if parts[1] == "ignore" else int(parts[1])
    return mapping


def serialize_class_map(mapping: dict[int, int]) -> str:
    """The text form :func:`parse_class_map` reads, sorted by raw id."""
    return "".join(
        f"{raw} {'ignore' if train == IGNORE_LABEL else train}\n" for raw, train in sorted(mapping.items())
    )


# -- run configuration -------------------------------------------------------------

_CONFIG_KEYS = {
    # model
    "depth": int,
    "width": int,
    "rho": float,
    "fov_xmin": float,
    "fov_xmax": float,
    "fov_ymin": float,
    "fov_ymax": float,
    "fov_zmin": float,
    "fov_zmax": float,
    "k": int,
    "classes": int,
    "drop_prob": float,
    "strategy": str,
    "feature_mode": str,
    # training
    "epochs": int,
    "batch": int,
    "lr": float,
    "lr_final": float,
    "wd": float,
    "warmup_epochs": int,
    "n_points": int,
    "seed": int,
    "checkpoint_every": int,
    # data
    "scan_format": str,
    "voxel_size": float,
    "class_map": str,
    # augmentation
    "aug_rotate": bool,
    "aug_flip": bool,
    "aug_scale": bool,
    "aug_cutmix": bool,
    "aug_polarmix": bool,
    "cutmix_max": int,
}

_CONFIG_DEFAULTS = {
    "k": 16,
    "drop_prob": 0.0,
    "strategy": "baseline",
    "feature_mode": "5dim",
    "epochs": 45,
    "batch": 4,
    "lr": 1e-3,
    "lr_final": 1e-5,
    "wd": 0.003,
    "warmup_epochs": 4,
    "n_points": 20000,
    "seed": 0,
    "checkpoint_every": 0,
    "scan_format": "kitti4",
    "voxel_size": 0.10,
    "class_map": "",
    "aug_rotate": True,
    "aug_flip": True,
    "aug_scale": True,
    "aug_cutmix": False,
    "aug_polarmix": False,
    "cutmix_max": 40,
}

_REQUIRED_KEYS = (
    "depth",
    "width",
    "rho",
    "fov_xmin",
    "fov_xmax",
    "fov_ymin",
    "fov_ymax",
    "fov_zmin",
    "fov_zmax",
    "classes",
)


@dataclass
class RunConfig:
    """Everything needed to train, infer and evaluate one model."""

    model: WaffleIronConfig
    train: TrainConfig
    augment: AugmentConfig
    scan_format: str = "kitti4"
    voxel_size: float = 0.10
    class_map: str = ""
    # raw id -> train id pairs read from ``class_map``; checkpoints embed them
    class_map_ids: Optional[dict[int, int]] = None

    def to_values(self) -> dict:
        m, t, a = self.model, self.train, self.augment
        return {
            "depth": m.depth,
            "width": m.width,
            "rho": m.rho,
            "fov_xmin": float(m.fov.min[0]),
            "fov_xmax": float(m.fov.max[0]),
            "fov_ymin": float(m.fov.min[1]),
            "fov_ymax": float(m.fov.max[1]),
            "fov_zmin": float(m.fov.min[2]),
            "fov_zmax": float(m.fov.max[2]),
            "k": m.k_neighbors,
            "classes": m.num_classes,
            "drop_prob": m.drop_prob,
            "strategy": m.strategy,
            "feature_mode": m.input_feature_mode,
            "epochs": t.epochs,
            "batch": t.batch_size,
            "lr": t.peak_lr,
            "lr_final": t.final_lr,
            "wd": t.weight_decay,
            "warmup_epochs": t.warmup_epochs,
            "n_points": t.n_points,
            "seed": t.seed,
            "checkpoint_every": t.checkpoint_every,
            "scan_format": self.scan_format,
            "voxel_size": self.voxel_size,
            "class_map": self.class_map,
            "aug_rotate": a.rotate,
            "aug_flip": a.flip,
            "aug_scale": a.scale,
            "aug_cutmix": a.cutmix,
            "aug_polarmix": a.polarmix,
            "cutmix_max": a.cutmix_max_per_class,
        }


def parse_config_values(text: str) -> dict:
    """Parse ``key value`` lines; rejects unknown keys and bad types."""
    values = dict(_CONFIG_DEFAULTS)
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'key value'")
        key, raw = parts[0], parts[1].strip()
        if key not in _CONFIG_KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate config key {key!r}")
        seen.add(key)
        values[key] = _parse_value(key, raw)
    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    return values


def _parse_value(key: str, raw: str):
    typ = _CONFIG_KEYS[key]
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {key!r}: expected true/false, got {raw!r}")
    try:
        return typ(raw)
    except ValueError as err:
        raise ValueError(f"config key {key!r}: {err}") from err


def run_config_from_values(values: dict) -> RunConfig:
    fov = Fov(
        np.array([values["fov_xmin"], values["fov_ymin"], values["fov_zmin"]]),
        np.array([values["fov_xmax"], values["fov_ymax"], values["fov_zmax"]]),
    )
    model = WaffleIronConfig(
        depth=values["depth"],
        width=values["width"],
        rho=values["rho"],
        fov=fov,
        k_neighbors=values["k"],
        num_classes=values["classes"],
        drop_prob=values["drop_prob"],
        strategy=values["strategy"],
        input_feature_mode=values["feature_mode"],
    )
    train = TrainConfig(
        epochs=values["epochs"],
        batch_size=values["batch"],
        peak_lr=values["lr"],
        final_lr=values["lr_final"],
        weight_decay=values["wd"],
        warmup_epochs=values["warmup_epochs"],
        n_points=values["n_points"],
        seed=values["seed"],
        checkpoint_every=values["checkpoint_every"],
    )
    augment = AugmentConfig(
        rotate=values["aug_rotate"],
        flip=values["aug_flip"],
        scale=values["aug_scale"],
        cutmix=values["aug_cutmix"],
        cutmix_max_per_class=values["cutmix_max"],
        polarmix=values["aug_polarmix"],
    )
    return RunConfig(
        model=model,
        train=train,
        augment=augment,
        scan_format=values["scan_format"],
        voxel_size=values["voxel_size"],
        class_map=values["class_map"],
    )


def load_run_config(path, overrides: Optional[dict] = None) -> RunConfig:
    values = parse_config_values(Path(path).read_text())
    if overrides:
        for key, val in overrides.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _parse_value(key, str(val))
    return run_config_from_values(values)


def serialize_run_config(rc: RunConfig) -> str:
    values = rc.to_values()
    lines = []
    for key in _CONFIG_KEYS:
        val = values[key]
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        elif val == "":
            continue  # empty strings (unset paths) have no wire form
        lines.append(f"{key} {val}")
    return "\n".join(lines) + "\n"


# -- checkpoints --------------------------------------------------------------------


def _write_block(out: bytearray, payload: bytes):
    out += struct.pack("<I", len(payload))
    out += payload


def _write_tensor(out: bytearray, name: str, data: np.ndarray, trainable: bool):
    _write_block(out, name.encode("utf-8"))
    out += struct.pack("<BI", int(trainable), data.ndim)
    out += struct.pack(f"<{data.ndim}I", *data.shape)
    out += np.ascontiguousarray(data, dtype="<f4").tobytes()


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise ValueError("checkpoint truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def block(self) -> bytes:
        (n,) = struct.unpack("<I", self.take(4))
        return self.take(n)

    def tensor(self) -> tuple[str, bool, np.ndarray]:
        name = self.block().decode("utf-8")
        trainable, ndim = struct.unpack("<BI", self.take(5))
        shape = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        count = int(np.prod(shape)) if ndim else 1
        data = np.frombuffer(self.take(4 * count), dtype="<f4").reshape(shape)
        return name, bool(trainable), data.copy()


def checkpoint_save(path, model: WaffleIron, optimizer=None, run_config: Optional[RunConfig] = None):
    """Serialize a model (and optionally its optimizer state) to ``path``."""
    out = bytearray()
    out += _MAGIC
    out += struct.pack("<I", _VERSION)
    if run_config is None:
        run_config = _minimal_run_config(model.config)
    _write_block(out, serialize_run_config(run_config).encode("utf-8"))
    if run_config.class_map_ids is None:
        out += struct.pack("<B", 0)
    else:
        out += struct.pack("<B", 1)
        _write_block(out, serialize_class_map(run_config.class_map_ids).encode("utf-8"))
    tensors = list(model.store.items())
    out += struct.pack("<I", len(tensors))
    for name, t in tensors:
        _write_tensor(out, name, t.data, t.trainable)
    if optimizer is None:
        out += struct.pack("<B", 0)
    else:
        payload = optimizer.state_payload()
        out += struct.pack("<B", 1)
        out += struct.pack(
            "<Q5d",
            payload["step"],
            payload["betas"][0],
            payload["betas"][1],
            payload["eps"],
            payload["weight_decay"],
            payload["base_lr"],
        )
        names = list(payload["m"])
        out += struct.pack("<I", len(names))
        for name in names:
            _write_tensor(out, name, payload["m"][name], True)
            _write_tensor(out, name, payload["v"][name], True)
    Path(path).write_bytes(bytes(out))


def checkpoint_load(path, config: Optional[WaffleIronConfig] = None):
    """Load a checkpoint into a fresh model.

    The model is rebuilt from the stored config snapshot unless an explicit
    ``config`` is given, in which case tensor shapes must match exactly;
    any mismatch is reported by tensor name. Returns
    (model, optimizer_payload_or_None, run_config).
    """
    reader = _Reader(Path(path).read_bytes())
    if reader.take(4) != _MAGIC:
        raise ValueError(f"bad magic in {path}")
    (version,) = struct.unpack("<I", reader.take(4))
    if version not in (1, _VERSION):
        raise ValueError(f"unsupported checkpoint version {version}")
    run_config = run_config_from_values(parse_config_values(reader.block().decode("utf-8")))
    if version > 1 and struct.unpack("<B", reader.take(1))[0]:
        run_config.class_map_ids = parse_class_map(reader.block().decode("utf-8"), f"{path} class map")
    model = WaffleIron(config if config is not None else run_config.model)
    (n_tensors,) = struct.unpack("<I", reader.take(4))
    loaded = set()
    for _ in range(n_tensors):
        name, _trainable, data = reader.tensor()
        if name not in model.store:
            raise ValueError(f"unexpected tensor {name!r} in checkpoint")
        tensor = model.store[name]
        if tensor.data.shape != data.shape:
            raise ValueError(
                f"dimension mismatch for tensor {name!r}: "
                f"model {tensor.data.shape}, checkpoint {data.shape}"
            )
        tensor.data[...] = data
        loaded.add(name)
    missing = [n for n in model.store.names() if n not in loaded]
    if missing:
        raise ValueError(f"missing tensor {missing[0]!r} in checkpoint")
    (has_opt,) = struct.unpack("<B", reader.take(1))
    optim_payload = None
    if has_opt:
        step, b1, b2, eps, wd, base_lr = struct.unpack("<Q5d", reader.take(8 + 5 * 8))
        (n_mom,) = struct.unpack("<I", reader.take(4))
        m: dict[str, np.ndarray] = {}
        v: dict[str, np.ndarray] = {}
        for _ in range(n_mom):
            name, _, dm = reader.tensor()
            name2, _, dv = reader.tensor()
            if name2 != name:
                raise ValueError(f"optimizer moment name mismatch: {name!r} vs {name2!r}")
            m[name] = dm
            v[name] = dv
        optim_payload = {
            "step": step,
            "betas": (b1, b2),
            "eps": eps,
            "weight_decay": wd,
            "base_lr": base_lr,
            "m": m,
            "v": v,
        }
    return model, optim_payload, run_config


def _minimal_run_config(model_config: WaffleIronConfig) -> RunConfig:
    return RunConfig(model=model_config, train=TrainConfig(), augment=AugmentConfig())


# -- datasets -----------------------------------------------------------------------


class ScanDataset:
    """Lazy sequence of labeled clouds stored as ``*.bin`` plus ``*.label``."""

    def __init__(
        self,
        root,
        scan_format: str = "kitti4",
        feature_mode: str = "5dim",
        class_map: Optional[dict] = None,
        voxel_size: float = 0.0,
    ):
        self.root = Path(root)
        self.scan_format = scan_format
        self.feature_mode = feature_mode
        self.class_map = class_map
        self.voxel_size = voxel_size
        self.paths = sorted(self.root.glob("*.bin"))
        if not self.paths:
            raise FileNotFoundError(f"no *.bin scans under {self.root}")
        missing = [str(p) for p in self.paths if not p.with_suffix(".label").exists()]
        if missing:
            raise FileNotFoundError("missing label files: " + ", ".join(missing))

    def __len__(self) -> int:
        return len(self.paths)

    def names(self) -> list[str]:
        return [p.stem for p in self.paths]

    def load_with_instances(self, i: int) -> tuple[PointCloud, np.ndarray]:
        path = self.paths[i]
        pc = read_scan(path, self.scan_format, self.feature_mode)
        semantic, instances = read_labels(path.with_suffix(".label"), self.class_map, pc.n_points)
        pc = PointCloud(pc.positions, pc.features, semantic, pc.valid)
        if self.voxel_size > 0:
            pc, kept = voxel_downsample(pc, self.voxel_size)
            instances = instances[kept]
        return pc, instances

    def __getitem__(self, i: int) -> PointCloud:
        return self.load_with_instances(i)[0]
