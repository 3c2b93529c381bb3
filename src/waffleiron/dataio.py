"""File formats, checkpoints and the plain-text run configuration.

Scan files are flat little-endian float32 records: ``kitti4`` stores
(x, y, z, intensity) quadruples, ``nuscenes5`` stores quintuples whose fifth
field (ring index) is discarded. Label files hold one little-endian uint32
per point: semantic class in the low 16 bits, instance id in the high 16.
Checkpoints are a self-describing binary container ("WFLI") holding the run
configuration, the class map the model was trained with (if any), every named
tensor, and optionally the AdamW state, which loads back as an ``AdamW`` over
the loaded model's parameters; a save/load/save round trip is byte-identical.
Version 1 files, written before the class map was embedded, still load.

Run configurations are ``key value`` lines. The key table ``_KEYS`` is their
schema: parsing, overrides, the required-key check and
:func:`serialize_run_config` all read it. A key's default is its dataclass
field's default; keys without one, and ``classes``, are required.
"""

from __future__ import annotations

import os
import struct
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .augment import AugmentConfig
from .backbone import WaffleIron, WaffleIronConfig
from .geometry import IGNORE_LABEL, Fov, PointCloud, voxel_downsample
from .training import AdamW, TrainConfig

_MAGIC = b"WFLI"
_VERSION = 2

_SCAN_STRIDE = {"kitti4": 4, "nuscenes5": 5}


# -- scans and labels ------------------------------------------------------------


def read_scan(path, scan_format: str = "kitti4") -> PointCloud:
    """Parse a binary scan into a cloud of positions and intensity."""
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
    return PointCloud(positions=rec[:, :3], intensity=rec[:, 3])


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
        try:
            raw, train = int(parts[0]), (IGNORE_LABEL if parts[1] == "ignore" else int(parts[1]))
        except ValueError:
            raise ValueError(f"{source}:{lineno}: ids must be integers, got {line!r}") from None
        if not 0 <= raw <= 0xFFFF:
            raise ValueError(f"{source}:{lineno}: raw id {raw} outside [0, 65535]")
        if train < 0:
            raise ValueError(f"{source}:{lineno}: negative train id {train}")
        if train >= IGNORE_LABEL and parts[1] != "ignore":
            raise ValueError(
                f"{source}:{lineno}: train id {train} outside [0, {IGNORE_LABEL - 1}]; "
                "an ignored class is written 'ignore'"
            )
        mapping[raw] = train
    return mapping


def serialize_class_map(mapping: dict[int, int]) -> str:
    """The text form :func:`parse_class_map` reads, sorted by raw id."""
    return "".join(
        f"{raw} {'ignore' if train == IGNORE_LABEL else train}\n" for raw, train in sorted(mapping.items())
    )


# -- run configuration -------------------------------------------------------------

# Every run-config key in wire order -> (part, field, text type). The part is
# a RunConfig attribute ("" for RunConfig itself) or "fov", the model's Fov,
# whose fields are (bound, axis) pairs. The field is the key unless given.
_KEYS: dict[str, tuple[str, object, type]] = {
    key: (part, field_[0] if field_ else key, typ)
    for key, (part, typ, *field_) in {
        "depth": ("model", int),
        "width": ("model", int),
        "rho": ("model", float),
        "fov_xmin": ("fov", float, ("min", 0)),
        "fov_xmax": ("fov", float, ("max", 0)),
        "fov_ymin": ("fov", float, ("min", 1)),
        "fov_ymax": ("fov", float, ("max", 1)),
        "fov_zmin": ("fov", float, ("min", 2)),
        "fov_zmax": ("fov", float, ("max", 2)),
        "k": ("model", int, "k_neighbors"),
        "classes": ("model", int, "num_classes"),
        "drop_prob": ("model", float),
        "strategy": ("model", str),
        "feature_mode": ("model", str, "input_feature_mode"),
        "epochs": ("train", int),
        "batch": ("train", int, "batch_size"),
        "lr": ("train", float, "peak_lr"),
        "lr_final": ("train", float, "final_lr"),
        "wd": ("train", float, "weight_decay"),
        "warmup_epochs": ("train", int),
        "n_points": ("train", int),
        "seed": ("train", int),
        "checkpoint_every": ("train", int),
        "scan_format": ("", str),
        "voxel_size": ("", float),
        "class_map": ("", str),
        "aug_rotate": ("augment", bool, "rotate"),
        "aug_flip": ("augment", bool, "flip"),
        "aug_scale": ("augment", bool, "scale"),
        "aug_cutmix": ("augment", bool, "cutmix"),
        "aug_polarmix": ("augment", bool, "polarmix"),
        "cutmix_max": ("augment", int, "cutmix_max_per_class"),
    }.items()
}


@dataclass
class RunConfig:
    """Everything needed to train, infer and evaluate one model."""

    model: WaffleIronConfig
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    scan_format: str = "kitti4"
    voxel_size: float = 0.10
    class_map: str = ""
    # raw id -> train id pairs read from ``class_map``; checkpoints embed them
    class_map_ids: Optional[dict[int, int]] = None

    def __post_init__(self):
        if self.scan_format not in _SCAN_STRIDE:
            raise ValueError(f"unknown scan format {self.scan_format!r}; expected one of {', '.join(_SCAN_STRIDE)}")
        if not 0 < self.voxel_size < np.inf:
            raise ValueError(f"voxel_size must be positive and finite, got {self.voxel_size}")


_PARTS = {"": RunConfig, "model": WaffleIronConfig, "train": TrainConfig, "augment": AugmentConfig}


def _required(part: str, name) -> bool:
    """Whether a key must be given: its field has no dataclass default, or it is the class count."""
    if part == "fov" or name == "num_classes":
        return True
    spec = next(f for f in fields(_PARTS[part]) if f.name == name)
    return spec.default is MISSING and spec.default_factory is MISSING


def parse_run_config(text: str, overrides: Optional[dict] = None) -> RunConfig:
    """Parse ``key value`` lines, then apply ``overrides`` (key -> value text).

    Rejects unknown and duplicate keys, bad values and files that lack a
    required key; every other key takes its field's dataclass default.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'key value'")
        key, raw = parts[0], parts[1].strip()
        if key not in _KEYS:
            raise ValueError(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise ValueError(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _parse_value(key, raw)
    missing = [key for key, (part, name, _) in _KEYS.items() if key not in values and _required(part, name)]
    if missing:
        raise ValueError(f"missing required config keys: {', '.join(missing)}")
    for key, raw in (overrides or {}).items():
        if key not in _KEYS:
            raise ValueError(f"unknown config key {key!r}")
        values[key] = _parse_value(key, str(raw))

    kwargs = {part: {} for part in ("fov", *_PARTS)}
    for key, val in values.items():
        part, name, _ = _KEYS[key]
        kwargs[part][name] = val
    bounds = kwargs.pop("fov")
    fov = Fov([bounds["min", axis] for axis in range(3)], [bounds["max", axis] for axis in range(3)])
    model = WaffleIronConfig(fov=fov, **kwargs["model"])
    train = TrainConfig(**kwargs["train"])
    augment = AugmentConfig(**kwargs["augment"])
    return RunConfig(model=model, train=train, augment=augment, **kwargs[""])


def _parse_value(key: str, raw: str):
    typ = _KEYS[key][2]
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {key!r}: expected true/false, got {raw!r}")
    try:
        val = typ(raw)
    except ValueError as err:
        raise ValueError(f"config key {key!r}: {err}") from err
    if typ is float and not np.isfinite(val):
        raise ValueError(f"config key {key!r}: expected a finite number, got {raw!r}")
    return val


def load_run_config(path, overrides: Optional[dict] = None) -> RunConfig:
    return parse_run_config(Path(path).read_text(), overrides)


def serialize_run_config(rc: RunConfig) -> str:
    """The text :func:`parse_run_config` reads: one line per key, in table order."""
    lines = []
    for key, (part, name, _) in _KEYS.items():
        if part == "fov":
            val = float(getattr(rc.model.fov, name[0])[name[1]])
        else:
            val = getattr(getattr(rc, part) if part else rc, name)
        if isinstance(val, bool):
            val = "true" if val else "false"
        elif isinstance(val, float):
            val = repr(val)
        elif val == "":
            continue  # empty strings (unset paths) have no wire form
        lines.append(f"{key} {val}")
    return "\n".join(lines) + "\n"


# -- checkpoints --------------------------------------------------------------------


def _write_block(out, payload: bytes):
    out.write(struct.pack("<I", len(payload)))
    out.write(payload)


def _write_tensor(out, name: str, data: np.ndarray, trainable: bool):
    _write_block(out, name.encode("utf-8"))
    out.write(struct.pack("<BI", int(trainable), data.ndim))
    out.write(struct.pack(f"<{data.ndim}I", *data.shape))
    out.write(np.ascontiguousarray(data, dtype="<f4"))


class _Reader:
    """The records of an open checkpoint in order; a tensor's data is read straight into its target array."""

    def __init__(self, file):
        self.file = file
        self.size = os.fstat(file.fileno()).st_size

    def left(self) -> int:
        """Bytes after the current record."""
        return self.size - self.file.tell()

    def _need(self, n: int):
        # checked before reading, so a corrupt length reads and allocates nothing
        if n > self.left():
            raise ValueError("checkpoint truncated")

    def take(self, n: int) -> bytes:
        self._need(n)
        return self.file.read(n)

    def block(self) -> bytes:
        (n,) = struct.unpack("<I", self.take(4))
        return self.take(n)

    def _data_into(self, dest: np.ndarray, what: str):
        """A record's shape, which must be ``dest``'s, and its little-endian float32 data, read into ``dest``."""
        _trainable, ndim = struct.unpack("<BI", self.take(5))  # the trainable flag is not needed to load it
        shape = struct.unpack(f"<{ndim}I", self.take(4 * ndim))
        if dest.shape != shape:
            raise ValueError(f"dimension mismatch for {what}: model {dest.shape}, checkpoint {shape}")
        self._need(dest.nbytes)
        self.file.readinto(memoryview(dest).cast("B"))
        if sys.byteorder == "big":
            dest.byteswap(inplace=True)

    def tensors_into(self, kind: str, targets: dict[str, tuple[np.ndarray, ...]]):
        """Read a counted section of records into ``targets``, name -> float32 arrays.

        Each name has one record per target array, in a row under the same
        name (a parameter's value; a moment pair's m and v). An unknown name,
        a shape mismatch or a target left unloaded is named in the error.
        """
        (count,) = struct.unpack("<I", self.take(4))
        width = len(next(iter(targets.values())))
        loaded = set()
        for _ in range(count):
            for i in range(width):
                record = self.block().decode("utf-8")
                if i == 0:
                    name = record
                elif record != name:
                    raise ValueError(f"{kind} name mismatch: {name!r} vs {record!r}")
                if name not in targets:
                    raise ValueError(f"unexpected {kind} {name!r} in checkpoint")
                self._data_into(targets[name][i], f"{kind} {name!r}")
            loaded.add(name)
        missing = [name for name in targets if name not in loaded]
        if missing:
            raise ValueError(f"missing {kind} {missing[0]!r} in checkpoint")


def checkpoint_save(
    path, model: WaffleIron, optimizer: Optional[AdamW] = None, run_config: Optional[RunConfig] = None
):
    """Serialize a model (and optionally its optimizer state) to ``path``, one record at a time."""
    if run_config is None:
        run_config = RunConfig(model.config)
    with open(path, "wb") as out:
        out.write(_MAGIC)
        out.write(struct.pack("<I", _VERSION))
        _write_block(out, serialize_run_config(run_config).encode("utf-8"))
        if run_config.class_map_ids is None:
            out.write(struct.pack("<B", 0))
        else:
            out.write(struct.pack("<B", 1))
            _write_block(out, serialize_class_map(run_config.class_map_ids).encode("utf-8"))
        tensors = list(model.store.items())
        out.write(struct.pack("<I", len(tensors)))
        for name, t in tensors:
            _write_tensor(out, name, t.data, t.trainable)
        out.write(struct.pack("<B", optimizer is not None))
        if optimizer is not None:
            out.write(struct.pack("<Q5d", optimizer.step_count, *optimizer.betas, optimizer.eps,
                                  optimizer.weight_decay, optimizer.base_lr))
            out.write(struct.pack("<I", len(optimizer.m)))
            for name, m in optimizer.m.items():
                _write_tensor(out, name, m, True)
                _write_tensor(out, name, optimizer.v[name], True)


def checkpoint_load(path) -> tuple[WaffleIron, Optional[AdamW], RunConfig]:
    """Load a checkpoint into a fresh model built from its stored run config.

    Every stored tensor must exist in that model with the same shape, and
    every model tensor must be stored; the same holds for the optimizer's
    moments against the trainable tensors. The first offender is named, and
    bytes after the last record are rejected. Returns (model, optimizer,
    run_config), where ``optimizer`` is an :class:`AdamW` over ``model.store``
    holding the stored step, hyperparameters and moments, or None when the
    file holds no optimizer state.
    """
    with open(path, "rb") as file:
        reader = _Reader(file)
        if reader.take(4) != _MAGIC:
            raise ValueError(f"bad magic in {path}")
        (version,) = struct.unpack("<I", reader.take(4))
        if version not in (1, _VERSION):
            raise ValueError(f"unsupported checkpoint version {version}")
        run_config = parse_run_config(reader.block().decode("utf-8"))
        if version > 1 and struct.unpack("<B", reader.take(1))[0]:
            run_config.class_map_ids = parse_class_map(reader.block().decode("utf-8"), f"{path} class map")
        model = WaffleIron(run_config.model, None)
        reader.tensors_into("tensor", {name: (t.data,) for name, t in model.store.items()})
        optimizer = None
        if struct.unpack("<B", reader.take(1))[0]:
            step, b1, b2, eps, wd, base_lr = struct.unpack("<Q5d", reader.take(8 + 5 * 8))
            optimizer = AdamW(model.store, (b1, b2), eps, wd, base_lr)
            optimizer.step_count = step
            reader.tensors_into("optimizer moment", {name: (m, optimizer.v[name]) for name, m in optimizer.m.items()})
        if reader.left():
            raise ValueError(f"{reader.left()} trailing bytes after the last record in {path}")
    return model, optimizer, run_config


# -- datasets -----------------------------------------------------------------------


class ScanDataset:
    """Lazy sequence of labeled clouds stored as ``*.bin`` plus ``*.label``."""

    def __init__(
        self,
        root,
        scan_format: str = "kitti4",
        class_map: Optional[dict] = None,
        voxel_size: float = 0.0,
    ):
        self.root = Path(root)
        self.scan_format = scan_format
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
        pc = read_scan(path, self.scan_format)
        semantic, instances = read_labels(path.with_suffix(".label"), self.class_map, pc.n_points)
        pc = PointCloud(pc.positions, pc.intensity, semantic)
        if self.voxel_size > 0:
            pc, kept = voxel_downsample(pc, self.voxel_size)
            instances = instances[kept]
        return pc, instances

    def __getitem__(self, i: int) -> PointCloud:
        return self.load_with_instances(i)[0]
