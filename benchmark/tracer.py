"""Span tracing and per-layer counters, installed from outside the package.

:func:`install` replaces public functions and methods of the ``waffleiron``
modules with timing wrappers and returns a callable that puts the originals
back. Module-level functions are replaced in every ``waffleiron`` module
that holds them, so names that ``cli``, ``evaluation``, ``backbone`` and
``training`` import by name are covered too. Nothing is installed unless a
traced run asks for it, so untraced runs execute the package untouched.

Each span records a name, start, end, parent span and operation id. Spans
stay in memory until :meth:`Tracer.to_json` writes them out. Counters are
taken at the same boundaries from arguments and results (array dtype,
contiguity and size, ``ProjectionPair.counts``, cloud sizes).
"""

from __future__ import annotations

import functools
import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("geometry", "projection", "nn", "backbone", "augment", "training", "evaluation", "dataio", "cli")
PLANES = ("xy", "xz", "yz")


_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb() -> float:
    """Current resident set size of this process in MB (from /proc/self/statm)."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * _PAGE / 1e6


class Tracer:
    """In-memory span store with per-operation counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.values: dict[int, dict] = defaultdict(dict)

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        nested = any(self.spans[s]["name"] == name for s in self._stack)
        self.spans.append(
            {"id": sid, "name": name, "start": time.perf_counter(), "end": None,
             "parent": parent, "op": self.op, "nested": nested}
        )
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order")

    def count(self, name: str, amount: float = 1) -> None:
        if self.op is not None:
            self.counts[self.op][name] += amount

    def record(self, name: str, value) -> None:
        if self.op is not None:
            self.values[self.op][name] = value

    # -- aggregation -----------------------------------------------------------

    def op_metrics(self, op: int, op_seconds: float) -> dict[str, float]:
        """Inclusive milliseconds per span name, module self shares and counters."""
        spans = [s for s in self.spans if s["op"] == op and s["end"] is not None]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for s in spans:
            dur = s["end"] - s["start"]
            if not s["nested"]:
                out[metric_name(s["name"])] += dur * 1e3
            self_time[s["name"].split(".", 1)[0]] += dur - child_time[s["id"]]
        for module in MODULES:
            out[f"{module}.self_share"] = self_time[module] / op_seconds if op_seconds > 0 else 0.0
        out.update(self.counts[op])
        out.update(self.values[op])
        return out

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": {str(k): dict(v) for k, v in self.counts.items()}}


def metric_name(span_name: str) -> str:
    """``projection.flatten.xy`` -> ``projection.flatten_ms.xy``; ``geometry.knn`` -> ``geometry.knn_ms``."""
    base, _, last = span_name.rpartition(".")
    if last in PLANES:
        return f"{base}_ms.{last}"
    return span_name + "_ms"


def median_metrics(per_op: list[dict[str, float]], names) -> dict[str, float]:
    """Median across operations of every named metric (0 where an op lacks it)."""
    return {name: float(statistics.median(m.get(name, 0.0) for m in per_op)) for name in names}


# -- counters taken at the wrappers ------------------------------------------------


def _arrays(args, kwargs):
    return [a for a in (*args, *kwargs.values()) if isinstance(a, np.ndarray)]


def _nn_check(tracer, args, kwargs):
    arrays = _arrays(args[1:], kwargs)
    if any(a.dtype == np.float64 for a in arrays):
        tracer.count("nn.float64_calls")
    if any(not a.flags.c_contiguous for a in arrays):
        tracer.count("nn.noncontig_calls")


def _conv_bytes(tracer, args, kwargs, result, _state):
    moved = sum(a.nbytes for a in _arrays(args[1:], kwargs)) + result.nbytes
    tracer.count("nn.conv_mb_computed", moved / 1e6)


def occupancy(counts: np.ndarray, grid_shape) -> tuple[float, float]:
    """Share of occupied cells and of cells within one cell of an occupied one."""
    occ = (np.asarray(counts) > 0).reshape(grid_shape)
    padded = np.pad(occ, 1)
    h, w = occ.shape
    dilated = np.zeros_like(occ)
    for du in range(3):
        for dv in range(3):
            dilated |= padded[du : du + h, dv : dv + w]
    return float(occ.mean()), float(dilated.mean())


# -- installation ----------------------------------------------------------------


def _wrap(tracer, fn, name, before=None, after=None):
    """Timing wrapper; ``name`` is a string or a function of the call arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            state = before(tracer, args, kwargs)
        sid = tracer.open(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            after(tracer, args, kwargs, result, state if before is not None else None)
        return result

    return wrapper


def install(tracer: Tracer):
    """Install every wrapper; returns a function that restores the originals."""
    from waffleiron import augment, backbone, cli, dataio, evaluation, geometry, nn, projection, training
    from waffleiron.projection import AXIS_NAMES

    restore = []

    def patch_function(module, attr, name, before=None, after=None):
        original = getattr(module, attr)
        wrapper = _wrap(tracer, original, name, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "waffleiron" or mod_name.startswith("waffleiron."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        restore.append((mod, key, original))

    def patch_method(cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, _wrap(tracer, original, name, before, after))
        restore.append((cls, attr, original))

    def counted(counter, amount=lambda args, kwargs: 1):
        return lambda t, args, kwargs: t.count(counter, amount(args, kwargs))

    def plane_of_pair(prefix):
        return lambda args, kwargs: f"{prefix}.{args[0].plane.name}"

    def plane_of_layer(prefix):
        return lambda args, kwargs: f"{prefix}." + "+".join(AXIS_NAMES[axes] for axes in args[0].planes)

    # geometry
    patch_function(geometry, "voxel_downsample", "geometry.voxel")
    patch_function(geometry, "crop_fov", "geometry.crop")
    patch_function(geometry, "sample_fixed", "geometry.sample_fixed")
    patch_function(geometry, "knn", "geometry.knn",
                   before=counted("geometry.knn_points", lambda a, k: a[0].n_points))
    patch_function(geometry, "nearest_indices", "geometry.nearest", before=counted("geometry.nearest_calls"))

    # projection
    patch_function(projection, "build_projection",
                   lambda args, kwargs: f"projection.build.{(kwargs.get('plane') or args[1]).name}")
    for attr, prefix in (("flatten", "projection.flatten"), ("inflate", "projection.inflate"),
                         ("flatten_backward", "projection.flatten_bwd"),
                         ("inflate_backward", "projection.inflate_bwd")):
        patch_method(projection.ProjectionPair, attr, plane_of_pair(prefix))

    # nn
    for cls, base in ((nn.DepthwiseConv3x3, "nn.conv"), (nn.BatchNorm, "nn.bn"), (nn.PointwiseLinear, "nn.linear")):
        after = _conv_bytes if cls is nn.DepthwiseConv3x3 else None
        patch_method(cls, "forward", f"{base}_fwd", before=_nn_check, after=after)
        patch_method(cls, "backward", f"{base}_bwd", before=_nn_check, after=after)
    patch_function(nn, "slot_max", "nn.slot_max")

    # backbone
    def forward_before(t, args, kwargs):
        t.count("evaluation.forward_passes")
        projections = args[3] if len(args) > 3 else kwargs["projections"]
        for pair in projections.values():
            occupied, dilated = occupancy(pair.counts, pair.plane.grid_shape)
            t.record(f"projection.occupied_share.{pair.plane.name}", occupied)
            t.record(f"projection.dilated_share.{pair.plane.name}", dilated)
        return rss_mb()

    def forward_after(t, args, kwargs, result, rss_before):
        t.count("backbone.retained_mb", rss_mb() - rss_before)

    patch_function(backbone, "prepare_inputs", "backbone.prepare_inputs")
    patch_method(backbone.WaffleIron, "forward", "backbone.forward", before=forward_before, after=forward_after)
    patch_method(backbone.WaffleIron, "backward", "backbone.backward")
    patch_method(backbone.EmbeddingLayer, "forward", "backbone.embed_fwd")
    patch_method(backbone.EmbeddingLayer, "backward", "backbone.embed_bwd")
    patch_method(backbone.TokenMixLayer, "forward", plane_of_layer("backbone.token_fwd"))
    patch_method(backbone.TokenMixLayer, "backward", plane_of_layer("backbone.token_bwd"))
    patch_method(backbone.ChannelMixLayer, "forward", "backbone.channel_fwd")
    patch_method(backbone.ChannelMixLayer, "backward", "backbone.channel_bwd")

    # training
    patch_function(training, "prepare_training_scene", "training.prepare_scene")
    patch_function(training, "segmentation_loss", "training.loss")
    patch_method(training.AdamW, "step", "training.adamw")

    # augment: pasted points are counted from the public inputs and outputs
    def cutmix_after(t, args, kwargs, result, state):
        t.count("augment.points_pasted", result.n_points - args[0].n_points)

    polarmix_sig = inspect.signature(augment.polarmix)

    def polarmix_before(t, args, kwargs):
        bound = polarmix_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        b = bound.arguments["scene_b"]
        rows = int((np.isin(b.labels, np.asarray(bound.arguments["classes"])) & b.valid).sum())
        t.count("augment.points_pasted", rows * (1 + len(bound.arguments["paste_angles"])))

    patch_function(augment, "apply_augmentations", "augment.apply")
    patch_function(augment, "instance_cutmix", "augment.cutmix", after=cutmix_after)
    patch_function(augment, "polarmix", "augment.polarmix", before=polarmix_before)

    # evaluation, dataio, cli
    patch_function(evaluation, "infer_probs", "evaluation.infer_probs")
    patch_function(dataio, "read_scan", "dataio.read_scan")
    patch_function(dataio, "write_labels", "dataio.write_labels")
    patch_function(dataio, "checkpoint_load", "dataio.checkpoint_load")
    patch_function(cli, "main", "cli.main")

    def uninstall():
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)

    return uninstall
