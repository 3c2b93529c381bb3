"""Timing wrappers: installation, span bookkeeping and counters."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from waffleiron import backbone, cli, evaluation, geometry, nn, projection, training  # noqa: E402


def test_install_covers_names_imported_by_name_and_uninstall_restores():
    originals = {
        "knn": (backbone.knn, geometry.knn),
        "nearest": (cli.nearest_indices, evaluation.nearest_indices, geometry.nearest_indices),
        "prepare": (evaluation.prepare_inputs, training.prepare_inputs),
        "forward": backbone.WaffleIron.forward,
    }
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert backbone.knn is geometry.knn is not originals["knn"][0]
        assert cli.nearest_indices is evaluation.nearest_indices is not originals["nearest"][0]
        assert evaluation.prepare_inputs is training.prepare_inputs is not originals["prepare"][0]
        assert backbone.WaffleIron.forward is not originals["forward"]
    finally:
        uninstall()
    assert (backbone.knn, geometry.knn) == originals["knn"]
    assert (cli.nearest_indices, evaluation.nearest_indices, geometry.nearest_indices) == originals["nearest"]
    assert (evaluation.prepare_inputs, training.prepare_inputs) == originals["prepare"]
    assert backbone.WaffleIron.forward is originals["forward"]


def test_self_time_and_inclusive_metrics():
    t = tracing.Tracer()
    t.op = 0
    t.spans = [
        {"id": 0, "name": "backbone.forward", "start": 0.0, "end": 1.0, "parent": None, "op": 0, "nested": False},
        {"id": 1, "name": "nn.conv_fwd", "start": 0.1, "end": 0.3, "parent": 0, "op": 0, "nested": False},
        {"id": 2, "name": "projection.flatten.xy", "start": 0.4, "end": 0.5, "parent": 0, "op": 0, "nested": False},
        {"id": 3, "name": "nn.conv_fwd", "start": 0.6, "end": 0.9, "parent": 0, "op": 0, "nested": False},
    ]
    t.count("geometry.nearest_calls", 2)
    m = t.op_metrics(0, op_seconds=2.0)
    assert m["backbone.forward_ms"] == 1000.0
    np.testing.assert_allclose(m["nn.conv_fwd_ms"], 500.0)
    np.testing.assert_allclose(m["projection.flatten_ms.xy"], 100.0)
    np.testing.assert_allclose(m["backbone.self_share"], 0.4 / 2.0)
    np.testing.assert_allclose(m["nn.self_share"], 0.5 / 2.0)
    assert m["geometry.self_share"] == 0.0
    assert m["geometry.nearest_calls"] == 2


def test_spans_nest_and_close_in_order():
    t = tracing.Tracer()
    t.op = 3
    outer = t.open("a.outer")
    inner = t.open("a.outer")
    t.close(inner)
    t.close(outer)
    assert t.spans[inner]["parent"] == outer and t.spans[inner]["nested"]
    assert t.spans[outer]["op"] == 3 and t.spans[outer]["end"] >= t.spans[inner]["end"]


def test_metric_names():
    assert tracing.metric_name("geometry.knn") == "geometry.knn_ms"
    assert tracing.metric_name("projection.inflate_bwd.yz") == "projection.inflate_bwd_ms.yz"
    assert tracing.metric_name("backbone.token_fwd.xy") == "backbone.token_fwd_ms.xy"


def test_occupancy_shares():
    counts = np.zeros(25, dtype=np.int64)
    counts[12] = 3  # centre of a 5 x 5 grid
    occupied, dilated = tracing.occupancy(counts, (5, 5))
    assert occupied == 1 / 25
    assert dilated == 9 / 25


def test_traced_training_step_reports_layers_and_float64_leak(tmp_path):
    work = workloads.TrainStep(0, tmp_path, n_azimuth=40, n_points=256, width=16)
    work.setup()
    t = tracing.Tracer()
    uninstall = tracing.install(t)
    try:
        t.op = 0
        loss = work.op()
        t.op = None
    finally:
        uninstall()
    ok, record = work.check(loss)
    assert ok and np.isfinite(record["loss"])
    m = t.op_metrics(0, op_seconds=1.0)
    for plane in ("xy", "xz", "yz"):
        assert m[f"backbone.token_bwd_ms.{plane}"] > 0
        assert m[f"projection.inflate_bwd_ms.{plane}"] > 0
        assert 0 < m[f"projection.occupied_share.{plane}"] <= m[f"projection.dilated_share.{plane}"] <= 1
    assert m["geometry.knn_points"] == 256
    assert m["evaluation.forward_passes"] == 1
    assert m["augment.points_pasted"] > 0
    # the loss gradient is float64, so the backward layers see float64 arrays
    assert m["nn.float64_calls"] > 0
    assert m["nn.conv_mb_computed"] > 0
    assert all(s["end"] is not None for s in t.spans)
    assert nn.DepthwiseConv3x3.forward.__qualname__ == "DepthwiseConv3x3.forward"
