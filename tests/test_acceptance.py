"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Leaderboard-scale mIoU from the original benchmarks is out of reach
on a desk machine, so criterion 1 records that substitution and the rest of
the suite carries the verification load.
"""

import struct
import time

import numpy as np
from waffleiron import dataio
from waffleiron.backbone import WaffleIron, WaffleIronConfig, param_count, prepare_inputs
from waffleiron.evaluation import evaluate_split
from waffleiron.geometry import Fov, knn, voxel_downsample
from waffleiron.nn import (
    BatchNorm,
    DepthwiseConv3x3,
    LayerScale,
    ParamStore,
    PointwiseLinear,
)
from waffleiron.projection import PlaneSpec, build_projection, plane_schedule
from waffleiron.training import Schedule, lr_at, segmentation_loss

from conftest import random_cloud
from oracles import grad_check, kernel_equivalence, neighborhood_max, neighborhood_max_backward, nn_propagate_labels
from test_geometry import cloud_from_positions, knn_oracle
from test_nn import conv_oracle, grid_backward, grid_forward
from test_projection import flatten_oracle, occupied_columns, scatter_rows


def report(number: int, text: str):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_desk_scale_substitution():
    # Full-dataset training (GPU-weeks) is out of scope; criteria 2-10 are
    # the agreed substitute, with #2 and #3 the quantitative anchors.
    report(1, "leaderboard mIoU replaced by the property/oracle suite below")


def test_criterion_02_parameter_counts():
    t0 = time.perf_counter()
    kitti = WaffleIronConfig(
        depth=48, width=256, rho=0.40,
        fov=Fov(np.array([-50.0, -50.0, -3.0]), np.array([50.0, 50.0, 2.0])),
        num_classes=19, input_feature_mode="5dim",
    )
    n_kitti = param_count(kitti)
    nusc = WaffleIronConfig(
        depth=48, width=384, rho=0.60,
        fov=Fov(np.array([-50.0, -50.0, -5.0]), np.array([50.0, 50.0, 5.0])),
        num_classes=16, input_feature_mode="5dim",
    )
    n_nusc = param_count(nusc)
    elapsed = time.perf_counter() - t0
    assert abs(n_kitti - 6.8e6) <= 0.10 * 6.8e6, n_kitti
    assert abs(n_nusc - 15.1e6) <= 0.10 * 15.1e6, n_nusc
    assert elapsed < 1.0, f"param_count took {elapsed:.2f}s"
    report(2, f"48-256 -> {n_kitti} (target 6.8M), 48-384 -> {n_nusc} (target 15.1M), {elapsed:.2f}s")


def test_criterion_03_schedule_endpoints():
    sched = Schedule(warmup_steps=400, total_steps=11250, peak_lr=1e-3, final_lr=1e-5)
    assert lr_at(0, sched) == 0.0
    assert lr_at(400, sched) == 1e-3
    assert abs(lr_at(11250, sched) - 1e-5) < 1e-12
    report(3, "lr(0) = 0, lr(warmup) = 1e-3 exactly, lr(total) = 1e-5 within 1e-12")


def test_criterion_04_projection_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    fov = Fov(np.array([-20.0, -20.0, -4.0]), np.array([20.0, 20.0, 4.0]))
    plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
    for trial in range(20):
        n = int(rng.integers(50, 5001))
        f = int(rng.integers(2, 65))
        pts = rng.uniform(fov.min, fov.max - 1e-3, size=(n, 3))
        proj = build_projection(pts, plane)
        feats = rng.standard_normal((f, n)).astype(np.float32)

        grid = rng.standard_normal((f, proj.n_cells)).astype(np.float32)
        back = scatter_rows(proj, proj.flatten(proj.inflate(occupied_columns(proj, grid))))
        occ = proj.counts > 0
        assert np.abs(back[:, occ] - grid[:, occ]).max() <= 1e-6

        g2 = occupied_columns(proj, rng.standard_normal((f, proj.n_cells)))
        lhs = float((proj.flatten_sum(feats) * g2).sum())
        rhs = float((feats * proj.inflate(g2)).sum())
        assert abs(lhs - rhs) <= 1e-5 * max(1.0, abs(lhs))

        assert kernel_equivalence(feats, proj) <= 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"projection algebra suite took {elapsed:.1f}s"
    report(4, f"20 instances: round trip <= 1e-6, adjoint <= 1e-5, kernels <= 1e-5, {elapsed:.1f}s")


def test_criterion_05_gradient_checks():
    t0 = time.perf_counter()
    worst_layer = 0.0

    def run(build):
        nonlocal worst_layer
        for seed in range(5):
            store = ParamStore()
            err = grad_check(build(store, np.random.default_rng(seed)), store)
            worst_layer = max(worst_layer, err)

    def linear(store, rng):
        lin = PointwiseLinear(store, "lin", 4, 5, rng)
        x = store.register("x", rng.standard_normal((4, 7)).astype(np.float32))
        r = rng.standard_normal((5, 7))

        def loss(want):
            y = lin.forward(x.data)
            if want:
                x.grad += lin.backward(r)
            return float((y * r).sum())

        return loss

    def bn(store, rng):
        layer = BatchNorm(store, "bn", 3)
        layer.gamma.data[...] = rng.uniform(0.5, 1.5, 3)
        layer.beta.data[...] = rng.standard_normal(3)
        x = store.register("x", rng.standard_normal((3, 11)).astype(np.float32))
        r = rng.standard_normal((3, 11))

        def loss(want):
            y = layer.forward(x.data, training=True, update_stats=False)
            if want:
                x.grad += layer.backward(r)
            return float((y * r).sum())

        return loss

    def conv(store, rng):
        layer = DepthwiseConv3x3(store, "conv", 2, rng)
        x = store.register("x", rng.standard_normal((2, 5, 6)).astype(np.float32))
        r = rng.standard_normal((2, 5, 6))

        def loss(want):
            y = grid_forward(layer, x.data)
            if want:
                x.grad += grid_backward(layer, r)
            return float((y * r).sum())

        return loss

    def layerscale(store, rng):
        layer = LayerScale(store, "ls", 4)
        layer.diag.data[...] = rng.standard_normal(4)
        x = store.register("x", rng.standard_normal((4, 9)).astype(np.float32))
        r = rng.standard_normal((4, 9))

        def loss(want):
            y = layer.forward(x.data)
            if want:
                x.grad += layer.backward(r)
            return float((y * r).sum())

        return loss

    def pool(store, rng):
        # distinct, well separated values: no max switch within the FD step
        vals = rng.permutation(3 * 16).astype(np.float32) * 0.05
        x = store.register("x", vals.reshape(3, 16))
        nbr = rng.integers(0, 16, size=(16, 4))
        r = rng.standard_normal((3, 16))

        def loss(want):
            y, sel = neighborhood_max(x.data, nbr)
            if want:
                x.grad += neighborhood_max_backward(r, sel, 16)
            return float((y * r).sum())

        return loss

    for build in (linear, bn, conv, layerscale, pool):
        run(build)
    assert worst_layer < 1e-4, f"per-layer gradient error {worst_layer}"

    # end to end: WaffleIron-3-32 with the combined segmentation loss
    fov = Fov(np.array([-8.0, -8.0, -2.4]), np.array([8.0, 8.0, 2.4]))
    cfg = WaffleIronConfig(
        depth=3, width=32, rho=1.6, fov=fov, k_neighbors=4, num_classes=3,
        drop_prob=0.0, strategy="baseline", input_feature_mode="5dim",
    )
    model = WaffleIron(cfg, np.random.default_rng(0))
    # scene seed chosen away from ReLU/max kinks (FD steps must not cross one)
    pc = random_cloud(np.random.default_rng(44), 24, fov)
    feats, nbr, proj, valid = prepare_inputs(model, pc)
    labels = pc.labels

    def full_loss(want):
        logits = model.forward(
            feats.astype(np.float64), nbr, proj, valid, training=True, update_stats=False
        )
        loss, dlogits, _ = segmentation_loss(logits, labels, valid)
        if want:
            model.backward(dlogits)
        return loss

    err = grad_check(full_loss, model.store, eps=1e-4)
    elapsed = time.perf_counter() - t0
    assert err < 1e-3, f"end-to-end gradient error {err}"
    assert elapsed < 300.0, f"gradient checks took {elapsed:.0f}s"
    report(5, f"layers worst {worst_layer:.2e} < 1e-4, WaffleIron-3-32 {err:.2e} < 1e-3, {elapsed:.0f}s")


def test_criterion_06_overfit_harness(harness_runs):
    acc = harness_runs["acc_a"]
    elapsed = harness_runs["seconds_a"]
    assert acc >= 0.99, f"training accuracy {acc}"
    assert elapsed < 300.0, f"harness took {elapsed:.0f}s"
    report(6, f"WaffleIron-3-32 reaches {acc:.4f} accuracy in 200 steps, {elapsed:.0f}s")


def test_criterion_07_oracle_equivalence():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(40, 160))
        pc = cloud_from_positions(rng.uniform(-5, 5, size=(n, 3)))
        np.testing.assert_array_equal(knn(pc, 8), knn_oracle(pc.positions, pc.valid, 8))

    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        src = cloud_from_positions(rng.uniform(-4, 4, size=(40, 3)))
        labels = rng.integers(0, 5, 40).astype(np.int32)
        dst = rng.uniform(-4, 4, size=(70, 3))
        got = nn_propagate_labels(src, labels, dst)
        spts = src.positions.astype(np.float64)
        want = [labels[int(np.argmin(((spts - d) ** 2).sum(axis=1)))] for d in dst]
        np.testing.assert_array_equal(got, want)

    for seed in range(10):
        rng = np.random.default_rng(300 + seed)
        positions = rng.uniform(0, 2, size=(400, 3)).astype(np.float32)
        pc = cloud_from_positions(positions)
        down, kept = voxel_downsample(pc, 0.25)
        seen = {}
        for i, p in enumerate(positions):
            seen.setdefault(tuple(np.floor(p.astype(np.float64) / 0.25).astype(int)), i)
        assert sorted(seen.values()) == kept.tolist()

    for seed in range(10):
        rng = np.random.default_rng(400 + seed)
        store = ParamStore()
        conv = DepthwiseConv3x3(store, "conv", 3, rng)
        x = rng.standard_normal((3, 6, 7)).astype(np.float32)
        np.testing.assert_allclose(
            grid_forward(conv, x), conv_oracle(x, conv.k.data, conv.b.data), atol=1e-6
        )

    fov = Fov(np.zeros(3), np.ones(3) * 8)
    plane = PlaneSpec.from_fov((0, 1), fov, 1.0)
    for seed in range(10):
        rng = np.random.default_rng(500 + seed)
        pts = rng.uniform(0, 7.999, size=(120, 3))
        proj = build_projection(pts, plane)
        feats = rng.standard_normal((6, 120)).astype(np.float32)
        want = flatten_oracle(feats, proj.cell_index, proj.valid, proj.n_cells)
        np.testing.assert_allclose(scatter_rows(proj, proj.flatten(feats)), want, rtol=1e-6, atol=1e-7)

    report(7, "knn, label propagation, voxel grid, depthwise conv, flatten match oracles (10 seeds each)")


def test_criterion_08_determinism(harness_runs, tmp_path):
    ck_a = (harness_runs["dir_a"] / "ckpt_final.wfli").read_bytes()
    ck_b = (harness_runs["dir_b"] / "ckpt_final.wfli").read_bytes()
    assert ck_a == ck_b, "checkpoints from identically seeded runs differ"

    scene = harness_runs["scene"]
    csvs = []
    for run in ("model_a", "model_b"):
        report_obj = evaluate_split([scene], harness_runs[run], tta=False)
        csvs.append(report_obj.to_csv() + report_obj.miou_line())
    assert csvs[0] == csvs[1], "metric files from identically seeded runs differ"
    (tmp_path / "metrics_a.csv").write_text(csvs[0])
    (tmp_path / "metrics_b.csv").write_text(csvs[1])
    assert (tmp_path / "metrics_a.csv").read_bytes() == (tmp_path / "metrics_b.csv").read_bytes()
    report(8, "identically seeded runs: checkpoints and metric files byte-identical")


def test_criterion_09_plane_schedule():
    seq = [plane_schedule(layer, "baseline")[0] for layer in range(48)]
    assert seq == [(0, 1), (0, 2), (1, 2)] * 16
    bev = [plane_schedule(layer, "bev")[0] for layer in range(48)]
    assert bev == [(0, 1)] * 48
    report(9, "baseline L=48 cycles (xy,xz,yz) x16; BEV stays (xy) x48")


def test_criterion_10_format_round_trips(tmp_path, small_fov):
    # kitti4 scan: golden bytes -> parse -> rewrite byte-exactly
    scan_path = tmp_path / "scan.bin"
    golden = struct.pack("<8f", 1.0, 2.0, 3.0, 0.5, -4.0, 0.25, 1.5, 0.125)
    scan_path.write_bytes(golden)
    pc = dataio.read_scan(scan_path, "kitti4", "5dim")
    np.testing.assert_allclose(pc.positions[0], [1.0, 2.0, 3.0])
    np.testing.assert_allclose(pc.features[1, 0], 0.125)
    rewrite = tmp_path / "scan2.bin"
    dataio.write_scan(rewrite, pc.positions, pc.features[:, 0], "kitti4")
    assert rewrite.read_bytes() == golden

    # uint32 labels: golden bytes -> parse -> rewrite byte-exactly
    label_path = tmp_path / "a.label"
    golden_labels = struct.pack("<3I", 0x0001_0030, 0x0000_0008, 0xFFFF_00FF)
    label_path.write_bytes(golden_labels)
    sem, inst = dataio.read_labels(label_path)
    assert sem.tolist() == [0x30, 8, 0xFF]
    assert inst.tolist() == [1, 0, 0xFFFF]
    rewrite_l = tmp_path / "b.label"
    dataio.write_labels(rewrite_l, sem, inst)
    assert rewrite_l.read_bytes() == golden_labels

    # WFLI checkpoint: save -> load -> save byte-exactly
    cfg = WaffleIronConfig(depth=3, width=8, rho=0.8, fov=small_fov, k_neighbors=3, num_classes=3)
    model = WaffleIron(cfg, np.random.default_rng(0))
    p1, p2 = tmp_path / "m1.wfli", tmp_path / "m2.wfli"
    dataio.checkpoint_save(p1, model)
    loaded, _, _ = dataio.checkpoint_load(p1)
    dataio.checkpoint_save(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    report(10, "kitti4 scans, uint32 labels and WFLI checkpoints round-trip byte-exactly")
