"""Command-line surface, including a miniature end-to-end run."""

import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

from waffleiron import cli, dataio, training
from waffleiron.backbone import param_count
from waffleiron.cli import main
from waffleiron.evaluation import ConfusionMatrix, MetricsReport, iou, segment_scan

REPO = Path(__file__).resolve().parents[1]

TINY_CFG = """
depth 3
width 8
rho 0.8
fov_xmin -8.0
fov_xmax 8.0
fov_ymin -8.0
fov_ymax 8.0
fov_zmin -2.4
fov_zmax 2.4
k 3
classes 3
strategy baseline
feature_mode 5dim
epochs 2
batch 1
lr 0.003
warmup_epochs 1
n_points 64
seed 0
voxel_size 0.05
aug_rotate true
aug_flip true
aug_scale true
"""


def write_tiny_dataset(directory, n_scans=2, n_points=90, seed=0):
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for i in range(n_scans):
        r = 7.0 * np.sqrt(rng.uniform(0, 1, n_points))
        phi = rng.uniform(0, 2 * np.pi, n_points)
        z = rng.uniform(-2.3, 2.3, n_points)
        positions = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        rec = np.concatenate(
            [positions, rng.random((n_points, 1))], axis=1
        ).astype("<f4")
        rec.tofile(directory / f"scan_{i}.bin")
        labels = np.digitize(z, [-0.8, 0.8]).astype(np.uint32)
        dataio.write_labels(directory / f"scan_{i}.label", labels)


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_run")
    data = root / "data" / "train"
    write_tiny_dataset(data)
    cfg = root / "tiny.cfg"
    cfg.write_text(TINY_CFG)
    out = root / "out"
    code = main(["train", "--config", str(cfg), "--data", str(root / "data"), "--out", str(out)])
    assert code == 0
    return root


class TestArgumentErrors:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", "x.cfg"])
        assert exc.value.code == 2

    def test_runtime_error_exits_1(self, capsys):
        code = main(["paramcount", "--config", "/nonexistent/path.cfg"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_config_value_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG.replace("fov_xmax 8.0", "fov_xmax inf"))
        assert main(["paramcount", "--config", str(cfg)]) == 1
        assert "error: config key 'fov_xmax': expected a finite number, got 'inf'" in capsys.readouterr().err


class TestTrainInputErrors:
    @pytest.mark.parametrize(
        "class_map, overrides, message",
        [
            ("-1 1\n", [], "tiny.map:1: raw id -1 outside [0, 65535]"),
            ("0 0\n70000 1\n", [], "tiny.map:2: raw id 70000 outside [0, 65535]"),
            ("0 -2\n", [], "tiny.map:1: negative train id -2"),
            ("0 0\nx 1\n", [], "tiny.map:2: ids must be integers, got 'x 1'"),
            ("0 road\n", [], "tiny.map:1: ids must be integers, got '0 road'"),
            ("0 0\n1 255\n", [], "tiny.map:2: train id 255 outside [0, 254]; an ignored class is written 'ignore'"),
            ("0 0\n10 99999999999\n", [], "tiny.map:2: train id 99999999999 outside [0, 254]"),
            ("0 0\n1 7\n2 1\n", [], "scan_0: label 7 outside the class range [0, 2]"),
            (None, ["classes=2"], "scan_0: label 2 outside the class range [0, 1]"),
            (None, ["batch=0"], "batch_size must be >= 1"),
            (None, ["checkpoint_every=-1"], "checkpoint_every must be >= 0"),
            (None, ["lr=-0.5"], "peak_lr must be >= 0"),
            (None, ["lr_final=-1e-5"], "final_lr must be >= 0"),
            (None, ["wd=-3"], "weight_decay must be >= 0"),
            (None, ["warmup_epochs=-1"], "warmup_epochs must be >= 0"),
            (None, ["seed=-1"], "seed must be >= 0"),
            (None, ["fov_xmax=inf"], "config key 'fov_xmax': expected a finite number, got 'inf'"),
            (None, ["rho=nan"], "config key 'rho': expected a finite number, got 'nan'"),
            (None, ["lr=nan"], "config key 'lr': expected a finite number, got 'nan'"),
            (None, ["voxel_size=0"], "voxel_size must be positive and finite, got 0.0"),
            (None, ["voxel_size=-0.1"], "voxel_size must be positive and finite, got -0.1"),
            (None, ["voxel_size=nan"], "config key 'voxel_size': expected a finite number, got 'nan'"),
        ],
        ids=["negative-raw-id", "raw-id-past-16-bits", "negative-train-id", "non-integer-raw-id", "non-integer-train-id",
             "train-id-is-ignore-label", "train-id-past-int32",
             "mapped-label-past-classes",
             "raw-label-past-classes", "batch-zero", "negative-checkpoint-every",
             "negative-lr", "negative-lr-final", "negative-wd", "negative-warmup-epochs", "negative-seed",
             "infinite-fov", "nan-rho", "nan-lr", "zero-voxel-size", "negative-voxel-size", "nan-voxel-size"],
    )
    def test_exits_1_with_message(self, tmp_path, capsys, class_map, overrides, message):
        cfg = TINY_CFG.replace("epochs 2", "epochs 1")
        if class_map is not None:
            (tmp_path / "tiny.map").write_text(class_map)
            cfg += "class_map tiny.map\n"
        (tmp_path / "tiny.cfg").write_text(cfg)
        write_tiny_dataset(tmp_path / "data" / "train", n_scans=1)
        argv = ["train", "--config", str(tmp_path / "tiny.cfg"), "--data", str(tmp_path / "data"),
                "--out", str(tmp_path / "out")]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 1
        assert message in capsys.readouterr().err
        assert not list(tmp_path.glob("out/*.wfli"))
        assert not (tmp_path / "out" / "train.log").exists()

    def test_unknown_scan_format_exits_before_the_out_dir(self, tmp_path, capsys):
        (tmp_path / "tiny.cfg").write_text(TINY_CFG.replace("epochs 2", "epochs 1"))
        write_tiny_dataset(tmp_path / "data" / "train", n_scans=1)
        argv = ["train", "--config", str(tmp_path / "tiny.cfg"), "--data", str(tmp_path / "data"),
                "--out", str(tmp_path / "out"), "--set", "scan_format=kitti5"]
        assert main(argv) == 1
        assert "unknown scan format 'kitti5'; expected one of kitti4, nuscenes5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("depth", [0, 3])
    def test_unknown_strategy_exits_before_the_out_dir(self, tmp_path, capsys, depth):
        (tmp_path / "tiny.cfg").write_text(TINY_CFG.replace("epochs 2", "epochs 1"))
        write_tiny_dataset(tmp_path / "data" / "train", n_scans=1)
        argv = ["train", "--config", str(tmp_path / "tiny.cfg"), "--data", str(tmp_path / "data"),
                "--out", str(tmp_path / "out"), "--set", "strategy=bogus", "--set", f"depth={depth}"]
        assert main(argv) == 1
        assert "unknown strategy 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestSeedFlag:
    @pytest.mark.parametrize("command", ["train", "infer", "eval"])
    def test_negative_seed_is_an_argument_error(self, tmp_path, capsys, command):
        argv = {
            "train": ["train", "--config", "x.cfg", "--data", "data", "--out", str(tmp_path / "out")],
            "infer": ["infer", "--ckpt", "x.wfli", "--scan", "x.bin", "--out", str(tmp_path / "x.label")],
            "eval": ["eval", "--ckpt", "x.wfli", "--data", "data", "--split", "val", "--out", str(tmp_path / "out")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_train_checks_the_seed_before_the_out_dir(self, tmp_path):
        # the seed goes through TrainConfig's own check, also when argparse is bypassed
        (tmp_path / "tiny.cfg").write_text(TINY_CFG)
        args = cli.build_parser().parse_args(
            ["train", "--config", str(tmp_path / "tiny.cfg"), "--data", str(tmp_path / "data"),
             "--out", str(tmp_path / "out")])
        args.seed = -1
        with pytest.raises(ValueError, match="seed must be >= 0"):
            cli._cmd_train(args)
        assert not (tmp_path / "out").exists()

    def test_seed_overrides_the_config(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "tiny.cfg").write_text(TINY_CFG)
        write_tiny_dataset(tmp_path / "data" / "train", n_scans=1)
        seeds = []
        monkeypatch.setattr(cli, "train_loop", lambda dataset, rc, **kwargs: (seeds.append(rc.train.seed), None, []))
        assert main(["train", "--config", str(tmp_path / "tiny.cfg"), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out"), "--seed", "5"]) == 0
        assert seeds == [5]


class TestCutmixBank:
    def test_no_loaded_scan_outlives_the_bank(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "tiny.cfg").write_text(TINY_CFG.replace("epochs 2", "epochs 1") + "aug_cutmix true\n")
        write_tiny_dataset(tmp_path / "data" / "train", n_scans=3)
        loaded = []
        load, train_loop = dataio.ScanDataset.load_with_instances, cli.train_loop

        def recording_load(self, i):
            pc, instances = load(self, i)
            loaded.append(weakref.ref(pc))
            return pc, instances

        def entered_train_loop(*args, **kwargs):
            gc.collect()
            alive.extend(i for i, ref in enumerate(loaded) if ref() is not None)
            seen.append(len(loaded))
            return train_loop(*args, **kwargs)

        alive, seen = [], []
        monkeypatch.setattr(dataio.ScanDataset, "load_with_instances", recording_load)
        monkeypatch.setattr(cli, "train_loop", entered_train_loop)
        assert main(["train", "--config", str(tmp_path / "tiny.cfg"), "--data", str(tmp_path / "data"),
                     "--out", str(tmp_path / "out")]) == 0
        assert seen == [3] and alive == []

    def test_unusable_out_dir_fails_before_the_bank(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "tiny.cfg").write_text(TINY_CFG.replace("epochs 2", "epochs 1") + "aug_cutmix true\n")
        write_tiny_dataset(tmp_path / "data" / "train", n_scans=1)
        banked = []
        monkeypatch.setattr(cli, "build_instance_bank", lambda *args, **kwargs: banked.append(args))
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "out"
        assert main(["train", "--config", str(tmp_path / "tiny.cfg"), "--data", str(tmp_path / "data"),
                     "--out", str(out)]) == 1
        assert f"error: output directory {out} cannot be made: {taken} is not a directory" in capsys.readouterr().err
        assert banked == []


class TestUndersizedPipeline:
    """``train`` on the pipeline's config runs every scene whole, below ``n_points``, so the cap changes nothing."""

    def test_cap_above_the_scene_size_changes_nothing(self, tmp_path, monkeypatch, capsys):
        from test_reach import CLASS_MAP, PIPELINE_KEYS  # imported here: test_reach imports this module

        (tmp_path / "tiny.map").write_text(CLASS_MAP)
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_CFG.replace("classes 3\n", "") + PIPELINE_KEYS)
        write_tiny_dataset(tmp_path / "data" / "train", n_scans=3)
        sampled = []

        def recording(pc, n_target, rng, _sample=training.sample_fixed):
            out = _sample(pc, n_target, rng)
            sampled.append((out is pc, out.n_points < n_target))
            return out

        monkeypatch.setattr(training, "sample_fixed", recording)
        runs = {}
        for n in (512, 1024):
            out = tmp_path / f"out_{n}"
            assert main(["train", "--config", str(cfg), "--data", str(tmp_path / "data"), "--out", str(out),
                         "--set", f"n_points={n}"]) == 0
            model, optimizer, rc = dataio.checkpoint_load(out / "ckpt_final.wfli")
            assert rc.train.n_points == n
            tensors = [t.data.tobytes() for _, t in model.store.items()]
            moments = [a.tobytes() for state in (optimizer.m, optimizer.v) for a in state.values()]
            # every column but the wall seconds
            log = [line.split("\t")[:4] for line in (out / "train.log").read_text().splitlines()]
            runs[n] = tensors, moments, log
        assert sampled == [(True, True)] * 12
        assert runs[512] == runs[1024]
        ckpt = str(tmp_path / "out_512" / "ckpt_final.wfli")
        scan = str(tmp_path / "data" / "train" / "scan_0.bin")
        assert main(["infer", "--ckpt", ckpt, "--scan", scan, "--out", str(tmp_path / "pred.label")]) == 0
        assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "data"), "--split", "train",
                     "--out", str(tmp_path / "metrics")]) == 0
        assert "mIoU" in capsys.readouterr().out


class TestNuScenesPipeline:
    """``train``, ``infer`` and ``eval`` on ``nuscenes5`` scans with the nuScenes config, shrunk to depth 3 width 8."""

    N_POINTS = 400

    def test_train_infer_eval(self, tmp_path, capsys):
        data = tmp_path / "data" / "train"
        data.mkdir(parents=True)
        rng = np.random.default_rng(11)
        for i in range(2):
            r = 45.0 * np.sqrt(rng.uniform(0, 1, self.N_POINTS))
            phi = rng.uniform(0, 2 * np.pi, self.N_POINTS)
            z = rng.uniform(-4.5, 4.5, self.N_POINTS)
            positions = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
            dataio.write_scan(data / f"scan_{i}.bin", positions, rng.random(self.N_POINTS), scan_format="nuscenes5")
            # 16 z bands, one per class
            dataio.write_labels(data / f"scan_{i}.label", np.digitize(z, np.linspace(-4.5, 4.5, 17)[1:-1]))
        cfg = REPO / "configs" / "nuscenes_48_384.cfg"
        rc = dataio.load_run_config(cfg)
        assert rc.scan_format == "nuscenes5" and rc.model.num_classes == 16 and rc.model.rho == 0.6
        assert (rc.model.fov.min.tolist(), rc.model.fov.max.tolist()) == ([-50, -50, -5], [50, 50, 5])
        shrink = ["depth=3", "width=8", "epochs=1", "batch=1", "warmup_epochs=1", "n_points=256"]
        out = tmp_path / "out"
        argv = ["train", "--config", str(cfg), "--data", str(tmp_path / "data"), "--out", str(out)]
        assert main(argv + [arg for item in shrink for arg in ("--set", item)]) == 0
        ckpt = out / "ckpt_final.wfli"
        model, _, trained = dataio.checkpoint_load(ckpt)
        assert (model.config.depth, model.config.width, trained.scan_format) == (3, 8, "nuscenes5")
        assert len((out / "train.log").read_text().splitlines()) == 1

        pred = tmp_path / "pred.label"
        assert main(["infer", "--ckpt", str(ckpt), "--scan", str(data / "scan_0.bin"), "--out", str(pred)]) == 0
        sem, inst = dataio.read_labels(pred)
        assert sem.shape == (self.N_POINTS,) and (sem < 16).all() and not inst.any()

        metrics = tmp_path / "metrics"
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "data"), "--split", "train",
                     "--out", str(metrics)]) == 0
        assert "mIoU" in capsys.readouterr().out
        assert len((metrics / "metrics.csv").read_text().splitlines()) == 1 + 16


class TestParamCount:
    def test_matches_library_value(self, capsys):
        cfg = REPO / "configs" / "semantic_kitti_48_256.cfg"
        assert main(["paramcount", "--config", str(cfg)]) == 0
        printed = int(capsys.readouterr().out.strip())
        rc = dataio.load_run_config(cfg)
        assert printed == param_count(rc.model)


class TestTrainInferEval:
    def test_training_artifacts(self, trained_dir):
        out = trained_dir / "out"
        assert (out / "ckpt_final.wfli").exists()
        log = (out / "train.log").read_text().strip().splitlines()
        assert len(log) == 2
        assert len(log[0].split("\t")) == 5

    def test_infer_writes_one_label_per_point(self, trained_dir, capsys):
        scan = trained_dir / "data" / "train" / "scan_0.bin"
        out_label = trained_dir / "pred.label"
        code = main(
            ["infer", "--ckpt", str(trained_dir / "out" / "ckpt_final.wfli"),
             "--scan", str(scan), "--out", str(out_label)]
        )
        assert code == 0
        n_points = scan.stat().st_size // 16
        assert out_label.stat().st_size == 4 * n_points
        sem, inst = dataio.read_labels(out_label)
        assert ((sem >= 0) & (sem < 3)).all()
        assert (inst == 0).all()

    def test_infer_with_tta(self, trained_dir):
        scan = trained_dir / "data" / "train" / "scan_1.bin"
        out_label = trained_dir / "pred_tta.label"
        code = main(
            ["infer", "--ckpt", str(trained_dir / "out" / "ckpt_final.wfli"),
             "--scan", str(scan), "--out", str(out_label), "--tta"]
        )
        assert code == 0
        assert out_label.stat().st_size == 4 * (scan.stat().st_size // 16)

    def test_infer_into_a_missing_directory_fails_before_segmenting(self, trained_dir, monkeypatch, capsys):
        segmented = []

        def counted(*args, **kwargs):
            segmented.append(args)
            return segment_scan(*args, **kwargs)

        monkeypatch.setattr(cli, "segment_scan", counted)
        missing = trained_dir / "nodir"
        code = main(
            ["infer", "--ckpt", str(trained_dir / "out" / "ckpt_final.wfli"),
             "--scan", str(trained_dir / "data" / "train" / "scan_0.bin"), "--out", str(missing / "x.label"), "--tta"]
        )
        assert code == 1
        assert f"error: output directory {missing} does not exist" in capsys.readouterr().err
        assert segmented == [] and not missing.exists()

    def test_infer_into_a_directory_fails_before_segmenting(self, trained_dir, monkeypatch, capsys):
        segmented = []
        monkeypatch.setattr(cli, "segment_scan", lambda *args, **kwargs: segmented.append(args))
        out = trained_dir / "out"
        code = main(
            ["infer", "--ckpt", str(out / "ckpt_final.wfli"),
             "--scan", str(trained_dir / "data" / "train" / "scan_0.bin"), "--out", str(out)]
        )
        assert code == 1
        assert f"error: output file {out} is a directory" in capsys.readouterr().err
        assert segmented == []

    def test_eval_into_a_file_fails_before_evaluating(self, trained_dir, tmp_path, monkeypatch, capsys):
        evaluated = []
        monkeypatch.setattr(cli, "evaluate_split", lambda *args, **kwargs: evaluated.append(args))
        out = tmp_path / "metrics"
        out.write_text("")
        code = main(
            ["eval", "--ckpt", str(trained_dir / "out" / "ckpt_final.wfli"),
             "--data", str(trained_dir / "data"), "--split", "train", "--out", str(out)]
        )
        assert code == 1
        assert f"error: output directory {out} cannot be made: {out} is not a directory" in capsys.readouterr().err
        assert evaluated == []

    def test_eval_reports_metrics(self, trained_dir, capsys):
        metrics_dir = trained_dir / "metrics"
        code = main(
            ["eval", "--ckpt", str(trained_dir / "out" / "ckpt_final.wfli"),
             "--data", str(trained_dir / "data"), "--split", "train",
             "--out", str(metrics_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mIoU" in out
        csv = (metrics_dir / "metrics.csv").read_text()
        assert csv.splitlines()[0] == "class,iou"
        assert (metrics_dir / "miou.txt").read_text().startswith("mIoU ")

    def test_eval_names_the_scan_and_the_label(self, trained_dir, tmp_path, capsys):
        split = tmp_path / "data" / "bad"
        write_tiny_dataset(split, n_scans=2, seed=5)
        labels, _ = dataio.read_labels(split / "scan_1.label")
        labels[17] = 7
        dataio.write_labels(split / "scan_1.label", labels)
        assert main(["eval", "--ckpt", str(trained_dir / "out" / "ckpt_final.wfli"), "--data",
                     str(tmp_path / "data"), "--split", "bad"]) == 1
        assert "error: scan_1: label 7 outside the class range [0, 2]" in capsys.readouterr().err

    def test_eval_uses_class_map_embedded_at_training(self, tmp_path, monkeypatch, capsys):
        config_dir = tmp_path / "configs"
        config_dir.mkdir()
        # raw 0/1/2 become train 2/0/ignore; the map is only next to the config
        (config_dir / "tiny.map").write_text("0 2\n1 0\n2 ignore\n")
        (config_dir / "tiny.cfg").write_text(TINY_CFG.replace("epochs 2", "epochs 1") + "class_map tiny.map\n")
        write_tiny_dataset(tmp_path / "data" / "train", n_scans=1)
        out = tmp_path / "out"
        assert main(["train", "--config", str(config_dir / "tiny.cfg"), "--data", str(tmp_path / "data"),
                     "--out", str(out)]) == 0
        ckpt = out / "ckpt_final.wfli"
        assert dataio.checkpoint_load(ckpt)[2].class_map_ids == {0: 2, 1: 0, 2: 255}
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(ckpt), "--data", str(tmp_path / "data"), "--split", "train"]) == 0
        table = capsys.readouterr().out
        assert "mIoU" in table

    @pytest.mark.parametrize("tta", [[], ["--tta"]], ids=["plain", "tta"])
    def test_infer_and_eval_share_one_path(self, trained_dir, tmp_path, tta):
        split = tmp_path / "data" / "one"
        write_tiny_dataset(split, n_scans=1, seed=5)
        ckpt = str(trained_dir / "out" / "ckpt_final.wfli")
        pred = tmp_path / "pred.label"
        assert main(["infer", "--ckpt", ckpt, "--scan", str(split / "scan_0.bin"), "--out", str(pred),
                     "--seed", "3"] + tta) == 0
        metrics = tmp_path / "metrics"
        assert main(["eval", "--ckpt", ckpt, "--data", str(tmp_path / "data"), "--split", "one",
                     "--out", str(metrics), "--seed", "3"] + tta) == 0
        sem, _ = dataio.read_labels(pred)
        gt, _ = dataio.read_labels(split / "scan_0.label")
        cm = ConfusionMatrix(3).update(sem, gt)
        assert (metrics / "metrics.csv").read_text() == MetricsReport(*iou(cm), cm).to_csv()

    def test_checkpoint_preserves_run_config(self, trained_dir):
        _, _, rc = dataio.checkpoint_load(trained_dir / "out" / "ckpt_final.wfli")
        assert rc.model.depth == 3
        assert rc.train.n_points == 64
        assert rc.voxel_size == pytest.approx(0.05)
