"""Command-line surface: train, infer, eval, paramcount.

Configuration files use the plain-text ``key value`` schema documented in
:mod:`waffleiron.dataio`; command-line flags override file values. Argument
errors exit with status 2 (argparse), runtime failures with status 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .augment import CUTMIX_CLASSES, build_instance_bank
from .backbone import param_count
from .evaluation import evaluate_split, segment_scan
from .geometry import nearest_indices  # noqa: F401  (benchmark/tests/test_bench_tracer.py patches cli.nearest_indices)
from .training import train_loop


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="waffleiron", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--data", required=True, help="directory of *.bin scans with *.label files")
    p_train.add_argument("--out", required=True, help="output directory for checkpoints and logs")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config value (repeatable)",
    )

    p_infer = sub.add_parser("infer", help="predict labels for one scan")
    p_infer.add_argument("--ckpt", required=True)
    p_infer.add_argument("--scan", required=True)
    p_infer.add_argument("--out", required=True, help="output label file (uint32 per input point)")
    p_infer.add_argument("--tta", action="store_true")
    p_infer.add_argument("--seed", type=int, default=0)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a labeled split")
    p_eval.add_argument("--ckpt", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--split", required=True)
    p_eval.add_argument("--tta", action="store_true")
    p_eval.add_argument("--out", default=None, help="directory for metrics.csv and miou.txt")
    p_eval.add_argument("--seed", type=int, default=0)

    p_count = sub.add_parser("paramcount", help="print the trainable parameter count")
    p_count.add_argument("--config", required=True)

    return parser


def _overrides(args) -> dict:
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = args.seed
    return overrides


def _resolve_class_map(rc: dataio.RunConfig, config_dir: Path):
    if not rc.class_map:
        return None
    path = Path(rc.class_map)
    if not path.is_absolute():
        path = config_dir / path
    return dataio.load_class_map(path)


def _cmd_train(args) -> int:
    config_path = Path(args.config)
    rc = dataio.load_run_config(config_path, _overrides(args))
    rc.class_map_ids = _resolve_class_map(rc, config_path.parent)
    data_dir = Path(args.data)
    if (data_dir / "train").is_dir():
        data_dir = data_dir / "train"
    dataset = dataio.ScanDataset(
        data_dir,
        scan_format=rc.scan_format,
        feature_mode=rc.model.input_feature_mode,
        class_map=rc.class_map_ids,
        voxel_size=rc.voxel_size,
    )
    bank = None
    if rc.augment.cutmix:
        scans = [dataset.load_with_instances(i) for i in range(len(dataset))]
        bank = build_instance_bank(scans, CUTMIX_CLASSES)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rc.train.log_path = str(out_dir / "train.log")
    _, _, history = train_loop(
        dataset,
        rc.model,
        rc.train,
        augment=rc.augment,
        bank=bank,
        out_dir=str(out_dir),
        scan_names=dataset.names(),
        run_config=rc,
    )
    for stats in history:
        print(stats.log_line())
    print(f"checkpoint written to {out_dir / 'ckpt_final.wfli'}")
    return 0


def _cmd_infer(args) -> int:
    model, _, rc = dataio.checkpoint_load(args.ckpt)
    pc = dataio.read_scan(args.scan, rc.scan_format, model.config.input_feature_mode)
    pred = segment_scan(pc, model, rc.voxel_size, tta=args.tta, rng=np.random.default_rng(args.seed))
    dataio.write_labels(args.out, pred)
    print(f"wrote {pc.n_points} labels to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model, _, rc = dataio.checkpoint_load(args.ckpt)
    class_map = rc.class_map_ids
    if class_map is None:  # written before checkpoints embedded the map
        class_map = _resolve_class_map(rc, Path(args.ckpt).parent)
    dataset = dataio.ScanDataset(
        Path(args.data) / args.split,
        scan_format=rc.scan_format,
        feature_mode=model.config.input_feature_mode,
        class_map=class_map,
    )
    report = evaluate_split(
        dataset,
        model,
        tta=args.tta,
        voxel_size=rc.voxel_size,
        rng=np.random.default_rng(args.seed),
    )
    print(report.to_table(), end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.csv").write_text(report.to_csv())
        (out_dir / "miou.txt").write_text(report.miou_line())
        print(f"metrics written to {out_dir}")
    return 0


def _cmd_paramcount(args) -> int:
    rc = dataio.load_run_config(args.config)
    print(param_count(rc.model))
    return 0


_COMMANDS = {
    "train": _cmd_train,
    "infer": _cmd_infer,
    "eval": _cmd_eval,
    "paramcount": _cmd_paramcount,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
