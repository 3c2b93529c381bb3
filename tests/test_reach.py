"""Pipeline reach: the command-line pipeline calls every function of the library.

Library code exists only for what the pipeline runs. The tiny pipeline
below (``train`` with every augmentation, stochastic depth, periodic
checkpoints and a class map, then ``infer`` and ``eval`` with and without
test-time augmentation, then ``paramcount``) runs under ``sys.setprofile``,
and every module-level function and method defined in ``src/waffleiron``
must have been entered at least once.
"""

import ast
import sys
from pathlib import Path

import numpy as np

import waffleiron
from waffleiron.cli import main

from test_cli import TINY_CFG, write_tiny_dataset

# the package directory as the imported code objects name it
SRC = Path(waffleiron.__file__).parent

# qualified name -> why the pipeline does not call it
ALLOWED_UNREACHED = {
    "dataio.write_scan": "writes the synthetic scans of the benchmark",
    "PlaneSpec.name": "keys the benchmark tracer's per-plane metrics",
}

# raw z-band ids 0/1/2 become road (a cutmix landing class), person (a cutmix
# and polarmix donor class) and ignore
CLASS_MAP = "0 8\n1 5\n2 ignore\n"

PIPELINE_KEYS = """
classes 9
drop_prob 0.3
checkpoint_every 1
aug_cutmix true
aug_polarmix true
class_map tiny.map
"""


def defined_functions():
    """Every module-level function and method under ``SRC``, keyed like its code object.

    The key is (file, first line), where the first line is that of the first
    decorator if there is one; the value names the function as
    ``module.function`` or ``Class.method``.
    """
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())

        def visit(body, prefix):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[str(path), first] = prefix + node.name
                elif isinstance(node, ast.ClassDef):
                    visit(node.body, f"{node.name}.")

        visit(tree.body, f"{path.stem}.")
    return found


def run_pipeline(root: Path):
    config_dir = root / "configs"
    config_dir.mkdir()
    (config_dir / "tiny.map").write_text(CLASS_MAP)
    cfg = TINY_CFG.replace("classes 3\n", "") + PIPELINE_KEYS
    (config_dir / "tiny.cfg").write_text(cfg)
    write_tiny_dataset(root / "data" / "train", n_scans=3)
    out = root / "out"
    # --seed 0 repeats the config's seed, so the flag is parsed without changing the run
    assert main(["train", "--config", str(config_dir / "tiny.cfg"), "--data", str(root / "data"),
                 "--out", str(out), "--seed", "0"]) == 0
    ckpt = str(out / "ckpt_final.wfli")
    # the inferred scan repeats a point (two raw points in one voxel) and has
    # one point outside the FOV, so both label propagations search
    records = np.fromfile(root / "data" / "train" / "scan_0.bin", dtype="<f4").reshape(-1, 4)
    extra = np.array([records[0], [20.0, 0.0, 0.0, 0.5]], dtype="<f4")
    scan = str(root / "infer.bin")
    np.vstack([records, extra]).tofile(scan)
    for tta in ([], ["--tta"]):
        name = "tta" if tta else "plain"
        assert main(["infer", "--ckpt", ckpt, "--scan", scan, "--out", str(root / f"{name}.label")] + tta) == 0
        assert main(["eval", "--ckpt", ckpt, "--data", str(root / "data"), "--split", "train",
                     "--out", str(root / f"metrics_{name}")] + tta) == 0
    assert main(["paramcount", "--config", str(config_dir / "tiny.cfg")]) == 0


def test_pipeline_calls_every_library_function(tmp_path, capsys):
    prefix = str(SRC)
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(prefix):
                entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        run_pipeline(tmp_path)
    finally:
        sys.setprofile(None)
    capsys.readouterr()

    unreached = {name for key, name in defined_functions().items() if key not in entered}
    assert sorted(unreached - ALLOWED_UNREACHED.keys()) == []
    # an allowed entry that the pipeline now calls is stale
    assert sorted(ALLOWED_UNREACHED.keys() - unreached) == []
