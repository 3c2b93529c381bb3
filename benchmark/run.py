"""Benchmark entry point.

    python3 benchmark/run.py --workload {scan_infer,train_step,deep_eval,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Builds seeded synthetic inputs, sets the
workload up three times (``setup_s`` is the import time plus the median
setup), then runs operations in a closed loop with one client for
``--seconds`` seconds (at least ``MIN_OPS`` operations; no operation is
started that would, at the last operation's pace, end after the deadline).
Every output is checked; a raised error or a failed check counts as a failed
operation.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` installs the timing wrappers of :mod:`tracer` for half the
time, removes them and runs the other half untraced; it reports the
per-layer metrics, including the tracing overhead (traced minus untraced
median op time). ``--workload all`` runs the three workloads one after
another, each in its own child process so that each peak RSS is its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record
(stamp, per-operation times, losses, digests and, when traced, every span)
goes to ``.bench_out/`` under the repository root.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("scan_infer", "train_step", "deep_eval")
MIN_OPS = 3
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="waffleiron benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: Path) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_ops(workload, seconds, tracer=None):
    """Closed loop of operations; returns per-op records and the phase wall time."""
    records = []
    t_phase = time.perf_counter()
    while True:
        op = len(records)
        if tracer is not None:
            tracer.op = op
        t0 = time.perf_counter()
        try:
            result = workload.op()
            error = None
        except Exception:  # a raised error is a failed operation; keep measuring
            result, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.op = None
        record = {"op": op, "seconds": dt}
        if error is None:
            try:
                ok, extra = workload.check(result)
                record.update(extra)
            except Exception:  # a check that cannot run is a failed check
                ok, error = False, traceback.format_exc()
        else:
            ok = False
        record["ok"] = ok
        if error is not None:
            record["error"] = error
            print(error, file=sys.stderr)
        records.append(record)
        elapsed = time.perf_counter() - t_phase
        if len(records) >= MIN_OPS and elapsed + dt > seconds:
            return records, elapsed


def p50(records) -> float:
    return statistics.median(r["seconds"] for r in records)


def run_workload(args, spec) -> dict:
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    sys.path[:0] = [str(SRC), str(HERE)]
    # numpy reads the BLAS thread cap when it is first imported
    import numpy
    import scipy

    import tracer as tracing
    import workloads

    imported = time.perf_counter() - T_START
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(ROOT),
        "nproc": nproc,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": nproc,
    }
    print("# " + " ".join(f"{k}={v}" for k, v in stamp.items()))

    work_root = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times = []
    try:
        for i in range(SETUP_REPEATS):
            workdir = work_root / f"setup{i}"
            workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = imported + statistics.median(setup_times)

        tracer = None
        if args.trace:
            # traced first, so its first operation is the process's first forward
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                records, elapsed = run_ops(workload, args.seconds / 2, tracer)
            finally:
                uninstall()
            untraced, _ = run_ops(workload, args.seconds / 2)
            attempted_records = records + untraced
        else:
            records, elapsed = run_ops(workload, args.seconds)
            attempted_records = records
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    attempted = len(attempted_records)
    failed = sum(not r["ok"] for r in attempted_records)
    op_s = p50(records)
    points_done = workload.points_per_op * sum(r["ok"] for r in records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        per_op = [tracer.op_metrics(r["op"], r["seconds"]) for r in records]
        values = tracing.median_metrics(per_op, [m["name"] for m in spec["per_layer"]])
        # later forwards replace caches of the same size, so only the first shows what a forward keeps
        values["backbone.retained_mb"] = per_op[0].get("backbone.retained_mb", 0.0)
        values["trace.overhead_s"] = op_s - p50(untraced)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = {
            "setup_s": setup_s,
            "op_s.p50": op_s,
            "points_per_s": points_done / elapsed,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    print(f"setup_s        {setup_s:.4f} s  (imports {imported:.3f} s + median of {SETUP_REPEATS} setups "
          + ", ".join(f"{t:.3f}" for t in setup_times) + ")")
    print(f"op_s.p50       {op_s:.4f} s  (n={len(records)}{', traced' if args.trace else ''})")
    print(f"points_per_s   {points_done / elapsed:.1f} points/s  ({workload.points_per_op} points per op)")
    print(f"peak_rss_mb    {peak_rss_mb:.1f} MB")
    print(f"fail_share     {failed / attempted:.4f} ratio  ({failed}/{attempted})")
    for r in attempted_records:
        extra = {k: v for k, v in r.items() if k not in ("op", "seconds", "ok", "error")}
        print(f"# op {r['op']}: {r['seconds']:.4f} s ok={r['ok']} {extra}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:.6g} {m['unit']}")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report = {"stamp": stamp, "setup_times": setup_times, "imports_s": imported,
              "ops": attempted_records, "metrics": metrics}
    if tracer is not None:
        report["trace"] = tracer.to_json()
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1, default=float))
    print(f"# full record: {out_path.relative_to(ROOT)}")

    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.rstrip("\n").splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {child.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "waffleiron" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'waffleiron'}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    result = run_all(args) if args.workload == "all" else run_workload(args, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
