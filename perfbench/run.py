"""Closed-loop benchmark of mftp: one workload, one client, one process.

    python3 perfbench/run.py --workload train-desk --seed 1 --seconds 36 --trace 0

Run it from the repository root: mftp is imported from ./src. The seed
makes the inputs (scenario file and an untrained seeded checkpoint), which
the program then reads. With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it spends half its time untraced and half with
spans around mftp's layer functions, and reports the per-layer metrics.
A report goes to stdout, then, as the last line, one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}}}

The full result, with provenance, is written to perfbench/out/.
"""

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
LOAD_CHECKPOINT_CALLS = 3          # traced load_checkpoint calls per run
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("train-desk", "predict-crowd", "predict-desk")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the smoke test")
    p.add_argument("--inject-nan", action="store_true",
                   help="put a NaN into the first op's output (smoke test)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def src_files(root: str) -> list[str]:
    pkg = os.path.join(root, "src", "mftp")
    return sorted(os.path.join(pkg, f) for f in os.listdir(pkg) if f.endswith(".py"))


def provenance(root: str) -> dict:
    import numpy as np

    sha, dirty = None, None
    if os.path.isdir(os.path.join(root, ".git")):
        def git(*cmd):
            return subprocess.run(["git", *cmd], cwd=root, capture_output=True,
                                  text=True, timeout=60).stdout.strip()
        sha = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    digest = hashlib.sha256()
    for path in src_files(root):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"git_sha": sha, "git_dirty": dirty, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_env": {v: os.environ.get(v) for v in BLAS_VARS}}


def timing(loop, wall_s: float) -> dict:
    """op_ms.p50, op_ms.p90 where ten samples lie above it, items_per_s."""
    ms = sorted(s * 1e3 for s in loop.samples)
    if not ms:
        raise RuntimeError(f"no op completed: {loop.errors[:3]}")
    out = {"op_ms.p50": statistics.median(ms), "op_samples": len(ms),
           "items_per_s": loop.items / wall_s}
    if len(ms) >= 2:
        p90 = statistics.quantiles(ms, n=10)[-1]
        if sum(x > p90 for x in ms) >= 10:
            out["op_ms.p90"] = p90
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mftp", "__init__.py")):
        print(f"error: no src/mftp under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    # One BLAS thread: the matrices are small, and extra threads on a shared
    # host add noise, not speed.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True     # each run compiles mftp the same way
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (a dependency, timed apart from set-up)
    numpy_import_s = time.perf_counter() - t0

    out_dir = os.path.join(HERE, "out")
    work_dir = os.path.join(out_dir, f"work-{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return run(args, root, src, out_dir, work_dir, numpy_import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def fresh_import():
    """Import mftp and the workload code anew, as a new process would."""
    for name in [n for n in sys.modules
                 if n in ("mftp", "workloads", "tracing") or n.startswith("mftp.")]:
        del sys.modules[name]
    return importlib.import_module("workloads"), importlib.import_module("tracing")


def timed_phase(wl, loop, seconds: float) -> dict:
    t0 = time.perf_counter()
    wl.run(loop, seconds)
    return timing(loop, time.perf_counter() - t0)


def run(args, root, src, out_dir, work_dir, numpy_import_s) -> int:
    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workloads, tracing = fresh_import()
        wl = workloads.WORKLOADS[args.workload](workloads.SIZES[args.workload][args.size])
        wl.setup(args.seed, work_dir)
        reps.append(time.perf_counter() - t0)
        gc.collect()      # drop the earlier set-up's tape before the next one
    mftp_file = os.path.abspath(sys.modules["mftp"].__file__)
    if not mftp_file.startswith(src + os.sep):
        raise RuntimeError(f"imported mftp from {mftp_file}, not from {src}")
    setup = {"setup_s": (statistics.median(reps), "s")}

    plain = workloads.Loop(inject_nan=args.inject_nan)
    loops = [plain]
    if args.trace == 0:
        t = timed_phase(wl, plain, args.seconds)
        metrics = {**setup,
                   "items_per_s": (t["items_per_s"], "1/s"),
                   "peak_rss_mb": (plain.peak_rss_mb or workloads.peak_rss_mb(), "MB")}
        # Reported, not bounded: run-to-run spread of the median on a shared
        # host is wider than that of items_per_s, which carries the same cost.
        extra = {"op_ms.p50": (t["op_ms.p50"], "ms"),
                 "op_ms.p90": (t.get("op_ms.p90"), "ms"),
                 "op_samples": (t["op_samples"], "count")}
    else:
        untraced = timed_phase(wl, plain, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        for _ in range(LOAD_CHECKPOINT_CALLS):
            workloads.Loop(tracer).call("setup", workloads.training.load_checkpoint,
                                        wl.ckpt)
        loops.append(workloads.Loop(tracer))
        traced = timed_phase(wl, loops[1], args.seconds / 2)
        tracer.write(os.path.join(out_dir, f"{args.workload}-s{args.seed}.spans.jsonl"))
        src_lines = 0
        for path in src_files(root):
            with open(path) as fh:
                src_lines += sum(1 for _ in fh)
        layers = tracing.layer_metrics(
            tracer, args.workload,
            [w for w, _ in wl.config.model.resolved_granularities()],
            untraced["op_ms.p50"], traced["op_ms.p50"], src_lines)
        metrics = {k: v for k, v in layers.items() if k not in tracing.REPORT_ONLY}
        extra = {**{k: v for k, v in layers.items() if k in tracing.REPORT_ONLY},
                 **setup,
                 "untraced op_ms.p50": (untraced["op_ms.p50"], "ms"),
                 "traced op_ms.p50": (traced["op_ms.p50"], "ms")}

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    errors = [e for lp in loops for e in lp.errors]
    try:
        outputs = wl.outputs()
    except workloads.CheckFailed as exc:
        outputs = {}
        errors.append(f"outputs: {exc}")
    correct = failed == 0 and not errors
    report = {**metrics, **extra,
              "fail_rate": (failed / attempted, "ratio"),
              "loss_final": (outputs.get("loss_final"), "loss"),
              "min_fde_k": (outputs.get("min_fde_k"), "m"),
              "setup_repeats_s": (reps, "s"),
              "numpy_import_s": (numpy_import_s, "s")}

    prov = provenance(root)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    for name, (value, unit) in report.items():
        if value is not None:
            shown = value if isinstance(value, list) else f"{value:.6g}"
            print(f"  {name} = {shown} {unit}")
    print(f"  attempted={attempted} failed={failed}")
    for e in errors[:10]:
        print(f"  error: {e}")
    print("  provenance " + json.dumps(prov, sort_keys=True))

    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "size": args.size, "correct": correct,
           "attempted": attempted, "failed": failed, "errors": errors,
           "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
           "op_ms": [[s * 1e3 for s in lp.samples] for lp in loops],
           "provenance": prov}
    with open(os.path.join(out_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w") as fh:
        json.dump(doc, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
