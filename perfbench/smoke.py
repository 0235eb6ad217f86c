"""Smoke test of the benchmark itself: every workload at tiny size.

    python3 perfbench/smoke.py      (from the repository root; about a minute)

It checks that
- both run modes emit exactly the metrics BENCHMARK.json names, with its units,
  and a traced run's result file holds the report-only layer times too;
- on every traced op, the self times of its spans plus the op's untraced
  time add up to the op's duration;
- loss_final, min_fde_k and every node and pair count repeat exactly across
  two runs with the same seed;
- a NaN put into one op's output is counted as one failed op;
- without the program's source next to it, the benchmark exits non-zero
  and prints no result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

SEED = 1
COUNTS = ("nodes", "pairs", "masked_pair_share", "src.lines")


def bench(workload: str, trace: int, *extra: str, cwd: str = ".") -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "2", "--trace", str(trace),
           "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    """The printed result line and the full result file of one run."""
    proc = bench(workload, trace, *extra)
    if proc.returncode:
        raise SystemExit(f"{workload} trace={trace} {extra} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    with open(os.path.join(HERE, "out", f"{workload}-s{SEED}-t{trace}.json")) as fh:
        return json.loads(proc.stdout.strip().splitlines()[-1]), json.load(fh)


def additivity_errors(workload: str) -> list[str]:
    with open(os.path.join(HERE, "out", f"{workload}-s{SEED}.spans.jsonl")) as fh:
        spans = [json.loads(line) for line in fh]
    ops: dict = {}
    for s, self_s in zip(spans, tracing.self_times(spans)):
        total, dur = ops.get(s["op"], (0.0, None))
        ops[s["op"]] = (total + self_s,
                        s["end"] - s["start"] if s["name"] == "op" else dur)
    return [f"{workload} op {op}: self times sum to {total!r} s, op took {dur!r} s"
            for op, (total, dur) in ops.items() if abs(total - dur) > 1e-9]


def bare_dir_errors() -> list[str]:
    """Run with only BENCHMARK.json and perfbench/*.py present."""
    bare = os.path.join(HERE, "out", f"bare-{os.getpid()}")
    try:
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy("BENCHMARK.json", bare)
        for f in os.listdir(HERE):
            if f.endswith(".py"):
                shutil.copy(os.path.join(HERE, f), os.path.join(bare, "perfbench"))
        proc = bench("predict-desk", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    errors = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            runs = [result(w, trace) for _ in range(2)]
            for line, doc in runs:
                got = {k: v["unit"] for k, v in line["metrics"].items()}
                if got != want:
                    errors.append(f"{w} trace={trace}: metrics {sorted(got.items())} "
                                  f"!= BENCHMARK.json {sorted(want.items())}")
                if not line["correct"] or line["failed"]:
                    errors.append(f"{w} trace={trace}: {doc['errors']}")
            (a, a_doc), (b, b_doc) = runs
            for k in a["metrics"]:
                if k.endswith(COUNTS) and a["metrics"][k] != b["metrics"][k]:
                    errors.append(f"{w}: {k} differs between same-seed runs")
            for k in ("loss_final", "min_fde_k"):
                if a_doc["report"].get(k) != b_doc["report"].get(k):
                    errors.append(f"{w}: {k} differs between same-seed runs")
            if trace == 1:
                errors += additivity_errors(w)
                missing = tracing.REPORT_ONLY - set(a_doc["report"])
                if missing:
                    errors.append(f"{w}: result file lacks {sorted(missing)}")
        line, _ = result(w, 0, "--inject-nan")
        if line["failed"] != 1 or line["correct"]:
            errors.append(f"{w}: injected NaN gave failed={line['failed']} "
                          f"correct={line['correct']}")
    errors += bare_dir_errors()
    for e in errors:
        print("FAIL", e)
    print("smoke: ok" if not errors else f"smoke: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
