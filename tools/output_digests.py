"""Print the sha256 of everything `mftp train`, `predict` and `eval` write, and
check that a second run writes the same bytes.

    python3 tools/output_digests.py

Inputs: the crowd scenario file (16 scenes of 32 agents with 8 targets,
generator seed 5) and an untrained default model (seed 5). Each command runs
as its own `python -m mftp.cli` process on this checkout's src/:

- set-up: the crowd file and the untrained checkpoint's manifest.json, as
  `save_scenarios` and `save_checkpoint` write them
- train: the default config with 3 steps, seed 0 -> params.bin, manifest.json,
  train_log.txt
- predict: the untrained model on the crowd file -> the prediction file
- eval: --checkpoint and --predictions, k 1 and 5 -> the printed report and
  the --per-target-csv file

Everything runs twice, each time in a fresh temporary directory under
relative paths, so no output holds a path of its run. Prints one
`<output> <sha256>` line per output of the first run, which is also how two
checkouts are compared. Exits 1 if a command fails or a digest of the second
run differs from the first, else 0.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from mftp.config import Config  # noqa: E402
from mftp.data import GenConfig, generate_synthetic, save_scenarios  # noqa: E402
from mftp.model import TrajectoryPredictor  # noqa: E402
from mftp.training import save_checkpoint  # noqa: E402

SEED = 5
CROWD = GenConfig(num_scenarios=16, num_agents=32, num_targets=8)


def _mftp(work: str, *args: str) -> bytes:
    """stdout of one `mftp` command run in `work`; a failure raises RuntimeError."""
    run = subprocess.run([sys.executable, "-m", "mftp.cli", *args], cwd=work,
                         env=dict(os.environ, PYTHONPATH=SRC), capture_output=True)
    if run.returncode != 0:
        raise RuntimeError(f"mftp {' '.join(args)} exited {run.returncode}: "
                           f"{run.stderr.decode(errors='replace').strip()}")
    return run.stdout


def _file(work: str, name: str) -> str:
    with open(os.path.join(work, name), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def digests() -> dict[str, str]:
    """{output: sha256} of one run of every command in a fresh directory."""
    with tempfile.TemporaryDirectory(prefix="mftp-digests-") as work:
        config = Config()
        config.training.seed = SEED
        save_scenarios(os.path.join(work, "crowd.json"), generate_synthetic(CROWD, seed=SEED))
        save_checkpoint(os.path.join(work, "untrained"),
                        TrajectoryPredictor(config.model, seed=SEED), config, step=0)
        with open(os.path.join(work, "train.json"), "w", encoding="utf-8") as fh:
            json.dump({"training": {"steps": 3}}, fh)

        out = {name: _file(work, name) for name in ("crowd.json", "untrained/manifest.json")}
        _mftp(work, "train", "--config", "train.json", "--seed", "0", "--out", "run")
        out.update((f"train/{name}", _file(work, os.path.join("run", name)))
                   for name in ("params.bin", "manifest.json", "train_log.txt"))
        _mftp(work, "predict", "--checkpoint", "untrained", "--scenarios", "crowd.json",
              "--out", "predictions.json")
        out["predict/predictions.json"] = _file(work, "predictions.json")
        for source, path in (("checkpoint", "untrained"), ("predictions", "predictions.json")):
            for k in ("1", "5"):
                name = f"eval-{source}-k{k}"
                report = _mftp(work, "eval", f"--{source}", path, "--scenarios", "crowd.json",
                               "--k", k, "--per-target-csv", f"{name}.csv")
                out[f"{name}/report"] = hashlib.sha256(report).hexdigest()
                out[f"{name}/per_target.csv"] = _file(work, f"{name}.csv")
    return out


def main() -> int:
    try:
        first, second = digests(), digests()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, digest in first.items():
        print(name, digest)
    differ = [name for name in first if first[name] != second[name]]
    for name in differ:
        print(f"differs between runs: {name} ({first[name]}, then {second[name]})",
              file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
