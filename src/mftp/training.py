"""Adam training loop, loss bookkeeping, and checkpoint serialization.

Checkpoints are a directory holding `manifest.json` (format tag, dtype,
step, config snapshot, a name/shape/offset table and the sha256 of
`params.bin`) plus `params.bin` with the raw little-endian float64
parameter buffers, so a reload reproduces forward outputs bit for bit on
the same platform.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .config import Config, ConfigError
from .data import (Scenario, TargetFrame, check_target_futures, generate_synthetic,
                   load_scenarios, normalize, read_json)
from .decoder import PredictionSet
from .losses import LossReport, target_loss, total_loss
from .model import TrajectoryPredictor, check_horizons
from .tensor import Tensor

CHECKPOINT_FORMAT = "mftp-checkpoint-v1"
MANIFEST_NAME = "manifest.json"
PARAMS_NAME = "params.bin"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction; state is kept per parameter name."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        """One update of every parameter that has a gradient; a non-finite gradient
        raises before any weight or moment moves."""
        live = [(k, p) for k, p in self.params.items() if p.grad is not None]
        if live and not np.isfinite(np.concatenate([p.grad.ravel() for _, p in live])).all():
            bad = next(k for k, p in live if not np.isfinite(p.grad).all())
            raise ValueError(f"non-finite gradient of {bad}")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for k, p in live:
            m = self.m[k]
            v = self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * p.grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * p.grad * p.grad
            p.data -= self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


@dataclass
class TrainingItem:
    scenario_id: str
    frame: TargetFrame
    gt_local: np.ndarray       # [T_f, 2] target future in the frame


@dataclass
class TrainResult:
    model: TrajectoryPredictor
    log_lines: list[str] = field(default_factory=list)
    first_report: LossReport | None = None
    last_report: LossReport | None = None


def load_training_scenarios(config: Config) -> list[Scenario]:
    if config.data.scenario_path is None:
        return generate_synthetic(config.data.synthetic, seed=config.training.seed)
    scenarios = load_scenarios(config.data.scenario_path)
    check_horizons(scenarios, config.model)
    return scenarios


def build_training_items(scenarios: list[Scenario]) -> list[TrainingItem]:
    check_target_futures(scenarios)
    items = []
    for s in scenarios:
        for frame in normalize(s).frames:
            items.append(TrainingItem(scenario_id=s.scenario_id, frame=frame,
                                      gt_local=frame.future[frame.target_index, :, :2].copy()))
    if not items:
        raise ValueError("no training targets in the dataset")
    return items


def _batch_indices(step: int, batch_size: int, n_items: int) -> list[int]:
    start = (step * batch_size) % n_items
    return [(start + i) % n_items for i in range(min(batch_size, n_items))]


def train_step(model: TrajectoryPredictor, optimizer: Adam,
               batch: list[TrainingItem], config: Config) -> LossReport:
    """One Adam step on the batch; a non-finite loss raises before any update."""
    trajs, probs = model.forward_frames([it.frame for it in batch])
    terms = target_loss(PredictionSet(trajs=trajs, probs=probs),
                        np.stack([it.gt_local for it in batch]), config.model.patch_len)
    loss, report = total_loss(terms, config.training.loss_weights())
    if not np.isfinite(report.total):
        raise ValueError(f"non-finite loss {report} on scenarios "
                         f"{sorted({it.scenario_id for it in batch})}")
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return report


def train(config: Config, out_dir: str | None = None,
          log=None) -> TrainResult:
    """Run the full training loop; deterministic given the config seed."""
    config.validate()
    scenarios = load_training_scenarios(config)
    items = build_training_items(scenarios)
    model = TrajectoryPredictor(config.model, seed=config.training.seed)
    optimizer = Adam(model.parameters(), lr=config.training.learning_rate)

    result = TrainResult(model=model)

    def emit(line: str) -> None:
        result.log_lines.append(line)
        if log is not None:
            log(line)

    emit(f"targets={len(items)} parameters="
         f"{sum(p.size for p in model.parameters().values())}")
    for step in range(config.training.steps):
        batch = [items[i] for i in _batch_indices(step, config.training.batch_size,
                                                  len(items))]
        try:
            report = train_step(model, optimizer, batch, config)
        except ValueError as exc:
            raise ValueError(f"train step {step}: {exc}") from None
        if result.first_report is None:
            result.first_report = report
        result.last_report = report
        emit(report.format_line(step))

    if out_dir is not None:
        ckpt = save_checkpoint(out_dir, model, config, config.training.steps)
        with open(os.path.join(out_dir, "train_log.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(result.log_lines) + "\n")
        if log is not None:
            log(f"checkpoint={ckpt}")       # path stays out of the stored log
    return result


# -- checkpoint io ---------------------------------------------------------------


def _layout(params: dict[str, Tensor]) -> list[dict]:
    """The manifest's parameter table, in model order: each parameter's name,
    shape, element count and byte offset in `params.bin`, where the buffers
    lie back to back."""
    entries, offset = [], 0
    for name, p in params.items():
        entries.append({"name": name, "shape": list(p.shape), "offset": offset,
                        "count": int(p.size)})
        offset += 8 * int(p.size)
    return entries


def save_checkpoint(out_dir: str, model: TrajectoryPredictor, config: Config,
                    step: int) -> str:
    os.makedirs(out_dir, exist_ok=True)
    params = model.parameters()
    blob = b"".join(np.ascontiguousarray(p.data, dtype="<f8").tobytes()
                    for p in params.values())
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "dtype": "<f8",
        "step": step,
        "config": config.to_dict(),
        "params": _layout(params),
        "params_sha256": hashlib.sha256(blob).hexdigest(),
    }
    with open(os.path.join(out_dir, PARAMS_NAME), "wb") as fh:
        fh.write(blob)
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return out_dir


def load_checkpoint(path: str) -> tuple[TrajectoryPredictor, Config, int]:
    """Rebuild the model a checkpoint holds; the manifest's parameter table must
    be the model's own (`_layout`), every weight finite and `params.bin`'s
    sha256 the manifest's `params_sha256`."""
    manifest_path = os.path.join(path, MANIFEST_NAME)
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise ValueError(f"{manifest_path}: manifest must be a JSON object, "
                         f"got {type(manifest).__name__}")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{manifest_path}: unknown checkpoint format "
                         f"{manifest.get('format')!r}")
    absent = [key for key in ("params", "config", "step", "params_sha256")
              if key not in manifest]
    if absent:
        raise ValueError(f"{manifest_path}: missing manifest keys {absent}")
    if manifest.get("dtype") != "<f8":
        raise ValueError(f"{manifest_path}: dtype {manifest.get('dtype')!r} is not '<f8'")
    if type(manifest["step"]) is not int:
        raise ValueError(f"{manifest_path}: step {manifest['step']!r} is not an integer")
    if manifest["step"] < 0:
        raise ValueError(f"{manifest_path}: step {manifest['step']} is negative")
    if not isinstance(manifest["params"], list):
        raise ValueError(f"{manifest_path}: 'params' must be a list")
    entry_keys = {"name", "shape", "offset", "count"}
    for i, entry in enumerate(manifest["params"]):
        if not isinstance(entry, dict) or not entry_keys <= entry.keys():
            raise ValueError(f"{manifest_path}: parameter entry {i} must be an object "
                             f"with keys {sorted(entry_keys)}")
    try:
        config = Config.from_dict(manifest["config"])
        config.validate()
    except ConfigError as exc:
        raise ValueError(f"{manifest_path}: config {exc}") from None
    try:
        model = TrajectoryPredictor(config.model, seed=config.training.seed)
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"{manifest_path}: the stored config describes a model that "
                         f"cannot be built ({type(exc).__name__}: {exc})") from None
    params = model.parameters()
    layout = _layout(params)
    names = [entry["name"] for entry in manifest["params"]]
    if names != list(params):
        i = next((i for i, (a, b) in enumerate(zip(names, params)) if a != b),
                 min(len(names), len(params)))
        got, want = (repr(n[i]) if i < len(n) else "nothing" for n in (names, list(params)))
        raise ValueError(f"{manifest_path}: parameter entry {i} is {got}, "
                         f"where the model has {want}")
    for entry, own in zip(manifest["params"], layout):
        for key in ("shape", "count", "offset"):
            if entry[key] != own[key]:
                raise ValueError(f"{manifest_path}: parameter {own['name']!r} {key} "
                                 f"{entry[key]} != {own[key]}")
    params_path = os.path.join(path, PARAMS_NAME)
    with open(params_path, "rb") as fh:
        blob = fh.read()
    for (name, p), own in zip(params.items(), layout):
        lo, end = own["offset"], own["offset"] + 8 * own["count"]
        if end > len(blob):
            raise ValueError(f"{params_path}: parameter {name!r} needs bytes {lo}..{end}, "
                             f"file has {len(blob)}")
        p.data = np.frombuffer(blob[lo:end], dtype="<f8").reshape(p.shape).astype(np.float64)
        if not np.isfinite(p.data).all():
            raise ValueError(f"{params_path}: parameter {name!r} holds a non-finite weight")
    if len(blob) > end:
        raise ValueError(f"{params_path}: {len(blob) - end} bytes after the last "
                         f"parameter {name!r}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest["params_sha256"]:
        raise ValueError(f"{params_path}: sha256 {digest} is not the manifest's "
                         f"params_sha256 {manifest['params_sha256']!r}")
    return model, config, manifest["step"]
