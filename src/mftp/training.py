"""Adam training loop, loss bookkeeping, and checkpoint serialization.

Checkpoints are a directory holding `manifest.json` (format tag, dtype,
step, config snapshot, a name/shape/offset table and the sha256 of
`params.bin`) plus `params.bin` with the raw little-endian float64
parameter buffers, so a reload reproduces forward outputs bit for bit on
the same platform.

`_layout` is that one parameter table. Adam keeps its moments and its
gathered gradient flat on it, in the order and at the offsets of
`params.bin`, with name-keyed views of the moments. The non-finite checks of
gradients and of saved and loaded weights all read such a flat array
(`_first_non_finite`).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .config import Config, ConfigError
from .data import (Scenario, TargetFrame, check_target_futures, generate_synthetic,
                   load_scenarios, normalize, read_json, write_text)
from .decoder import PredictionSet
from .losses import LossReport, target_loss, total_loss
from .model import TrajectoryPredictor, check_horizons
from .tensor import Tensor

CHECKPOINT_FORMAT = "mftp-checkpoint-v1"
MANIFEST_NAME = "manifest.json"
PARAMS_NAME = "params.bin"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _first_non_finite(flat: np.ndarray, table: list[dict]) -> str | None:
    """The name of the `_layout` entry whose slice of `flat`, a flat array laid out
    by that table, holds its first non-finite value, or None; one `isfinite` pass,
    and the search in the offsets only when it fails."""
    finite = np.isfinite(flat)
    if finite.all():
        return None
    starts = [entry["offset"] // 8 for entry in table]
    return table[int(np.searchsorted(starts, finite.argmin(), side="right")) - 1]["name"]


def _views(flat: np.ndarray, table: list[dict]) -> dict[str, np.ndarray]:
    """Name-keyed views of `flat`, a flat array laid out by the `_layout` table,
    each in its parameter's shape."""
    return {e["name"]: flat[e["offset"] // 8:e["offset"] // 8 + e["count"]].reshape(e["shape"])
            for e in table}


class Adam:
    """Adam with bias correction. The moments and the gathered gradient lie in
    flat float64 arrays laid out as `params.bin` is (`_layout`); `m[name]` and
    `v[name]` are views of a parameter's slice of the moments."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self._table = _layout(params)
        size = sum(entry["count"] for entry in self._table)
        self._m, self._v, self._g = np.zeros(size), np.zeros(size), np.empty(size)
        self.m, self.v = _views(self._m, self._table), _views(self._v, self._table)
        self._g_views = list(_views(self._g, self._table).values())

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        """One update of every parameter that has a gradient, elementwise over the
        gradients gathered on the table; a non-finite gradient raises before any
        weight or moment moves. The update covers the whole state when every
        parameter is live, else the live slices alone, so an idle parameter's
        moments do not decay."""
        live = [p.grad is not None for p in self.params.values()]
        np.concatenate([np.zeros(p.size) if p.grad is None else p.grad.ravel()
                        for p in self.params.values()], out=self._g)
        bad = _first_non_finite(self._g, self._table)
        if bad is not None:
            raise ValueError(f"non-finite gradient of {bad}")
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        at = slice(None) if all(live) else np.repeat(live, [e["count"] for e in self._table])
        m, v, g = self._m[at], self._v[at], self._g[at]   # views, or the live copies
        s = (1.0 - ADAM_BETA1) * g
        m *= ADAM_BETA1
        m += s
        np.multiply(1.0 - ADAM_BETA2, g, out=s)
        s *= g
        v *= ADAM_BETA2
        v += s
        np.divide(m, b1t, out=g)            # g and s are scratch from here on
        g *= self.lr
        np.divide(v, b2t, out=s)
        np.sqrt(s, out=s)
        s += ADAM_EPS
        g /= s
        self._m[at], self._v[at], self._g[at] = m, v, g     # no copy when they are views
        for p, d, on in zip(self.params.values(), self._g_views, live):
            if on:
                p.data -= d


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


def _build_model(config: Config, where: str) -> TrajectoryPredictor:
    """The untrained model of `config`; one numpy cannot build is refused naming `where`."""
    try:
        return TrajectoryPredictor(config.model, seed=config.training.seed)
    except (ValueError, MemoryError) as exc:
        raise ValueError(f"{where} describes a model that cannot be built "
                         f"({type(exc).__name__}: {exc})") from None


def train(config: Config, out_dir: str | None = None, log=None,
          config_path: str | None = None) -> TrainResult:
    """Run the full training loop; deterministic given the config seed. A refusal
    of the config's synthetic scenes or model names `config_path`, the file it came
    from."""
    config.validate()
    where = f"{config_path}: the config" if config_path else "the config"
    try:
        scenarios = load_training_scenarios(config)
    except (ValueError, MemoryError) as exc:
        if config.data.scenario_path is not None:       # the scenario file's refusal
            raise
        raise ValueError(f"{where}'s data.synthetic cannot be generated "
                         f"({type(exc).__name__}: {exc})") from None
    items = build_training_items(scenarios)
    model = _build_model(config, where)
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
        write_text(os.path.join(out_dir, "train_log.txt"), "\n".join(result.log_lines) + "\n")
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
    """Write `params.bin` and `manifest.json`; a non-finite weight is refused first."""
    params = model.parameters()
    table = _layout(params)
    flat = np.concatenate([p.data.ravel() for p in params.values()]).astype("<f8", copy=False)
    bad = _first_non_finite(flat, table)
    if bad is not None:
        raise ValueError(f"{out_dir}: parameter {bad!r} holds a non-finite weight")
    os.makedirs(out_dir, exist_ok=True)
    blob = flat.tobytes()
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "dtype": "<f8",
        "step": step,
        "config": config.to_dict(),
        "params": table,
        "params_sha256": hashlib.sha256(blob).hexdigest(),
    }
    with open(os.path.join(out_dir, PARAMS_NAME), "wb") as fh:
        fh.write(blob)
    write_text(os.path.join(out_dir, MANIFEST_NAME), json.dumps(manifest, indent=1))
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
    model = _build_model(config, f"{manifest_path}: the stored config")
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
        p.data = (np.frombuffer(blob, "<f8", count=own["count"], offset=lo)
                  .reshape(p.shape).astype(np.float64))
    bad = _first_non_finite(np.frombuffer(blob, "<f8", count=end // 8), layout)
    if bad is not None:
        raise ValueError(f"{params_path}: parameter {bad!r} holds a non-finite weight")
    if len(blob) > end:
        raise ValueError(f"{params_path}: {len(blob) - end} bytes after the last "
                         f"parameter {name!r}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != manifest["params_sha256"]:
        raise ValueError(f"{params_path}: sha256 {digest} is not the manifest's "
                         f"params_sha256 {manifest['params_sha256']!r}")
    return model, config, manifest["step"]
