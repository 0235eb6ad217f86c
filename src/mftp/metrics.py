"""Motion forecasting metrics and the evaluation harness.

All metrics operate on multimodal predictions in the global frame: minimum
average displacement error over the k most probable modes, minimum final
displacement error, miss rate against an endpoint threshold, and the
Brier-style final displacement error that adds (1 - p)^2 for the
probability p of the endpoint-best mode.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Scenario
from .decoder import PredictionSet
from .tensor import Tensor

DEFAULT_MISS_THRESHOLD = 2.0   # meters at the final timestep


@dataclass
class TargetMetrics:
    scenario_id: str
    target: int
    min_ade: float
    min_fde: float
    miss: float
    b_min_fde: float


@dataclass
class MetricReport:
    k: int
    miss_threshold: float
    min_ade_k: float
    min_fde_k: float
    miss_rate: float
    b_min_fde: float
    n_targets: int
    per_target: list[TargetMetrics] = field(default_factory=list)

    def to_text(self) -> str:
        return "\n".join([
            f"k={self.k}",
            f"miss_threshold={self.miss_threshold!r}",
            f"n_targets={self.n_targets}",
            f"min_ade_k={self.min_ade_k!r}",
            f"min_fde_k={self.min_fde_k!r}",
            f"miss_rate={self.miss_rate!r}",
            f"b_min_fde={self.b_min_fde!r}",
        ])

    def per_target_csv(self) -> str:
        buf = io.StringIO()
        buf.write("scenario,target,min_ade,min_fde,miss,b_min_fde\n")
        for row in self.per_target:
            buf.write(f"{row.scenario_id},{row.target},{row.min_ade!r},"
                      f"{row.min_fde!r},{row.miss!r},{row.b_min_fde!r}\n")
        return buf.getvalue()


def top_k_modes(pred: PredictionSet, k: int) -> PredictionSet:
    """The k most probable modes (stable order: ties keep the lower index)."""
    trajs, probs = pred.trajs.data, pred.probs.data
    if k > trajs.shape[0]:
        raise ValueError(f"requested top {k} modes but prediction has {trajs.shape[0]}")
    order = np.argsort(-probs, kind="stable")[:k]
    return PredictionSet(trajs=Tensor(trajs[order]), probs=Tensor(probs[order]))


def min_ade(pred: PredictionSet, gt: np.ndarray) -> float:
    """Minimum over modes of the mean L2 distance to ground truth."""
    trajs = pred.trajs.data
    gt = np.asarray(gt, dtype=np.float64)
    if trajs.shape[1:] != gt.shape:
        raise ValueError(f"min_ade: shapes {trajs.shape[1:]} vs {gt.shape}")
    d = np.linalg.norm(trajs - gt[None], axis=-1).mean(axis=-1)
    return float(d.min())


def min_fde(pred: PredictionSet, gt: np.ndarray) -> float:
    """Minimum over modes of the endpoint L2 distance."""
    trajs = pred.trajs.data
    gt = np.asarray(gt, dtype=np.float64)
    d = np.linalg.norm(trajs[:, -1, :] - gt[-1], axis=-1)
    return float(d.min())


def miss(pred: PredictionSet, gt: np.ndarray,
         threshold: float = DEFAULT_MISS_THRESHOLD) -> float:
    """1.0 when every endpoint lands farther than the threshold, else 0.0.

    A non-finite min_fde raises ValueError: a NaN distance compares as not
    farther than any threshold and would count as a hit.
    """
    d = min_fde(pred, gt)
    if not math.isfinite(d):
        raise ValueError(f"miss: non-finite min_fde {d!r}")
    return 1.0 if d > threshold else 0.0


def b_min_fde(pred: PredictionSet, gt: np.ndarray) -> float:
    """min_fde plus (1 - p)^2 for the probability of the endpoint-best mode."""
    trajs, probs = pred.trajs.data, pred.probs.data
    gt = np.asarray(gt, dtype=np.float64)
    d = np.linalg.norm(trajs[:, -1, :] - gt[-1], axis=-1)
    best = int(np.argmin(d))
    return float(d[best] + (1.0 - probs[best]) ** 2)


def _aggregate(rows: list[TargetMetrics], k: int, threshold: float) -> MetricReport:
    if not rows:
        return MetricReport(k=k, miss_threshold=threshold, min_ade_k=0.0,
                            min_fde_k=0.0, miss_rate=0.0, b_min_fde=0.0,
                            n_targets=0, per_target=[])
    return MetricReport(
        k=k,
        miss_threshold=threshold,
        min_ade_k=float(np.mean([r.min_ade for r in rows])),
        min_fde_k=float(np.mean([r.min_fde for r in rows])),
        miss_rate=float(np.mean([r.miss for r in rows])),
        b_min_fde=float(np.mean([r.b_min_fde for r in rows])),
        n_targets=len(rows),
        per_target=rows,
    )


def _check_prediction(pred: PredictionSet, gt: np.ndarray, scenario_id: str,
                      target: int) -> None:
    """Raise ValueError on a step count unlike gt's or the first non-finite value."""
    trajs, probs = pred.trajs.data, pred.probs.data
    where = f"scenario {scenario_id!r} target {target}"
    if trajs.shape[1] != len(gt):
        raise ValueError(f"{where}: trajectory has {trajs.shape[1]} steps, "
                         f"ground truth has {len(gt)}")
    bad = np.flatnonzero(~np.isfinite(probs))
    if bad.size:
        raise ValueError(f"{where}: mode {bad[0]} has non-finite probability "
                         f"{float(probs[bad[0]])!r}")
    bad = np.argwhere(~np.isfinite(trajs))
    if bad.size:
        mode, step = int(bad[0][0]), int(bad[0][1])
        endpoint = " (non-finite min_fde)" if step == trajs.shape[1] - 1 else ""
        raise ValueError(f"{where}: mode {mode} step {step} of the trajectory is "
                         f"non-finite{endpoint}")


def score_target(pred: PredictionSet, gt: np.ndarray, k: int, threshold: float,
                 scenario_id: str = "", target: int = 0) -> TargetMetrics:
    """Metrics of one target's top-k modes; malformed inputs raise ValueError."""
    _check_prediction(pred, gt, scenario_id, target)
    sub = top_k_modes(pred, k)
    return TargetMetrics(
        scenario_id=scenario_id,
        target=target,
        min_ade=min_ade(sub, gt),
        min_fde=min_fde(sub, gt),
        miss=miss(sub, gt, threshold),
        b_min_fde=b_min_fde(sub, gt),
    )


def evaluate_model(model, scenarios: list[Scenario], k: int,
                   threshold: float = DEFAULT_MISS_THRESHOLD) -> MetricReport:
    """Predict every target with the model and average per-target metrics.

    Ground truth and predictions are compared in the global frame.
    """
    rows = []
    for s in scenarios:
        for target, pred in model.predict_scenario(s):
            if k > pred.num_modes:
                raise ValueError(f"model emits {pred.num_modes} modes, k={k} requested")
            gt = s.agents[target].future[:, :2]
            rows.append(score_target(pred, gt, k, threshold, s.scenario_id, target))
    return _aggregate(rows, k, threshold)


def evaluate_predictions(predictions: dict[tuple[str, int], PredictionSet],
                         scenarios: list[Scenario], k: int,
                         threshold: float = DEFAULT_MISS_THRESHOLD) -> MetricReport:
    """Score externally supplied predictions against scenario ground truth."""
    rows = []
    for s in scenarios:
        for target in s.targets:
            key = (s.scenario_id, target)
            if key not in predictions:
                raise ValueError(f"missing prediction for scenario {s.scenario_id} "
                                 f"target {target}")
            pred = predictions[key]
            if k > pred.num_modes:
                raise ValueError(f"prediction for {key} has {pred.num_modes} modes, "
                                 f"k={k} requested")
            gt = s.agents[target].future[:, :2]
            rows.append(score_target(pred, gt, k, threshold, s.scenario_id, target))
    return _aggregate(rows, k, threshold)
