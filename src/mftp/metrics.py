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

from .data import Scenario, check_target_futures, scenario_sha256
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


def _check_scoring_args(scenarios: list[Scenario], k: int, threshold: float) -> None:
    if k < 1:
        raise ValueError(f"k={k}: the number of scored modes must be >= 1")
    if not (math.isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"miss threshold={threshold}: must be finite and > 0")
    if not any(s.targets for s in scenarios):
        raise ValueError("no targets to score")
    check_target_futures(scenarios)
    seen = set()
    for s in scenarios:
        if s.scenario_id in seen:
            raise ValueError(f"scenario id {s.scenario_id!r} repeats")
        seen.add(s.scenario_id)


def evaluate_model(model, scenarios: list[Scenario], k: int,
                   threshold: float = DEFAULT_MISS_THRESHOLD) -> MetricReport:
    """`evaluate_predictions` on the model's own `predict_scenarios` records.

    What `evaluate_predictions` refuses up front, a `k` above the model's modes
    and other horizons are refused before any scene is predicted.
    """
    _check_scoring_args(scenarios, k, threshold)
    if k > model.config.n_modes:
        raise ValueError(f"k={k} exceeds the model's {model.config.n_modes} modes")
    predictions = {(sid, t): p for sid, t, p in model.predict_scenarios(scenarios)}
    return evaluate_predictions(predictions, scenarios, k, threshold)


def evaluate_predictions(predictions: dict[tuple[str, int], PredictionSet],
                         scenarios: list[Scenario], k: int,
                         threshold: float = DEFAULT_MISS_THRESHOLD) -> MetricReport:
    """Score predictions keyed by (scenario id, target).

    A repeated id, `k < 1`, a miss threshold that is not finite and > 0, no
    target in any scenario, or a target whose future has a padded step
    (`valid = 0`) raises ValueError before anything is scored. A prediction
    whose `scenario_sha256` is not that of the scenario now under its id
    raises ValueError too; a scene is hashed only when one of its
    predictions carries a digest.
    """
    _check_scoring_args(scenarios, k, threshold)
    rows = []
    for s in scenarios:
        digest = None
        for target in s.targets:
            key = (s.scenario_id, target)
            if key not in predictions:
                raise ValueError(f"missing prediction for scenario {s.scenario_id} "
                                 f"target {target}")
            pred = predictions[key]
            if pred.scenario_sha256 is not None:
                digest = digest or scenario_sha256(s)
                if pred.scenario_sha256 != digest:
                    raise ValueError(f"prediction for scenario {s.scenario_id!r} target "
                                     f"{target} was made on other scenario content "
                                     f"(sha256 {pred.scenario_sha256}, the scenario "
                                     f"now hashes to {digest})")
            if k > pred.num_modes:
                raise ValueError(f"prediction for {key} has {pred.num_modes} modes, "
                                 f"k={k} requested")
            gt = s.agents[target].future[:, :2]
            rows.append(score_target(pred, gt, k, threshold, s.scenario_id, target))
    return _aggregate(rows, k, threshold)
