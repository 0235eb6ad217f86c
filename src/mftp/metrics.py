"""Motion forecasting metrics and the evaluation harness.

All metrics operate on multimodal predictions in the global frame: minimum
average displacement error over the k most probable modes, minimum final
displacement error, miss rate against an endpoint threshold, and the
Brier-style final displacement error that adds (1 - p)^2 for the
probability p of the endpoint-best mode. All four read one table per target
from `decoder.mode_distances`, the distance rule of training's winner too.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Scenario, check_target_futures, scenario_sha256
from .decoder import PredictionSet, check_prediction, mode_distances
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


def _scores(pred: PredictionSet, gt: np.ndarray, where: str,
            threshold: float = DEFAULT_MISS_THRESHOLD) -> tuple[float, float, float, float]:
    """(min_ade, min_fde, miss, b_min_fde) of `pred`'s modes from one distance table.
    Another ground-truth shape or a non-finite min_fde or min_ade (which no threshold
    would count as a miss) raises ValueError starting with `where`."""
    trajs = pred.trajs.data
    gt = np.asarray(gt, dtype=np.float64)
    if trajs.shape[1:] != gt.shape:
        raise ValueError(f"{where} shapes {trajs.shape[1:]} vs {gt.shape}")
    d = mode_distances(trajs, gt)                           # [K, T]
    best = int(np.argmin(d[:, -1]))                         # the endpoint-best mode
    fde, ade = float(d[best, -1]), float(d.mean(axis=-1).min())
    for name, value in (("min_fde", fde), ("min_ade", ade)):
        if not math.isfinite(value):
            raise ValueError(f"{where} non-finite {name} {value!r}")
    return ade, fde, float(fde > threshold), float(fde + (1.0 - pred.probs.data[best]) ** 2)


def min_ade(pred: PredictionSet, gt: np.ndarray) -> float:
    """Minimum over modes of the mean L2 distance to ground truth."""
    return _scores(pred, gt, "min_ade:")[0]


def min_fde(pred: PredictionSet, gt: np.ndarray) -> float:
    """Minimum over modes of the endpoint L2 distance."""
    return _scores(pred, gt, "min_fde:")[1]


def miss(pred: PredictionSet, gt: np.ndarray,
         threshold: float = DEFAULT_MISS_THRESHOLD) -> float:
    """1.0 when every endpoint lands farther than the threshold, else 0.0."""
    return _scores(pred, gt, "miss:", threshold)[2]


def b_min_fde(pred: PredictionSet, gt: np.ndarray) -> float:
    """min_fde plus (1 - p)^2 for the probability of the endpoint-best mode."""
    return _scores(pred, gt, "b_min_fde:")[3]


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


def score_target(pred: PredictionSet, gt: np.ndarray, k: int, threshold: float,
                 scenario_id: str = "", target: int = 0) -> TargetMetrics:
    """Metrics of one target's top-k modes; each refusal names scenario and target."""
    where = f"scenario {scenario_id!r} target {target}:"
    if pred.trajs.shape[1] != len(gt):
        raise ValueError(f"{where} trajectory has {pred.trajs.shape[1]} steps, "
                         f"ground truth has {len(gt)}")
    check_prediction(pred, where)
    return TargetMetrics(scenario_id, target, *_scores(top_k_modes(pred, k), gt, where,
                                                        threshold))


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
    and other horizons are refused before any scene is predicted. The records'
    digests, just made from these very scenes, are dropped, not checked again.
    """
    _check_scoring_args(scenarios, k, threshold)
    if k > model.config.n_modes:
        raise ValueError(f"k={k} exceeds the model's {model.config.n_modes} modes")
    predictions = {(sid, t): PredictionSet(p.trajs, p.probs)
                   for sid, t, p in model.predict_scenarios(scenarios)}
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
