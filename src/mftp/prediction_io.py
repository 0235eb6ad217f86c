"""On-disk prediction exchange format.

    {"predictions": [{"scenario": str, "target": int,
                      "modes": [{"prob": float, "traj": [[x, y], ...]}]}]}

Trajectories are global-frame meters. Loading rejects a `predictions` value
that is not a list, a record whose target is not an integer, a record whose
probabilities are not one finite, non-negative value per mode summing to 1,
and a record that repeats an earlier (scenario, target) pair.
"""

from __future__ import annotations

import json

import numpy as np

from .decoder import PredictionSet
from .tensor import Tensor

PROB_SUM_TOL = 1e-6   # per-record probabilities must sum to 1 within this


def write_predictions(path: str,
                      records: list[tuple[str, int, PredictionSet]]) -> None:
    doc = {"predictions": [
        {
            "scenario": sid,
            "target": int(target),
            "modes": [
                {"prob": float(pred.probs.data[k]),
                 "traj": pred.trajs.data[k].tolist()}
                for k in range(pred.num_modes)
            ],
        }
        for sid, target, pred in records
    ]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load_predictions(path: str) -> dict[tuple[str, int], PredictionSet]:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "predictions" not in doc:
        raise ValueError(f"{path}: missing top-level 'predictions' list")
    if not isinstance(doc["predictions"], list):
        raise ValueError(f"{path}: 'predictions' must be a list, got "
                         f"{type(doc['predictions']).__name__}")
    out: dict[tuple[str, int], PredictionSet] = {}
    for i, rec in enumerate(doc["predictions"]):
        try:
            sid = str(rec["scenario"])
            target = rec["target"]
            modes = rec["modes"]
            trajs = np.asarray([m["traj"] for m in modes], dtype=np.float64)
            probs = np.asarray([m["prob"] for m in modes], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed prediction record {i} ({exc})") from None
        if type(target) is not int:
            raise ValueError(f"{path}: record {i} target {target!r} is not an integer")
        if trajs.ndim != 3 or trajs.shape[-1] != 2:
            raise ValueError(f"{path}: record {i} trajectories must be [K, T, 2]")
        if probs.shape != trajs.shape[:1]:
            raise ValueError(f"{path}: record {i} has {probs.size} probabilities "
                             f"for {trajs.shape[0]} modes")
        bad = np.flatnonzero(~(np.isfinite(probs) & (probs >= 0.0)))
        if bad.size:
            raise ValueError(f"{path}: record {i} mode {bad[0]} probability "
                             f"{float(probs[bad[0]])!r} is not finite and non-negative")
        if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"{path}: record {i} probabilities sum to "
                             f"{float(probs.sum())!r}, not 1")
        if (sid, target) in out:
            raise ValueError(f"{path}: record {i} repeats scenario {sid!r} "
                             f"target {target}")
        out[(sid, target)] = PredictionSet(trajs=Tensor(trajs), probs=Tensor(probs))
    return out
