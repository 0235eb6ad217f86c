"""On-disk prediction exchange format.

    {"predictions": [{"scenario": str, "target": int,
                      "modes": [{"prob": float, "traj": [[x, y], ...]}],
                      "scenario_sha256": str}]}

Trajectories are global-frame meters. `scenario_sha256`, optional, is the
`data.scenario_sha256` of the scene the record was predicted on (`mftp
predict` writes it); scoring refuses a record whose scene now hashes
differently. Loading rejects a file that is not valid UTF-8 JSON, a `predictions`
value that is not a list, a record whose target is not an integer, a
`scenario_sha256` that is not a string, a record whose probabilities are not
one finite, non-negative value per mode summing to 1, and a record that
repeats an earlier (scenario, target) pair.
"""

from __future__ import annotations

import json

import numpy as np

from .data import read_json
from .decoder import PredictionSet
from .tensor import Tensor

PROB_SUM_TOL = 1e-6   # per-record probabilities must sum to 1 within this


def write_predictions(path: str,
                      records: list[tuple[str, int, PredictionSet]]) -> None:
    doc = {"predictions": [_record(sid, target, pred) for sid, target, pred in records]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))     # json.dump's bytes, without its streaming encoder


def _record(sid: str, target: int, pred: PredictionSet) -> dict:
    rec = {
        "scenario": sid,
        "target": int(target),
        "modes": [
            {"prob": float(pred.probs.data[k]),
             "traj": pred.trajs.data[k].tolist()}
            for k in range(pred.num_modes)
        ],
    }
    if pred.scenario_sha256 is not None:
        rec["scenario_sha256"] = pred.scenario_sha256
    return rec


def load_predictions(path: str) -> dict[tuple[str, int], PredictionSet]:
    doc = read_json(path)
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: malformed prediction record {i} ({exc})") from None
        if type(target) is not int:
            raise ValueError(f"{path}: record {i} target {target!r} is not an integer")
        digest = rec.get("scenario_sha256")
        if digest is not None and type(digest) is not str:
            raise ValueError(f"{path}: record {i} scenario_sha256 {digest!r} is not a string")
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
        out[(sid, target)] = PredictionSet(trajs=Tensor(trajs), probs=Tensor(probs),
                                           scenario_sha256=digest)
    return out
