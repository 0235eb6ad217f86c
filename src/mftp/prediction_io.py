"""On-disk prediction exchange format.

    {"predictions": [{"scenario": str, "target": int,
                      "modes": [{"prob": float, "traj": [[x, y], ...]}],
                      "scenario_sha256": str}]}

Trajectories are global-frame meters. `scenario_sha256`, optional, is the
`data.scenario_sha256` of the scene the record was predicted on (`mftp
predict` writes it); scoring refuses a record whose scene now hashes
differently. Loading rejects a file that is not valid UTF-8 JSON, a `predictions`
value that is not a list, a record whose target is not an integer, a
`scenario_sha256` that is not a string, a record that breaks the prediction
contract (`decoder.check_prediction`, the owner of the shape, probability and
finiteness rules), a probability or trajectory value that is not a JSON number
(`data.first_non_number`: a string or a boolean is refused), and a record that
repeats an earlier (scenario, target) pair.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .data import first_non_number, read_json, write_text
from .decoder import PredictionSet, check_prediction
from .tensor import Tensor


def write_predictions(path: str,
                      records: list[tuple[str, int, PredictionSet]]) -> None:
    doc = {"predictions": [_record(sid, target, pred) for sid, target, pred in records]}
    write_text(path, json.dumps(doc))


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
        pred = PredictionSet(trajs=Tensor(trajs), probs=Tensor(probs), scenario_sha256=digest)
        check_prediction(pred, f"{path}: record {i}")
        for k, m in enumerate(modes):           # the contract has fixed each traj's shape
            values = [m["prob"], *itertools.chain.from_iterable(m["traj"])]
            bad = first_non_number(values)
            if bad is not None:
                what = (f"probability {values[bad]!r} is" if bad == 0 else
                        f"step {(bad - 1) // 2} of the trajectory holds {values[bad]!r},")
                raise ValueError(f"{path}: record {i} mode {k} {what} not a number")
        if (sid, target) in out:
            raise ValueError(f"{path}: record {i} repeats scenario {sid!r} "
                             f"target {target}")
        out[(sid, target)] = pred
    return out
