"""Spans around mftp's public layer functions, installed from outside the program.

`Tracer.install()` rebinds each traced function in every loaded `mftp.*`
module namespace that holds it (and each traced method on its class), so the
calls that `model.py`, `patching.py`, `decoder.py` and `training.py` make go
through a timing wrapper. Each span records its name, start, end, parent
span, op id and any exception, plus the tape-node counter at entry and exit.
Spans stay in memory until `write()`.

Tape nodes are counted by wrapping `Tensor._from_op`, the one constructor
every recorded op goes through; a span's node count is inclusive of its
children. `tensor.nodes.step` is counted separately, by walking the graph
from the loss before `Tensor.backward` runs; the walk lies outside every
span, so its time shows in `op.untraced_ms` and `trace.overhead_pct`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time

import numpy as np

# span name -> (module, attribute); a dotted attribute is a method on a class
TRACED = {
    "model.forward": ("mftp.model", "TrajectoryPredictor.forward"),
    "freq.moe_filter": ("mftp.freq", "moe_filter"),
    "patching.encode_granularity": ("mftp.patching", "encode_granularity"),
    "attention.tsam": ("mftp.attention", "tsam"),
    "patching.fuse_granularities": ("mftp.patching", "fuse_granularities"),
    "attention.ssam": ("mftp.attention", "ssam"),
    "decoder.decode": ("mftp.decoder", "decode"),
    "attention.cross_attention": ("mftp.attention", "cross_attention"),
    "data.normalize": ("mftp.data", "normalize"),
    "decoder.denormalize": ("mftp.decoder", "denormalize"),
    "losses.target_loss": ("mftp.losses", "target_loss"),
    "losses.total_loss": ("mftp.losses", "total_loss"),
    "tensor.backward": ("mftp.tensor", "Tensor.backward"),
    "training.adam_step": ("mftp.training", "Adam.step"),
    "training.load_checkpoint": ("mftp.training", "load_checkpoint"),
    "data.load_scenarios": ("mftp.data", "load_scenarios"),
    "prediction_io.write_predictions": ("mftp.prediction_io", "write_predictions"),
    "prediction_io.load_predictions": ("mftp.prediction_io", "load_predictions"),
    "metrics.evaluate_predictions": ("mftp.metrics", "evaluate_predictions"),
}

FORWARD = ["model.forward", "freq.moe_filter", "patching.encode_granularity",
           "attention.tsam", "patching.fuse_granularities", "attention.ssam",
           "decoder.decode", "attention.cross_attention"]
PREDICT = FORWARD + ["data.normalize", "decoder.denormalize",
                     "training.load_checkpoint"]

# Spans each workload must reach in its traced phase; zero calls is an error.
EXPECTED = {
    "train-desk": FORWARD + ["losses.target_loss", "losses.total_loss",
                             "tensor.backward", "training.adam_step",
                             "training.load_checkpoint"],
    "predict-crowd": PREDICT,
    "predict-desk": PREDICT + ["data.load_scenarios",
                               "prediction_io.write_predictions",
                               "prediction_io.load_predictions",
                               "metrics.evaluate_predictions"],
}

SELF_MS = ["attention.ssam", "freq.moe_filter", "patching.encode_granularity",
           "attention.tsam", "patching.fuse_granularities", "decoder.decode",
           "attention.cross_attention", "model.forward"]
INCLUSIVE_MS = ["tensor.backward", "losses.target_loss", "losses.total_loss",
                "training.adam_step", "data.normalize", "decoder.denormalize",
                "data.load_scenarios", "prediction_io.write_predictions",
                "prediction_io.load_predictions", "metrics.evaluate_predictions",
                "training.load_checkpoint"]
NODES = ["attention.ssam", "freq.moe_filter", "patching.encode_granularity",
         "decoder.decode"]
# Times of layers that some workload never reaches. There they would read 0
# on every run, so they go to the report and the result file only.
REPORT_ONLY = {f"{name}.ms" for name in INCLUSIVE_MS
               if name != "training.load_checkpoint"}


def graph_nodes(root) -> int:
    """Tensors reachable from `root` through recorded parents, leaves included."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if p.requires_grad and id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def _ssam_attrs(agents, validity, params):
    """Query/key pairs ssam computes, and those whose key is masked out."""
    n = agents.shape[-2]
    b = agents.size // (n * agents.shape[-1])
    valid = np.ones((b, n), dtype=bool) if validity is None else \
        np.broadcast_to(np.asarray(validity, dtype=bool), (b, n))
    return {"pairs": b * n * n, "masked_pairs": n * int((~valid).sum())}


ATTRS = {
    "attention.ssam": _ssam_attrs,
    "patching.encode_granularity": lambda x, params: {"window": params.window},
    "tensor.backward": lambda loss: {"step_nodes": graph_nodes(loss)},
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None
        self.ops = 0
        self.nodes = 0

    @contextlib.contextmanager
    def _span(self, name: str, extra: dict):
        span = {"name": name, "op": self.op,
                "parent": self._stack[-1] if self._stack else None,
                "error": None, "nodes0": self.nodes, **extra}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        try:
            yield
        except Exception as exc:
            span["error"] = repr(exc)
            raise
        finally:
            span["end"] = time.perf_counter()
            span["nodes1"] = self.nodes
            self._stack.pop()

    def run_op(self, kind: str, fn, *args):
        """Call `fn(*args)` under a root span named "op", with a new op id."""
        self.ops += 1
        self.op = self.ops
        try:
            with self._span("op", {"kind": kind}):
                return fn(*args)
        finally:
            self.op = None

    def _wrap(self, name: str, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self._span(name, attrs(*args, **kwargs) if attrs else {}):
                return fn(*args, **kwargs)
        return traced

    def install(self) -> None:
        """Wrap every function in TRACED and count tape nodes."""
        loaded = [m for n, m in sys.modules.items()
                  if (n == "mftp" or n.startswith("mftp.")) and m is not None]
        for name, (module_name, attr) in TRACED.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)

        tensor_cls = importlib.import_module("mftp.tensor").Tensor
        make = tensor_cls.__dict__["_from_op"].__func__

        def counted(data, parents, backward):
            out = make(data, parents, backward)
            if out.requires_grad:
                self.nodes += 1
            return out
        tensor_cls._from_op = staticmethod(counted)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(i, [])):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def per_op_totals(spans: list[dict]) -> dict:
    """op id -> {key: total over the op's spans}, plus the op's kind."""
    selfs = self_times(spans)
    ops: dict = {}
    for s, self_s in zip(spans, selfs):
        d = ops.setdefault(s["op"], {})
        if s["name"] == "op":
            d["kind"] = s["kind"]
        name = s["name"]
        for key, value in ((f"{name}.self", self_s),
                           (f"{name}.incl", s["end"] - s["start"]),
                           (f"{name}.nodes", s["nodes1"] - s["nodes0"]),
                           (f"{name}.calls", 1)):
            d[key] = d.get(key, 0) + value
        if "window" in s:
            key = f"{name}.w{s['window']}.incl"
            d[key] = d.get(key, 0.0) + s["end"] - s["start"]
        for key in ("pairs", "masked_pairs", "step_nodes"):
            if key in s:
                d[key] = d.get(key, 0) + s[key]
    return ops


def layer_metrics(tracer: Tracer, workload: str, windows: list[int],
                  untraced_p50_ms: float, traced_p50_ms: float,
                  src_lines: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced phase: name -> (value, unit).

    Times and counts are medians over the ops that reach the span of the
    op's total. Raises if a span the workload should reach never ran.
    """
    ops = per_op_totals(tracer.spans)
    calls = {name: sum(d.get(f"{name}.calls", 0) for d in ops.values())
             for name in TRACED}
    missing = [n for n in EXPECTED[workload] if calls[n] == 0]
    if missing:
        raise RuntimeError(f"{workload}: traced spans never called: {missing}; "
                           "a layer is no longer reached through its public "
                           "function")
    errors = [s for s in tracer.spans if s["error"] and s["name"] != "op"]
    if errors:
        raise RuntimeError(f"traced spans raised: {errors[:3]}")

    def med(key: str, scale: float = 1.0) -> float:
        vals = [d[key] for d in ops.values() if key in d]
        return statistics.median(vals) * scale if vals else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (med(f"{name}.self", 1e3), "ms")
    for name in INCLUSIVE_MS:
        out[f"{name}.ms"] = (med(f"{name}.incl", 1e3), "ms")
    for w in windows:
        key = f"patching.encode_granularity.w{w}"
        out[f"{key}.ms"] = (med(f"{key}.incl", 1e3), "ms")
    for name in NODES:
        out[f"{name}.nodes"] = (med(f"{name}.nodes"), "count")
    loss_nodes = [d.get("losses.target_loss.nodes", 0) + d.get("losses.total_loss.nodes", 0)
                  for d in ops.values() if "losses.target_loss.nodes" in d]
    out["losses.nodes"] = (statistics.median(loss_nodes) if loss_nodes else 0, "count")
    out["tensor.nodes.forward"] = (med("model.forward.nodes"), "count")
    out["tensor.nodes.step"] = (med("step_nodes"), "count")
    out["attention.ssam.pairs"] = (med("pairs"), "count")
    pairs = sum(d.get("pairs", 0) for d in ops.values())
    masked = sum(d.get("masked_pairs", 0) for d in ops.values())
    out["attention.ssam.masked_pair_share"] = (masked / pairs if pairs else 0.0, "ratio")
    primary = [d["op.self"] for d in ops.values() if d.get("kind") in ("step", "scene")]
    out["op.untraced_ms"] = (statistics.median(primary) * 1e3, "ms")
    out["trace.overhead_pct"] = ((traced_p50_ms / untraced_p50_ms - 1.0) * 100.0, "%")
    out["src.lines"] = (src_lines, "lines")
    return out
