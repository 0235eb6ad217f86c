"""Seeded inputs, set-up and closed-loop timed phases of the three workloads.

Each workload is one client in one process: the next op starts only after
the previous one returned and its outputs were checked. An op is one
`train_step` (train-desk) or one `predict_scenario` call (the predict
workloads). Every op's outputs are checked here, not by mftp, and an op
that raises or fails a check counts as failed.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import time

import numpy as np

from mftp import data, metrics, prediction_io, training
from mftp.config import Config
from mftp.data import GenConfig
from mftp.model import TrajectoryPredictor

K = 5                  # modes scored by min_fde_k
PROB_TOL = 1e-9        # |sum(probs) - 1| allowed per prediction
WARMUP_STEPS = 2
# Peak RSS is read after this many ops: it grows with the op count, so a
# whole-run peak would follow the host's speed.
PEAK_RSS_OPS = 8


@dataclasses.dataclass
class Size:
    gen: GenConfig
    episode: int = 0           # train-desk: steps before the weights reset


SIZES = {
    "train-desk": {
        "full": Size(GenConfig(), episode=20),
        "tiny": Size(GenConfig(num_scenarios=2), episode=3),
    },
    "predict-crowd": {
        "full": Size(GenConfig(num_scenarios=16, num_agents=32, num_targets=8)),
        "tiny": Size(GenConfig(num_scenarios=2, num_agents=6, num_targets=2)),
    },
    "predict-desk": {
        "full": Size(GenConfig(num_scenarios=32, num_agents=3, num_targets=1)),
        "tiny": Size(GenConfig(num_scenarios=4, num_agents=3, num_targets=1)),
    },
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


# -- inputs ----------------------------------------------------------------------


def mask_states(scenarios: list[data.Scenario], seed: int) -> None:
    """Invalidate some history states and some whole non-target agents.

    Each target keeps its t=0 state, which normalization needs, and its
    future, which the metrics score.
    """
    rng = np.random.default_rng([seed, 1])
    for s in scenarios:
        others = [i for i in range(s.num_agents) if i not in s.targets]
        if others and rng.random() < 0.5:
            gone = s.agents[int(rng.choice(others))]
            gone.history[:] = 0.0
            gone.future[:] = 0.0
        for i, agent in enumerate(s.agents):
            drop = rng.random(agent.history.shape[0]) < 0.2
            if i in s.targets:
                drop[-1] = False
            agent.history[drop] = 0.0


def make_inputs(workload: str, size: Size, seed: int, work_dir: str):
    """Write the scenario file and an untrained seeded checkpoint.

    Returns the in-memory model the checkpoint was saved from, the scenario
    path and the checkpoint directory.
    """
    scenarios = data.generate_synthetic(size.gen, seed=seed)
    if workload == "predict-desk":
        mask_states(scenarios, seed)
    config = Config()
    config.training.seed = seed
    model = TrajectoryPredictor(config.model, seed=seed)
    scenario_path = os.path.join(work_dir, "scenarios.json")
    data.save_scenarios(scenario_path, scenarios)
    ckpt = training.save_checkpoint(os.path.join(work_dir, "checkpoint"), model,
                                    config, step=0)
    return model, scenario_path, ckpt


# -- output checks -------------------------------------------------------------------


def check_predictions(preds, scenario: data.Scenario, t_future: int) -> None:
    if [t for t, _ in preds] != list(scenario.targets):
        raise CheckFailed(f"{scenario.scenario_id}: predicted targets "
                          f"{[t for t, _ in preds]} != {scenario.targets}")
    for target, p in preds:
        trajs, probs = p.trajs.data, p.probs.data
        where = f"{scenario.scenario_id} target {target}"
        if trajs.shape != (K, t_future, 2) or probs.shape != (K,):
            raise CheckFailed(f"{where}: shapes {trajs.shape}, {probs.shape}")
        if not (np.all(np.isfinite(trajs)) and np.all(np.isfinite(probs))):
            raise CheckFailed(f"{where}: non-finite prediction")
        if np.any(probs < 0.0) or abs(float(probs.sum()) - 1.0) > PROB_TOL:
            raise CheckFailed(f"{where}: probabilities {probs.tolist()}")


def check_report(report) -> None:
    values = dataclasses.asdict(report)
    if not all(math.isfinite(v) for v in values.values()):
        raise CheckFailed(f"non-finite loss {values}")


def same_predictions(a, b) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(x.trajs.data, y.trajs.data)
        and np.array_equal(x.probs.data, y.probs.data) for x, y in zip(a, b))


def check_reload(model0, model, scenario: data.Scenario) -> list:
    """The reloaded checkpoint must predict bit for bit like the saved model."""
    scenario = dataclasses.replace(scenario, targets=scenario.targets[:1])
    mine = model0.predict_scenario(scenario)
    theirs = model.predict_scenario(scenario)
    if not same_predictions([p for _, p in mine], [p for _, p in theirs]):
        raise CheckFailed("predictions from the reloaded checkpoint differ "
                          "from the in-memory model's")
    return [(scenario.scenario_id, t, p) for t, p in theirs]


def check_round_trip(records: list, path: str) -> None:
    """write_predictions then load_predictions must keep every value."""
    prediction_io.write_predictions(path, records)
    loaded = prediction_io.load_predictions(path)
    if sorted(loaded) != sorted((sid, t) for sid, t, _ in records) or \
            not same_predictions([p for _, _, p in records],
                                 [loaded[(sid, t)] for sid, t, _ in records]):
        raise CheckFailed("prediction file round trip changed a value")


# -- the closed loop -------------------------------------------------------------------


class Loop:
    """Runs ops one after another and records their times and failures."""

    def __init__(self, tracer=None, inject_nan: bool = False):
        self.tracer = tracer
        self.inject_nan = inject_nan
        self.samples: list[float] = []     # seconds per op
        self.attempted = 0
        self.failed = 0
        self.items = 0                     # targets of ops that passed
        self.errors: list[str] = []
        self.peak_rss_mb = None            # after PEAK_RSS_OPS ops

    def call(self, kind: str, fn, *args):
        """One unit of work, a root span when tracing; returns (out, seconds)."""
        t0 = time.perf_counter()
        if self.tracer is None:
            out = fn(*args)
        else:
            out = self.tracer.run_op(kind, fn, *args)
        return out, time.perf_counter() - t0

    def op(self, kind: str, fn, args, check, items: int):
        """Time one op, check its output; returns the output or None."""
        self.attempted += 1
        try:
            out, dt = self.call(kind, fn, *args)
        except Exception as exc:
            self._fail(f"op {self.attempted} raised {exc!r}")
            return None
        self.samples.append(dt)
        if len(self.samples) == PEAK_RSS_OPS:
            self.peak_rss_mb = peak_rss_mb()
        if self.inject_nan:
            self.inject_nan = False
            poison(out)
        try:
            check(out)
        except CheckFailed as exc:
            self._fail(f"op {self.attempted}: {exc}")
            return None
        self.items += items
        return out

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def poison(out) -> None:
    """Put one NaN into an op's output (smoke test of the checks)."""
    if isinstance(out, list):
        out[0][1].trajs.data[0, -1, 0] = math.nan
    else:
        out.total = math.nan


# -- workloads -------------------------------------------------------------------------


class TrainDesk:
    """train_step on the default config; weights reset every `episode` steps.

    The reset makes each step's loss a function of the seed and the step's
    index in the episode, so every loss is checked bit for bit against the
    first episode and `loss_final` (the last step of an episode) repeats.
    """

    def __init__(self, size: Size):
        self.size = size
        self.reference: list[float] = []

    def setup(self, seed: int, work_dir: str) -> None:
        model0, scenario_path, self.ckpt = make_inputs("train-desk", self.size, seed,
                                                       work_dir)
        scenarios = data.load_scenarios(scenario_path)
        self.items = training.build_training_items(scenarios)
        self.model, self.config, _ = training.load_checkpoint(self.ckpt)
        records = check_reload(model0, self.model, scenarios[0])
        check_round_trip(records, os.path.join(work_dir, "check_predictions.json"))
        self.batch_size = min(self.config.training.batch_size, len(self.items))
        self.initial = {k: p.data.copy() for k, p in self.model.parameters().items()}
        self.reset()
        for _ in range(WARMUP_STEPS):
            self._check(self._step())
        self.reset()

    def reset(self) -> None:
        for k, p in self.model.parameters().items():
            p.data = self.initial[k].copy()
            p.grad = None
        self.optimizer = training.Adam(self.model.parameters(),
                                       lr=self.config.training.learning_rate)
        self.index = 0

    def _step(self):
        bs, n = self.batch_size, len(self.items)
        batch = [self.items[(self.index * bs + i) % n] for i in range(bs)]
        report = training.train_step(self.model, self.optimizer, batch, self.config)
        self.index += 1
        return report

    def _check(self, report) -> None:
        check_report(report)
        i = self.index - 1
        if i == len(self.reference):
            self.reference.append(report.total)
        elif report.total != self.reference[i]:
            raise CheckFailed(f"step {i} of an episode: loss {report.total!r} != "
                              f"{self.reference[i]!r} in the first episode")

    def run(self, loop: Loop, seconds: float) -> None:
        self.reset()
        end = time.perf_counter() + seconds
        while time.perf_counter() < end or len(self.reference) < self.size.episode:
            if self.index == self.size.episode:
                self.reset()
            loop.op("step", self._step, (), self._check, self.batch_size)

    def outputs(self) -> dict:
        return {"loss_final": self.reference[self.size.episode - 1]}


class PredictCrowd:
    """predict_scenario on crowded scenes, cycling through the scene list.

    The two forward passes of `check_reload` on a one-target crowded scene
    are the warm-up; a full scene would add seconds to every set-up.
    """

    workload = "predict-crowd"

    def __init__(self, size: Size):
        self.size = size
        self.latest: dict = {}

    def setup(self, seed: int, work_dir: str) -> None:
        model0, self.scenario_path, self.ckpt = make_inputs(self.workload, self.size,
                                                            seed, work_dir)
        self.scenarios = data.load_scenarios(self.scenario_path)
        self.model, self.config, _ = training.load_checkpoint(self.ckpt)
        records = check_reload(model0, self.model, self.scenarios[0])
        check_round_trip(records, os.path.join(work_dir, "check_predictions.json"))
        self.t_future = self.config.model.t_future

    def scene_op(self, loop: Loop, s: data.Scenario):
        return loop.op("scene", self.model.predict_scenario, (s,),
                       lambda preds: check_predictions(preds, s, self.t_future),
                       len(s.targets))

    def run(self, loop: Loop, seconds: float) -> None:
        end = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < end:
            s = self.scenarios[i % len(self.scenarios)]
            preds = self.scene_op(loop, s)
            if preds is not None:
                self.latest[s.scenario_id] = (s, preds)
            i += 1

    def outputs(self) -> dict:
        """min_fde_k over the latest passing prediction of each scene."""
        scenes = [s for s, _ in self.latest.values()]
        preds = {(s.scenario_id, t): p for s, ps in self.latest.values() for t, p in ps}
        report = metrics.evaluate_predictions(preds, scenes, k=K)
        return {"min_fde_k": checked_min_fde(report, len(preds))}


def checked_min_fde(report, n_targets: int) -> float:
    """min_fde_k of a report that scored every target and is finite."""
    if report.n_targets != n_targets or not math.isfinite(report.min_fde_k):
        raise CheckFailed(f"scored {report.n_targets} of {n_targets} targets, "
                          f"min_fde_k={report.min_fde_k!r}")
    return report.min_fde_k


class PredictDesk(PredictCrowd):
    """The CLI's path on small scenes, repeated as file rounds.

    A round loads the scenario file, predicts each scene, writes the
    predictions, loads them back and scores them. Scenes whose predictions
    fail their check are left out of the file; if the round trip or the
    score fails, every scene of the round counts as failed.
    """

    workload = "predict-desk"

    def setup(self, seed: int, work_dir: str) -> None:
        self.out_path = os.path.join(work_dir, "predictions.json")
        self.min_fde_k = None
        super().setup(seed, work_dir)
        self.round(Loop(), warm_up=True)

    def round(self, loop: Loop, warm_up: bool = False) -> None:
        scenarios, _ = loop.call("io", data.load_scenarios, self.scenario_path)
        if warm_up:
            scenarios = scenarios[:4]
        failed_before = loop.failed
        records, passed = [], []
        for s in scenarios:
            preds = self.scene_op(loop, s)
            if preds is not None:
                passed.append(s)
                records.extend((s.scenario_id, t, p) for t, p in preds)
        try:
            loop.call("io", prediction_io.write_predictions, self.out_path, records)
            loaded, _ = loop.call("io", prediction_io.load_predictions, self.out_path)
            report, _ = loop.call("io", metrics.evaluate_predictions, loaded, passed, K)
            min_fde = checked_min_fde(report, len(records))
            if not warm_up and loop.failed == failed_before:
                if self.min_fde_k is None:
                    self.min_fde_k = min_fde
                elif min_fde != self.min_fde_k:
                    raise CheckFailed(f"min_fde_k {min_fde!r} != {self.min_fde_k!r} "
                                      "in an earlier round")
        except (CheckFailed, ValueError, OSError) as exc:
            lost = len(passed)
            loop.failed += lost
            loop.items -= sum(len(s.targets) for s in passed)
            loop.errors.append(f"round trip failed for {lost} scenes: {exc!r}")
        if warm_up and loop.failed:
            raise CheckFailed(f"warm-up round failed: {loop.errors}")

    def run(self, loop: Loop, seconds: float) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.round(loop)

    def outputs(self) -> dict:
        if self.min_fde_k is None:
            raise CheckFailed("no round passed")
        return {"min_fde_k": self.min_fde_k}


WORKLOADS = {"train-desk": TrainDesk, "predict-crowd": PredictCrowd,
             "predict-desk": PredictDesk}
