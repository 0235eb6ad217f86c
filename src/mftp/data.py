"""Scenario ingestion, agent-centric normalization, and synthetic traffic.

A scenario holds N agents, each with T_h observed states and T_f future
states in a shared global frame; a subset of agents are prediction targets.
For every target we build a local frame (origin at its latest observed pose,
x axis along its last heading) so the predictor never sees absolute
coordinates. The stored frame can map predictions back to the global frame.

On-disk format (one JSON object per file):

    {"scenarios": [{"id": str, "dt": float,
                    "agents": [{"history": [[x, y, valid], ...],
                                "future":  [[x, y, valid], ...]}],
                    "targets": [int, ...]}]}

Coordinates are meters; valid is 0 or 1 and marks padded states, whose
coordinates `normalize` zeroes. A target's future must have no padded step:
training and scoring refuse one (`check_target_futures`). Every number is a
JSON int or float (`first_non_number`): a string or a boolean is refused where
a number is due. Every JSON file mftp reads goes through `read_json`, every
text file it writes through `write_text`, both as UTF-8 whatever the locale.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np


class ScenarioFormatError(ValueError):
    """A scenario file or record violates the format contract."""


class ConfigError(ValueError):
    """A configuration value violates a downstream invariant."""


@dataclass
class AgentTrack:
    history: np.ndarray        # [T_h, 3] rows of (x, y, valid)
    future: np.ndarray         # [T_f, 3]


@dataclass
class Scenario:
    scenario_id: str
    dt: float
    agents: list[AgentTrack]
    targets: list[int]

    @property
    def num_agents(self) -> int:
        return len(self.agents)

    @property
    def t_history(self) -> int:
        return self.agents[0].history.shape[0]

    @property
    def t_future(self) -> int:
        return self.agents[0].future.shape[0]


@dataclass
class TargetFrame:
    """One target's agent-centric view of the scenario plus the inverse map."""
    target_index: int
    origin: np.ndarray         # [2] global position of the target at t=0
    heading: float             # radians, global heading at t=0
    history: np.ndarray        # [N, T_h, 3] in the target frame
    future: np.ndarray         # [N, T_f, 3] in the target frame
    agent_valid: np.ndarray    # [N] bool, any valid history state

    def to_global(self, points: np.ndarray) -> np.ndarray:
        """Map [..., 2] local points back to global coordinates."""
        c, s = math.cos(self.heading), math.sin(self.heading)
        x = points[..., 0]
        y = points[..., 1]
        out = np.empty(points.shape, dtype=np.float64)
        out[..., 0] = c * x - s * y + self.origin[0]
        out[..., 1] = s * x + c * y + self.origin[1]
        return out


@dataclass
class NormalizedScenario:
    frames: list[TargetFrame]


def read_json(path: str, error: type[ValueError] = ValueError):
    """The JSON document in `path`, read as UTF-8 whatever the locale.

    A file that does not decode or parse (nested too deep counts) raises
    `error`, the calling loader's class, naming the path.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise error(f"{path}: not valid JSON ({exc})") from None


def write_text(path: str, text: str) -> None:
    """Write `text` to `path` as UTF-8 whatever the locale: the one text-file writer.
    JSON callers pass `json.dumps(doc, ...)`, json.dump's bytes without its streaming encoder."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


JSON_NUMBERS = {int, float}     # a bool has its own type, so it is never a number


def first_non_number(values: list) -> int | None:
    """The index of the first of `values` that is not a JSON number, or None."""
    if set(map(type, values)) <= JSON_NUMBERS:
        return None
    return next(i for i, v in enumerate(values) if type(v) not in JSON_NUMBERS)


def check_target_futures(scenarios: list[Scenario]) -> None:
    """Reject a target whose future has a padded step: there is no ground truth
    there to train on or to score against."""
    for s in scenarios:
        for target in s.targets:
            padded = np.flatnonzero(s.agents[target].future[:, 2] == 0.0)
            if padded.size:
                raise ValueError(f"scenario {s.scenario_id!r} target {target}: future "
                                 f"step {int(padded[0])} is padded (valid = 0), so it has "
                                 "no ground truth there")


def _validate_scenario(s: Scenario, where: str) -> None:
    if not s.agents:
        raise ScenarioFormatError(f"{where}: scenario has no agents")
    t_h = s.agents[0].history.shape[0]
    t_f = s.agents[0].future.shape[0]
    if t_h < 2:
        raise ScenarioFormatError(f"{where}: history length {t_h} < 2")
    for name, t_len in (("history", t_h), ("future", t_f)):
        for i, a in enumerate(s.agents):
            if getattr(a, name).shape != (t_len, 3):
                raise ScenarioFormatError(f"{where}: agent {i} {name} shape "
                                          f"{getattr(a, name).shape} != ({t_len}, 3)")
        rows = np.stack([getattr(a, name) for a in s.agents])         # [N, T, 3]
        valid = rows[..., 2]
        for bad, why in (((valid != 0.0) & (valid != 1.0), "valid is not 0 or 1"),
                         ((valid == 1.0) & ~np.isfinite(rows[..., :2]).all(axis=-1),
                          "non-finite x/y on a valid state")):
            if bad.any():
                i, t = np.argwhere(bad)[0]
                raise ScenarioFormatError(f"{where}, agent {i}, {name} step {t}: {why} "
                                          f"(row {rows[i, t].tolist()})")
    for t in s.targets:
        if not 0 <= t < len(s.agents):
            raise ScenarioFormatError(f"{where}: target index {t} out of range")
        if s.agents[t].history[-1, 2] == 0.0:
            raise ScenarioFormatError(
                f"{where}: target agent {t} has no valid reference pose at t=0")


def _track_from_record(rec: dict, where: str) -> AgentTrack:
    try:
        hist = np.asarray(rec["history"], dtype=np.float64)
        fut = np.asarray(rec["future"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ScenarioFormatError(f"{where}: malformed agent record ({exc})") from None
    for name, rows in (("history", hist), ("future", fut)):
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ScenarioFormatError(f"{where}: {name} rows must be [x, y, valid]")
        values = list(itertools.chain.from_iterable(rec[name]))
        bad = first_non_number(values)
        if bad is not None:
            raise ScenarioFormatError(f"{where}, {name} step {bad // 3}: {values[bad]!r} "
                                      f"is not a number (row {rec[name][bad // 3]})")
    return AgentTrack(history=hist, future=fut)


def load_scenarios(path: str) -> list[Scenario]:
    """Parse and validate a scenario file; order is preserved."""
    doc = read_json(path, ScenarioFormatError)
    if not isinstance(doc, dict) or not isinstance(doc.get("scenarios"), list):
        raise ScenarioFormatError(f"{path}: missing top-level 'scenarios' list")

    out = []
    seen: dict[str, int] = {}
    for si, rec in enumerate(doc["scenarios"]):
        if not isinstance(rec, dict):
            raise ScenarioFormatError(f"{path}: scenario {si} is not an object")
        where = f"{path}: scenario {si} (id={rec.get('id', '?')})"
        agents, targets = rec.get("agents", []), rec.get("targets", [])
        if not isinstance(agents, list) or not isinstance(targets, list):
            raise ScenarioFormatError(f"{where}: 'agents' and 'targets' must be lists")
        if not all(type(t) is int for t in targets) or len(set(targets)) != len(targets):
            raise ScenarioFormatError(f"{where}: targets {targets} are not distinct integers")
        raw_dt = rec.get("dt", 0.5)
        try:
            dt = float(raw_dt) if type(raw_dt) in JSON_NUMBERS else math.nan
        except OverflowError:
            dt = math.nan
        if not (math.isfinite(dt) and dt > 0.0):
            raise ScenarioFormatError(f"{where}: dt {raw_dt!r} is not finite and positive")
        s = Scenario(scenario_id=str(rec.get("id", si)), dt=dt,
                     agents=[_track_from_record(a, f"{where}, agent {ai}")
                             for ai, a in enumerate(agents)],
                     targets=targets)
        if s.scenario_id in seen:
            raise ScenarioFormatError(f"{where}: id repeats scenario {seen[s.scenario_id]}")
        seen[s.scenario_id] = si
        _validate_scenario(s, where)
        out.append(s)
    return out


def save_scenarios(path: str, scenarios: list[Scenario]) -> None:
    write_text(path, json.dumps({"scenarios": [
        {
            "id": s.scenario_id,
            "dt": s.dt,
            "agents": [{"history": a.history.tolist(), "future": a.future.tolist()}
                       for a in s.agents],
            "targets": list(s.targets),
        }
        for s in scenarios
    ]}))


def scenario_sha256(s: Scenario) -> str:
    """Hex sha256 of a scenario's content: `dt`, targets and every agent's tracks.

    The id is left out: it is what a prediction names, and this says whether
    the scenario under that id is still the one the prediction was made on.
    """
    d = hashlib.sha256()
    d.update(np.float64(s.dt).tobytes())
    d.update(np.asarray([len(s.targets), *s.targets, len(s.agents)], dtype="<i8").tobytes())
    for a in s.agents:
        for track in (a.history, a.future):
            d.update(np.asarray(track.shape, dtype="<i8").tobytes())
            d.update(np.ascontiguousarray(track, dtype="<f8").tobytes())
    return d.hexdigest()


# -- agent-centric normalization ---------------------------------------------------


def _heading_at_origin(history: np.ndarray) -> float:
    """Heading from the last displacement between consecutive valid states.

    Zero displacement (or fewer than two valid states) means no rotation.
    """
    valid_idx = np.flatnonzero(history[:, 2] != 0.0)
    for j in range(len(valid_idx) - 1, 0, -1):
        a, b = valid_idx[j - 1], valid_idx[j]
        if b - a == 1:
            dx = history[b, 0] - history[a, 0]
            dy = history[b, 1] - history[a, 1]
            if dx != 0.0 or dy != 0.0:
                return math.atan2(dy, dx)
            return 0.0
    return 0.0


def normalize(s: Scenario) -> NormalizedScenario:
    """Express the whole scenario in each target's local frame.

    The target's t=0 pose maps to the origin and its last heading to +x,
    so predictions are translation and rotation invariant by construction.
    """
    history = np.stack([a.history for a in s.agents])               # [N, T_h, 3]
    origins = history[s.targets, -1, :2]                            # [B, 2]
    headings = [_heading_at_origin(history[t]) for t in s.targets]
    c, sn = (np.array([f(h) for h in headings]).reshape(-1, 1, 1) for f in (math.cos, math.sin))

    def transform(tracks: np.ndarray) -> np.ndarray:                # -> [B, N, T, 3]
        out = np.broadcast_to(tracks, (len(headings),) + tracks.shape).copy()
        x, y = np.moveaxis(tracks[..., :2] - origins[:, None, None], -1, 0)
        out[..., 0] = c * x + sn * y
        out[..., 1] = -sn * x + c * y
        out[:, tracks[..., 2] == 0.0, 0:2] = 0.0      # padded states carry no coordinates
        return out

    hist_local = transform(history)
    fut_local = transform(np.stack([a.future for a in s.agents]))
    agent_valid = np.any(history[..., 2] != 0.0, axis=1)
    frames = [TargetFrame(target_index=t, origin=origins[b], heading=headings[b],
                          history=hist_local[b], future=fut_local[b],
                          agent_valid=agent_valid.copy())
              for b, t in enumerate(s.targets)]
    return NormalizedScenario(frames=frames)


# -- config field rules -------------------------------------------------------------


def rule(default, *, ge=None, gt=None, like=None):
    """A config field whose numbers are all >= `ge` or > `gt`; `like` types a None default."""
    return field(default=default, metadata={"ge": ge, "gt": gt, "like": like or default})


def _like(value, example) -> bool:
    """Whether `value` is typed like `example`: a tuple fixes the length, a one-item list
    allows one or more items, and a bool is never an int or a float."""
    if isinstance(example, list):
        return (isinstance(value, (tuple, list)) and len(value) > 0
                and all(_like(v, example[0]) for v in value))
    if isinstance(example, tuple):
        return (isinstance(value, (tuple, list)) and len(value) == len(example)
                and all(map(_like, value, example)))
    if isinstance(example, (int, float)):
        kinds = (int,) if isinstance(example, int) else (int, float)
        return isinstance(value, kinds) and not isinstance(value, bool)
    return isinstance(value, type(example))


def _flat(value) -> list:
    return [x for v in value for x in _flat(v)] if isinstance(value, (tuple, list)) else [value]


def check_fields(obj, section: str = "") -> None:
    """Check each field of a config dataclass, and of the dataclasses it holds, against
    its rule: typed like its default (or None where annotated so), finite, in bound."""
    for f in fields(obj):
        value, key = getattr(obj, f.name), section + f.name
        if is_dataclass(value):
            check_fields(value, key + ".")
            continue
        if value is None and "None" in str(f.type):
            continue
        if not _like(value, f.metadata.get("like", f.default)):
            raise ConfigError(f"{key}: {value!r} is not of type {f.type}")
        ge, gt = f.metadata.get("ge"), f.metadata.get("gt")
        for x in _flat(value):
            if isinstance(x, float) and not math.isfinite(x):
                raise ConfigError(f"{key}: {value!r} is not finite")
            if (ge is not None and x < ge) or (gt is not None and x <= gt):
                raise ConfigError(f"{key}: {value!r} must be "
                                  + (f">= {ge}" if gt is None else f"> {gt}"))


# -- synthetic scenario generation -------------------------------------------------

MANEUVERS = ("constant_velocity", "constant_turn", "lane_change")


@dataclass
class GenConfig:
    num_scenarios: int = rule(8, ge=1)
    num_agents: int = rule(3, ge=1)
    num_targets: int = rule(1, ge=1)
    t_history: int = rule(8, ge=2)
    t_future: int = rule(12, ge=1)
    dt: float = rule(0.5, gt=0.0)
    speed_range: tuple[float, float] = (2.0, 8.0)
    turn_rate_range: tuple[float, float] = rule((0.1, 0.4), gt=0.0)  # rad/s, sign randomized
    lane_offset_range: tuple[float, float] = (2.0, 4.0)  # meters of lateral shift
    maneuver_mix: tuple[float, float, float] = rule((0.4, 0.3, 0.3), ge=0.0)
    noise_std: float = rule(0.0, ge=0.0)
    spawn_radius: float = 20.0

    def validate(self) -> None:
        check_fields(self)
        if self.num_targets > self.num_agents:
            raise ConfigError(f"num_targets: {self.num_targets} exceeds "
                              f"num_agents={self.num_agents}")
        if sum(self.maneuver_mix) <= 0:
            raise ConfigError("maneuver_mix: must not be all zero")


LANE_CHANGE_RATE = 1.5      # 1/s, slope of a lane change's lateral sigmoid


def _maneuver_positions(kind: str, ts: np.ndarray, speed: float, pose: tuple, turn_rate: float,
                        lane_offset: float, sigmoid: tuple) -> tuple[np.ndarray, np.ndarray]:
    """x and y at the times `ts` continuing a maneuver from pose (x, y, heading). `sigmoid`
    is a lane change's 1 + exp(-rate (t - mid)) at `ts` and at t = 0, fixed by the config."""
    x0, y0, th = pose
    if kind == "constant_velocity":
        return x0 + speed * ts * math.cos(th), y0 + speed * ts * math.sin(th)
    if kind == "constant_turn":
        # exact circle of radius v/w around the center left/right of the pose
        r = speed / turn_rate
        ang = th - math.pi / 2.0 + turn_rate * ts
        return ((x0 - r * math.sin(th)) + r * np.cos(ang),
                (y0 + r * math.cos(th)) + r * np.sin(ang))
    # lane change: longitudinal constant speed plus a sigmoidal lateral offset
    lon = speed * ts
    lat = lane_offset / sigmoid[0] - lane_offset / sigmoid[1]
    return (x0 + lon * math.cos(th) - lat * np.sin(th),
            y0 + lon * math.sin(th) + lat * np.cos(th))


def generate_synthetic(config: GenConfig, seed: int) -> list[Scenario]:
    """Deterministic mixed-maneuver scenarios; futures continue the history motion.

    Each random decision is one generator call that draws what `Generator.choice`
    would: the maneuver is `choice(3, p=mix)`, one `random()` searched in the
    cumulative mix, and each sign is `choice([-1.0, 1.0])`, one `integers(2)`.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    mix = np.asarray(config.maneuver_mix, dtype=np.float64)
    cdf = np.cumsum(mix / mix.sum())
    cdf /= cdf[-1]
    n_steps = config.t_history + config.t_future
    ts = np.arange(1, n_steps, dtype=np.float64) * config.dt
    mid = config.t_history * config.dt * 0.75
    sigmoid = (1.0 + np.exp(-LANE_CHANGE_RATE * (ts - mid)),
               1.0 + np.exp(-LANE_CHANGE_RATE * (0.0 - mid)))

    scenarios = []
    for si in range(config.num_scenarios):
        agents = []
        for _ in range(config.num_agents):
            kind = MANEUVERS[int(cdf.searchsorted(rng.random(), side="right"))]
            speed = rng.uniform(*config.speed_range)
            th = rng.uniform(-math.pi, math.pi)
            x0 = rng.uniform(-config.spawn_radius, config.spawn_radius)
            y0 = rng.uniform(-config.spawn_radius, config.spawn_radius)
            turn_rate = rng.uniform(*config.turn_rate_range) * (-1.0, 1.0)[rng.integers(2)]
            lane_offset = rng.uniform(*config.lane_offset_range) * (-1.0, 1.0)[rng.integers(2)]
            track = np.ones((n_steps, 3))                        # rows of (x, y, valid)
            track[0, :2] = x0, y0
            track[1:, 0], track[1:, 1] = _maneuver_positions(
                kind, ts, speed, (x0, y0, th), turn_rate, lane_offset, sigmoid)
            if config.noise_std > 0.0:
                track[:, :2] += rng.normal(scale=config.noise_std, size=(n_steps, 2))
            agents.append(AgentTrack(history=track[: config.t_history],
                                     future=track[config.t_history:]))
        scenarios.append(Scenario(scenario_id=f"synthetic-{seed}-{si}", dt=config.dt,
                                  agents=agents, targets=list(range(config.num_targets))))
    return scenarios
