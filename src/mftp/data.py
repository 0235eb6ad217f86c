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

Coordinates are meters; valid is 0 or 1 and marks padded states that every
downstream computation must ignore.
"""

from __future__ import annotations

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
    scenario_id: str
    dt: float
    frames: list[TargetFrame]


def _validate_scenario(s: Scenario, where: str) -> None:
    if not s.agents:
        raise ScenarioFormatError(f"{where}: scenario has no agents")
    t_h = s.agents[0].history.shape[0]
    t_f = s.agents[0].future.shape[0]
    if t_h < 2:
        raise ScenarioFormatError(f"{where}: history length {t_h} < 2")
    if t_f < 1:
        raise ScenarioFormatError(f"{where}: future length {t_f} < 1")
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
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{where}: malformed agent record ({exc})") from None
    for name, rows in (("history", hist), ("future", fut)):
        if rows.ndim != 2 or rows.shape[1] != 3:
            raise ScenarioFormatError(f"{where}: {name} rows must be [x, y, valid]")
    return AgentTrack(history=hist, future=fut)


def load_scenarios(path: str) -> list[Scenario]:
    """Parse and validate a scenario file; order is preserved."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"{path}: not valid JSON ({exc})") from None
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
        try:
            dt = math.nan if isinstance(rec.get("dt"), bool) else float(rec.get("dt", 0.5))
        except (TypeError, ValueError, OverflowError):
            dt = math.nan
        if not (math.isfinite(dt) and dt > 0.0):
            raise ScenarioFormatError(f"{where}: dt {rec.get('dt')!r} is not finite and positive")
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
    doc = {"scenarios": [
        {
            "id": s.scenario_id,
            "dt": s.dt,
            "agents": [{"history": a.history.tolist(), "future": a.future.tolist()}
                       for a in s.agents],
            "targets": list(s.targets),
        }
        for s in scenarios
    ]}
    with open(path, "w") as fh:
        json.dump(doc, fh)


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
    return NormalizedScenario(scenario_id=s.scenario_id, dt=s.dt, frames=frames)


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


def _maneuver_positions(kind: str, n_steps: int, dt: float, speed: float,
                        pose: tuple[float, float, float], params: dict) -> np.ndarray:
    """Positions at steps 1..n_steps continuing a maneuver from (x, y, heading)."""
    x0, y0, th = pose
    ts = np.arange(1, n_steps + 1, dtype=np.float64) * dt
    if kind == "constant_velocity":
        xs = x0 + speed * ts * math.cos(th)
        ys = y0 + speed * ts * math.sin(th)
    elif kind == "constant_turn":
        w = params["turn_rate"]
        # exact circle of radius v/w around the center left/right of the pose
        r = speed / w
        cx = x0 - r * math.sin(th)
        cy = y0 + r * math.cos(th)
        ang = th - math.pi / 2.0 + w * ts
        xs = cx + r * np.cos(ang)
        ys = cy + r * np.sin(ang)
    elif kind == "lane_change":
        # longitudinal constant speed plus a sigmoidal lateral offset
        off = params["lane_offset"]
        mid = params["mid_time"]
        rate = params["rate"]
        lon = speed * ts
        lat = off / (1.0 + np.exp(-rate * (ts - mid)))
        lat0 = off / (1.0 + np.exp(-rate * (0.0 - mid)))
        lat = lat - lat0
        xs = x0 + lon * math.cos(th) - lat * np.sin(th)
        ys = y0 + lon * math.sin(th) + lat * np.cos(th)
    else:
        raise ValueError(f"unknown maneuver {kind!r}")
    return np.stack([xs, ys], axis=1)


def generate_synthetic(config: GenConfig, seed: int) -> list[Scenario]:
    """Deterministic mixed-maneuver scenarios; futures continue the history motion."""
    config.validate()
    rng = np.random.default_rng(seed)
    mix = np.asarray(config.maneuver_mix, dtype=np.float64)
    mix = mix / mix.sum()

    scenarios = []
    for si in range(config.num_scenarios):
        agents = []
        for _ in range(config.num_agents):
            kind = MANEUVERS[int(rng.choice(3, p=mix))]
            speed = float(rng.uniform(*config.speed_range))
            th = float(rng.uniform(-math.pi, math.pi))
            x0 = float(rng.uniform(-config.spawn_radius, config.spawn_radius))
            y0 = float(rng.uniform(-config.spawn_radius, config.spawn_radius))
            params = {
                "turn_rate": float(rng.uniform(*config.turn_rate_range)
                                   * rng.choice([-1.0, 1.0])),
                "lane_offset": float(rng.uniform(*config.lane_offset_range)
                                     * rng.choice([-1.0, 1.0])),
                "mid_time": float(config.t_history * config.dt * 0.75),
                "rate": 1.5,
            }

            n_total = config.t_history - 1 + config.t_future
            path = _maneuver_positions(kind, n_total, config.dt, speed,
                                       (x0, y0, th), params)
            xy = np.vstack([[x0, y0], path])                     # [T_h + T_f, 2]
            if config.noise_std > 0.0:
                xy = xy + rng.normal(scale=config.noise_std, size=xy.shape)

            track = np.concatenate([xy, np.ones((xy.shape[0], 1))], axis=1)
            agents.append(AgentTrack(history=track[: config.t_history],
                                     future=track[config.t_history:]))

        scenarios.append(Scenario(
            scenario_id=f"synthetic-{seed}-{si}",
            dt=config.dt,
            agents=agents,
            targets=list(range(config.num_targets)),
        ))
    return scenarios
