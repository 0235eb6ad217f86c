import copy
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from mftp.data import (
    AgentTrack,
    GenConfig,
    Scenario,
    ScenarioFormatError,
    _heading_at_origin,
    generate_synthetic,
    load_scenarios,
    normalize,
    save_scenarios,
    scenario_sha256,
)


def _write(tmp_path, doc):
    p = tmp_path / "scenarios.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _simple_doc(t_h=4, t_f=6, n_agents=2):
    agents = []
    for a in range(n_agents):
        hist = [[float(t + a), 0.0, 1.0] for t in range(t_h)]
        fut = [[float(t_h + t + a), 0.0, 1.0] for t in range(t_f)]
        agents.append({"history": hist, "future": fut})
    return {"scenarios": [{"id": "s0", "dt": 0.5, "agents": agents, "targets": [0]}]}


def test_load_simple_file(tmp_path):
    scenarios = load_scenarios(_write(tmp_path, _simple_doc()))
    assert len(scenarios) == 1
    assert scenarios[0].num_agents == 2
    assert scenarios[0].t_history == 4
    assert scenarios[0].t_future == 6


def test_load_rejects_short_history_naming_agent(tmp_path):
    doc = _simple_doc()
    doc["scenarios"][0]["agents"][1]["history"] = doc["scenarios"][0]["agents"][1]["history"][:3]
    with pytest.raises(ScenarioFormatError, match="agent 1"):
        load_scenarios(_write(tmp_path, doc))


def test_load_rejects_missing_target_pose(tmp_path):
    doc = _simple_doc()
    doc["scenarios"][0]["agents"][0]["history"][-1][2] = 0.0
    with pytest.raises(ScenarioFormatError, match="target agent 0"):
        load_scenarios(_write(tmp_path, doc))


def test_load_rejects_valid_not_zero_or_one(tmp_path):
    doc = _simple_doc()
    doc["scenarios"][0]["agents"][1]["history"][2][2] = 0.5
    path = _write(tmp_path, doc)
    with pytest.raises(ScenarioFormatError,
                       match=r"scenario 0 \(id=s0\), agent 1, history step 2: "
                             r"valid is not 0 or 1 \(row \[3.0, 0.0, 0.5\]\)") as err:
        load_scenarios(path)
    assert path in str(err.value)


@pytest.mark.parametrize("part,bad", [("history", float("nan")), ("future", float("inf"))])
def test_load_rejects_non_finite_on_valid_state(tmp_path, part, bad):
    doc = _simple_doc()
    agent = doc["scenarios"][0]["agents"][1]
    agent[part][1][0] = bad
    agent[part][3][:2] = [bad, bad]
    agent[part][3][2] = 0.0                     # padded states may hold anything
    path = _write(tmp_path, doc)
    with pytest.raises(ScenarioFormatError,
                       match=rf"scenario 0 \(id=s0\), agent 1, {part} step 1: "
                             r"non-finite x/y on a valid state") as err:
        load_scenarios(path)
    assert path in str(err.value)
    agent[part][1][2] = 0.0
    assert load_scenarios(_write(tmp_path, doc))[0].num_agents == 2


@pytest.mark.parametrize("dt", [0.0, -0.5, float("nan"), float("inf")])
def test_load_rejects_bad_dt(tmp_path, dt):
    doc = _simple_doc()
    doc["scenarios"][0]["dt"] = dt
    path = _write(tmp_path, doc)
    with pytest.raises(ScenarioFormatError,
                       match=r"scenario 0 \(id=s0\): dt .* is not finite and positive") as err:
        load_scenarios(path)
    assert path in str(err.value)


def test_load_rejects_repeated_scenario_id(tmp_path):
    doc = _simple_doc()
    doc["scenarios"].append(_simple_doc()["scenarios"][0])
    path = _write(tmp_path, doc)
    with pytest.raises(ScenarioFormatError,
                       match=r"scenario 1 \(id=s0\): id repeats scenario 0") as err:
        load_scenarios(path)
    assert path in str(err.value)


def test_save_load_roundtrip(tmp_path):
    original = generate_synthetic(GenConfig(num_scenarios=3, num_agents=2), seed=7)
    path = str(tmp_path / "rt.json")
    save_scenarios(path, original)
    loaded = load_scenarios(path)
    assert len(loaded) == len(original)
    for a, b in zip(original, loaded):
        assert a.scenario_id == b.scenario_id
        assert a.dt == b.dt
        assert a.targets == b.targets
        for ta, tb in zip(a.agents, b.agents):
            assert np.array_equal(ta.history, tb.history)
            assert np.array_equal(ta.future, tb.future)


def _scenario_from_tracks(tracks, targets=(0,), dt=0.5):
    return Scenario("s", dt, [AgentTrack(h, f) for h, f in tracks], list(targets))


def test_normalize_east_mover():
    # target drives due east and ends its history at (10, 5)
    hist = np.array([[x, 5.0, 1.0] for x in np.arange(7.0, 11.0)])
    fut = np.array([[x, 5.0, 1.0] for x in np.arange(11.0, 14.0)])
    s = _scenario_from_tracks([(hist, fut)])
    frame = normalize(s).frames[0]
    assert np.array_equal(frame.history[0, -1, :2], [0.0, 0.0])
    # motion stays along +x in the local frame
    assert np.all(np.diff(frame.history[0, :, 0]) > 0)
    assert np.allclose(frame.history[0, :, 1], 0.0)
    assert frame.heading == 0.0


def test_normalize_stationary_target_identity_rotation():
    hist = np.array([[2.0, 3.0, 1.0]] * 4)
    fut = np.array([[2.0, 3.0, 1.0]] * 2)
    s = _scenario_from_tracks([(hist, fut)])
    frame = normalize(s).frames[0]
    assert frame.heading == 0.0
    assert np.array_equal(frame.origin, [2.0, 3.0])
    assert np.allclose(frame.history[0, :, :2], 0.0)


def test_normalize_inverse_recovers_global():
    rng = np.random.default_rng(11)
    hist = np.concatenate([rng.normal(scale=10.0, size=(5, 2)), np.ones((5, 1))], axis=1)
    fut = np.concatenate([rng.normal(scale=10.0, size=(3, 2)), np.ones((3, 1))], axis=1)
    other = np.concatenate([rng.normal(scale=10.0, size=(5, 2)), np.ones((5, 1))], axis=1)
    other_fut = np.concatenate([rng.normal(scale=10.0, size=(3, 2)), np.ones((3, 1))], axis=1)
    s = _scenario_from_tracks([(hist, fut), (other, other_fut)])
    frame = normalize(s).frames[0]
    for local, ref in [(frame.history[0, :, :2], hist[:, :2]),
                       (frame.future[1, :, :2], other_fut[:, :2]),
                       (frame.history[1, :, :2], other[:, :2])]:
        assert np.max(np.abs(frame.to_global(local) - ref)) <= 1e-9


def test_translation_covariance_bitwise_on_grid():
    # axis-aligned motion and dyadic coordinates make the algebra exact, so
    # normalized output must be bit-identical under a global translation
    grid = 1.0 / 1024.0
    hist = np.array([[i * 0.5 + 3 * grid, 7.0 + grid, 1.0] for i in range(4)])
    fut = np.array([[2.0 + i * 0.5 + 3 * grid, 7.0 + grid, 1.0] for i in range(3)])
    s = _scenario_from_tracks([(hist, fut)])
    f0 = normalize(s).frames[0]

    shift = np.array([512.0, -2048.0])
    hist2, fut2 = hist.copy(), fut.copy()
    hist2[:, :2] += shift
    fut2[:, :2] += shift
    f1 = normalize(_scenario_from_tracks([(hist2, fut2)])).frames[0]

    assert np.array_equal(f0.history, f1.history)
    assert np.array_equal(f0.future, f1.future)
    # inverse-transformed outputs shift by exactly the translation
    pts = f0.future[0, :, :2]
    assert np.array_equal(f1.to_global(pts), f0.to_global(pts) + shift)


def test_translation_covariance_general_within_tolerance():
    rng = np.random.default_rng(12)
    hist = np.concatenate([rng.normal(scale=5.0, size=(6, 2)), np.ones((6, 1))], axis=1)
    fut = np.concatenate([rng.normal(scale=5.0, size=(4, 2)), np.ones((4, 1))], axis=1)
    s = _scenario_from_tracks([(hist, fut)])
    f0 = normalize(s).frames[0]
    shift = np.array([123.456, -98.765])
    hist2, fut2 = hist.copy(), fut.copy()
    hist2[:, :2] += shift
    fut2[:, :2] += shift
    f1 = normalize(_scenario_from_tracks([(hist2, fut2)])).frames[0]
    assert np.max(np.abs(f0.history - f1.history)) <= 1e-9
    pts = f0.future[0, :, :2]
    assert np.max(np.abs(f1.to_global(pts) - (f0.to_global(pts) + shift))) <= 1e-9


def test_invalid_states_zeroed_locally():
    hist = np.array([[0.0, 0.0, 0.0],
                     [1.0, 1.0, 1.0],
                     [2.0, 1.0, 1.0],
                     [3.0, 1.0, 1.0]])
    fut = np.array([[4.0, 1.0, 1.0]])
    s = _scenario_from_tracks([(hist, fut)])
    frame = normalize(s).frames[0]
    assert np.array_equal(frame.history[0, 0], [0.0, 0.0, 0.0])


def test_synthetic_constant_velocity_spacing():
    cfg = GenConfig(num_scenarios=1, num_agents=1, maneuver_mix=(1.0, 0.0, 0.0),
                    speed_range=(2.0, 2.0), dt=0.5, noise_std=0.0)
    s = generate_synthetic(cfg, seed=0)[0]
    xy = np.vstack([s.agents[0].history[:, :2], s.agents[0].future[:, :2]])
    steps = np.linalg.norm(np.diff(xy, axis=0), axis=1)
    assert np.max(np.abs(steps - 1.0)) <= 1e-9


def test_synthetic_deterministic():
    cfg = GenConfig(num_scenarios=4, num_agents=3, noise_std=0.1)
    a = generate_synthetic(cfg, seed=42)
    b = generate_synthetic(cfg, seed=42)
    for sa, sb in zip(a, b):
        for ta, tb in zip(sa.agents, sb.agents):
            assert np.array_equal(ta.history, tb.history)
            assert np.array_equal(ta.future, tb.future)


def test_synthetic_constant_turn_lies_on_circle():
    cfg = GenConfig(num_scenarios=1, num_agents=1, maneuver_mix=(0.0, 1.0, 0.0),
                    speed_range=(5.0, 5.0), turn_rate_range=(0.25, 0.25),
                    noise_std=0.0)
    s = generate_synthetic(cfg, seed=3)[0]
    xy = np.vstack([s.agents[0].history[:, :2], s.agents[0].future[:, :2]])
    radius = 5.0 / 0.25
    # fit the center from three points, then every point must sit at |r|
    p0, p1, p2 = xy[0], xy[len(xy) // 2], xy[-1]
    ax, ay = p1 - p0
    bx, by = p2 - p0
    d = 2.0 * (ax * by - ay * bx)
    ux = (by * (ax * ax + ay * ay) - ay * (bx * bx + by * by)) / d
    uy = (ax * (bx * bx + by * by) - bx * (ax * ax + ay * ay)) / d
    center = p0 + np.array([ux, uy])
    dists = np.linalg.norm(xy - center, axis=1)
    assert np.max(np.abs(dists - radius)) <= 1e-9


def test_synthetic_rejects_bad_config():
    with pytest.raises(ValueError, match="num_scenarios"):
        generate_synthetic(GenConfig(num_scenarios=0), seed=0)
    with pytest.raises(ValueError, match="t_future"):
        generate_synthetic(GenConfig(t_future=0), seed=0)
    with pytest.raises(ValueError, match="^dt: nan is not finite"):
        generate_synthetic(GenConfig(dt=float("nan")), seed=0)
    with pytest.raises(ValueError, match="^noise_std: -1.0 must be >= 0"):
        generate_synthetic(GenConfig(noise_std=-1.0), seed=0)
    with pytest.raises(ValueError, match=r"^turn_rate_range: \(0.0, 0.0\) must be > 0"):
        generate_synthetic(GenConfig(turn_rate_range=(0.0, 0.0)), seed=0)


def test_lane_change_moves_laterally():
    cfg = GenConfig(num_scenarios=1, num_agents=1, maneuver_mix=(0.0, 0.0, 1.0),
                    speed_range=(4.0, 4.0), lane_offset_range=(3.0, 3.0),
                    noise_std=0.0)
    s = generate_synthetic(cfg, seed=1)[0]
    xy = np.vstack([s.agents[0].history[:, :2], s.agents[0].future[:, :2]])
    # signed drift perpendicular to the initial motion direction approaches
    # the configured lane offset (the first step carries a little of it too)
    d0 = xy[1] - xy[0]
    normal = np.array([-d0[1], d0[0]]) / np.linalg.norm(d0)
    drift = (xy - xy[0]) @ normal
    assert 1.0 < np.max(np.abs(drift)) < 4.0


def _set(key, value):
    def edit(doc):
        doc["scenarios"][0][key] = value
    return edit


def _replace_record(doc):
    doc["scenarios"][0] = ["s0", 0.5]


BAD_STRUCTURE = {
    "record-not-object": (_replace_record, r"scenario 0 is not an object"),
    "agents-not-list": (_set("agents", {"history": []}),
                        r"\(id=s0\): 'agents' and 'targets' must be lists"),
    "targets-not-list": (_set("targets", 0),
                         r"\(id=s0\): 'agents' and 'targets' must be lists"),
    "dt-not-numeric": (_set("dt", "fast"), r"\(id=s0\): dt 'fast' is not finite and positive"),
    "dt-bool": (_set("dt", True), r"\(id=s0\): dt True is not finite and positive"),
    "dt-int-overflow": (_set("dt", 10 ** 400), r"\(id=s0\): dt 10+ is not finite and positive"),
    "target-fraction": (_set("targets", [0.7]), r"\(id=s0\): targets \[0.7\] are not distinct"),
    "target-string": (_set("targets", ["a"]), r"\(id=s0\): targets \['a'\] are not distinct"),
    "target-repeated": (_set("targets", [0, 0]), r"\(id=s0\): targets \[0, 0\] are not distinct"),
}


@pytest.mark.parametrize("case", sorted(BAD_STRUCTURE))
def test_load_rejects_bad_record_structure(tmp_path, case):
    edit, match = BAD_STRUCTURE[case]
    doc = _simple_doc()
    edit(doc)
    path = _write(tmp_path, doc)
    with pytest.raises(ScenarioFormatError, match=match) as err:
        load_scenarios(path)
    assert str(err.value).startswith(f"{path}: scenario 0")


def test_target_without_two_consecutive_valid_states_gets_a_pure_translation():
    rng = np.random.default_rng(4)
    target = rng.normal(size=(5, 3))
    target[:, 2] = [1.0, 0.0, 1.0, 0.0, 1.0]           # no two valid states in a row
    other = np.concatenate([rng.normal(size=(5, 2)), np.ones((5, 1))], axis=1)
    future = np.concatenate([rng.normal(size=(3, 2)), np.ones((3, 1))], axis=1)
    s = Scenario(scenario_id="s", dt=0.5, targets=[0],
                 agents=[AgentTrack(history=target, future=future),
                         AgentTrack(history=other, future=future.copy())])
    frame = normalize(s).frames[0]
    assert frame.heading == 0.0
    origin = target[-1, :2]
    for local, track in ((frame.history, np.stack([target, other])),
                         (frame.future, np.stack([future, future]))):
        valid = track[..., 2] == 1.0
        assert np.array_equal(local[valid, :2], (track[..., :2] - origin)[valid])
        assert not local[~valid, :2].any()


def _reference_normalize_frame(s, t):
    """Per-track loop: the target's frame built one agent and one track at a time."""
    origin = s.agents[t].history[-1, :2].copy()
    heading = _heading_at_origin(s.agents[t].history)
    c, sn = math.cos(heading), math.sin(heading)

    def transform(track):
        out = track.copy()
        x = track[:, 0] - origin[0]
        y = track[:, 1] - origin[1]
        out[:, 0] = c * x + sn * y
        out[:, 1] = -sn * x + c * y
        out[track[:, 2] == 0.0, 0:2] = 0.0
        return out

    return (origin, heading,
            np.stack([transform(a.history) for a in s.agents]),
            np.stack([transform(a.future) for a in s.agents]),
            np.array([bool(np.any(a.history[:, 2] != 0.0)) for a in s.agents]))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normalize_equals_per_track_reference_bitwise(seed):
    cfg = GenConfig(num_scenarios=3, num_agents=7, num_targets=4, noise_std=0.3)
    rng = np.random.default_rng(seed)
    for s in generate_synthetic(cfg, seed=seed):
        for i, agent in enumerate(s.agents):
            for track in (agent.history, agent.future):
                drop = rng.random(track.shape[0]) < 0.3
                track[drop, :2] = rng.normal(size=(int(drop.sum()), 2)) * 1e3
                track[drop, 2] = 0.0
            if i in s.targets:
                agent.history[-1, 2] = 1.0          # targets keep their t=0 pose
        s.agents[-1].history[:, 2] = 0.0            # one agent with no valid state
        norm = normalize(s)
        assert [f.target_index for f in norm.frames] == s.targets
        for frame in norm.frames:
            origin, heading, hist, fut, valid = _reference_normalize_frame(
                s, frame.target_index)
            assert np.array_equal(frame.origin, origin)
            assert frame.heading == heading
            assert np.array_equal(frame.history, hist)
            assert np.array_equal(frame.future, fut)
            assert np.array_equal(frame.agent_valid, valid)


def test_scenario_sha256_follows_content_not_id():
    base = generate_synthetic(GenConfig(num_scenarios=1, num_agents=3, num_targets=2), seed=4)[0]
    digest = scenario_sha256(base)
    assert len(digest) == 64
    assert scenario_sha256(dataclasses.replace(base, scenario_id="renamed")) == digest
    assert scenario_sha256(copy.deepcopy(base)) == digest

    def edited(edit):
        s = copy.deepcopy(base)
        edit(s)
        return scenario_sha256(s)
    assert edited(lambda s: setattr(s, "dt", s.dt * 2.0)) != digest
    assert edited(lambda s: s.targets.reverse()) != digest
    assert edited(lambda s: s.targets.pop()) != digest
    assert edited(lambda s: s.agents[2].history.__setitem__((3, 0), 1e-9)) != digest
    assert edited(lambda s: s.agents[0].future.__setitem__((-1, 2), 0.0)) != digest
    assert edited(lambda s: s.agents.pop()) != digest


def test_save_scenarios_writes_json_dump_bytes(tmp_path):
    scenarios = generate_synthetic(GenConfig(num_scenarios=3), seed=2)
    path = tmp_path / "s.json"
    save_scenarios(str(path), scenarios)
    expected = io.StringIO()
    json.dump(json.loads(path.read_text()), expected)
    assert path.read_text() == expected.getvalue()
