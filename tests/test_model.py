import dataclasses
import gc
import hashlib
import json
import weakref

import numpy as np
import pytest

from mftp.config import Config, ModelConfig
from mftp import model as model_module
from mftp.data import GenConfig, generate_synthetic, normalize, scenario_sha256
from mftp.model import TrajectoryPredictor, pack_frames
from mftp.tensor import Tensor, grad_check_param, matmul


def _tiny_model(seed=0, **overrides):
    kw = dict(channels=8, d_patch=8, n_heads=2, n_modes=2, refine_rounds=1,
              n_experts=2, t_history=8, t_future=4, patch_len=4,
              granularities=[[2, 1], [8, 8]])
    kw.update(overrides)
    return TrajectoryPredictor(ModelConfig(**kw), seed=seed)


def _frame_arrays(rng, b=2, n=3, t=8):
    hist = rng.normal(scale=5.0, size=(b, n, t, 3))
    hist[..., 2] = 1.0
    valid = np.ones((b, n), dtype=bool)
    targets = np.zeros(b, dtype=np.int64)
    return hist, valid, targets


def test_forward_shapes():
    model = _tiny_model()
    rng = np.random.default_rng(0)
    hist, valid, targets = _frame_arrays(rng)
    trajs, probs = model.forward(hist, valid, targets)
    assert trajs.shape == (2, 2, 4, 2)
    assert probs.shape == (2, 2)
    assert np.max(np.abs(probs.data.sum(axis=1) - 1.0)) <= 1e-9


def test_forward_rejects_wrong_history_length():
    model = _tiny_model()
    rng = np.random.default_rng(1)
    hist, valid, targets = _frame_arrays(rng, t=6)
    with pytest.raises(ValueError, match="history length"):
        model.forward(hist, valid, targets)


def test_same_seed_same_parameters_and_outputs():
    a, b = _tiny_model(seed=7), _tiny_model(seed=7)
    for (ka, pa), (kb, pb) in zip(a.parameters().items(), b.parameters().items()):
        assert ka == kb
        assert np.array_equal(pa.data, pb.data)
    rng = np.random.default_rng(2)
    hist, valid, targets = _frame_arrays(rng)
    ta, _ = a.forward(hist, valid, targets)
    tb, _ = b.forward(hist, valid, targets)
    assert np.array_equal(ta.data, tb.data)


def test_invalid_agent_contents_cannot_affect_prediction():
    model = _tiny_model()
    rng = np.random.default_rng(3)
    hist, valid, targets = _frame_arrays(rng, n=4)
    valid[:, -1] = False
    base, base_p = model.forward(hist, valid, targets)

    hist2 = hist.copy()
    hist2[:, -1] = rng.normal(scale=50.0, size=hist2[:, -1].shape)
    hist2[:, -1, :, 2] = 1.0            # junk coordinates, still flagged valid=...
    hist2[:, -1, :, 2] = hist[:, -1, :, 2]
    out, out_p = model.forward(hist2, valid, targets)
    assert np.array_equal(out.data, base.data)
    assert np.array_equal(out_p.data, base_p.data)


def test_invalid_timesteps_masked_by_flag():
    model = _tiny_model()
    rng = np.random.default_rng(4)
    hist, valid, targets = _frame_arrays(rng)
    hist[:, :, 0, 2] = 0.0              # first observation padded everywhere
    base, _ = model.forward(hist, valid, targets)
    hist2 = hist.copy()
    hist2[:, :, 0, 0:2] = 999.0         # junk behind the invalid flag
    out, _ = model.forward(hist2, valid, targets)
    assert np.array_equal(out.data, base.data)


def test_pack_frames_pads_agent_counts():
    scenarios = generate_synthetic(GenConfig(num_scenarios=2, num_agents=2,
                                             t_history=8, t_future=4), seed=0)
    frames = [normalize(s).frames[0] for s in scenarios]
    frames[1].history = frames[1].history[:1]          # drop one agent
    frames[1].future = frames[1].future[:1]
    frames[1].agent_valid = frames[1].agent_valid[:1]
    hist, valid, targets = pack_frames(frames, 8)
    assert hist.shape == (2, 2, 8, 3)
    assert valid[1, 1] == False  # noqa: E712
    assert np.all(hist[1, 1] == 0.0)


def test_predict_scenario_translation_covariance():
    model = _tiny_model()
    scenarios = generate_synthetic(GenConfig(num_scenarios=1, num_agents=3,
                                             t_history=8, t_future=4), seed=5)
    s = scenarios[0]
    base = model.predict_scenario(s)

    shift = np.array([250.0, -40.0])
    for a in s.agents:
        a.history[:, :2] += shift
        a.future[:, :2] += shift
    moved = model.predict_scenario(s)
    for (t0, p0), (t1, p1) in zip(base, moved):
        assert t0 == t1
        assert np.max(np.abs(p1.trajs.data - (p0.trajs.data + shift))) <= 1e-6
        assert np.max(np.abs(p1.probs.data - p0.probs.data)) <= 1e-9


def test_predict_scenario_rotation_covariance():
    model = _tiny_model()
    scenarios = generate_synthetic(GenConfig(num_scenarios=1, num_agents=2,
                                             t_history=8, t_future=4), seed=6)
    s = scenarios[0]
    base = model.predict_scenario(s)

    th = 0.7
    c, sn = np.cos(th), np.sin(th)
    rot = np.array([[c, -sn], [sn, c]])
    for a in s.agents:
        a.history[:, :2] = a.history[:, :2] @ rot.T
        a.future[:, :2] = a.future[:, :2] @ rot.T
    moved = model.predict_scenario(s)
    for (_, p0), (_, p1) in zip(base, moved):
        assert np.max(np.abs(p1.trajs.data - p0.trajs.data @ rot.T)) <= 1e-6


def test_predict_scenario_no_targets_is_empty():
    model = _tiny_model()
    scenarios = generate_synthetic(GenConfig(num_scenarios=1, num_agents=2,
                                             t_history=8, t_future=4), seed=7)
    s = scenarios[0]
    s.targets = []
    assert model.predict_scenario(s) == []


def test_predict_scenarios_is_predict_scenario_per_scene_plus_its_digest(monkeypatch):
    model = _tiny_model()
    scenes = [generate_synthetic(GenConfig(num_scenarios=1, num_agents=n, num_targets=k,
                                           t_history=8, t_future=4), seed=seed)[0]
              for seed, (n, k) in enumerate([(2, 1), (5, 2), (3, 3), (4, 2)])]
    scenes[3].targets = []
    s = scenes[1]                         # masked states: one agent gone, two steps dropped
    gone = next(i for i in range(s.num_agents) if i not in s.targets)
    s.agents[gone].history[:] = 0.0
    s.agents[gone].future[:] = 0.0
    for agent in s.agents:
        agent.history[[1, 4]] = 0.0
    expected = [(s.scenario_id, target, pred, scenario_sha256(s))
                for s in scenes for target, pred in model.predict_scenario(s)]

    hashed = []

    def counting_sha256(s):
        hashed.append(s.scenario_id)
        return scenario_sha256(s)
    monkeypatch.setattr(model_module, "scenario_sha256", counting_sha256)
    records = model.predict_scenarios(scenes)
    assert hashed == [s.scenario_id for s in scenes]      # once per scene
    assert len(records) == len(expected) == 6
    for (sid, target, pred), (e_sid, e_target, e_pred, digest) in zip(records, expected):
        assert (sid, target) == (e_sid, e_target)
        assert pred.scenario_sha256 == digest
        assert pred.trajs.data.tobytes() == e_pred.trajs.data.tobytes()
        assert pred.probs.data.tobytes() == e_pred.probs.data.tobytes()


def test_gradients_reach_every_parameter_group():
    model = _tiny_model()
    rng = np.random.default_rng(8)
    hist, valid, targets = _frame_arrays(rng)
    trajs, probs = model.forward(hist, valid, targets)
    loss = trajs.square().mean() + probs.square().mean()
    loss.backward()
    for name, p in model.parameters().items():
        assert p.grad is not None, f"no gradient reached {name}"
        assert np.all(np.isfinite(p.grad)), name


def test_end_to_end_grad_check_on_small_groups():
    model = _tiny_model()
    rng = np.random.default_rng(9)
    hist, valid, targets = _frame_arrays(rng, b=1, n=2)
    gt = rng.normal(size=(1, 2, 4, 2))

    def loss_fn() -> Tensor:
        trajs, probs = model.forward(hist, valid, targets)
        return (trajs - Tensor(gt)).square().mean() + (probs * probs).sum()

    for name in ("freq.gate_b", "decoder.tokens", "embed.fc1.b"):
        p = model.parameters()[name]
        assert grad_check_param(loss_fn, p) <= 1e-4, name


@pytest.mark.parametrize("case", ["predict_scenario", "matmul_sigmoid_sum"])
def test_forward_only_tape_is_freed_without_the_cycle_collector(monkeypatch, case):
    """Dropping a forward pass's outputs frees its whole tape by refcount alone."""
    model = _tiny_model()
    scenario = generate_synthetic(GenConfig(num_scenarios=1, num_agents=3, t_history=8,
                                            t_future=4), seed=0)[0]
    w = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
    make = Tensor.__dict__["_from_op"].__func__
    arrays = []

    def recorded(data, parents, vjps):
        out = make(data, parents, vjps)
        if out.requires_grad:
            arrays.append(weakref.ref(out.data))
        return out
    monkeypatch.setattr(Tensor, "_from_op", staticmethod(recorded))

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        if case == "predict_scenario":
            out = model.predict_scenario(scenario)
        else:
            out = matmul(Tensor(np.ones((2, 4))), w).sigmoid().sum()
        assert arrays
        del out
        alive = sum(ref() is not None for ref in arrays)
    finally:
        if was_enabled:
            gc.enable()
    assert alive == 0, f"{alive} of {len(arrays)} tape arrays outlived their outputs"


def _trainable_tensors(value, found):
    """Every requires_grad tensor reachable through dataclass fields, lists and tuples."""
    if isinstance(value, Tensor):
        if value.requires_grad:
            found.append(value)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _trainable_tensors(getattr(value, f.name), found)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _trainable_tensors(item, found)
    return found


@pytest.mark.parametrize("config", [
    ModelConfig(),
    ModelConfig(n_experts=1, granularities=[[4, 2], [8, 8]]),
])
def test_parameters_list_every_trainable_tensor_once(config):
    model = TrajectoryPredictor(config, seed=0)
    found = []
    for value in vars(model).values():
        _trainable_tensors(value, found)
    listed = [id(p) for p in model.parameters().values()]
    assert len(set(listed)) == len(listed)
    assert sorted(id(t) for t in found) == sorted(listed)


def test_parameter_layout_is_the_v1_checkpoint_layout():
    params = TrajectoryPredictor(Config().model, seed=0).parameters()
    layout = json.dumps([[name, list(p.shape)] for name, p in params.items()])
    assert hashlib.sha256(layout.encode()).hexdigest() == (
        "803ecf9937d1a629042d50965005e25a84e78e13bba65a2a32dbc2fa9f5031c9")


@pytest.mark.parametrize("edit, match", [
    (lambda frames: frames.clear(), r"^pack_frames: empty frame list$"),
    (lambda frames: setattr(frames[1], "history", frames[1].history[:, :6]),
     r"^pack_frames: frame history length 6 != 8$"),
], ids=["empty", "short-history"])
def test_pack_frames_refusals(edit, match):
    scenarios = generate_synthetic(GenConfig(num_scenarios=2, num_agents=2,
                                             t_history=8, t_future=4), seed=0)
    frames = [normalize(s).frames[0] for s in scenarios]
    edit(frames)
    with pytest.raises(ValueError, match=match):
        pack_frames(frames, 8)
