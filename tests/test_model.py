import gc
import weakref

import numpy as np
import pytest

from mftp.config import ModelConfig
from mftp.data import GenConfig, generate_synthetic, normalize
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
