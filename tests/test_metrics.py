import dataclasses

import numpy as np
import pytest

from mftp.config import ModelConfig
from mftp.data import GenConfig, generate_synthetic
from mftp.decoder import PredictionSet
from mftp.metrics import (
    b_min_fde,
    evaluate_model,
    evaluate_predictions,
    min_ade,
    min_fde,
    miss,
    score_target,
    top_k_modes,
)
from mftp.model import TrajectoryPredictor
from mftp.tensor import Tensor

from oracles import brute_b_min_fde, brute_min_ade, brute_min_fde, brute_miss


def _pred(trajs, probs=None):
    trajs = np.asarray(trajs, dtype=np.float64)
    k = trajs.shape[0]
    probs = np.full(k, 1.0 / k) if probs is None else np.asarray(probs, dtype=np.float64)
    return PredictionSet(trajs=Tensor(trajs), probs=Tensor(probs))


def _random_case(rng, k=5, t_f=6):
    trajs = rng.normal(scale=5.0, size=(k, t_f, 2))
    gt = rng.normal(scale=5.0, size=(t_f, 2))
    probs = rng.dirichlet(np.ones(k))
    return _pred(trajs, probs), gt


def test_exact_mode_gives_zero_ade():
    rng = np.random.default_rng(0)
    gt = rng.normal(size=(6, 2))
    pred = _pred([gt + 3.0, gt])
    assert min_ade(pred, gt) == 0.0
    assert min_fde(pred, gt) == 0.0
    assert miss(pred, gt) == 0.0


def test_constant_offset_ade():
    gt = np.zeros((5, 2))
    traj = np.zeros((1, 5, 2))
    traj[..., 0] = 2.0
    assert abs(min_ade(_pred(traj), gt) - 2.0) <= 1e-12


def test_miss_threshold_rule():
    gt = np.zeros((4, 2))
    traj = np.zeros((3, 4, 2))
    traj[..., 1] = 3.0                      # all endpoints 3 m off
    assert miss(_pred(traj), gt, threshold=2.0) == 1.0
    assert miss(_pred(traj), gt, threshold=4.0) == 0.0


def test_b_min_fde_hand_cases():
    gt = np.zeros((4, 2))
    exact = np.zeros((1, 4, 2))
    assert b_min_fde(_pred(exact, [1.0]), gt) == 0.0

    off = np.zeros((2, 4, 2))
    off[0, -1, 0] = 1.0                     # endpoint-best mode, prob 0.5
    off[1, -1, 0] = 9.0
    assert abs(b_min_fde(_pred(off, [0.5, 0.5]), gt) - 1.25) <= 1e-12


def test_b_min_fde_uniform_five_modes():
    rng = np.random.default_rng(1)
    pred, gt = _random_case(rng, k=5)
    uniform = _pred(pred.trajs.data, np.full(5, 0.2))
    assert abs(b_min_fde(uniform, gt) - (min_fde(uniform, gt) + 0.64)) <= 1e-12


def test_metrics_match_brute_force_on_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        pred, gt = _random_case(rng, k=int(rng.integers(1, 7)), t_f=int(rng.integers(1, 9)))
        trajs, probs = pred.trajs.data, pred.probs.data
        assert abs(min_ade(pred, gt) - brute_min_ade(trajs, gt)) <= 1e-12
        assert abs(min_fde(pred, gt) - brute_min_fde(trajs, gt)) <= 1e-12
        assert miss(pred, gt, 2.0) == brute_miss(trajs, gt, 2.0)
        assert abs(b_min_fde(pred, gt) - brute_b_min_fde(trajs, probs, gt)) <= 1e-12


def test_top_k_monotonicity():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        pred, gt = _random_case(rng, k=6)
        for k in range(1, 6):
            small = top_k_modes(pred, k)
            large = top_k_modes(pred, k + 1)
            assert min_ade(small, gt) >= min_ade(large, gt) - 1e-15
            assert min_fde(small, gt) >= min_fde(large, gt) - 1e-15
        assert b_min_fde(pred, gt) >= min_fde(pred, gt)


def test_top_k_rejects_oversized_k():
    rng = np.random.default_rng(4)
    pred, _ = _random_case(rng, k=3)
    with pytest.raises(ValueError, match="top 5"):
        top_k_modes(pred, 5)


def test_top_k_stable_on_probability_ties():
    trajs = np.arange(12, dtype=np.float64).reshape(3, 2, 2)
    pred = _pred(trajs, [0.4, 0.3, 0.3])
    sub = top_k_modes(pred, 2)
    assert np.array_equal(sub.trajs.data, trajs[[0, 1]])


def test_score_target_averaging():
    gt = np.zeros((4, 2))
    a = np.zeros((1, 4, 2)); a[..., 0] = 1.0
    b = np.zeros((1, 4, 2)); b[..., 0] = 3.0
    rows = [score_target(_pred(a, [1.0]), gt, 1, 2.0, "s", 0),
            score_target(_pred(b, [1.0]), gt, 1, 2.0, "s", 1)]
    from mftp.metrics import _aggregate
    rep = _aggregate(rows, 1, 2.0)
    assert abs(rep.min_ade_k - 2.0) <= 1e-12
    assert rep.miss_rate == 0.5
    assert rep.n_targets == 2


def test_report_text_and_csv_shapes():
    gt = np.zeros((4, 2))
    a = np.zeros((1, 4, 2))
    row = score_target(_pred(a, [1.0]), gt, 1, 2.0, "sc", 0)
    from mftp.metrics import _aggregate
    rep = _aggregate([row], 1, 2.0)
    text = rep.to_text()
    assert "min_ade_k=0.0" in text
    assert "miss_rate=0.0" in text
    csv = rep.per_target_csv()
    assert csv.splitlines()[0] == "scenario,target,min_ade,min_fde,miss,b_min_fde"
    assert csv.splitlines()[1].startswith("sc,0,")


def test_miss_rejects_nan_endpoint():
    gt = np.zeros((4, 2))
    traj = np.zeros((2, 4, 2))
    traj[:, -1, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        miss(_pred(traj), gt)
    with pytest.raises(ValueError, match="non-finite"):
        score_target(_pred(traj), gt, 2, 2.0)


def test_score_target_rejects_nan_inside_trajectory():
    gt = np.zeros((4, 2))
    traj = np.zeros((1, 4, 2))
    traj[0, 1, 0] = np.nan
    with pytest.raises(ValueError, match=r"scenario 'sc' target 3: mode 0 step 1"):
        score_target(_pred(traj, [1.0]), gt, 1, 2.0, "sc", 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_score_target_rejects_non_finite_probability(bad):
    gt = np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"scenario 'sc' target 1: mode 1 .*probability"):
        score_target(_pred(np.zeros((2, 4, 2)), [1.0, bad]), gt, 1, 2.0, "sc", 1)


def test_score_target_rejects_step_count_mismatch():
    gt = np.zeros((4, 2))
    with pytest.raises(ValueError,
                       match=r"scenario 'sc' target 3: trajectory has 5 steps, "
                             r"ground truth has 4"):
        score_target(_pred(np.zeros((1, 5, 2)), [1.0]), gt, 1, 2.0, "sc", 3)


def _tiny_model_and_scenes():
    cfg = ModelConfig(channels=8, d_patch=8, n_heads=2, n_modes=3, refine_rounds=1,
                      n_experts=2, t_history=8, t_future=4, patch_len=4,
                      granularities=[[2, 1], [8, 8]])
    scenes = generate_synthetic(GenConfig(num_scenarios=3, num_agents=4, num_targets=2,
                                          t_history=8, t_future=4, noise_std=0.3), seed=2)
    return TrajectoryPredictor(cfg, seed=1), scenes


def test_evaluate_model_equals_evaluate_predictions_on_its_own_outputs():
    model, scenes = _tiny_model_and_scenes()
    preds = {(s.scenario_id, t): p for s in scenes for t, p in model.predict_scenario(s)}
    for k in (1, 3):
        ours = evaluate_model(model, scenes, k=k, threshold=1.5)
        ref = evaluate_predictions(preds, scenes, k=k, threshold=1.5)
        assert ours.n_targets == 6
        assert dataclasses.asdict(ours) == dataclasses.asdict(ref)


def test_repeated_scenario_id_raises_in_both_evaluators():
    model, scenes = _tiny_model_and_scenes()
    twins = [scenes[0], dataclasses.replace(scenes[1], scenario_id=scenes[0].scenario_id)]
    preds = {(s.scenario_id, t): p for s in twins[:1] for t, p in model.predict_scenario(s)}
    with pytest.raises(ValueError, match=f"scenario id {scenes[0].scenario_id!r} repeats"):
        evaluate_predictions(preds, twins, k=1)
    with pytest.raises(ValueError, match=f"scenario id {scenes[0].scenario_id!r} repeats"):
        evaluate_model(model, twins, k=1)


@pytest.mark.parametrize("fill", [np.nan, 0.0])
def test_padded_ground_truth_step_raises_in_both_evaluators_before_predicting(fill):
    model, scenes = _tiny_model_and_scenes()
    preds = {(s.scenario_id, t): p for s in scenes for t, p in model.predict_scenario(s)}
    s = scenes[1]
    target = s.targets[-1]
    s.agents[target].future[2] = [fill, fill, 0.0]
    match = rf"scenario {s.scenario_id!r} target {target}: future step 2 is padded"
    with pytest.raises(ValueError, match=match):
        evaluate_predictions(preds, scenes, k=1)

    def no_predictions(scenario):
        raise AssertionError("predicted a scene before rejecting the ground truth")
    model.predict_scenario = no_predictions
    with pytest.raises(ValueError, match=match):
        evaluate_model(model, scenes, k=1)


def test_min_ade_refuses_a_ground_truth_of_another_shape():
    with pytest.raises(ValueError, match=r"^min_ade: shapes \(4, 2\) vs \(3, 2\)$"):
        min_ade(_pred(np.zeros((2, 4, 2))), np.zeros((3, 2)))


def _refuse_to_predict(model):
    def no_predictions(scenario):
        raise AssertionError("predicted a scene before refusing the input")
    model.predict_scenario = no_predictions


def test_evaluate_model_refuses_k_above_the_models_modes_before_predicting():
    model, scenes = _tiny_model_and_scenes()
    _refuse_to_predict(model)
    with pytest.raises(ValueError, match=r"^k=4 exceeds the model's 3 modes$"):
        evaluate_model(model, scenes, k=4)


def test_evaluate_model_refuses_other_horizons_naming_the_scene_before_predicting():
    model, scenes = _tiny_model_and_scenes()
    other = generate_synthetic(GenConfig(num_scenarios=1, num_agents=4, num_targets=2,
                                         t_history=6, t_future=4), seed=9)[0]
    _refuse_to_predict(model)
    with pytest.raises(ValueError, match=rf"^scenario {other.scenario_id}: horizons \(6, 4\) "
                                         rf"do not match the model \(8, 4\)$"):
        evaluate_model(model, [*scenes, other], k=1)


def test_evaluate_model_refuses_a_repeated_id_before_predicting():
    model, scenes = _tiny_model_and_scenes()
    twins = [*scenes, dataclasses.replace(scenes[2], scenario_id=scenes[0].scenario_id)]
    _refuse_to_predict(model)
    with pytest.raises(ValueError, match=f"^scenario id {scenes[0].scenario_id!r} repeats$"):
        evaluate_model(model, twins, k=1)
