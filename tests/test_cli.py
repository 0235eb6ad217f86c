import io
import json

import numpy as np
import pytest

from mftp import metrics
from mftp.cli import main
from mftp.config import Config, ModelConfig, TrainingConfig, DataConfig, save_config
from mftp.data import GenConfig, generate_synthetic, save_scenarios
from mftp.prediction_io import load_predictions, write_predictions
from mftp.decoder import PredictionSet
from mftp.model import TrajectoryPredictor
from mftp.tensor import Tensor
from mftp.training import save_checkpoint


@pytest.fixture()
def tiny_setup(tmp_path):
    cfg = Config(
        model=ModelConfig(channels=8, d_patch=8, n_heads=2, n_modes=2,
                          refine_rounds=1, n_experts=2, t_history=8, t_future=4,
                          patch_len=4, granularities=[[2, 1], [8, 8]]),
        training=TrainingConfig(steps=4, learning_rate=1e-3, batch_size=4, seed=0),
        data=DataConfig(synthetic=GenConfig(num_scenarios=2, num_agents=2,
                                            t_history=8, t_future=4)),
    )
    cfg_path = str(tmp_path / "config.json")
    save_config(cfg_path, cfg)
    scn_path = str(tmp_path / "scenarios.json")
    save_scenarios(scn_path, generate_synthetic(cfg.data.synthetic, seed=0))
    return cfg, cfg_path, scn_path, tmp_path


def test_train_writes_checkpoint_and_log(tiny_setup, capsys):
    _, cfg_path, _, tmp_path = tiny_setup
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    assert (tmp_path / "run" / "manifest.json").exists()
    assert (tmp_path / "run" / "params.bin").exists()
    log = (tmp_path / "run" / "train_log.txt").read_text()
    assert "step=0 " in log and "step=3 " in log
    assert "final_total=" in capsys.readouterr().out


def test_train_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"channels": 30}}))
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "model.channels" in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ([], "config: must be a JSON object"),
    ({"model": []}, "model: must be a JSON object"),
    ({"model": {"channels": "32"}}, "model.channels"),
    ({"model": {"channels": 32.0}}, "model.channels"),
    ({"model": {"granularities": [[8]]}}, "model.granularities"),
    ({"training": {"steps": 2.5}}, "training.steps"),
    ({"training": {"steps": True}}, "training.steps"),
    ({"training": {"learning_rate": "0.1"}}, "training.learning_rate"),
    ({"data": {"synthetic": {"num_agents": 2.0}}}, "data.synthetic.num_agents"),
    ({"data": {"synthetic": {"speed_range": 3}}}, "data.synthetic.speed_range"),
    ({"training": {"learning_rate": float("nan"), "steps": 3}}, "training.learning_rate"),
    ({"data": {"scenario_path": 0, "synthetic": None}}, "data.scenario_path"),
    ({"data": {"synthetic": {"dt": float("nan")}}}, "data.synthetic.dt"),
    ({"data": {"synthetic": {"turn_rate_range": [0.0, 0.0], "maneuver_mix": [0, 1, 0]}}},
     "data.synthetic.turn_rate_range"),
    ({"data": {"synthetic": {"noise_std": -1.0}}}, "data.synthetic.noise_std"),
    ({"training": {"seed": -3}}, "training.seed"),
    ({"model": {"granularities": []}}, "model.granularities"),
])
def test_train_rejects_mistyped_config_naming_the_key(tmp_path, capsys, doc, key):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_rejects_negative_seed_flag(tmp_path, capsys):
    assert main(["train", "--seed", "-1", "--out", str(tmp_path / "x")]) == 2
    assert "training.seed" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_rejects_scenario_file_with_other_horizons(tiny_setup, capsys):
    cfg, _, _, tmp_path = tiny_setup
    other = generate_synthetic(GenConfig(num_scenarios=1, num_agents=2,
                                         t_history=6, t_future=4), seed=0)
    other_path = str(tmp_path / "other.json")
    save_scenarios(other_path, other)
    cfg.data = DataConfig(scenario_path=other_path, synthetic=None)
    cfg_path = str(tmp_path / "file_config.json")
    save_config(cfg_path, cfg)
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 2
    assert (f"scenario {other[0].scenario_id}: horizons (6, 4) do not match the model (8, 4)"
            in capsys.readouterr().err)
    assert not (tmp_path / "x").exists()


def test_train_deterministic_across_runs(tiny_setup):
    _, cfg_path, _, tmp_path = tiny_setup
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "a")]) == 0
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "params.bin").read_bytes()
            == (tmp_path / "b" / "params.bin").read_bytes())
    assert ((tmp_path / "a" / "train_log.txt").read_text()
            == (tmp_path / "b" / "train_log.txt").read_text())


def test_predict_then_eval_matches_checkpoint_eval(tiny_setup, capsys):
    _, cfg_path, scn_path, tmp_path = tiny_setup
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    capsys.readouterr()

    pred_path = str(tmp_path / "pred.json")
    assert main(["predict", "--checkpoint", out, "--scenarios", scn_path,
                 "--out", pred_path]) == 0
    capsys.readouterr()

    # every prediction record's probabilities sum to 1
    preds = load_predictions(pred_path)
    assert preds
    for pred in preds.values():
        assert abs(pred.probs.data.sum() - 1.0) <= 1e-9

    assert main(["eval", "--predictions", pred_path, "--scenarios", scn_path,
                 "--k", "2"]) == 0
    from_file = capsys.readouterr().out
    assert main(["eval", "--checkpoint", out, "--scenarios", scn_path,
                 "--k", "2"]) == 0
    from_model = capsys.readouterr().out
    assert from_file == from_model


def test_predict_empty_targets_writes_valid_header(tiny_setup, capsys):
    cfg, cfg_path, _, tmp_path = tiny_setup
    scenarios = generate_synthetic(cfg.data.synthetic, seed=0)
    for s in scenarios:
        s.targets = []
    empty_path = str(tmp_path / "no_targets.json")
    save_scenarios(empty_path, scenarios)

    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    pred_path = str(tmp_path / "pred.json")
    assert main(["predict", "--checkpoint", out, "--scenarios", empty_path,
                 "--out", pred_path]) == 0
    doc = json.loads((tmp_path / "pred.json").read_text())
    assert doc == {"predictions": []}


def test_predict_rejects_horizon_mismatch(tiny_setup, capsys):
    cfg, cfg_path, _, tmp_path = tiny_setup
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0

    other = generate_synthetic(GenConfig(num_scenarios=1, num_agents=2,
                                         t_history=8, t_future=6), seed=0)
    other_path = str(tmp_path / "other.json")
    save_scenarios(other_path, other)
    assert main(["predict", "--checkpoint", out, "--scenarios", other_path,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert "horizons" in capsys.readouterr().err


def test_eval_ground_truth_as_prediction_scores_zero(tiny_setup, capsys):
    cfg, _, scn_path, tmp_path = tiny_setup
    scenarios = generate_synthetic(cfg.data.synthetic, seed=0)
    records = []
    for s in scenarios:
        for t in s.targets:
            gt = s.agents[t].future[:, :2]
            records.append((s.scenario_id, t,
                            PredictionSet(trajs=Tensor(gt[None]), probs=Tensor([1.0]))))
    pred_path = str(tmp_path / "gt_pred.json")
    write_predictions(pred_path, records)

    assert main(["eval", "--predictions", pred_path, "--scenarios", scn_path,
                 "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "min_ade_k=0.0" in out
    assert "min_fde_k=0.0" in out
    assert "miss_rate=0.0" in out
    assert "b_min_fde=0.0" in out


def test_eval_rejects_oversized_k(tiny_setup, capsys):
    _, cfg_path, scn_path, tmp_path = tiny_setup
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    assert main(["eval", "--checkpoint", out, "--scenarios", scn_path,
                 "--k", "7"]) == 2
    assert "k=7" in capsys.readouterr().err

    # same rejection when scoring a prediction file with too few modes
    pred_path = str(tmp_path / "pred.json")
    assert main(["predict", "--checkpoint", out, "--scenarios", scn_path,
                 "--out", pred_path]) == 0
    capsys.readouterr()
    assert main(["eval", "--predictions", pred_path, "--scenarios", scn_path,
                 "--k", "6"]) == 2
    assert "k=6" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--k", "-1"], "k=-1"), (["--k", "-4"], "k=-4"), (["--k", "0"], "k=0"),
    (["--k", "2", "--miss-threshold", "nan"], "threshold=nan"),
    (["--k", "2", "--miss-threshold", "-1"], "threshold=-1.0"),
    (["--k", "2", "--miss-threshold", "0"], "threshold=0.0"),
    (["--k", "2", "--miss-threshold", "inf"], "threshold=inf"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_eval_rejects_bad_k_or_miss_threshold(tiny_setup, capsys, flags, named):
    _, cfg_path, scn_path, tmp_path = tiny_setup
    out = str(tmp_path / "run")
    pred_path = str(tmp_path / "pred.json")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    assert main(["predict", "--checkpoint", out, "--scenarios", scn_path,
                 "--out", pred_path]) == 0
    capsys.readouterr()
    for source in (["--checkpoint", out], ["--predictions", pred_path]):
        assert main(["eval", *source, "--scenarios", scn_path, *flags]) == 2
        captured = capsys.readouterr()
        assert named in captured.err
        assert "min_fde" not in captured.out


def test_eval_deterministic(tiny_setup, capsys):
    _, cfg_path, scn_path, tmp_path = tiny_setup
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", out, "--scenarios", scn_path, "--k", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["eval", "--checkpoint", out, "--scenarios", scn_path, "--k", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_eval_per_target_csv(tiny_setup, capsys):
    _, cfg_path, scn_path, tmp_path = tiny_setup
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    csv_path = str(tmp_path / "per_target.csv")
    assert main(["eval", "--checkpoint", out, "--scenarios", scn_path,
                 "--k", "2", "--per-target-csv", csv_path]) == 0
    lines = (tmp_path / "per_target.csv").read_text().splitlines()
    assert lines[0] == "scenario,target,min_ade,min_fde,miss,b_min_fde"
    assert len(lines) == 3          # two scenarios, one target each


def test_seed_flag_overrides_config(tiny_setup):
    _, cfg_path, _, tmp_path = tiny_setup
    assert main(["train", "--config", cfg_path, "--out", str(tmp_path / "s0")]) == 0
    assert main(["train", "--config", cfg_path, "--seed", "1",
                 "--out", str(tmp_path / "s1")]) == 0
    assert ((tmp_path / "s0" / "params.bin").read_bytes()
            != (tmp_path / "s1" / "params.bin").read_bytes())


def test_prediction_file_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    trajs = rng.normal(size=(3, 5, 2))
    probs = np.array([0.2, 0.5, 0.3])
    path = str(tmp_path / "p.json")
    write_predictions(path, [("sc", 1, PredictionSet(trajs=Tensor(trajs),
                                                     probs=Tensor(probs)))])
    loaded = load_predictions(path)[("sc", 1)]
    assert np.array_equal(loaded.trajs.data, trajs)
    assert np.array_equal(loaded.probs.data, probs)


def test_prediction_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"predictions": [{"scenario": "s"}]}))
    with pytest.raises(ValueError, match="record 0"):
        load_predictions(str(path))


def test_eval_rejects_nan_endpoint(tiny_setup, capsys):
    cfg, _, scn_path, tmp_path = tiny_setup
    records = []
    for s in generate_synthetic(cfg.data.synthetic, seed=0):
        for t in s.targets:
            traj = s.agents[t].future[None, :, :2].copy()
            traj[0, -1] = np.nan
            records.append((s.scenario_id, t,
                            PredictionSet(trajs=Tensor(traj), probs=Tensor([1.0]))))
    pred_path = str(tmp_path / "nan_pred.json")
    write_predictions(pred_path, records)
    assert main(["eval", "--predictions", pred_path, "--scenarios", scn_path,
                 "--k", "1"]) == 2
    assert "non-finite min_fde" in capsys.readouterr().err


def _gt_records(cfg):
    """One exact single-mode prediction per target."""
    return [(s.scenario_id, t, PredictionSet(trajs=Tensor(s.agents[t].future[None, :, :2]),
                                             probs=Tensor([1.0])))
            for s in generate_synthetic(cfg.data.synthetic, seed=0) for t in s.targets]


def test_eval_rejects_nan_inside_trajectory(tiny_setup, capsys):
    cfg, _, scn_path, tmp_path = tiny_setup
    records = _gt_records(cfg)
    for _, _, pred in records:
        pred.trajs.data[0, 1, 0] = np.nan
    pred_path = str(tmp_path / "nan_inside.json")
    write_predictions(pred_path, records)
    assert main(["eval", "--predictions", pred_path, "--scenarios", scn_path,
                 "--k", "1"]) == 2
    assert "mode 0 step 1 of the trajectory is non-finite" in capsys.readouterr().err


def test_eval_rejects_step_count_mismatch(tiny_setup, capsys):
    cfg, _, scn_path, tmp_path = tiny_setup
    records = [(sid, t, PredictionSet(trajs=Tensor(pred.trajs.data[:, :-1]), probs=pred.probs))
               for sid, t, pred in _gt_records(cfg)]
    pred_path = str(tmp_path / "short.json")
    write_predictions(pred_path, records)
    assert main(["eval", "--predictions", pred_path, "--scenarios", scn_path,
                 "--k", "1"]) == 2
    assert "trajectory has 3 steps, ground truth has 4" in capsys.readouterr().err


@pytest.mark.parametrize("fill", [np.nan, 0.0])
def test_eval_rejects_padded_ground_truth_step(tiny_setup, capsys, fill):
    cfg, cfg_path, _, tmp_path = tiny_setup
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0
    pred_path = str(tmp_path / "gt_pred.json")
    write_predictions(pred_path, _gt_records(cfg))
    scenarios = generate_synthetic(cfg.data.synthetic, seed=0)
    s = scenarios[1]
    target = s.targets[0]
    s.agents[target].future[1] = [fill, fill, 0.0]
    scn_path = str(tmp_path / "padded.json")
    save_scenarios(scn_path, scenarios)
    capsys.readouterr()
    for source in (["--checkpoint", out], ["--predictions", pred_path]):
        assert main(["eval", *source, "--scenarios", scn_path, "--k", "1"]) == 2
        captured = capsys.readouterr()
        assert (f"scenario {s.scenario_id!r} target {target}: future step 1 is padded"
                in captured.err)
        assert "min_ade" not in captured.out


def _write_doc(tmp_path, records):
    path = tmp_path / "preds.json"
    path.write_text(json.dumps({"predictions": records}))
    return str(path)


def _record(scenario="sc", target=1, probs=(0.25, 0.75)):
    return {"scenario": scenario, "target": target,
            "modes": [{"prob": p, "traj": [[0.0, 0.0], [1.0, 1.0]]} for p in probs]}


@pytest.mark.parametrize("prob,match", [
    (-0.5, r"record 1 mode 0 probability -0.5 is not finite and non-negative"),
    (float("nan"), r"record 1 mode 0 probability nan is not finite"),
    (float("inf"), r"record 1 mode 0 probability inf is not finite"),
])
def test_prediction_file_rejects_bad_probability(tmp_path, prob, match):
    path = _write_doc(tmp_path, [_record(), _record(target=2, probs=(prob, 1.0))])
    with pytest.raises(ValueError, match=match) as err:
        load_predictions(path)
    assert path in str(err.value)


def test_prediction_file_rejects_probabilities_not_summing_to_one(tmp_path):
    path = _write_doc(tmp_path, [_record(), _record(target=2, probs=(0.5, 0.8))])
    with pytest.raises(ValueError, match=r"record 1 probabilities sum to 1.3"):
        load_predictions(path)


def test_prediction_file_rejects_probability_count_mismatch(tmp_path):
    rec = _record(probs=(1.0,))
    rec["modes"][0]["prob"] = [0.5, 0.5]        # two probabilities for one mode
    path = _write_doc(tmp_path, [rec])
    with pytest.raises(ValueError, match=r"record 0 has 2 probabilities for 1 modes"):
        load_predictions(path)


def test_prediction_file_rejects_duplicate_record(tmp_path):
    path = _write_doc(tmp_path, [_record(), _record(target=2), _record()])
    with pytest.raises(ValueError, match=r"record 2 repeats scenario 'sc' target 1"):
        load_predictions(path)


def test_eval_rejects_negative_probability_and_duplicate(tiny_setup, capsys):
    cfg, _, scn_path, tmp_path = tiny_setup
    records = _gt_records(cfg)
    sid, target, pred = records[0]
    two_modes = PredictionSet(trajs=Tensor(np.concatenate([pred.trajs.data] * 2)),
                              probs=Tensor([-0.5, 1.5]))
    pred_path = str(tmp_path / "negative.json")
    write_predictions(pred_path, [(sid, target, two_modes)] + records[1:])
    assert main(["eval", "--predictions", pred_path, "--scenarios", scn_path,
                 "--k", "1"]) == 2
    assert "record 0 mode 0 probability -0.5" in capsys.readouterr().err

    write_predictions(pred_path, records + records[:1])
    assert main(["eval", "--predictions", pred_path, "--scenarios", scn_path,
                 "--k", "1"]) == 2
    assert f"record {len(records)} repeats" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("record", None), ("agents", 3), ("targets", "0"), ("dt", "fast"),
    ("targets", [0.7]), ("targets", ["a"]), ("targets", [0, 0])])
def test_predict_and_eval_reject_bad_scenario_structure(tiny_setup, capsys, key, value):
    from mftp.model import TrajectoryPredictor
    from mftp.training import save_checkpoint
    cfg, _, scn_path, tmp_path = tiny_setup
    ckpt = str(tmp_path / "ckpt")
    save_checkpoint(ckpt, TrajectoryPredictor(cfg.model, seed=0), cfg, step=0)
    doc = json.loads(open(scn_path).read())
    if key == "record":
        doc["scenarios"][1] = "not a record"
    else:
        doc["scenarios"][1][key] = value
    bad_path = str(tmp_path / "bad_scenarios.json")
    with open(bad_path, "w") as fh:
        json.dump(doc, fh)
    assert main(["predict", "--checkpoint", ckpt, "--scenarios", bad_path,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert f"{bad_path}: scenario 1" in capsys.readouterr().err
    assert main(["eval", "--checkpoint", ckpt, "--scenarios", bad_path, "--k", "1"]) == 2
    assert f"{bad_path}: scenario 1" in capsys.readouterr().err


@pytest.mark.parametrize("channels", ["32", 32.0])
def test_predict_rejects_mistyped_manifest_config(tiny_setup, capsys, channels):
    from mftp.model import TrajectoryPredictor
    from mftp.training import save_checkpoint
    cfg, _, scn_path, tmp_path = tiny_setup
    ckpt = tmp_path / "ckpt"
    save_checkpoint(str(ckpt), TrajectoryPredictor(cfg.model, seed=0), cfg, step=0)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"]["model"]["channels"] = channels
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert main(["predict", "--checkpoint", str(ckpt), "--scenarios", scn_path,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert f"{ckpt / 'manifest.json'}: config model.channels" in capsys.readouterr().err


def test_predict_rejects_truncated_checkpoint(tiny_setup, capsys):
    from mftp.model import TrajectoryPredictor
    from mftp.training import save_checkpoint
    cfg, _, scn_path, tmp_path = tiny_setup
    ckpt = tmp_path / "ckpt"
    save_checkpoint(str(ckpt), TrajectoryPredictor(cfg.model, seed=0), cfg, step=0)
    blob = (ckpt / "params.bin").read_bytes()
    (ckpt / "params.bin").write_bytes(blob[: len(blob) // 2])
    assert main(["predict", "--checkpoint", str(ckpt), "--scenarios", scn_path,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert "params.bin: parameter" in capsys.readouterr().err


@pytest.mark.parametrize("target", [0.7, True, "1"])
def test_prediction_file_rejects_non_integer_target(tmp_path, target):
    path = _write_doc(tmp_path, [_record(), _record(target=target)])
    with pytest.raises(ValueError, match=rf"record 1 target {target!r} is not an integer") as err:
        load_predictions(path)
    assert path in str(err.value)


def test_prediction_file_rejects_predictions_that_are_not_a_list(tmp_path):
    path = tmp_path / "preds.json"
    path.write_text(json.dumps({"predictions": 5}))
    with pytest.raises(ValueError, match=r"'predictions' must be a list, got int") as err:
        load_predictions(str(path))
    assert str(path) in str(err.value)


@pytest.mark.parametrize("doc, match", [
    ({"predictions": 5}, "'predictions' must be a list"),
    ({"predictions": [_record(target=0.7)]}, "record 0 target 0.7 is not an integer"),
])
def test_eval_rejects_bad_prediction_structure(tiny_setup, capsys, doc, match):
    _, _, scn_path, tmp_path = tiny_setup
    pred_path = tmp_path / "bad_preds.json"
    pred_path.write_text(json.dumps(doc))
    assert main(["eval", "--predictions", str(pred_path), "--scenarios", scn_path,
                 "--k", "1"]) == 2
    assert f"{pred_path}: {match}" in capsys.readouterr().err


def test_predict_rejects_manifest_missing_a_key(tiny_setup, capsys):
    from mftp.model import TrajectoryPredictor
    from mftp.training import save_checkpoint
    cfg, _, scn_path, tmp_path = tiny_setup
    ckpt = tmp_path / "ckpt"
    save_checkpoint(str(ckpt), TrajectoryPredictor(cfg.model, seed=0), cfg, step=0)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest["step"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert main(["predict", "--checkpoint", str(ckpt), "--scenarios", scn_path,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert "manifest.json: missing manifest keys ['step']" in capsys.readouterr().err


@pytest.mark.parametrize("step", [2.7, "abc", True])
def test_predict_rejects_step_that_is_not_an_integer(tiny_setup, capsys, step):
    from mftp.model import TrajectoryPredictor
    from mftp.training import save_checkpoint
    cfg, _, scn_path, tmp_path = tiny_setup
    ckpt = tmp_path / "ckpt"
    save_checkpoint(str(ckpt), TrajectoryPredictor(cfg.model, seed=0), cfg, step=0)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["step"] = step
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert main(["predict", "--checkpoint", str(ckpt), "--scenarios", scn_path,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert f"manifest.json: step {step!r} is not an integer" in capsys.readouterr().err


def test_predict_and_eval_reject_manifest_that_is_not_json(tiny_setup, capsys):
    from mftp.model import TrajectoryPredictor
    from mftp.training import save_checkpoint
    cfg, _, scn_path, tmp_path = tiny_setup
    ckpt = tmp_path / "ckpt"
    save_checkpoint(str(ckpt), TrajectoryPredictor(cfg.model, seed=0), cfg, step=0)
    (ckpt / "manifest.json").write_text("{not json")
    assert main(["predict", "--checkpoint", str(ckpt), "--scenarios", scn_path,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert f"{ckpt / 'manifest.json'}: not valid JSON" in capsys.readouterr().err
    assert main(["eval", "--checkpoint", str(ckpt), "--scenarios", scn_path, "--k", "1"]) == 2
    assert f"{ckpt / 'manifest.json'}: not valid JSON" in capsys.readouterr().err


def test_eval_rejects_horizon_mismatch(tiny_setup, capsys):
    cfg, cfg_path, _, tmp_path = tiny_setup
    out = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", out]) == 0

    other = generate_synthetic(GenConfig(num_scenarios=1, num_agents=2,
                                         t_history=6, t_future=4), seed=0)
    other_path = str(tmp_path / "other.json")
    save_scenarios(other_path, other)
    assert main(["eval", "--checkpoint", out, "--scenarios", other_path, "--k", "1"]) == 2
    assert f"scenario {other[0].scenario_id}: horizons (6, 4)" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, match", [
    ("dtype", "<f4", "dtype '<f4' is not '<f8'"),
    ("step", -3, "step -3 is negative"),
])
def test_predict_and_eval_reject_bad_manifest_dtype_or_step(tiny_setup, capsys, key, value,
                                                            match):
    from mftp.model import TrajectoryPredictor
    from mftp.training import save_checkpoint
    cfg, _, scn_path, tmp_path = tiny_setup
    ckpt = tmp_path / "ckpt"
    save_checkpoint(str(ckpt), TrajectoryPredictor(cfg.model, seed=0), cfg, step=0)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest[key] = value
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    assert main(["predict", "--checkpoint", str(ckpt), "--scenarios", scn_path,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert f"{ckpt / 'manifest.json'}: {match}" in capsys.readouterr().err
    assert main(["eval", "--checkpoint", str(ckpt), "--scenarios", scn_path, "--k", "1"]) == 2
    assert f"{ckpt / 'manifest.json'}: {match}" in capsys.readouterr().err


def test_prediction_file_rejects_invalid_json(tmp_path):
    path = tmp_path / "preds.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match=r"not valid JSON") as err:
        load_predictions(str(path))
    assert str(path) in str(err.value)


def test_eval_rejects_prediction_file_that_is_not_json(tiny_setup, capsys):
    _, _, scn_path, tmp_path = tiny_setup
    pred_path = tmp_path / "bad_preds.json"
    pred_path.write_text("{not json")
    assert main(["eval", "--predictions", str(pred_path), "--scenarios", scn_path,
                 "--k", "1"]) == 2
    assert f"{pred_path}: not valid JSON" in capsys.readouterr().err


def test_write_predictions_writes_json_dump_bytes(tmp_path):
    rng = np.random.default_rng(3)
    records = [(f"sc{i}", i, PredictionSet(trajs=Tensor(rng.normal(size=(2, 4, 2))),
                                           probs=Tensor(np.array([0.375, 0.625])),
                                           scenario_sha256=None if i else "ab" * 32))
               for i in range(3)]
    path = tmp_path / "p.json"
    write_predictions(str(path), records)
    expected = io.StringIO()
    json.dump(json.loads(path.read_text()), expected)
    assert path.read_text() == expected.getvalue()
    assert "scenario_sha256" in json.loads(path.read_text())["predictions"][0]
    assert "scenario_sha256" not in json.loads(path.read_text())["predictions"][1]


def test_eval_refuses_predictions_made_on_other_scenario_content(tmp_path, capsys):
    """Same ids, other tracks: synthetic ids depend on the seed alone."""
    cfg = Config()
    ckpt = save_checkpoint(str(tmp_path / "ckpt"), TrajectoryPredictor(cfg.model, seed=0),
                           cfg, step=0)
    made_on, other = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_scenarios(made_on, generate_synthetic(GenConfig(num_scenarios=4), seed=0))
    save_scenarios(other, generate_synthetic(
        GenConfig(num_scenarios=4, speed_range=(10.0, 20.0)), seed=0))
    pred_path = str(tmp_path / "pred.json")
    assert main(["predict", "--checkpoint", ckpt, "--scenarios", made_on,
                 "--out", pred_path]) == 0
    assert main(["eval", "--predictions", pred_path, "--scenarios", made_on]) == 0
    capsys.readouterr()
    assert main(["eval", "--predictions", pred_path, "--scenarios", other]) == 2
    err = capsys.readouterr().err
    assert "scenario 'synthetic-0-0'" in err and "other scenario content" in err


def test_eval_scores_prediction_files_without_digests_and_hashes_nothing(
        tiny_setup, capsys, monkeypatch):
    cfg, _, scn_path, tmp_path = tiny_setup
    pred_path = str(tmp_path / "pred.json")
    write_predictions(pred_path, _gt_records(cfg))
    assert "scenario_sha256" not in open(pred_path).read()
    assert all(p.scenario_sha256 is None for p in load_predictions(pred_path).values())

    def no_hashing(s):
        raise AssertionError("hashed a scenario with no digest to check")
    monkeypatch.setattr(metrics, "scenario_sha256", no_hashing)
    assert main(["eval", "--predictions", pred_path, "--scenarios", scn_path,
                 "--k", "1"]) == 0
    assert "min_fde_k=0.0" in capsys.readouterr().out


@pytest.mark.parametrize("digest", [7, None, ["ab"]])
def test_prediction_file_rejects_digest_that_is_not_a_string(tmp_path, digest):
    rec = {**_record(), "scenario_sha256": digest}
    if digest is None:
        assert load_predictions(_write_doc(tmp_path, [rec]))[("sc", 1)].scenario_sha256 is None
        return
    with pytest.raises(ValueError, match="record 0 scenario_sha256 .* is not a string"):
        load_predictions(_write_doc(tmp_path, [rec]))


@pytest.mark.parametrize("source", ["--predictions", "--checkpoint"])
def test_eval_refuses_a_scenario_file_without_targets(tiny_setup, capsys, source):
    cfg, _, _, tmp_path = tiny_setup
    scenarios = generate_synthetic(cfg.data.synthetic, seed=0)
    for s in scenarios:
        s.targets = []
    empty_path = str(tmp_path / "no_targets.json")
    save_scenarios(empty_path, scenarios)
    paths = {"--predictions": str(tmp_path / "pred.json"), "--checkpoint": str(tmp_path / "ckpt")}
    write_predictions(paths["--predictions"], [])
    save_checkpoint(paths["--checkpoint"], TrajectoryPredictor(cfg.model, seed=0), cfg, step=0)
    assert main(["eval", source, paths[source], "--scenarios", empty_path, "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert "error: no targets to score" in captured.err
    assert "min_fde" not in captured.out


def test_predict_and_eval_name_the_manifest_of_a_model_that_cannot_be_built(tiny_setup, capsys):
    # 10**20 is refused by numpy before anything is allocated
    cfg, _, scn_path, tmp_path = tiny_setup
    ckpt = tmp_path / "ckpt"
    save_checkpoint(str(ckpt), TrajectoryPredictor(cfg.model, seed=0), cfg, step=0)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    manifest["config"]["model"]["channels"] = 10**20
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    want = (f"error: {ckpt / 'manifest.json'}: the stored config describes a model that "
            f"cannot be built (ValueError: Maximum allowed dimension exceeded)")
    assert main(["predict", "--checkpoint", str(ckpt), "--scenarios", scn_path,
                 "--out", str(tmp_path / "p.json")]) == 2
    assert capsys.readouterr().err.strip() == want
    assert main(["eval", "--checkpoint", str(ckpt), "--scenarios", scn_path, "--k", "1"]) == 2
    assert capsys.readouterr().err.strip() == want
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("text, message", [
    ('{"model": {"channels": 0}}', "model.channels: 0 must be >= 1"),
    ('{"model": {"channels": 30}}', "model.channels: 30 not divisible by n_heads=4"),
    ('[]', "config: must be a JSON object, got list"),
    ('{"model": {"banana": 1}}', "unknown or missing config key"),
    ('{nope', "not valid JSON"),
])
def test_train_names_the_config_file_once_in_every_refusal(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["train", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: {message}")
    assert err.count(str(bad)) == 1


def test_train_names_the_config_file_of_a_model_that_cannot_be_built(tmp_path, capsys):
    # 10**20 is refused by numpy before anything is allocated
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"model": {"channels": 10**20}, "training": {"steps": 1}}))
    assert main(["train", "--config", str(big), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {big}: the config describes a model that cannot be built "
                   f"(ValueError: Maximum allowed dimension exceeded)\n")
    assert err.count(str(big)) == 1
    assert not (tmp_path / "run").exists()


# -- predict refuses a non-finite output ------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # numpy's overflow warnings
def test_predict_refuses_the_nan_output_of_one_step_at_a_huge_learning_rate(
        tiny_setup, capsys):
    """One Adam step moves each weight by about the learning rate: the saved
    weights are finite, and the model's outputs are NaN."""
    cfg, _, scn_path, tmp_path = tiny_setup
    cfg.training.learning_rate, cfg.training.steps = 1e300, 1
    cfg_path = str(tmp_path / "huge_lr.json")
    save_config(cfg_path, cfg)
    run = str(tmp_path / "run")
    assert main(["train", "--config", cfg_path, "--out", run]) == 0
    capsys.readouterr()
    out = tmp_path / "p.json"
    assert main(["predict", "--checkpoint", run, "--scenarios", scn_path,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: scenario 'synthetic-0-0' target 0: mode 0 "
                                       "probability nan is not finite and non-negative\n")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # numpy's overflow warnings
def test_predict_refuses_a_non_finite_trajectory_naming_mode_and_step(tiny_setup, capsys):
    cfg, _, scn_path, tmp_path = tiny_setup
    model = TrajectoryPredictor(cfg.model, seed=0)
    head = model.parameters()["decoder.traj_head.w"]
    head.data = head.data * 1e308               # finite weights, overflowing offsets
    ckpt = save_checkpoint(str(tmp_path / "ckpt"), model, cfg, step=0)
    out = tmp_path / "p.json"
    assert main(["predict", "--checkpoint", ckpt, "--scenarios", scn_path,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: scenario 'synthetic-0-0' target 0: mode 0 "
                                       "step 0 of the trajectory is non-finite\n")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # numpy's overflow warnings
def test_eval_names_the_target_whose_distance_overflows(tiny_setup, capsys):
    """Trajectories near 1e306 are finite, so `predict` writes them; their
    distances to ground truth overflow, and both `eval` paths refuse them."""
    cfg, _, scn_path, tmp_path = tiny_setup
    model = TrajectoryPredictor(cfg.model, seed=0)
    head = model.parameters()["decoder.traj_head.w"]
    head.data = head.data * 1e306
    ckpt = save_checkpoint(str(tmp_path / "ckpt"), model, cfg, step=0)
    out = str(tmp_path / "p.json")
    assert main(["predict", "--checkpoint", ckpt, "--scenarios", scn_path, "--out", out]) == 0
    capsys.readouterr()
    for source in (["--predictions", out], ["--checkpoint", ckpt]):
        assert main(["eval", *source, "--scenarios", scn_path, "--k", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: scenario 'synthetic-0-0' target 0: ")
        assert "non-finite min_fde inf" in captured.err
        assert "min_fde" not in captured.out


@pytest.mark.parametrize("step, note", [(0, ""), (1, " (non-finite min_fde)")])
def test_prediction_file_rejects_a_nan_trajectory_value(tmp_path, step, note):
    rec = _record(target=2)
    rec["modes"][1]["traj"][step][1] = float("nan")
    path = _write_doc(tmp_path, [_record(), rec])
    with pytest.raises(ValueError) as err:
        load_predictions(path)
    assert str(err.value) == (f"{path}: record 1 mode 1 step {step} of the trajectory "
                              f"is non-finite{note}")
