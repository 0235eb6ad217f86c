"""Models whose weights are scaled far past anything training makes: one
module's weights times 10**j, j up to 300, all still finite. `mftp predict`
must either exit 0 and write a file that `load_predictions` loads with every
value finite, or exit 2 naming the scenario and target and write no file.
`mftp eval`, on the checkpoint and on the file `predict` wrote, must either
exit 0 reporting only finite metrics, or exit 2 naming a scenario and target;
its scaled module may be a single layer, so that the trajectories alone can
grow until their distances to ground truth overflow.
Any other outcome fails.

CI runs this file under several --hypothesis-seed values, so more scalings
are tried there than in one local run.
"""

import contextlib
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mftp.cli import main
from mftp.config import Config, DataConfig, ModelConfig, TrainingConfig
from mftp.data import GenConfig, generate_synthetic, save_scenarios
from mftp.model import TrajectoryPredictor
from mftp.prediction_io import load_predictions
from mftp.training import save_checkpoint

# the tiny config of test_loader_properties.py
CONFIG = Config(model=ModelConfig(channels=8, d_patch=8, n_heads=2, n_modes=2,
                                  refine_rounds=1, n_experts=2, t_history=8, t_future=4,
                                  patch_len=4, granularities=[[2, 1], [8, 8]]),
                training=TrainingConfig(steps=0, seed=0),
                data=DataConfig(synthetic=GenConfig(num_scenarios=2, num_agents=2,
                                                    t_history=8, t_future=4)))
MODULES = sorted({name.split(".")[0]
                  for name in TrajectoryPredictor(CONFIG.model, seed=0).parameters()})
# every module and submodule, down to single layers such as decoder.traj_head
SUBMODULES = sorted({name.rsplit(".", i)[0]
                     for name in TrajectoryPredictor(CONFIG.model, seed=0).parameters()
                     for i in range(1, name.count(".") + 1)})
REFUSAL = re.compile(r"error: scenario '(.+)' target (\d+): mode \d+ ")
EVAL_REFUSAL = re.compile(r"error: scenario '(.+)' target (\d+): ")


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    root = tmp_path_factory.mktemp("scaled")
    scenarios = generate_synthetic(CONFIG.data.synthetic, seed=0)
    save_scenarios(str(root / "scenarios.json"), scenarios)
    return root, {(s.scenario_id, t) for s in scenarios for t in s.targets}


def _scaled_checkpoint(root, module: str, j: int) -> str:
    model = TrajectoryPredictor(CONFIG.model, seed=0)
    for name, p in model.parameters().items():
        if name.startswith(module + "."):
            p.data = p.data * 10.0 ** j
    return save_checkpoint(str(root / "ckpt"), model, CONFIG, step=0)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # numpy's overflow warnings
@settings(max_examples=100, deadline=None)
@given(module=st.sampled_from(MODULES), j=st.integers(0, 300))
def test_predict_on_scaled_weights_writes_finite_records_or_refuses_naming_the_target(
        scenes, module, j):
    root, targets = scenes
    model = TrajectoryPredictor(CONFIG.model, seed=0)
    for name, p in model.parameters().items():
        if name.split(".")[0] == module:
            p.data = p.data * 10.0 ** j
    ckpt = save_checkpoint(str(root / "ckpt"), model, CONFIG, step=0)
    out = root / "predictions.json"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["predict", "--checkpoint", ckpt, "--scenarios",
                     str(root / "scenarios.json"), "--out", str(out)])
    if code == 2:
        refusal = REFUSAL.match(err.getvalue())
        assert refusal, err.getvalue()
        assert (refusal[1], int(refusal[2])) in targets
        assert not out.exists()
        return
    assert code == 0, err.getvalue()
    predictions = load_predictions(str(out))
    assert set(predictions) == targets
    for pred in predictions.values():
        assert np.isfinite(pred.trajs.data).all() and np.isfinite(pred.probs.data).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # numpy's overflow warnings
@settings(max_examples=100, deadline=None)
@given(module=st.sampled_from(SUBMODULES), j=st.integers(0, 300), k=st.integers(1, 2))
def test_eval_on_scaled_weights_reports_finite_metrics_or_refuses_naming_the_target(
        scenes, module, j, k):
    root, targets = scenes
    ckpt = _scaled_checkpoint(root, module, j)
    scenarios = str(root / "scenarios.json")
    out = root / "predictions.json"
    out.unlink(missing_ok=True)
    sources = [["--checkpoint", ckpt]]
    if _run(["predict", "--checkpoint", ckpt, "--scenarios", scenarios,
             "--out", str(out)])[0] == 0:
        sources.append(["--predictions", str(out)])
    for source in sources:
        code, report, err = _run(["eval", *source, "--scenarios", scenarios, "--k", str(k)])
        if code == 2:
            refusal = EVAL_REFUSAL.match(err)
            assert refusal, err
            assert (refusal[1], int(refusal[2])) in targets
            continue
        assert code == 0, err
        values = dict(line.split("=", 1) for line in report.splitlines())
        for key in ("min_ade_k", "min_fde_k", "miss_rate", "b_min_fde"):
            assert math.isfinite(float(values[key])), report
