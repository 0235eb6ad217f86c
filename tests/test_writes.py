"""Every file mftp writes: each text file is opened by `data.write_text`, and the
one binary file is `params.bin`, opened by `save_checkpoint`."""

import builtins
import os
import sys

from mftp import data, training
from mftp.cli import main
from mftp.config import Config, DataConfig, ModelConfig, TrainingConfig, save_config
from mftp.data import GenConfig, generate_synthetic, save_scenarios


def test_every_write_is_write_text_or_the_checkpoints_params_bin(tmp_path, monkeypatch, capsys):
    cfg = Config(model=ModelConfig(channels=8, d_patch=8, n_heads=2, n_modes=2,
                                   refine_rounds=1, n_experts=2, t_history=8, t_future=4,
                                   patch_len=4, granularities=[[2, 1], [8, 8]]),
                 training=TrainingConfig(steps=2, batch_size=4, seed=0),
                 data=DataConfig(synthetic=GenConfig(num_scenarios=2, num_agents=2,
                                                     t_history=8, t_future=4)))
    writes = []                     # (file name, binary, code object of the opener)
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            writes.append((os.path.basename(file), "b" in mode, sys._getframe(1).f_code))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(builtins, "open", recording_open)
    save_config("config.json", cfg)
    save_scenarios("scenarios.json", generate_synthetic(cfg.data.synthetic, seed=0))
    assert main(["train", "--config", "config.json", "--out", "run"]) == 0
    assert main(["predict", "--checkpoint", "run", "--scenarios", "scenarios.json",
                 "--out", "predictions.json"]) == 0
    assert main(["eval", "--predictions", "predictions.json", "--scenarios", "scenarios.json",
                 "--k", "1", "--per-target-csv", "per_target.csv"]) == 0
    monkeypatch.undo()
    capsys.readouterr()

    assert sorted(name for name, _, _ in writes) == sorted([
        "config.json", "scenarios.json", "params.bin", "manifest.json", "train_log.txt",
        "predictions.json", "per_target.csv"])
    for name, binary, opener in writes:
        where = (opener.co_filename, opener.co_name)
        if binary:
            assert (name, *where) == ("params.bin", training.__file__, "save_checkpoint")
        else:
            assert where == (data.__file__, "write_text"), name
