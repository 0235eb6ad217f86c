"""The synthetic scenes, pinned bit for bit.

Every tier-1 learning test, acceptance 8 and 9 and every benchmark seed train
or predict on `generate_synthetic`'s scenes, so a change that moves one bit of
them moves those figures. Each digest is the sha256 of the lines
"<scenario id> <scenario_sha256>" joined by newlines.
"""

import hashlib

import pytest

from mftp.data import GenConfig, generate_synthetic, scenario_sha256

PINNED = [
    (GenConfig(), 0,
     "219cf37543cd01f1591a79e1ddc5b79fec0e899da2875f0a923b9953e5b88f06"),
    (GenConfig(num_scenarios=16, num_agents=32, num_targets=8), 1421,
     "850ee11b1367b256393521bdf5ef263caca5c5e18a345e48cb464cdd9c9cd221"),
    (GenConfig(num_scenarios=32, num_agents=3, num_targets=1), 1421,
     "38f8985a13bfd2bfea66208506c05482e56281b7e5dddc17afa5ba93d25c1222"),
    (GenConfig(num_scenarios=4, num_agents=5, noise_std=0.3, maneuver_mix=(0.1, 0.0, 0.9)), 5,
     "e568725673e2ff18168b94c7c5207550e283a5ea3d117bc09cc859059d796de6"),
    (GenConfig(num_scenarios=4, num_agents=4, t_history=5, t_future=3, dt=0.1), 9,
     "78747a2ae0e4e5386db131bf8611bf5ae13449229fca007c8d6657f5e386d04a"),
]


@pytest.mark.parametrize("config, seed, digest", PINNED,
                         ids=["default", "crowd", "desk-32", "noisy-mix", "short-dt"])
def test_generated_scenes_keep_their_bits(config, seed, digest):
    lines = "\n".join(f"{s.scenario_id} {scenario_sha256(s)}"
                      for s in generate_synthetic(config, seed))
    assert hashlib.sha256(lines.encode()).hexdigest() == digest
