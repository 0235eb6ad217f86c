"""End-to-end assembly of the trajectory prediction network.

Per target frame: every agent's history is embedded per timestep, filtered
by the frequency-band expert gate, summarized at each temporal granularity
through causal selective attention, fused into one node per agent, mixed
across agents by spatial selective attention, and decoded into K candidate
futures with probabilities. Everything is batched over target frames.
"""

from __future__ import annotations

import numpy as np

from .attention import AttentionBlockParams, ssam
from .config import ModelConfig
from .data import Scenario, TargetFrame, normalize, scenario_sha256
from .decoder import DecoderParams, PredictionSet, check_prediction, decode, denormalize
from .freq import FreqMoEParams, moe_filter
from .nn import LayerNorm, Mlp
from .patching import FusionParams, GranularityEncoderParams, encode_granularity, fuse_granularities
from .tensor import Tensor

INPUT_SCALE = 0.1      # meters -> features; keeps first-layer activations tame


class TrajectoryPredictor:
    """Holds all learnable parameters and runs the forward pipeline."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        c = config.channels

        self.embed = Mlp.create(rng, 3, c, c)
        self.embed_ln = LayerNorm.create(c)
        self.freq = FreqMoEParams.create(config.t_history, config.n_experts)
        self.granularities = [
            GranularityEncoderParams.create(rng, w, s, c, config.d_patch,
                                            config.n_heads)
            for w, s in config.resolved_granularities()
        ]
        self.fusion = FusionParams.create(rng, len(self.granularities),
                                          config.d_patch, c)
        self.spatial = AttentionBlockParams.create(rng, c, config.n_heads)
        self.decoder = DecoderParams.create(rng, c, config.n_heads,
                                            config.n_modes, config.t_future)

    # -- parameter registry ---------------------------------------------------

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        out.update(self.embed.named("embed"))
        out.update(self.embed_ln.named("embed_ln"))
        out.update(self.freq.named("freq"))
        for i, g in enumerate(self.granularities):
            out.update(g.named(f"granularity{i}"))
        out.update(self.fusion.named("fusion"))
        out.update(self.spatial.named("spatial"))
        out.update(self.decoder.named("decoder"))
        return out

    # -- forward --------------------------------------------------------------

    def forward(self, hist: np.ndarray, agent_valid: np.ndarray,
                target_idx: np.ndarray) -> tuple[Tensor, Tensor]:
        """Predict for a batch of target frames.

        hist: [B, N, T_h, 3] rows of (x, y, valid) in each target's frame;
        agent_valid: [B, N] booleans; target_idx: [B] agent indices.
        Returns trajs [B, K, T_f, 2] and probs [B, K], local frame.
        """
        hist = np.asarray(hist, dtype=np.float64)
        B, N, T, _ = hist.shape
        if T != self.config.t_history:
            raise ValueError(f"forward: history length {T} != configured "
                             f"{self.config.t_history}")

        feats = hist.copy()
        feats[..., 0] *= feats[..., 2] * INPUT_SCALE      # invalid steps carry
        feats[..., 1] *= feats[..., 2] * INPUT_SCALE      # no coordinates
        x = Tensor(feats.reshape(B * N, T, 3))

        emb = self.embed_ln(self.embed(x))                # [B*N, T, C]
        filtered = moe_filter(emb, self.freq)
        summaries = [encode_granularity(filtered, g) for g in self.granularities]
        nodes = fuse_granularities(summaries, self.fusion)
        nodes = nodes.reshape(B, N, self.config.channels)

        e_a = ssam(nodes, agent_valid, self.spatial)      # [B, N, C]
        return decode(e_a, np.asarray(target_idx), self.decoder,
                      self.config.refine_rounds, validity=agent_valid)

    def forward_frames(self, frames: list[TargetFrame]) -> tuple[Tensor, Tensor]:
        hist, valid, targets = pack_frames(frames, self.config.t_history)
        return self.forward(hist, valid, targets)

    # -- inference ------------------------------------------------------------

    def predict_scenario(self, scenario: Scenario) -> list[tuple[int, PredictionSet]]:
        """Global-frame prediction sets for every target in the scenario."""
        norm = normalize(scenario)
        if not norm.frames:
            return []
        trajs, probs = self.forward_frames(norm.frames)
        out = []
        for i, frame in enumerate(norm.frames):
            local = PredictionSet(trajs=Tensor(trajs.data[i]), probs=Tensor(probs.data[i]))
            out.append((frame.target_index, denormalize(local, frame)))
        return out

    def predict_scenarios(self, scenarios: list[Scenario]) -> list[tuple[str, int, PredictionSet]]:
        """(scenario id, target, prediction) records, each prediction checked by
        `check_prediction` and carrying its scene's sha256; other horizons are
        refused before any scene is predicted."""
        check_horizons(scenarios, self.config)
        records = []
        for s in scenarios:
            digest = scenario_sha256(s)
            for target, p in self.predict_scenario(s):
                check_prediction(p, f"scenario {s.scenario_id!r} target {target}:")
                records.append((s.scenario_id, target, PredictionSet(p.trajs, p.probs, digest)))
        return records


def check_horizons(scenarios: list[Scenario], config: ModelConfig) -> None:
    """Reject, by scenario, horizons that differ from the model's."""
    model = (config.t_history, config.t_future)
    for s in scenarios:
        if (s.t_history, s.t_future) != model:
            raise ValueError(f"scenario {s.scenario_id}: horizons ({s.t_history}, "
                             f"{s.t_future}) do not match the model {model}")


def pack_frames(frames: list[TargetFrame],
                t_history: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack target frames into batch arrays, padding agent counts."""
    if not frames:
        raise ValueError("pack_frames: empty frame list")
    n_max = max(f.history.shape[0] for f in frames)
    B = len(frames)
    hist = np.zeros((B, n_max, t_history, 3))
    valid = np.zeros((B, n_max), dtype=bool)
    targets = np.zeros(B, dtype=np.int64)
    for i, f in enumerate(frames):
        n = f.history.shape[0]
        if f.history.shape[1] != t_history:
            raise ValueError(f"pack_frames: frame history length "
                             f"{f.history.shape[1]} != {t_history}")
        hist[i, :n] = f.history
        valid[i, :n] = f.agent_valid
        targets[i] = f.target_index
    return hist, valid, targets
