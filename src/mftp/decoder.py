"""Multimodal trajectory decoder with iterative selective cross attention.

K learnable mode tokens are added to the target agent's interactive
embedding to form K mode queries. Each refinement round lets every query
cross-attend over all agents' embeddings and pass through a feed-forward
update (the same weights every round). A linear head then emits per-step
displacements, accumulated into positions, and a classification head scores
the modes. Modes never attend to each other, so perturbing one mode token
can only move that mode's trajectory. `mode_distances` is the one rule that
measures a mode against ground truth, for training's winner and every metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import AttentionBlockParams, cross_attention
from .data import TargetFrame
from .nn import Linear, Module
from .tensor import Tensor, cumsum, softmax

PROB_SUM_TOL = 1e-6   # one target's probabilities must sum to 1 within this


@dataclass
class PredictionSet:
    """K candidate futures with mode probabilities, for one target or a batch."""
    trajs: Tensor              # [K, T_f, 2] or [B, K, T_f, 2], meters
    probs: Tensor              # [K] or [B, K], nonnegative, sums to 1
    scenario_sha256: str | None = None   # `data.scenario_sha256` of the scene predicted on

    @property
    def num_modes(self) -> int:
        return self.trajs.shape[-3]


def check_prediction(pred: PredictionSet, where: str) -> None:
    """Raise ValueError, starting with `where` (the caller's prefix and separator),
    unless `pred` is one target's [K, T, 2] trajectories, every value finite, with
    one finite, non-negative probability per mode summing to 1 within PROB_SUM_TOL."""
    trajs, probs = pred.trajs.data, pred.probs.data
    if trajs.ndim != 3 or trajs.shape[-1] != 2:
        raise ValueError(f"{where} trajectories must be [K, T, 2]")
    if probs.shape != trajs.shape[:1]:
        raise ValueError(f"{where} has {probs.size} probabilities for {trajs.shape[0]} modes")
    bad = np.flatnonzero(~(np.isfinite(probs) & (probs >= 0.0)))
    if bad.size:
        raise ValueError(f"{where} mode {bad[0]} probability {float(probs[bad[0]])!r} "
                         f"is not finite and non-negative")
    if abs(probs.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{where} probabilities sum to {float(probs.sum())!r}, not 1")
    bad = np.argwhere(~np.isfinite(trajs))
    if bad.size:
        mode, step = int(bad[0][0]), int(bad[0][1])
        endpoint = " (non-finite min_fde)" if step == trajs.shape[1] - 1 else ""
        raise ValueError(f"{where} mode {mode} step {step} of the trajectory is "
                         f"non-finite{endpoint}")


def mode_distances(trajs: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """The [..., K, T] L2 distances of trajectories [..., K, T, 2] from ground
    truth [..., T, 2], step by step."""
    return np.linalg.norm(trajs - gt[..., None, :, :], axis=-1)


@dataclass
class DecoderParams(Module):
    tokens: Tensor             # [K, C] learnable mode tokens
    cross: AttentionBlockParams
    traj_head: Linear          # C -> T_f * 2 displacement offsets
    cls_head: Linear           # C -> 1 mode logit

    @staticmethod
    def create(rng: np.random.Generator, channels: int, n_heads: int,
               n_modes: int, t_future: int) -> "DecoderParams":
        return DecoderParams(
            tokens=Tensor(rng.normal(scale=0.02, size=(n_modes, channels)),
                          requires_grad=True),
            cross=AttentionBlockParams.create(rng, channels, n_heads),
            traj_head=Linear.create(rng, channels, t_future * 2),
            cls_head=Linear.create(rng, channels, 1),
        )

    @property
    def n_modes(self) -> int:
        return self.tokens.shape[0]


def decode(e_a: Tensor, target_index, params: DecoderParams, rounds: int,
           validity: np.ndarray | None = None) -> tuple[Tensor, Tensor]:
    """Decode agent embeddings into K futures for the target agent(s).

    e_a: [N, C] with int target_index, or [B, N, C] with [B] indices.
    Returns (trajs, probs): [K, T_f, 2] and [K] (leading B when batched).
    Positions are cumulative sums of the emitted per-step displacements.
    """
    if rounds < 1:
        raise ValueError(f"decode: refinement rounds must be >= 1, got {rounds}")
    squeeze = e_a.ndim == 2
    if squeeze:
        e_a = e_a.reshape(1, *e_a.shape)
        target_index = np.asarray([target_index])
    else:
        target_index = np.asarray(target_index)
    B, N, C = e_a.shape
    if np.any(target_index < 0) or np.any(target_index >= N):
        raise ValueError(f"decode: target index out of range for {N} agents")
    K = params.n_modes

    target = e_a[np.arange(B), target_index]                 # [B, C]
    queries = target.reshape(B, 1, C) + params.tokens         # [B, K, C]
    for _ in range(rounds):
        queries = cross_attention(queries, e_a, validity, params.cross)

    t2 = params.traj_head.w.shape[-1]
    offsets = params.traj_head(queries).reshape(B, K, t2 // 2, 2)
    trajs = cumsum(offsets, axis=2)                          # [B, K, T_f, 2]
    logits = params.cls_head(queries).reshape(B, K)
    probs = softmax(logits)                                  # [B, K]

    if squeeze:
        return trajs[0], probs[0]
    return trajs, probs


def denormalize(pred: PredictionSet, frame: TargetFrame) -> PredictionSet:
    """Rigidly map a local-frame prediction back to global coordinates."""
    return PredictionSet(trajs=Tensor(frame.to_global(pred.trajs.data)),
                         probs=Tensor(pred.probs.data.copy()))
