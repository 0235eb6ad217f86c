"""Multi-granularity temporal patching and fusion into one history node.

The filtered history [B, T, C] is cut into overlapping windows at several
granularities (small windows catch local wiggles, the full-length window the
overall trend). Each window is flattened, projected to the patch hidden
size, tagged with a sinusoidal position code, and summarized by selective
attention through a learnable summary token prepended at position 0. Only
the token queries (tsam's summary-only mode): it reads every patch, and no
patch output is computed. The per-granularity summaries are concatenated and
fused by a two-layer MLP into the [B, C] node handed to the spatial stage.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .attention import AttentionBlockParams, tsam
from .nn import Linear, Mlp, Module
from .tensor import Tensor, broadcast_to, concat, windows


def patch_count(t_len: int, window: int, stride: int) -> int:
    return (t_len - window) // stride + 1


def patchify(x: Tensor, window: int, stride: int) -> Tensor:
    """Overlapping flattened windows: [B, T, C] -> [B, P, window*C].

    Patch j covers timesteps [j*stride, j*stride + window); trailing steps
    that do not fill a window are dropped.
    """
    T = x.shape[1]
    if window > T:
        raise ValueError(f"patchify: window {window} exceeds sequence length {T}")
    if stride < 1:
        raise ValueError(f"patchify: stride must be >= 1, got {stride}")
    return windows(x, range(0, T - window + 1, stride), window)


@functools.lru_cache(maxsize=None)
def sinusoidal_encoding(length: int, dim: int) -> np.ndarray:
    """Standard sin/cos position table, [length, dim]; built once per shape, read-only."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    table.flags.writeable = False
    return table


@dataclass
class GranularityEncoderParams(Module):
    window: int
    stride: int
    proj: Linear                   # window*C -> D_p
    token: Tensor                  # [1, D_p] summary token
    block: AttentionBlockParams    # causal attention over P+1 positions

    @staticmethod
    def create(rng: np.random.Generator, window: int, stride: int,
               in_channels: int, d_patch: int, n_heads: int) -> "GranularityEncoderParams":
        return GranularityEncoderParams(
            window=window,
            stride=stride,
            proj=Linear.create(rng, window * in_channels, d_patch),
            token=Tensor(rng.normal(scale=0.02, size=(1, d_patch)), requires_grad=True),
            block=AttentionBlockParams.create(rng, d_patch, n_heads),
        )


def encode_granularity(x: Tensor, params: GranularityEncoderParams) -> Tensor:
    """Summarize [B, T, C] at one granularity into [B, D_p] via the token."""
    B = x.shape[0]
    d_patch = params.token.shape[-1]
    emb = params.proj(patchify(x, params.window, params.stride))    # [B, P, D_p]
    tok = broadcast_to(params.token, (B, 1, d_patch))
    seq = concat([tok, emb], axis=1)                                # [B, P+1, D_p]
    seq = seq + Tensor(sinusoidal_encoding(seq.shape[1], d_patch))
    return tsam(seq, params.block, summary_only=True)


@dataclass
class FusionParams(Module):
    mlp: Mlp                       # N_g * D_p -> hidden -> C

    @staticmethod
    def create(rng: np.random.Generator, n_granularities: int, d_patch: int,
               channels: int) -> "FusionParams":
        return FusionParams(mlp=Mlp.create(rng, n_granularities * d_patch,
                                           channels, channels))


def fuse_granularities(summaries: list[Tensor], params: FusionParams) -> Tensor:
    """Concatenate per-granularity summaries and project to the node width."""
    if not summaries:
        raise ValueError("fuse_granularities: no summaries to fuse")
    return params.mlp(concat(summaries, axis=-1))
