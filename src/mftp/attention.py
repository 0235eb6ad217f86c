"""Gated dense/sparse selective attention, in temporal, spatial, and cross roles.

Two score matrices are computed from the same scaled dot products: a dense
row-softmax ("every key gets some weight") and a sparse squared-ReLU path
("negative scores vanish, strong ones amplify"). A per-pair sigmoid gate,
produced by a two-layer MLP on each (query, key) pair, blends the two:

    A = G * dense + (1 - G) * sparse

The blended scores weight the values, followed by an output projection,
residual connection, and layer norm. The temporal wrapper (tsam) runs this
causally over a patch sequence with a prepended summary token that may read
every position; in its summary-only mode, which the model uses, only the
token queries and only its row is computed. The spatial wrapper (ssam) runs
it across agents with invalid agents masked out of the keys.

The gate's first layer is linear, so it is applied to each query and each
key once and the two halves are broadcast-added per pair; the [Lq, Lk, 2D]
pair input is never built.

The spatial forward sorts its two sums over keys (softmax denominator and
blended @ v); every other contraction is over channels, and `matmul` rounds
each row alike wherever it sits. So its permutation equivariance over agents
holds bit-exactly, not just to rounding error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import LayerNorm, Linear, Mlp, Module
from .tensor import Tensor, linear, matmul, softmax


@dataclass
class CausalMask:
    """Additive [L, L] mask: 0 where a query may attend, -inf where it may not.

    Row 0 is the summary token and reads the whole sequence; every other row
    i may attend positions j <= i only.
    """
    m: np.ndarray

    @staticmethod
    def create(length: int) -> "CausalMask":
        m = np.full((length, length), -np.inf)
        m[np.tril_indices(length)] = 0.0
        m[0, :] = 0.0
        return CausalMask(m)


@dataclass
class AttentionScores:
    """Diagnostic snapshot of one attention application (numpy copies)."""
    dense: np.ndarray          # [B, H, Lq, Lk]
    sparse: np.ndarray         # [B, H, Lq, Lk]
    gate: np.ndarray           # [B, Lq, Lk]
    blended: np.ndarray        # [B, H, Lq, Lk]


@dataclass
class SelectiveAttentionParams(Module):
    """Gate MLP, output projection, and post-attention layer norm."""
    n_heads: int
    gate_mlp: Mlp = field(metadata={"param": "gate"})     # 2D -> D -> 1, sigmoid outside
    out_proj: Linear = field(metadata={"param": "out"})   # D -> D
    ln: LayerNorm

    @staticmethod
    def create(rng: np.random.Generator, dim: int, n_heads: int) -> "SelectiveAttentionParams":
        return SelectiveAttentionParams(
            n_heads=n_heads,
            gate_mlp=Mlp.create(rng, 2 * dim, dim, 1),
            out_proj=Linear.create(rng, dim, dim),
            ln=LayerNorm.create(dim),
        )


def _gate_first_layer(q: Tensor, k: Tensor, fc1: Linear) -> Tensor:
    """fc1 of concat(q_i, k_j) for every pair: [B, Lq, D], [B, Lk, D] -> [B, Lq, Lk, hidden].

    By linearity this is q_i @ W[:D] + b (once per query) plus k_j @ W[D:]
    (once per key), broadcast-added over the pairs.
    """
    B, Lq, D = q.shape
    Lk = k.shape[1]
    hq = linear(q, fc1.w[:D], fc1.b)
    hk = matmul(k, fc1.w[D:])
    return hq.reshape(B, Lq, 1, -1) + hk.reshape(B, 1, Lk, -1)


def selective_attention(q: Tensor, k: Tensor, v: Tensor,
                        params: SelectiveAttentionParams,
                        mask: CausalMask | None = None,
                        key_mask: np.ndarray | None = None,
                        exact_sum: bool = False,
                        return_scores: bool = False):
    """Blend dense and sparse attention over projected queries/keys/values.

    q: [B, Lq, D] (or [Lq, D]); k, v: [B, Lk, D]. `mask` is an additive
    causal mask over (Lq, Lk); `key_mask` a [Lk] or [B, Lk] validity array
    whose False columns are excluded from both score paths. Returns [B, Lq, D]
    (2-D in, 2-D out), optionally with an AttentionScores snapshot.

    `exact_sum` sorts the two sums over keys (softmax denominator and
    blended @ v), so the output is bit-exactly equivariant to a permutation
    of the keys/queries.
    """
    squeeze = q.ndim == 2
    if squeeze:
        q, k, v = (t.reshape(1, *t.shape) for t in (q, k, v))
    B, Lq, D = q.shape
    Lk = k.shape[1]
    H = params.n_heads
    if D % H:
        raise ValueError(f"selective_attention: dim {D} not divisible by {H} heads")
    dh = D // H

    qh = q.reshape(B, Lq, H, dh).transpose(0, 2, 1, 3)      # [B, H, Lq, dh]
    kt = k.reshape(B, Lk, H, dh).transpose(0, 2, 3, 1)      # [B, H, dh, Lk]
    vh = v.reshape(B, Lk, H, dh).transpose(0, 2, 1, 3)

    scores = matmul(qh, kt) * (1.0 / math.sqrt(dh))
    additive = np.zeros((1, 1, Lq, Lk))
    if mask is not None:
        additive = additive + mask.m
    if key_mask is not None:
        col = np.where(np.asarray(key_mask, dtype=bool), 0.0, -np.inf)
        additive = additive + np.broadcast_to(col, (B, Lk)).reshape(B, 1, 1, Lk)
    if mask is not None or key_mask is not None:
        scores = scores + Tensor(additive)

    dense = softmax(scores, exact_sum=exact_sum)            # masked cols -> exactly 0
    sparse = scores.relu().square()                         # -inf -> exactly 0

    # pairwise gate from each (query, key) pair, shared across heads
    hidden = _gate_first_layer(q, k, params.gate_mlp.fc1).relu()
    gate_h = params.gate_mlp.fc2(hidden).sigmoid().reshape(B, 1, Lq, Lk)

    blended = gate_h * dense + (1.0 - gate_h) * sparse
    ctx = matmul(blended, vh, exact_sum=exact_sum)          # [B, H, Lq, dh]
    merged = ctx.transpose(0, 2, 1, 3).reshape(B, Lq, D)
    out = params.ln(q + params.out_proj(merged))

    if squeeze:
        out = out.reshape(Lq, D)
    if return_scores:
        snap = AttentionScores(dense=dense.data.copy(), sparse=sparse.data.copy(),
                               gate=gate_h.data.reshape(B, Lq, Lk).copy(),
                               blended=blended.data.copy())
        return out, snap
    return out


@dataclass
class AttentionBlockParams(Module):
    """QKV projections + selective attention + feed-forward sublayer."""
    w_q: Linear
    w_k: Linear
    w_v: Linear
    attn: SelectiveAttentionParams
    ffn: Mlp
    ffn_ln: LayerNorm

    @staticmethod
    def create(rng: np.random.Generator, dim: int, n_heads: int) -> "AttentionBlockParams":
        return AttentionBlockParams(
            w_q=Linear.create(rng, dim, dim),
            w_k=Linear.create(rng, dim, dim),
            w_v=Linear.create(rng, dim, dim),
            attn=SelectiveAttentionParams.create(rng, dim, n_heads),
            ffn=Mlp.create(rng, dim, 2 * dim, dim),
            ffn_ln=LayerNorm.create(dim),
        )


def _block(x_q: Tensor, x_kv: Tensor, params: AttentionBlockParams,
           mask: CausalMask | None, key_mask: np.ndarray | None,
           exact_sum: bool = False) -> Tensor:
    h = selective_attention(params.w_q(x_q), params.w_k(x_kv), params.w_v(x_kv),
                            params.attn, mask=mask, key_mask=key_mask,
                            exact_sum=exact_sum)
    return params.ffn_ln(h + params.ffn(h))


def tsam(patches: Tensor, params: AttentionBlockParams,
         summary_only: bool = False) -> Tensor:
    """Causal selective attention over a patch sequence with summary token at 0.

    patches: [P+1, D] or [B, P+1, D] with P >= 1; output has the same shape.
    Non-token outputs depend only on positions up to their own index.

    With `summary_only`, only the token queries, as in CaiT's class attention:
    the output is the token's row alone, [D] or [B, D], bit for bit the
    default output's row 0. The patch rows are never computed.
    """
    if summary_only:
        # Two query rows, not one: numpy runs a one-row product as gemv, which
        # rounds unlike the gemm of the full path, while row 0 of a two-row
        # gemm rounds as row 0 of a taller one. Row 1 is a dummy query. Rows
        # never mix in the forward pass, and row 1's output is dropped, so its
        # gradient is exactly zero and it needs no causal mask.
        return _block(patches[..., :2, :], patches, params, None, None)[..., 0, :]
    length = patches.shape[-2]
    return _block(patches, patches, params, CausalMask.create(length), None)


def ssam(agents: Tensor, validity: np.ndarray | None,
         params: AttentionBlockParams) -> Tensor:
    """Selective attention across agents; invalid agents never serve as keys.

    agents: [N, C] or [B, N, C]; validity: matching [N] / [B, N] booleans or
    None for all-valid. Equivariant to agent permutation, bit-exactly.
    """
    return _block(agents, agents, params, None, validity, exact_sum=True)


def cross_attention(queries: Tensor, context: Tensor, validity: np.ndarray | None,
                    params: AttentionBlockParams) -> Tensor:
    """Selective cross attention: mode queries over agent context."""
    return _block(queries, context, params, None, validity)
