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

`selective_attention` records one tape node, not one per op. Its forward
runs the array math of the tape ops it replaces (`tensor`'s `_matmul_data`,
`_softmax_data`, `_sigmoid_data`, `_linear_data`, `_layer_norm_data`) in
their order, so its output has their bits. Its eleven parents are q, k, v,
the gate's fc1/fc2 weights and biases, out_proj's weight and bias, and the
layer norm's gain and bias. One backward runs those ops' VJPs in the order
the tape ran them and adds q's three shares (residual, gate, scores) in the
tape's order, so every gradient keeps its bits as well; `tensor._joint_node`
hands its results out as one VJP per parent.

The forward frees nothing it allocates before the node's output is
dropped. The backward's closure holds what it reads: the head splits, the
masked scores, dense, relu(scores) and sparse, the pair hidden, the gate and
1 - gate, blended, merged, and the layer norm's normalized input and std.
The node holds the rest: the additive mask, the gate's two halves and its
logits, ctx, and the residual sum. Scaling and masking the scores, the
relu of the pair pre-activation, the blend and the residual add run in
place, so it allocates less than the composed ops did, and the backward
masks on hidden > 0, which is the pre-activation's relu mask. Both matter
on predict-crowd, where throughput follows how often the heap is trimmed
and faulted in again within a scene: a forward that frees its
intermediates as it goes re-faults heap pages per scene (ROADMAP's
allocation finding has the measurements).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .nn import LayerNorm, Linear, Mlp, Module
from .tensor import (
    Array,
    Tensor,
    _contiguous,
    _joint_node,
    _layer_norm_data,
    _layer_norm_vjps,
    _linear_data,
    _linear_vjps,
    _matmul_data,
    _matmul_vjps,
    _sigmoid_data,
    _sigmoid_vjp,
    _softmax_data,
    _softmax_vjp,
    _unbroadcast,
)


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


def _gate_pre(q: Array, k: Array, fc1: Linear) -> tuple[Array, Array, Array]:
    """fc1 of concat(q_i, k_j) for every pair: [B, Lq, D], [B, Lk, D] -> [B, Lq, Lk, hidden].

    By linearity this is q_i @ W[:D] + b (once per query) plus k_j @ W[D:]
    (once per key), broadcast-added over the pairs. The two halves are
    returned too, for the attention node to hold.
    """
    B, Lq, D = q.shape
    w = fc1.w.data
    hq = _linear_data(q, w[:D], fc1.b.data)
    hk = _matmul_data(k, w[D:], False)
    return hq.reshape(B, Lq, 1, -1) + hk.reshape(B, 1, k.shape[1], -1), hq, hk


def _gate_first_layer(q: Tensor, k: Tensor, fc1: Linear) -> Tensor:
    """`_gate_pre` on tensors, for inspection: the result is not on the tape."""
    return Tensor(_gate_pre(q.data, k.data, fc1)[0])


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

    One tape node with eleven parents: q, k, v, the gate's fc1/fc2 weights
    and biases, out_proj's weight and bias, and the layer norm's gain and bias.
    """
    squeeze = q.ndim == 2
    qd, kd, vd = (t.data[None] if squeeze else t.data for t in (q, k, v))
    B, Lq, D = qd.shape
    Lk = kd.shape[1]
    H = params.n_heads
    if D % H:
        raise ValueError(f"selective_attention: dim {D} not divisible by {H} heads")
    dh = D // H
    fc1, fc2 = params.gate_mlp.fc1, params.gate_mlp.fc2
    out_proj, ln = params.out_proj, params.ln

    qh = _contiguous(qd.reshape(B, Lq, H, dh).transpose(0, 2, 1, 3))     # [B, H, Lq, dh]
    kt = _contiguous(kd.reshape(B, Lk, H, dh).transpose(0, 2, 3, 1))     # [B, H, dh, Lk]
    vh = _contiguous(vd.reshape(B, Lk, H, dh).transpose(0, 2, 1, 3))

    scale = 1.0 / math.sqrt(dh)
    scores = _matmul_data(qh, kt, False)
    scores *= scale
    additive = None
    if mask is not None or key_mask is not None:
        additive = np.zeros((1, 1, Lq, Lk))
        if mask is not None:
            additive = additive + mask.m
        if key_mask is not None:
            col = np.where(np.asarray(key_mask, dtype=bool), 0.0, -np.inf)
            additive = additive + np.broadcast_to(col, (B, Lk)).reshape(B, 1, 1, Lk)
        scores += additive

    dense = _softmax_data(scores, exact_sum)                # masked cols -> exactly 0
    positive = np.maximum(scores, 0.0)
    sparse = positive * positive                            # -inf -> exactly 0

    # pairwise gate from each (query, key) pair, shared across heads
    hidden, hq, hk = _gate_pre(qd, kd, fc1)                 # [B, Lq, Lk, hidden]
    np.maximum(hidden, 0.0, out=hidden)
    logits = _linear_data(hidden, fc2.w.data, fc2.b.data)
    sig = _sigmoid_data(logits)
    gate = sig.reshape(B, 1, Lq, Lk)
    one_minus = 1.0 - gate

    blended = gate * dense
    blended += one_minus * sparse
    ctx = _matmul_data(blended, vh, exact_sum)              # [B, H, Lq, dh]
    merged = _contiguous(ctx.transpose(0, 2, 1, 3)).reshape(B, Lq, D)
    res = _linear_data(merged, out_proj.w.data, out_proj.b.data)
    res += qd
    out_data, xhat, std = _layer_norm_data(res, ln.gain.data, ln.bias.data)

    def backward(g: Array) -> tuple[Array, ...]:
        # The composed ops' VJPs, in their order; q's three shares add as
        # the tape added them (residual, gate, scores).
        g = g.reshape(B, Lq, D)
        d_res, d_gain, d_bias = (f(g) for f in _layer_norm_vjps(xhat, std, ln.gain.data,
                                                               ln.bias.shape))
        d_merged, d_wo, d_bo = (f(d_res) for f in _linear_vjps(merged, out_proj.w.data,
                                                             out_proj.b.shape))
        d_ctx = _contiguous(d_merged.reshape(B, Lq, H, dh).transpose(0, 2, 1, 3))
        d_blended, d_vh = (f(d_ctx) for f in _matmul_vjps(blended, vh))
        d_gate = (_unbroadcast(d_blended * dense, gate.shape)
                  - _unbroadcast(d_blended * sparse, gate.shape))
        d_z = _sigmoid_vjp(sig, d_gate.reshape(sig.shape))
        d_hidden, d_w2, d_b2 = (f(d_z) for f in _linear_vjps(hidden, fc2.w.data, fc2.b.shape))
        d_pre = d_hidden * (hidden > 0.0)                   # relu's mask, as pre > 0
        d_hq = _unbroadcast(d_pre, (B, Lq, 1, hidden.shape[-1])).reshape(B, Lq, -1)
        d_hk = _unbroadcast(d_pre, (B, 1, Lk, hidden.shape[-1])).reshape(B, Lk, -1)
        d_q_gate, d_w1q, d_b1 = (f(d_hq) for f in _linear_vjps(qd, fc1.w.data[:D],
                                                             fc1.b.shape))
        d_k_gate, d_w1k = (f(d_hk) for f in _matmul_vjps(kd, fc1.w.data[D:]))
        # square's VJP; relu's mask adds nothing, `positive` is 0 where it is
        d_scores = (_softmax_vjp(dense, d_blended * gate)
                    + d_blended * one_minus * 2.0 * positive)
        d_qh, d_kt = (f(d_scores * scale) for f in _matmul_vjps(qh, kt))
        d_q = d_res + d_q_gate + d_qh.transpose(0, 2, 1, 3).reshape(B, Lq, D)
        d_k = d_k_gate + d_kt.transpose(0, 3, 1, 2).reshape(B, Lk, D)
        d_v = d_vh.transpose(0, 2, 1, 3).reshape(B, Lk, D)
        return (d_q.reshape(q.shape), d_k.reshape(k.shape), d_v.reshape(v.shape),
                np.concatenate([d_w1q, d_w1k]), d_b1, d_w2, d_b2, d_wo, d_bo,
                d_gain, d_bias)

    # Arrays the backward does not read, held as long as those it does (see
    # the module docstring): freeing them here re-faults heap pages per scene.
    backward.holds = (additive, hq, hk, logits, ctx, res)
    out = _joint_node(out_data.reshape(q.shape), (q, k, v, fc1.w, fc1.b, fc2.w, fc2.b,
                                                  out_proj.w, out_proj.b, ln.gain, ln.bias),
                      backward)
    if return_scores:
        snap = AttentionScores(dense=dense.copy(), sparse=sparse.copy(),
                               gate=gate.reshape(B, Lq, Lk).copy(), blended=blended.copy())
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
